"""Direct dense solve, precomputed Green's-function fast path, and field
recovery.

The precomputed path solves the system offline against the
right-hand-side builder R (b = R @ values), which gives M = A^-1 R: the
mixed unknown vector for a unit value at each DOF, one Green's function
per DOF (James & Pai, "ArtDefo", SIGGRAPH 1999). Online, x = M @ values
reads only the columns of M at the nonzero values, so a load on a few
DOFs costs a few rows of memory traffic; a load on many DOFs takes one
dense product.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import (
    BoundarySpec,
    InfluenceMatrices,
    LinearSystem,
    apply_boundary_conditions,
    read_matrix,
    rhs_matrix,
    write_matrix,
)
from .errors import BoundaryConditionError, SingularSystemError, StaleOperatorError
from .kernels import Material
from .mesh import SurfaceMesh

# Share of nonzero values above which an apply makes one dense product
# instead of gathering rows. Measured at 3000 DOF with a cold cache on a
# 2-vCPU VM: the dense product 3.5 ms; gathering 1/8 of the rows 2.4 ms,
# 1/5 of them 3.6 ms and all of them 34 ms, so the two cross near 1/5.
DENSE_SHARE = 1 / 5
# Layout of a saved operator; an unversioned directory holds the older
# explicit inverse and right-hand-side builder.
OPERATOR_FORMAT = 2


@dataclass
class Solution:
    """Full boundary field: displacement and traction at every DOF.

    ``displacement_known[d]`` records provenance: True means u_d was
    prescribed and t_d solved, False the reverse.
    """

    u: np.ndarray  # (3N,), mm
    t: np.ndarray  # (3N,), N/mm^2
    displacement_known: np.ndarray  # (3N,) bool

    @property
    def n_dofs(self):
        return self.u.shape[0]

    @property
    def n_elements(self):
        return self.u.shape[0] // 3


def _checked_lu(a, overwrite_a=False):
    """LU-factorise and reject matrices singular to working precision.

    With ``overwrite_a`` a Fortran-ordered ``a`` is factorised in its own
    memory, which then holds the factors. scipy warns on exactly-zero
    pivots; the explicit pivot check below turns that condition into a
    typed error carrying the pivot index.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("system matrix contains non-finite entries")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=overwrite_a)
    diag = np.abs(np.diag(lu))
    tol = a.shape[0] * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    bad = np.flatnonzero(diag <= tol)
    if bad.size:
        raise SingularSystemError(int(bad[0]))
    return lu, piv


def solve_direct(system: LinearSystem):
    """Solve A x = b by dense LU with partial pivoting."""
    lu, piv = _checked_lu(system.a)
    return scipy.linalg.lu_solve((lu, piv), system.b)


def scatter_solution(x, bc: BoundarySpec) -> Solution:
    """Distribute the mixed unknown vector back into (u, t) fields."""
    x = np.asarray(x, dtype=float)
    if x.shape != bc.values.shape:
        raise BoundaryConditionError(
            f"unknown vector length {x.shape} does not match spec {bc.values.shape}"
        )
    disp = bc.displacement_known
    u = np.where(disp, bc.values, x)
    t = np.where(disp, x, bc.values)
    return Solution(u, t, disp.copy())


def solve(hg: InfluenceMatrices, bc: BoundarySpec) -> Solution:
    """Assembled matrices + boundary spec -> full boundary field."""
    system = apply_boundary_conditions(hg, bc)
    x = solve_direct(system)
    return scatter_solution(x, bc)


def precompute_inverse(a):
    """Explicit inverse of the system matrix, for the offline stage."""
    lu, piv = _checked_lu(a)
    return scipy.linalg.lu_solve((lu, piv), np.eye(a.shape[0]))


def problem_fingerprint(mesh: SurfaceMesh, material: Material):
    """sha256 of the mesh vertices and the material constants.

    Vertices are hashed at float32, the precision an STL file stores, so
    a generated mesh and the same mesh read back from STL share one
    fingerprint.
    """
    digest = hashlib.sha256(np.ascontiguousarray(mesh.vertices, dtype="<f4").tobytes())
    digest.update(np.array([material.e, material.nu], dtype="<f8").tobytes())
    return digest.hexdigest()


@dataclass
class PrecomputedOperator:
    """Offline-solved system for realtime reuse.

    ``greens`` is M^T for M = A^-1 R, where A is the system matrix and R
    the right-hand-side builder (:func:`rhs_matrix`), stored C-contiguous
    so that row d is the mixed unknown vector for a unit value at DOF d
    and zero elsewhere: one Green's function per DOF. Online, x = M v
    reads only the rows of the nonzero values v. ``displacement_known``
    fixes the BC kinds the operator was built for, and ``fingerprint``,
    when set, the mesh and material (:func:`problem_fingerprint`).
    Geometry and BC kinds must not change between precompute and
    apply; only values may.
    """

    # (n, n) M^T; C-contiguous, as load returns it, so an apply takes the
    # same BLAS path before and after save/load (bit-identical reuse)
    greens: np.ndarray
    displacement_known: np.ndarray
    fingerprint: str | None = None

    @property
    def n_dofs(self):
        return self.greens.shape[0]

    @classmethod
    def build(cls, hg: InfluenceMatrices, bc: BoundarySpec, fingerprint=None):
        """Factor A once and solve it against R, both in place on
        Fortran-ordered copies, so the solution's transpose is the
        C-contiguous M^T; R is made only after the C-ordered A is freed,
        so at most two N x N arrays exist beside H and G. A itself is
        factored, not A^T: its columns mix the scales of H and G, and
        row pivoting, as in :func:`solve_direct`, is blind to that."""
        a = np.asfortranarray(apply_boundary_conditions(hg, bc).a)
        lu_piv = _checked_lu(a, overwrite_a=True)
        m = scipy.linalg.lu_solve(
            lu_piv, rhs_matrix(hg, bc), overwrite_b=True, check_finite=False
        )
        return cls(m.T, bc.displacement_known.copy(), fingerprint)

    def rebuild_rhs(self, values):
        """The load as :meth:`apply_to_rhs` reads it: the indices of the
        nonzero values and those values, or, when more than
        ``DENSE_SHARE`` of the values are nonzero, every row and every
        value."""
        values = np.asarray(values, dtype=float)
        rows = np.flatnonzero(values)
        if rows.size > DENSE_SHARE * values.size:
            return slice(None), values
        return rows, values[rows]

    def apply_to_rhs(self, load):
        """x = sum of v_d M^T[d] over the load's rows."""
        rows, v = load
        return v @ self.greens[rows]

    def save(self, directory):
        """Persist to a directory: ``greens.mat``, a binary matrix dump
        of M^T, and ``bc_kinds.json``, a JSON record of the format
        version, the BC kinds and the fingerprint."""
        os.makedirs(directory, exist_ok=True)
        write_matrix(os.path.join(directory, "greens.mat"), self.greens)
        record = {
            "format": OPERATOR_FORMAT,
            "n_dofs": int(self.n_dofs),
            "displacement_known_indices": np.flatnonzero(
                self.displacement_known
            ).tolist(),
            "fingerprint": self.fingerprint,
        }
        with open(os.path.join(directory, "bc_kinds.json"), "w") as f:
            json.dump(record, f)

    @classmethod
    def load(cls, directory):
        """Read a saved operator, rejecting a directory of another format
        version (an unversioned one holds an explicit inverse and
        ``rhs.mat``), a matrix that does not match the recorded DOF count,
        and a record that is incomplete or names a DOF outside
        [0, n_dofs)."""
        with open(os.path.join(directory, "bc_kinds.json")) as f:
            record = json.load(f)
        version = record.get("format")
        if version != OPERATOR_FORMAT:
            found = "no format version" if version is None else f"format {version!r}"
            raise ValueError(
                f"{directory}: operator has {found}, expected format "
                f"{OPERATOR_FORMAT}; precompute it again"
            )
        try:
            n = record["n_dofs"]
            known = np.asarray(record["displacement_known_indices"])
        except KeyError as exc:
            raise ValueError(f"{directory}: bc_kinds.json has no {exc} entry") from None
        greens = read_matrix(os.path.join(directory, "greens.mat"))
        if greens.shape != (n, n):
            raise ValueError(
                f"{directory}: greens.mat is {greens.shape}, expected ({n}, {n}) "
                f"for {n} DOFs"
            )
        if known.size and (
            known.ndim != 1 or known.dtype.kind != "i" or known.min() < 0 or known.max() >= n
        ):
            raise ValueError(
                f"{directory}: displacement-known DOFs must be integers in [0, {n})"
            )
        disp = np.zeros(n, dtype=bool)
        disp[known.astype(int)] = True
        return cls(greens, disp, record.get("fingerprint"))


def apply_precomputed(op: PrecomputedOperator, new_bc: BoundarySpec) -> Solution:
    """Solve for new boundary values through the stored operator.

    The new spec must prescribe the same kinds at every DOF as the one
    the operator was built from; anything else means the geometry/BC
    structure changed and the operator is stale.
    """
    if new_bc.n_dofs != op.n_dofs or not np.array_equal(
        new_bc.displacement_known, op.displacement_known
    ):
        raise StaleOperatorError(
            "boundary-condition kinds differ from the precomputed record"
        )
    x = op.apply_to_rhs(op.rebuild_rhs(new_bc.values))
    return scatter_solution(x, new_bc)


def equilibrium_residual(sol: Solution, mesh: SurfaceMesh):
    """Net force sum t_e * area_e over all elements (should vanish for a
    body in equilibrium, up to discretisation error)."""
    t = sol.t.reshape(-1, 3)
    if t.shape[0] != mesh.n_elements:
        raise ValueError("solution and mesh sizes differ")
    return mesh.areas @ t


def solution_to_csv(sol: Solution, mesh: SurfaceMesh, path=None):
    """Per-element record: id, centroid, u vector, t vector."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["element", "cx", "cy", "cz", "ux", "uy", "uz", "tx", "ty", "tz"]
    )
    u = sol.u.reshape(-1, 3)
    t = sol.t.reshape(-1, 3)
    for i in range(mesh.n_elements):
        c = mesh.centroids[i]
        writer.writerow(
            [i]
            + [f"{v:.17g}" for v in c]
            + [f"{v:.17g}" for v in u[i]]
            + [f"{v:.17g}" for v in t[i]]
        )
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text
