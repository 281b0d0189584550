"""Direct dense solve, precomputed-inverse fast path, and field recovery.

The online cost of the precomputed path is two dense matrix-vector
products: the system inverse is taken offline; online, the stored
builder matrix folds new boundary values into a right-hand side, and
the inverse maps that to the mixed unknown vector.
"""

from __future__ import annotations

import csv
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
from .mesh import SurfaceMesh


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


def _checked_lu(a):
    """LU-factorise and reject matrices singular to working precision.

    scipy warns on exactly-zero pivots; the explicit pivot check below
    turns that condition into a typed error carrying the pivot index.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("system matrix contains non-finite entries")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a)
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


@dataclass
class PrecomputedOperator:
    """Offline-inverted system for realtime reuse.

    Stores the explicit inverse of the system matrix, the
    right-hand-side builder matrix and the swap record fixing which DOF
    kinds the operator was built for. Geometry and BC kinds must not
    change between precompute and apply; only values may.
    """

    matrix: np.ndarray  # the inverse of the system matrix
    rhs: np.ndarray
    displacement_known: np.ndarray

    @property
    def n_dofs(self):
        return self.matrix.shape[0]

    @classmethod
    def build(cls, hg: InfluenceMatrices, bc: BoundarySpec):
        system = apply_boundary_conditions(hg, bc)
        # C-contiguous storage so the online matvec takes the same BLAS
        # path before and after save/load (bit-identical reuse)
        return cls(
            np.ascontiguousarray(precompute_inverse(system.a)),
            np.ascontiguousarray(rhs_matrix(hg, bc)),
            bc.displacement_known.copy(),
        )

    def rebuild_rhs(self, values):
        return self.rhs @ np.asarray(values, dtype=float)

    def apply_to_rhs(self, b):
        return self.matrix @ b

    def save(self, directory):
        """Persist to a directory: two binary matrix dumps plus a JSON
        record of the BC kinds."""
        os.makedirs(directory, exist_ok=True)
        write_matrix(os.path.join(directory, "a_inv.mat"), self.matrix)
        write_matrix(os.path.join(directory, "rhs.mat"), self.rhs)
        record = {
            "n_dofs": int(self.n_dofs),
            "displacement_known_indices": np.flatnonzero(
                self.displacement_known
            ).tolist(),
        }
        with open(os.path.join(directory, "bc_kinds.json"), "w") as f:
            json.dump(record, f)

    @classmethod
    def load(cls, directory):
        """Read a saved operator, rejecting a directory whose matrices do
        not match each other and the recorded DOF count, or whose BC
        record is incomplete or names a DOF outside [0, n_dofs)."""
        matrix = read_matrix(os.path.join(directory, "a_inv.mat"))
        rhs = read_matrix(os.path.join(directory, "rhs.mat"))
        with open(os.path.join(directory, "bc_kinds.json")) as f:
            record = json.load(f)
        if "pivots" in record:
            # LU factors read as an inverse would give wrong answers
            raise ValueError(f"{directory}: holds LU factors, not an inverse")
        try:
            n = record["n_dofs"]
            known = np.asarray(record["displacement_known_indices"])
        except KeyError as exc:
            raise ValueError(f"{directory}: bc_kinds.json has no {exc} entry") from None
        if matrix.shape != rhs.shape:
            raise ValueError(
                f"{directory}: a_inv.mat is {matrix.shape} but rhs.mat is {rhs.shape}"
            )
        if matrix.shape != (n, n):
            raise ValueError(
                f"{directory}: matrices are {matrix.shape}, expected ({n}, {n}) "
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
        return cls(matrix, rhs, disp)


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
    b = op.rebuild_rhs(new_bc.values)
    x = op.apply_to_rhs(b)
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
