"""Direct dense solve, precomputed Green's-function fast path, and field
recovery.

The direct solve factors A once in single precision and refines the
answer in double: each step takes the residual r = b - A x in float64,
read from H's and G's columns (A is a view of them,
:class:`~tribem.assembly.SystemMatrix`), and adds the single-precision
solve of A d = r, until
max|r| is within ``REFINE_TOL`` of max|b|, the level the double LU
itself leaves (Langou et al., SC 2006; Buttari et al., IJHPCA 2007;
LAPACK dsgesv). The single-precision LU costs about half the time
and memory of the double one. H and G are column-major from assembly,
the layout LAPACK reads, so A's float32 copy is a plain cast of their
columns, run by run, and the precomputed path factors a dense copy of
A in place. A system that single precision
cannot decide -- a pivot at its rounding level, or a residual that
does not shrink, or shrinks too slowly to reach the tolerance within
``REFINE_STEPS`` steps, or a tolerance below the float64 residual's own
rounding -- is solved by the double LU instead, so singular and
ill-conditioned systems meet the same checks as before.

The precomputed path solves the system offline against the
right-hand-side builder R (b = R @ values), which gives M = A^-1 R: the
mixed unknown vector for a unit value at each DOF, one Green's function
per DOF (James & Pai, "ArtDefo", SIGGRAPH 1999). Online, x = M @ values
reads only the columns of M at the nonzero values, so a load on a few
DOFs costs a few rows of memory traffic; a load on many DOFs takes one
dense product. It factors in double precision: against one right-hand
side per DOF, refinement would cost as much as the factorisation.

BLAS threads: a direct solve below ``SINGLE_THREAD_DOFS`` (1500) runs on
one BLAS thread (:mod:`tribem._blas`), larger ones on the libraries' own
count. On a 2-vCPU VM, medians of 15-21 solves of cube systems
alternating with a numpy product: one thread took 0.84 ms against 1.5
ms threaded at 288 DOF and 4.7 against 6.7 ms at 648; the two tied
within the noise at 1152 and 1800 (20-28 and 75-95 ms); threads won
from 2592 on (min 136 against 147 ms) and by 1.6x at 7200. A threaded
small solve also woke scipy's OpenBLAS pool, whose threads then spun on
a core into the next request's assembly. The thread count changes the
LU's rounding, so the size alone decides: a system solves bit for bit
the same wherever it was assembled. The precomputed path keeps the
libraries' count. A large solve and the precomputed build hold the
lock the pins hold, so no other thread's pin changes the count while
they run and a concurrent small solve cannot change their rounding.

Nothing joins a BLAS pool that a caller left spinning. After a threaded
call an OpenBLAS worker busy-waits ~0.13 s before it sleeps, and
setting the count does not stop one already spinning, so a caller's
threaded numpy product right before a large solve takes a core from
it. tribem's own requests make no such product: box-regrasp's check
``system.a @ x`` runs on scipy's BLAS
(:class:`~tribem.assembly.SystemMatrix`). Large operations used to
start by joining numpy's pool, which served only that case. On the
3000-DOF box at q=4 on a 2-vCPU VM, in 12 alternating pairs of
processes, medians of each process's median regrasp
(:func:`apply_boundary_conditions` + :func:`solve_direct`, 10 per
case), joining against not:

- each regrasp right after the caller's numpy ``H @ v``: 128 against
  195 ms, slower without the join in 12 of 12 pairs;
- with nothing before it: 134 against 143 ms, lower without it in 6 of
  12, inside the spread between processes (quartiles 123-148 against
  122-155 ms).

No float64 A is kept or built at any size: A is a view of H and G,
and only the double-LU fallback and the precomputed build copy it
(:meth:`~tribem.assembly.SystemMatrix.dense`). Building it had cost
box-regrasp a fresh 72 MB array and ~16-23 ms per request at 3000 DOF.

Below the same gate each thread keeps the float32 copy of its last
small system from :func:`solve_direct`, and the distributed run keeps
H, G and its sweep buffers beside it (:func:`working_array`). Its next
request of that size reuses their memory instead of faulting in new
pages, which glibc would otherwise hand back to the OS after each
request. No array returned to a caller refers to a kept one. At or
above the gate a thread keeps nothing: at 3000 DOF a kept float32 copy
would hold 36 MB per thread.

The process keeps one array at or above the gate: the float32 copy of
A that ``sgetrf`` factors in place, 36 MB at 3000 DOF, of the last
size solved there. Every :func:`solve_direct` holds the lock of
:mod:`tribem._blas` for its whole run, so the lock owns the buffer,
not a thread, and no two solves write it at once. A solve of another
size replaces it, logging one DEBUG line, as its first allocation
does, and a forked child drops it. The cast and the column scales are
one pass over column blocks that stay in L2 (``_CAST_BLOCK_BYTES``),
each block cast from H's and -G's columns and its scales read from the
float32 block just written; the timings are in :func:`solve_direct`.

Huge pages, read from the process's own ``/proc/self/smaps`` on that VM
(transparent huge pages on ``madvise``, which numpy requests for large
arrays): the mappings spanning the kept buffer at 3000 DOF held
32.0-34.0 MiB of ``AnonHugePages`` of 34.3 MiB resident after each of
three solves in two processes, a fresh 36 MB float32 array 32.0 of
34.3 MiB, a dense float64 A 66.0 of 68.7 MiB, and box-haptic's
operator M^T and H 68.0 of 68.7 MiB each. numpy advises only the 2 MiB-aligned part of an
allocation, so an array's first page lies in a mapping of its own that
reads 0 kB: that mapping alone, or the system-wide ``AnonHugePages``
of ``/proc/meminfo`` (0 kB on that VM), shows none. So page size does
not tell a kept buffer from a fresh one; reuse saves the fresh pages'
faults and zeroing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from . import _blas
from .assembly import (
    BoundarySpec,
    InfluenceMatrices,
    LinearSystem,
    SystemMatrix,
    apply_boundary_conditions,
    read_matrix,
    rhs_matrix,
    write_matrix,
)
from .errors import BoundaryConditionError, SingularSystemError, StaleOperatorError
from .kernels import Material
from .mesh import SurfaceMesh

# Share of nonzero values above which an apply makes one dense product
# instead of one axpy per loaded row. Measured at 3000 DOF with a cold
# cache on a 2-vCPU VM, medians of 25-41 applies: the dense product
# 2.9-3.7 ms at any share; axpys over scattered rows 0.29 ms for 51 rows,
# 2.1-2.2 ms for 600, 2.6-3.2 ms for 900, 3.7-4.3 ms for 1200 and 10 ms
# for all of them, and over whole elements' rows within 20% of that, so
# the two cross near 3/10.
DENSE_SHARE = 3 / 10
# Layout of a saved operator; an unversioned directory holds the older
# explicit inverse and right-hand-side builder.
OPERATOR_FORMAT = 2
# Single-precision solves solve_direct makes before it factors in double
# instead. The 288-DOF cube takes three, the 3000-DOF box three or four
# with the BCs of the box workloads, and cubes of 216 and 384 elements
# four or five. LAPACK's dsgesv allows 30, but at 3000 DOF a step (one
# float32 solve, ~3-4 ms, and one float64 dgemv, ~3.5-9 ms) costs ~6-12
# ms against ~150 ms saved by the single-precision LU, so twenty more
# steps would cost about as much as they save.
REFINE_STEPS = 10
# Refinement stops at max|b - A x| <= REFINE_TOL * max|b|. The double LU
# leaves 2.0-3.6e-15 of max|b| on the cube and the box, and the float64
# residual's own rounding floor there is 3e-16 to 1e-15. That floor
# measured 0.9 to 23 times eps/2 max|a_ij x_j| on BEM and random systems,
# so refinement gives up once eps/2 max|a_ij x_j| exceeds the tolerance,
# i.e. max|a_ij x_j| > 32 max|b|: random systems of condition 1e4 and
# above get there, while BEM systems of 24 to 3000 elements stay below
# 8 max|b|.
REFINE_TOL = 16 * np.finfo(float).eps
# solve_direct solves systems below this many DOFs with one BLAS thread,
# and a thread keeps the working set of such small systems (see
# working_array); the measured crossover is in the module docstring
SINGLE_THREAD_DOFS = 1500

# The float32 copy of A is written, and its column scales taken, one
# block of this many bytes of float32 columns at a time: the block and
# its float64 source fit in a core's 2 MiB L2, so the block is still
# there when its scales are read. Inside box-regrasp solves at 3000 DOF
# on a 2-vCPU VM, the sizes interleaved, medians of 7 passes in each of
# two processes: 11.7-13.8 ms at 256 KiB, 13.0-13.6 ms at 512 KiB,
# 12.6-14.8 ms at 1 MiB, 14.7-16.0 ms at 2 MiB and 15.5-16.9 ms at
# 8 MiB, against 19.4-19.5 ms for a whole cast into a fresh array and
# 6.4-6.5 ms for a second pass over it for the scales.
_CAST_BLOCK_BYTES = 1 << 19

log = logging.getLogger(__name__)

# the arrays each thread keeps for its small systems, by name
_kept = threading.local()

# the float32 copy of A of the last solve at or above SINGLE_THREAD_DOFS,
# owned by _blas's lock (see the module docstring)
_factor32 = None


def _factor_buffer(n):
    """The process's one float32 n x n column-major buffer for the LU of
    a solve at or above the gate. A solve of another n replaces it; the
    old buffer is released before the new one is allocated. The caller
    holds :mod:`tribem._blas`'s lock."""
    global _factor32
    if _factor32 is None or _factor32.shape[0] != n:
        replaced = _factor32 is not None
        _factor32 = None
        _factor32 = np.empty((n, n), np.float32, order="F")
        log.debug(
            "float32 factor buffer %s for %d DOFs (%.1f MB)",
            "replaced" if replaced else "allocated", n, _factor32.nbytes / 1e6,
        )
    return _factor32


def _drop_factor_buffer():
    global _factor32
    _factor32 = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_factor_buffer)


def working_array(name, n_dofs, shape, dtype=np.float64):
    """An uninitialised column-major array of ``shape`` for a system of
    ``n_dofs`` DOFs.

    Below ``SINGLE_THREAD_DOFS`` it is the calling thread's own array
    kept under ``name``: the thread's next request of the same size gets
    the same memory back, already paged in, instead of a fresh
    allocation that glibc hands back to the OS after each request. A
    request of another size replaces it; a name always has one dtype,
    and arrays in use at the same time need names of their own. At or
    above the gate a new array is returned and nothing is kept. No array
    a caller receives from tribem may alias a kept one.
    """
    size = math.prod(shape)
    if n_dofs >= SINGLE_THREAD_DOFS:
        return np.empty(shape, dtype, order="F")
    kept = vars(_kept)
    flat = kept.get(name)
    if flat is None or flat.size != size:
        flat = kept[name] = np.empty(size, dtype)
    return flat.reshape(shape, order="F")


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


def _square(a):
    """``a`` as a float64 array, after checking that it is square. Never
    copies a float64 ``a``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _system_matrix(a):
    """A as a :class:`SystemMatrix`: itself, or an ndarray, checked
    square and taken as float64, as its one run."""
    if isinstance(a, SystemMatrix):
        return a
    a = _square(a)
    return SystemMatrix(a, a, np.zeros(a.shape[0], dtype=bool))


def _column_scales(a):
    """The largest |entry| of each column of ``a``, in ``a``'s own
    precision; a NaN or inf leaves a non-finite scale."""
    return np.maximum(a.max(axis=0), -a.min(axis=0))


def _cast_with_scales(a, a32):
    """Write A (:func:`_system_matrix`) into the float32 ``a32`` and
    return the column scales of the copy, in one pass over blocks of
    ``_CAST_BLOCK_BYTES`` of float32 columns: each block is cast run by
    run straight from H's and -G's columns (:meth:`SystemMatrix.write`),
    and its scales come from the block just written, so H and G are read
    once and the copy is not read again. An entry beyond float32's range
    becomes inf, and its column's scale with it."""
    a = _system_matrix(a)
    n = a.shape[0]
    step = max(1, _CAST_BLOCK_BYTES // (a32.itemsize * n))
    scales = np.empty(n, a32.dtype)
    with np.errstate(over="ignore"):
        for j in range(0, n, step):
            a.write(a32, j, j + step)
            scales[j:j + step] = _column_scales(a32[:, j:j + step])
    return scales


def _checked_lu(a, overwrite_a=False):
    """LU-factorise and reject matrices that are not finite, or singular
    to working precision.

    With ``overwrite_a`` a Fortran-ordered ``a`` is factorised in its own
    memory, which then holds the factors. scipy warns on exactly-zero
    pivots; the explicit pivot check below turns that condition into a
    typed error carrying the pivot index. The check is per column, as in
    :func:`_refined_single_solve`: A's columns mix the scales of H and
    G, and a column scaled by any factor must not make the pivots of
    the others look singular.
    """
    a = _square(a)
    scales = _column_scales(a)
    if not np.isfinite(scales).all():
        raise ValueError("system matrix contains non-finite entries")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=overwrite_a, check_finite=False)
    bad = np.flatnonzero(np.abs(np.diag(lu)) <= a.shape[0] * np.finfo(float).eps * scales)
    if bad.size:
        raise SingularSystemError(int(bad[0]))
    return lu, piv


def _max_abs(v):
    # two plain reductions: no temporary, and no threaded BLAS call to
    # hand off between the LAPACK calls around it
    return max(v.max(), -v.min())


def _refined_single_solve(a: SystemMatrix, b):
    """x from a float32 LU of ``a`` refined in float64, and None; or None
    and the reason single precision cannot decide the system.

    The float32 copy of A is the one pass over H's and G's columns
    before the LU (:func:`_cast_with_scales`), into the calling thread's
    kept array below ``SINGLE_THREAD_DOFS`` and into the process's one
    factor buffer at or above it: the column scales come from each block
    of the copy as it is written, and a scale that is not finite (a NaN
    or inf in A, or a finite entry beyond float32's range) leaves the
    system to the double LU and its checks. A pivot within n * eps32 of
    its column's largest entry means A is singular to single precision,
    and then a small residual would not show whether it is singular in
    double; the test is per column because A's columns mix the scales of
    H and G. After each step the residual must shrink fast enough to
    reach the tolerance in the steps left, and the tolerance must lie
    above eps/2 of the largest product |a_ij x_j|, the rounding of the
    float64 residual itself. The residual is one dgemv per run of A
    (:meth:`SystemMatrix.matvec`) from scipy's BLAS, the library whose
    LAPACK factors A, on column-major slabs of H and G that reach it
    uncopied, or on the transpose of a row-major A.
    """
    n = a.shape[0]
    if n >= SINGLE_THREAD_DOFS:
        a32 = _factor_buffer(n)
    else:
        a32 = working_array("a32", n, (n, n), np.float32)
    scales = _cast_with_scales(a, a32)
    if not np.isfinite(scales).all():
        return None, "A has entries that are not finite in single precision"
    lu, piv, _ = lapack.sgetrf(a32, overwrite_a=True)
    small = np.flatnonzero(np.abs(lu.diagonal()) <= n * np.finfo(np.float32).eps * scales)
    if small.size:
        return None, f"pivot {small[0]} is zero to single precision"
    b_max = _max_abs(b)
    x = np.zeros(b.shape)
    r, res = b, b_max
    for step in range(1, REFINE_STEPS + 1):
        x += lapack.sgetrs(lu, piv, r.astype(np.float32), overwrite_b=True)[0]
        r = a.matvec(x, -1.0, b)  # b - A x, b kept
        last, res = res, _max_abs(r)
        if res <= REFINE_TOL * b_max:
            log.debug(
                "single-precision LU refined in %d steps to max|r| = %.2g max|b|",
                step, res / b_max if b_max else 0.0,
            )
            return x, None
        if not res < last:
            return None, f"residual grew at step {step} ({last:.2g} to {res:.2g})"
        # at this step's rate the remaining steps cannot reach the tolerance
        rate = res / last
        if step < REFINE_STEPS and res * rate ** (REFINE_STEPS - step) > REFINE_TOL * b_max:
            return None, (
                f"residual shrank only {1 / rate:.2g}-fold at step {step}, too slowly "
                f"to reach the tolerance in {REFINE_STEPS} steps"
            )
        # max_ij |a_ij x_j| = max_j scales_j |x_j|: the float64 residual
        # rounds at about eps/2 of it, and no step gets below that
        top = (scales * np.abs(x)).max()
        if 0.5 * np.finfo(float).eps * top > REFINE_TOL * b_max:
            return None, (
                f"max|a_ij x_j| is {top / b_max:.2g} max|b| at step {step}, so the "
                f"float64 residual rounds above the tolerance"
            )
    return None, f"no convergence in {REFINE_STEPS} steps (max|r| = {res / b_max:.2g} max|b|)"


def solve_direct(system: LinearSystem):
    """Solve A x = b: LU with partial pivoting in single precision,
    refined in double to the double LU's residual, or the double LU
    itself (:func:`_checked_lu`) when single precision cannot decide
    the system. Leaves ``system`` unchanged and builds A in double
    (:meth:`~tribem.assembly.SystemMatrix.dense`) only for that
    fallback.

    ``system.a`` is the :class:`~tribem.assembly.SystemMatrix` that
    :func:`apply_boundary_conditions` returns, or an ndarray, solved as
    its one run. Besides the LU, it reads A's columns in H and G once
    for the float32 copy and its column scales, cast run by run and
    taken together block by block (:func:`_cast_with_scales`), and once
    per refinement step for the residual, one ``dgemv`` per run. At 3000
    DOF on a 2-vCPU VM, box-regrasp's kinds (14 runs), medians of 7
    passes: 16.0 ms for the cast (14.7 ms from a dense A) and 3.5 ms for
    a residual (3.1 ms as one ``dgemv`` on a dense A), against ~130-150
    ms for ``sgetrf`` and ~3-4 ms for each float32 solve; building the
    dense A these replace took 22.8 ms. H and G are expected
    column-major, as assembly leaves them: LAPACK reads that layout, so
    the float32 copy is a straight conversion. Another layout is
    transposed on the way, which at 3000 DOF took 65-100 ms; the
    residual reads a row-major ndarray A through its transpose, with no
    copy, while each ``dgemv`` copies its run of row-major H or G.

    Below ``SINGLE_THREAD_DOFS`` the whole solve, fallback included,
    runs with one BLAS thread, and the float32 copy is the calling
    thread's kept array (:func:`working_array`); above it, at the
    libraries' own count, holding the lock the pins hold
    (:mod:`tribem._blas`), in the process's one factor buffer, which
    that lock owns. x is always a new array."""
    a = _system_matrix(system.a)
    b = np.asarray(system.b, dtype=float)
    small = a.shape[0] < SINGLE_THREAD_DOFS
    with _blas.single_threaded() if small else _blas.library_threads():
        log.debug(
            "solving %d DOFs with BLAS threads %s", a.shape[0], _blas.thread_counts() or "unknown"
        )
        x, reason = _refined_single_solve(a, b)
        if x is None:
            log.info("%s; solving with the double-precision LU", reason)
            x = scipy.linalg.lu_solve(_checked_lu(a.dense(), overwrite_a=True), b)
    return x


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
    """Assembled matrices + boundary spec -> full boundary field. A is
    the view :func:`apply_boundary_conditions` returns, so no n x n
    float64 array is built unless the double LU is needed."""
    x = solve_direct(apply_boundary_conditions(hg, bc))
    return scatter_solution(x, bc)


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
        """Factor A once and solve it against R, both in place on their
        column-major copies, so the solution's transpose is the
        C-contiguous M^T and at most two N x N arrays exist beside H and
        G. A itself is factored, not A^T: its columns mix the scales of
        H and G, and row pivoting, as in :func:`solve_direct`, is blind
        to that. Factors and solves at the libraries' own thread count,
        holding the lock the pins hold (:mod:`tribem._blas`)."""
        with _blas.library_threads():
            a = apply_boundary_conditions(hg, bc).a.dense()
            lu_piv = _checked_lu(a, overwrite_a=True)
            m = scipy.linalg.lu_solve(
                lu_piv, rhs_matrix(hg, bc), overwrite_b=True, check_finite=False
            )
        return cls(m.T, bc.displacement_known.copy(), fingerprint)

    def rebuild_rhs(self, values):
        """The load as :meth:`apply_to_rhs` reads it: the indices of the
        nonzero values and those values, or, when more than
        ``DENSE_SHARE`` of the values are nonzero, ``slice(None)`` for
        every row and every value."""
        values = np.asarray(values, dtype=float)
        rows = np.flatnonzero(values)
        if rows.size > DENSE_SHARE * values.size:
            return slice(None), values
        return rows, values[rows]

    def apply_to_rhs(self, load):
        """x = sum of v_d M^T[d] over the load's rows. For every row it
        is one dense product; otherwise x starts at zero and takes one
        BLAS axpy per loaded row, which reads the row in place: a
        contiguous block of M^T, copied nowhere."""
        rows, v = load
        if isinstance(rows, slice):
            return v @ self.greens[rows]
        x = np.zeros(self.n_dofs)
        for d, v_d in zip(rows.tolist(), v.tolist()):
            x = blas.daxpy(self.greens[d], x, a=v_d)
        return x

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
