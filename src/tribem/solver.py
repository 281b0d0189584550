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
one BLAS thread (:mod:`tribem._blas`), larger ones on the library's own
count. On a 2-vCPU VM, medians of 15-21 solves of cube systems
alternating with a numpy product: one thread took 0.84 ms against 1.5
ms threaded at 288 DOF and 4.7 against 6.7 ms at 648; the two tied
within the noise at 1152 and 1800 (20-28 and 75-95 ms); threads won
from 2592 on (min 136 against 147 ms) and by 1.6x at 7200. A threaded
small solve also woke the OpenBLAS pool, whose threads then spun on a
core into the next request's assembly. The thread count changes the
LU's rounding, so the size alone decides: a system solves bit for bit
the same wherever it was assembled. The precomputed path keeps the
library's count. A large solve and the precomputed build hold the
lock the pins hold, so no other thread's pin changes the count while
they run and a concurrent small solve cannot change their rounding.

One library, one pool. The LU routines are numpy's own OpenBLAS's
(:mod:`tribem._blas`), so nothing joins a BLAS pool that a caller left
spinning, and none needs to. After a threaded call an OpenBLAS worker
busy-waits ~0.13 s before it sleeps, and setting the count does not
stop one already spinning. While scipy's OpenBLAS factored A, a
caller's threaded numpy product right before a large solve left
numpy's worker spinning on a core that the other library's LU needed;
now the product and the LU share the one pool, as box-regrasp's check
``system.a @ x`` (:class:`~tribem.assembly.SystemMatrix`) and the next
request's LU do. On the 3000-DOF box at q=4 on a 2-vCPU VM, in 12
alternating pairs of processes, medians of each process's median
regrasp (:func:`apply_boundary_conditions` + :func:`solve_direct`, 10
per case), scipy's LAPACK against numpy's:

- each regrasp right after the caller's numpy ``H @ v``: 200 against
  146 ms (quartiles 194-211 and 136-159), lower in 12 of 12 pairs;
- after a 0.3 s pause instead: 155 against 148 ms (quartiles 144-161
  and 136-158), lower in 8 of 12, inside the spread between processes.

With one pool the product costs the regrasp nothing (146 against 148
ms). Measured before on the same VM, while scipy's library factored A,
a regrasp after the product took 195 ms, and 128 ms when large
operations first joined numpy's pool.

The first LU after assembly: in 16 fresh processes each, assembling
that box and solving it three times, the float32 LU took 89-141 ms
(median 96) first and 85-133 ms after on scipy's library, and 87-140
ms (median 96) first and 85-142 ms after on numpy's. Neither showed the
7-10x slow mode of a threaded ``sgetrf`` seen in some processes, but
one library does not remove it: the level probe's threaded 1600 x 1600
``sgetrf`` took 196-212 ms a call in 1 of 20 fresh processes on numpy's
library, against 18-30 ms in the others, and 200-222 ms in 3 of 112
probes on scipy's; each of the four was the first process of a batch
started after other work.

The slow start follows the second vCPU having been idle, not the
process being new. On that VM, after 75 s idle, the first three
threaded 3000 x 3000 float32 ``getrf`` calls of a fresh process took
411/379/254 ms, and 424/382/270 ms in another, against 92-138 ms
afterwards; 1.5 s of single-threaded calls just before them (161-203
ms each) did not remove it. It shows in box-regrasp's set-up too: the
first LU after assembly took 306-372 ms in 2 of 6 fresh processes,
against 120-143 ms in the rest. A median of five calls hides such a
start, so the level probe of ``tools/benchjson.py`` reports its first
``sgetrf`` call (``sgetrf_1600_first_ms``) beside the median.

At the 288-DOF cube numpy's library factors and solves a little more
slowly: in 6 processes that alternated the two libraries' float32 LU
between two-worker cube requests at q=16, numpy's ``sgetrf`` took
517-892 us (per-process medians) against 481-810 us for scipy's, 7-11%
more in every process, and the three ``sgetrs`` of a request 91-176
against 52-100 us, so a request's solve took 82-175 us longer. Over 20
alternating pairs of benchmark runs (``BENCH_13.json``) cube-graphics'
p50 read 10.53 against 10.81 ms, inside the parent's quartiles
(10.27-11.03 ms).

No float64 A is kept or built at any size: A is a view of H and G,
and only the double-LU fallback and the precomputed build copy it
(:meth:`~tribem.assembly.SystemMatrix.dense`). Building it had cost
box-regrasp a fresh 72 MB array and ~16-23 ms per request at 3000 DOF.

What tribem keeps between calls is one store of named arrays per
process (:func:`working_array`), owned by the lock of
:mod:`tribem._blas`: every :func:`solve_direct` holds that lock for its
whole run, as the distributed run does, so no two calls write a kept
array at once, and a forked child starts with the store empty. The
float32 copy of A that ``sgetrf`` factors in place is kept at every
size, as ``a32``, for the last size solved: 36 MB at 3000 DOF. A solve
of another size replaces it; at or above the gate the replacement logs
one DEBUG line, as a first allocation there does. Below the gate the
distributed run keeps H, G and its sweep buffers beside it; at or above
the gate they are fresh, as a kept H and G would hold 144 MB at 3000
DOF. The next request of a size reuses the memory of the last one
instead of faulting in new pages, which glibc would otherwise hand back
to the OS after each request. No array returned to a caller refers to a
kept one. The cast and the column scales are one pass over column
blocks that stay in L2 (``_CAST_BLOCK_BYTES``), each block cast from
H's and -G's columns and its scales read from the float32 block just
written; the timings are in :func:`solve_direct`.

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
from dataclasses import dataclass

import numpy as np

from . import _blas
from .assembly import (
    BoundarySpec,
    InfluenceMatrices,
    LinearSystem,
    SystemMatrix,
    apply_boundary_conditions,
    read_matrix,
    rhs_matrix,
    strided_runs,
    write_matrix,
)
from .errors import BoundaryConditionError, SingularSystemError, StaleOperatorError
from .kernels import Material
from .mesh import SurfaceMesh

# Share of nonzero values above which an apply makes one dense product
# instead of one product per progression of loaded rows. Measured at
# 3000 DOF with a cold cache on a 2-vCPU VM, medians of 25 applies: the
# dense product 2.3 ms at any share; scattered rows 0.17 ms for 51 rows,
# 2.0 ms for 600, 3.1 ms for 900 and 4.1 ms for 1200; whole elements'
# rows 0.14, 1.8, 2.5 and 3.0 ms. So the two cross between a quarter
# (scattered rows) and 3/10 (elements' rows).
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
# and the distributed run keeps the working set of such small systems
# (see working_array); the measured crossover is in the module docstring
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

# the arrays tribem keeps between calls, by name; a call reads or writes
# them only while it holds the lock of tribem._blas, which owns them
_kept = {}


def _forget_kept():
    """In a forked child the kept arrays are the parent's: drop them."""
    _kept.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_kept)


def _kept_array(name, shape, dtype):
    """The kept array ``name`` as an uninitialised column-major array of
    ``shape``, and how it was made: None when the kept one was reused,
    else "allocated", or "replaced" for one of another size, which is
    released before its successor is allocated."""
    kept = _kept.get(name)
    if kept is not None and kept.size == math.prod(shape):
        return kept.reshape(shape, order="F"), None
    made = "allocated" if _kept.pop(name, None) is None else "replaced"
    kept = _kept[name] = np.empty(shape, dtype, order="F")
    return kept, made


def working_array(name, n_dofs, shape, dtype=np.float64):
    """An uninitialised column-major array of ``shape`` for a system of
    ``n_dofs`` DOFs.

    Below ``SINGLE_THREAD_DOFS`` it is the process's array kept under
    ``name``: the next request of the same size gets the same memory
    back, already paged in, instead of a fresh allocation that glibc
    hands back to the OS after each request. A request of another size
    replaces it; a name always has one dtype, and arrays in use at the
    same time need names of their own. At or above the gate a new array
    is returned and nothing is kept. The caller holds the lock of
    :mod:`tribem._blas`, which owns every kept array. No array a caller
    receives from tribem may alias a kept one.
    """
    if n_dofs >= SINGLE_THREAD_DOFS:
        return np.empty(shape, dtype, order="F")
    return _kept_array(name, shape, dtype)[0]


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

    Returns (lu, piv) for :func:`tribem._blas.getrs`. With
    ``overwrite_a`` a Fortran-ordered ``a`` is factorised in its own
    memory, which then holds the factors; otherwise a column-major copy
    is. The pivot check below turns an exactly-zero pivot, as well as
    one at rounding level, into a typed error carrying the pivot index.
    The check is per column, as in :func:`_refined_single_solve`: A's
    columns mix the scales of H and G, and a column scaled by any factor
    must not make the pivots of the others look singular.
    """
    a = _square(a)
    scales = _column_scales(a)
    if not np.isfinite(scales).all():
        raise ValueError("system matrix contains non-finite entries")
    lu = np.asfortranarray(a) if overwrite_a else a.copy(order="F")
    piv, _ = _blas.getrf(lu)
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
    before the LU (:func:`_cast_with_scales`), into the kept ``a32``:
    the column scales come from each block of the copy as it is
    written, and a scale that is not finite (a NaN or inf in A, or a
    finite entry beyond float32's range) leaves the system to the double
    LU and its checks. A pivot within n * eps32 of
    its column's largest entry means A is singular to single precision,
    and then a small residual would not show whether it is singular in
    double; the test is per column because A's columns mix the scales of
    H and G. After each step the residual must shrink fast enough to
    reach the tolerance in the steps left, and the tolerance must lie
    above eps/2 of the largest product |a_ij x_j|, the rounding of the
    float64 residual itself. The residual is one numpy product per run
    of A (:meth:`SystemMatrix.matvec`), a ``dgemv`` in numpy's OpenBLAS,
    the library whose LAPACK factors A (:mod:`tribem._blas`), on
    column-major slabs of H and G that reach it uncopied, or on the
    transpose of a row-major ndarray A.
    """
    n = a.shape[0]
    a32, made = _kept_array("a32", (n, n), np.float32)
    if made and n >= SINGLE_THREAD_DOFS:  # large buffers only: 9 MB at the gate
        log.debug("float32 factor buffer %s for %d DOFs (%.1f MB)", made, n, a32.nbytes / 1e6)
    scales = _cast_with_scales(a, a32)
    if not np.isfinite(scales).all():
        return None, "A has entries that are not finite in single precision"
    piv, _ = _blas.getrf(a32)
    small = np.flatnonzero(np.abs(a32.diagonal()) <= n * np.finfo(np.float32).eps * scales)
    if small.size:
        return None, f"pivot {small[0]} is zero to single precision"
    b_max = _max_abs(b)
    x = np.zeros(b.shape)
    r, res = b, b_max
    for step in range(1, REFINE_STEPS + 1):
        x += _blas.getrs(a32, piv, r.astype(np.float32))
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
    dense A these replace took 22.8 ms. H and G are column-major
    (:class:`~tribem.assembly.InfluenceMatrices`): LAPACK reads that
    layout, so the float32 copy is a straight conversion. A row-major
    ndarray A is transposed on the way, which at 3000 DOF took 65-100
    ms, and the residual reads it through its transpose, with no copy.

    Below ``SINGLE_THREAD_DOFS`` the whole solve, fallback included,
    runs with one BLAS thread; above it, at the library's own count.
    Either way it holds the lock the pins hold (:mod:`tribem._blas`),
    which owns the kept float32 copy (:func:`working_array`). x is
    always a new array."""
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
            x = _blas.getrs(*_checked_lu(a.dense(), overwrite_a=True), b.copy())
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
        to that. Factors and solves at the library's own thread count,
        holding the lock the pins hold (:mod:`tribem._blas`)."""
        with _blas.library_threads():
            a = apply_boundary_conditions(hg, bc).a.dense()
            m = _blas.getrs(*_checked_lu(a, overwrite_a=True), rhs_matrix(hg, bc))
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
        product per progression of loaded rows (:func:`strided_runs`),
        which reads those rows of M^T in place, copied nowhere."""
        rows, v = load
        if isinstance(rows, slice):
            return v @ self.greens[rows]
        x = np.zeros(self.n_dofs)
        for where, positions in strided_runs(rows):
            x += v[positions] @ self.greens[where]
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
