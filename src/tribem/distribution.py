"""Block and block-cyclic index distribution, and parallel orchestration.

The mapping formulas are implemented literally:

  block:        m -> (p, i) = (floor(m / L), m mod L),  L = ceil(M / P)
  block-cyclic: m -> (p, b, i)
                  = (floor((m mod T) / r), floor(m / T), m mod r),  T = r P

applied independently over rows and columns to distribute a matrix on a
2D process grid. Note the block mapping's literal ceiling rule can
leave trailing processes underfull (or empty) for awkward (M, P); that
imbalance is inherited as-is.

Execution is desk-scale: a thread pool in one process stands in for
cluster processes, and the distributed run is one plain map of the
element-major assembly sweep over block-mapped ranges of field elements
(each worker owns the column blocks of H and G of its elements),
followed by the diagonal pass and a shared-memory solve. Message
passing is not emulated and no block-cyclic layout is built at run
time: the block size only labels a run. What is checked
is the ownership formulas themselves and result invariance across
worker counts and block sizes, with per-phase wall timings as the
measurable output.

One source of parallelism: when more than one range runs, the workers
are it, and numpy's and scipy's BLAS run one thread until the pool is
done (:mod:`tribem._blas`); a single range keeps the libraries' threads.
H and G are bit-identical either way. With threaded BLAS under two
workers, the 96-element request ran in the slowest of the four
worker/BLAS-thread combinations. Pinning the workers and the small
solve (see :mod:`tribem.solver`) took cube-graphics' p50 from 22.6 to
18.9 ms and its p90 from 27.9 to 21.5 ms on a 2-vCPU VM (``BENCH_5.json``,
13 pairs).

The workers' pin pays where OpenBLAS threads the sweep's per-element
products, which grow with the element count times the rule's points.
A one-range sweep of the 384-element cube at q=16 kept a pool thread as
busy as the caller (98 against 97 CPU ticks over three sweeps), and
without the pin its two-worker run took 468-504 ms against 224-238 ms
pinned (per-process medians of 8 calls, 5 alternating pairs of
processes, one solution hash, 2-vCPU VM). The 96-element cube at q=16
(cube-graphics) and the 1000-element box at q=4 gave the pool no work:
unpinned they read 10.8-14.5 against 12.1-15.8 ms (15 pairs, medians
12.8 and 13.3 ms, the interquartile ranges overlapping) and 480-547
against 460-540 ms (5 pairs). That cube-graphics shows no gain is
therefore no reason to drop the pin.

A small system's working set stays with the calling thread. Below
``SINGLE_THREAD_DOFS`` (1500, the solver's gate for small, latency-bound
systems) H, G, the sweep buffer of each worker range, A and its float32
copy are arrays the calling thread keeps and reuses on its next call
(:func:`tribem.solver.working_array`), ~4.8 MB for the 96-element box on
two workers. Each worker is handed its own range's buffer by the caller,
so pool threads keep nothing, and two calling threads never share one.
Fresh arrays cost ~300-840 minor page faults a call in a new process,
since glibc hands their memory back to the OS after every call; kept,
~6. Nothing returned refers to a kept array, and nothing is kept at or
above the gate. Keeping them took cube-graphics' p90 from 17.9 to 14.0
ms and its p50 from 13.8 to 12.2 ms on a 2-vCPU VM (``BENCH_7.json``, 11
pairs).
"""

from __future__ import annotations

import contextlib
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _blas
from .assembly import (
    BoundarySpec,
    InfluenceMatrices,
    assemble_columns,
    reject_degenerate,
    set_diagonal_blocks,
    sweep_buffer_size,
)
from .kernels import Material, QuadratureRule
from .mesh import SurfaceMesh
from .solver import solve, working_array

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProcessGrid:
    """R x C arrangement of P = R*C processes."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("process grid dimensions must be positive")


@dataclass(frozen=True)
class BlockMapParams:
    """Block distribution of M items over P processes, L = ceil(M/P)."""

    m_total: int
    p_total: int

    def __post_init__(self):
        if self.m_total < 1 or self.p_total < 1:
            raise ValueError("sizes must be positive")

    @property
    def l_block(self):
        return -(-self.m_total // self.p_total)


@dataclass(frozen=True)
class BlockCyclicParams:
    """Block-cyclic distribution: blocks of r items dealt over P
    processes with period T = r * P."""

    m_total: int
    p_total: int
    r_block: int

    def __post_init__(self):
        if self.m_total < 1 or self.p_total < 1 or self.r_block < 1:
            raise ValueError("sizes must be positive")

    @property
    def t_period(self):
        return self.r_block * self.p_total


def block_map(m, params: BlockMapParams):
    """Global index -> (process, local index) under block distribution."""
    if not 0 <= m < params.m_total:
        raise ValueError(f"index {m} outside [0, {params.m_total})")
    l = params.l_block
    return m // l, m % l


def block_cyclic_map(m, params: BlockCyclicParams):
    """Global index -> (process, block number, offset in block)."""
    if not 0 <= m < params.m_total:
        raise ValueError(f"index {m} outside [0, {params.m_total})")
    t = params.t_period
    r = params.r_block
    return (m % t) // r, m // t, m % r


def block_cyclic_invert(p, b, i, params: BlockCyclicParams):
    """Inverse triplet -> global index: m = b*T + p*r + i."""
    return b * params.t_period + p * params.r_block + i


def owner_of_entry(row, col, grid: ProcessGrid, row_block, col_block, shape):
    """Owning process coordinates of one matrix entry.

    The 1D block-cyclic map is applied independently to the row index
    (over the grid's R process rows) and the column index (over its C
    process columns).
    """
    rows, cols = shape
    p_row, _, _ = block_cyclic_map(row, BlockCyclicParams(rows, grid.rows, row_block))
    p_col, _, _ = block_cyclic_map(col, BlockCyclicParams(cols, grid.cols, col_block))
    return p_row, p_col


def partition_rows(n_rows, workers):
    """Contiguous index ranges per worker via the block mapping; the
    distributed run deals field elements (column blocks) this way.

    Ranges are disjoint and cover [0, n_rows). With L = ceil(N/P) the
    trailing ranges may be short or empty; that follows the literal
    block rule.
    """
    if workers < 1:
        raise ValueError("worker count must be positive")
    l = -(-n_rows // workers)
    return [range(min(p * l, n_rows), min((p + 1) * l, n_rows)) for p in range(workers)]


@dataclass
class PhaseTimings:
    """Wall-clock seconds per phase of one distributed run.

    ``block_size`` is the label the run was given; the shared-memory
    solve uses no block layout.
    """

    assembly: float
    barrier: float
    solve: float
    total: float
    workers: int
    block_size: int


def distributed_assemble_solve(
    mesh: SurfaceMesh,
    mat: Material,
    bc: BoundarySpec,
    rule: QuadratureRule,
    workers=1,
    block_size=32,
):
    """Assemble in parallel over field-element ranges, then solve on
    shared memory.

    Workers own disjoint contiguous ranges of field elements (block
    distribution), that is the column blocks of H and G, each deriving
    its own elements' factors from the mesh; the pool maps the
    element-major sweep
    (:func:`assemble_columns`) over the ranges, and once every range is
    written the main thread sets the diagonal blocks, applies the
    boundary conditions and solves. An error in any worker reaches the
    caller unchanged. ``block_size`` is a label recorded in the timings,
    not a layout. Every element's products have the same shapes and
    every entry is written once, so the Solution is bit-identical for
    any worker count or block size.

    With more than one range the sweep runs on one BLAS thread.

    Below ``SINGLE_THREAD_DOFS`` H, G and the ranges' sweep buffers are
    the calling thread's kept arrays, as A and its float32 copy are in
    the solve: a call reuses what the thread's previous call paged in.
    The returned Solution refers to none of them.

    Timings: ``assembly`` covers the sweep up to the last range's
    completion and the diagonal pass; ``barrier`` runs from the
    last range's completion until the map returns; ``solve`` covers
    boundary-condition application, LU and scatter. They are logged at
    DEBUG on ``tribem.distribution``.
    """
    if block_size < 1:
        raise ValueError("block size must be positive")
    n = mesh.n_elements
    reject_degenerate(mesh, range(n))

    n_dofs = mesh.n_dofs
    h = working_array("h", n_dofs, (n_dofs, n_dofs))
    g = working_array("g", n_dofs, (n_dofs, n_dofs))
    active = [r for r in partition_rows(n, workers) if len(r)]
    # one buffer per range, cut from one array; ranges never share memory
    sizes = [sweep_buffer_size(mesh, rule, r) for r in active]
    buffers = np.split(working_array("sweep", n_dofs, (sum(sizes),)), np.cumsum(sizes[:-1]))

    t0 = time.perf_counter()

    def job(elements, buffer):
        assemble_columns(mesh, mat, rule, elements, h, g, buffer)
        return time.perf_counter()

    # with one range the sweep is the caller's only work and keeps the
    # BLAS threads; with more, the workers are the parallelism
    pinned = len(active) > 1
    with (
        _blas.single_threaded() if pinned else contextlib.nullcontext(),
        ThreadPoolExecutor(max_workers=len(active)) as pool,
    ):
        t_swept = max(pool.map(job, active, buffers))
        t_joined = time.perf_counter()
    set_diagonal_blocks(mesh, mat, h, g)
    t_diagonal = time.perf_counter() - t_joined

    t_solve_start = time.perf_counter()
    sol = solve(InfluenceMatrices(h, g, n), bc)
    t_end = time.perf_counter()

    timings = PhaseTimings(
        assembly=t_swept - t0 + t_diagonal,
        barrier=t_joined - t_swept,
        solve=t_end - t_solve_start,
        total=t_end - t0,
        workers=workers,
        block_size=block_size,
    )
    log.debug(
        "%d elements in ranges of %s; assembly %.4f s, barrier %.4f s, "
        "solve %.4f s, total %.4f s; workers pinned to one BLAS thread: %s",
        n, [len(r) for r in active], timings.assembly, timings.barrier,
        timings.solve, timings.total, pinned,
    )
    return sol, timings
