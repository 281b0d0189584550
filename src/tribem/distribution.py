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
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .assembly import (
    BoundarySpec,
    InfluenceMatrices,
    allocate_influence,
    assemble_columns,
    check_self_strategy,
    reject_degenerate,
    set_diagonal_blocks,
)
from .kernels import Material, QuadratureRule
from .mesh import SurfaceMesh
from .solver import solve

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
    strategy="analytic",
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

    Timings: ``assembly`` covers the sweep up to the last range's
    completion and the diagonal pass; ``barrier`` runs from the
    last range's completion until the map returns; ``solve`` covers
    boundary-condition application, LU and scatter. They are logged at
    DEBUG on ``tribem.distribution``.
    """
    if block_size < 1:
        raise ValueError("block size must be positive")
    check_self_strategy(strategy)
    n = mesh.n_elements
    reject_degenerate(mesh, range(n))

    h, g = allocate_influence(mesh.n_dofs)
    active = [r for r in partition_rows(n, workers) if len(r)]

    t0 = time.perf_counter()

    def job(elements):
        assemble_columns(mesh, mat, rule, elements, h, g)
        return time.perf_counter()

    with ThreadPoolExecutor(max_workers=len(active)) as pool:
        t_swept = max(pool.map(job, active))
        t_joined = time.perf_counter()
    set_diagonal_blocks(mesh, mat, h, g, strategy)
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
        "solve %.4f s, total %.4f s",
        n, [len(r) for r in active], timings.assembly, timings.barrier,
        timings.solve, timings.total,
    )
    return sol, timings
