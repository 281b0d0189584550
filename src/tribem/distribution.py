"""Block and block-cyclic index distribution, and parallel orchestration.

The mapping formulas are implemented literally:

  block:        m -> (p, i) = (floor(m / L), m mod L),  L = ceil(M / P)
  block-cyclic: m -> (p, b, i)
                  = (floor((m mod T) / r), floor(m / T), m mod r),  T = r P

applied independently over rows and columns to distribute a matrix on a
2D process grid. Note the block mapping's literal ceiling rule can
leave trailing processes underfull (or empty) for awkward (M, P); that
imbalance is inherited as-is.

Execution is desk-scale: a worker pool in one process stands in for
cluster processes. Message passing is not emulated; what is checked is
ownership correctness, the assembly/solve barrier, and result
invariance across worker counts and block sizes, with per-phase wall
timings as the measurable output.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .assembly import (
    BoundarySpec,
    InfluenceMatrices,
    apply_boundary_conditions,
    assemble_rows,
    quadrature_table,
)
from .errors import DegenerateElementError
from .kernels import Material, QuadratureRule
from .mesh import SurfaceMesh
from .solver import scatter_solution, solve_direct


@dataclass(frozen=True)
class ProcessGrid:
    """R x C arrangement of P = R*C processes."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("process grid dimensions must be positive")

    @property
    def total(self):
        return self.rows * self.cols

    @classmethod
    def for_processes(cls, p):
        """Square grid for square counts (1, 4, 16, 64, 256, ...);
        otherwise the most nearly square factorisation."""
        if p < 1:
            raise ValueError("process count must be positive")
        root = math.isqrt(p)
        if root * root == p:
            return cls(root, root)
        r = root
        while p % r:
            r -= 1
        return cls(r, p // r)


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
    """Contiguous row ranges per worker via the block mapping.

    Ranges are disjoint and cover [0, n_rows). With L = ceil(N/P) the
    trailing ranges may be short or empty; that follows the literal
    block rule.
    """
    if workers < 1:
        raise ValueError("worker count must be positive")
    l = -(-n_rows // workers)
    return [range(min(p * l, n_rows), min((p + 1) * l, n_rows)) for p in range(workers)]


@dataclass
class LayoutSummary:
    """Materialised block-cyclic layout of the system matrix."""

    grid: ProcessGrid
    block_size: int
    shape: tuple
    entries_per_process: np.ndarray  # (R, C)

    @property
    def balanced_within(self):
        counts = self.entries_per_process
        return int(counts.max() - counts.min())


def materialize_layout(shape, grid: ProcessGrid, block_size) -> LayoutSummary:
    """Build and validate the 2D block-cyclic ownership map.

    Validates that the row/column maps are bijective (the documented
    inverse reconstructs every index) and that per-process entry counts
    tile the whole matrix.
    """
    rows, cols = shape
    row_params = BlockCyclicParams(rows, grid.rows, block_size)
    col_params = BlockCyclicParams(cols, grid.cols, block_size)

    def owner_counts(n, params):
        m = np.arange(n)
        t = params.t_period
        r = params.r_block
        p = (m % t) // r
        b = m // t
        i = m % r
        if not np.array_equal(b * t + p * r + i, m):
            raise AssertionError("block-cyclic inverse failed to reconstruct indices")
        return np.bincount(p, minlength=params.p_total)

    row_counts = owner_counts(rows, row_params)
    col_counts = owner_counts(cols, col_params)
    per_process = np.outer(row_counts, col_counts)
    if per_process.sum() != rows * cols:
        raise AssertionError("ownership map does not tile the matrix")
    return LayoutSummary(grid, block_size, (rows, cols), per_process)


@dataclass
class PhaseTimings:
    """Wall-clock seconds per phase of one distributed run."""

    assembly: float
    barrier: float
    solve: float
    total: float
    workers: int
    block_size: int
    layout: LayoutSummary | None = None


def distributed_assemble_solve(
    mesh: SurfaceMesh,
    mat: Material,
    bc: BoundarySpec,
    rule: QuadratureRule,
    workers=1,
    block_size=32,
    strategy="subdivide",
):
    """Assemble in parallel over row ranges, synchronise, then solve.

    Workers own disjoint contiguous row ranges of H and G (block
    distribution); a full barrier separates assembly completion from
    boundary-condition application and the dense solve, which runs on
    shared memory after the block-cyclic layout has been materialised
    and validated. Because every matrix entry is computed independently
    and written once, the Solution is bit-identical for any worker
    count or block size.
    """
    bad = mesh.degenerate_indices()
    if len(bad):
        raise DegenerateElementError(f"mesh contains degenerate elements {list(bad)}")

    n = mesh.n_elements
    n3 = mesh.n_dofs
    h = np.empty((n3, n3))
    g = np.empty((n3, n3))
    ranges = partition_rows(n, workers)
    active = [r for r in ranges if len(r)]

    gate = threading.Barrier(len(active) + 1)
    finish_times = [0.0] * len(active)

    def job(slot, rows, table):
        try:
            assemble_rows(mesh, mat, rule, rows, h, g, strategy, table)
            finish_times[slot] = time.perf_counter()
            gate.wait()
        except Exception:
            gate.abort()
            raise

    t0 = time.perf_counter()
    table = quadrature_table(mesh, rule)
    with ThreadPoolExecutor(max_workers=len(active)) as pool:
        futures = [
            pool.submit(job, slot, rows, table) for slot, rows in enumerate(active)
        ]
        try:
            gate.wait()
        except threading.BrokenBarrierError:
            pass
        t_barrier_released = time.perf_counter()
        for f in futures:
            f.result()

    t_assembled = max(finish_times)
    layout = materialize_layout((n3, n3), ProcessGrid.for_processes(workers), block_size)

    t_solve_start = time.perf_counter()
    system = apply_boundary_conditions(InfluenceMatrices(h, g, n), bc)
    x = solve_direct(system)
    sol = scatter_solution(x, bc)
    t_end = time.perf_counter()

    timings = PhaseTimings(
        assembly=t_assembled - t0,
        barrier=t_barrier_released - t_assembled,
        solve=t_end - t_solve_start,
        total=t_end - t0,
        workers=workers,
        block_size=block_size,
        layout=layout,
    )
    return sol, timings
