"""Block and block-cyclic index distribution, and parallel orchestration.

The mapping formulas are implemented literally:

  block:        m -> (p, i) = (floor(m / L), m mod L),  L = ceil(M / P)
  block-cyclic: m -> (p, b, i)
                  = (floor((m mod T) / r), floor(m / T), m mod r),  T = r P

applied independently over rows and columns to distribute a matrix on a
2D process grid. Note the block mapping's literal ceiling rule can
leave trailing processes underfull (or empty) for awkward (M, P); that
imbalance is inherited as-is.

Execution is desk-scale, the paper's cluster on one machine. The
distributed run deals block-mapped ranges of field elements, each the
column blocks of H and G of its elements, to the calling thread and to
worker processes forked from it. Each sweeps its ranges (the
element-major assembly sweep) at the same time, and each worker sends
its columns back over a socket. The caller then sets the diagonal
blocks and solves alone. No block-cyclic layout is built at run time:
the block size only labels a run. What is checked is the ownership
formulas themselves and result invariance across worker counts and
block sizes, with per-phase wall timings as the measurable output.

The workers. min(ranges, usable CPUs) - 1 processes are forked on the
first call that needs them and kept for later calls. A request is the
mesh, material, rule and ranges, pickled behind a length prefix; the
reply is the worker's finish time and error, then its slabs of columns.
A column slab of a column-major matrix is contiguous, so the caller
receives each straight into its H and G with ``socket.recv_into``.
Ranges no worker takes run in the caller, one
after another, so one thread or process holds each range and the
matrices do not depend on who swept what. A thread pool did the sweep
before. Each range makes ~400 numpy calls of 10-40 us, and two threads
handed each other the GIL at each. Per-process medians of 4 alternating
pairs of processes on a 2-vCPU VM, threads against processes, two
workers, one solution hash per row:

- 96 elements at q=16 (cube-graphics' size): 11.1-14.1 against
  10.0-10.5 ms (medians 11.7 and 10.2);
- 216 elements at q=4: 24.6-27.8 against 15.6-18.9 ms;
- 384 elements at q=4: 75.7-83.6 against 59.3-67.9 ms;
- 216 and 384 elements at q=16: 42.6-55.8 against 41.1-49.6 ms, and
  220-225 against 211-219 ms. Each numpy call is long enough there that
  the threads already ran in parallel.

Workers are forked, not spawned: a spawned worker would start an
interpreter and import numpy, scipy and tribem, 0.25-0.5 s on that VM,
inside the first request, where the fork added 5-12 ms to it. A worker
holds ~45 MB resident, most of it pages it shares copy-on-write with the
caller, and a cube-graphics request makes about one page fault in
either process.

The fork guard. A worker is forked only while
``threading.active_count()`` is one: a child inherits every lock as its
parent held it, and OpenBLAS's fork handler joins its pools, which
would deadlock a BLAS call in progress in another thread. Its limits: a
thread that ``threading`` did not start (a C extension's own, or one
from ``_thread.start_new_thread``) is not seen, and forking beside one
is unsupported; the other way, on Python 3.11 such a thread that once
called into ``threading`` leaves an entry that outlives it, and no
worker is forked after it. A call forks before it pins BLAS, never
inside a pin. The pool has a lock. A call that finds it
held by another thread's call, or cannot fork (another thread alive, no
``fork`` start method, a failed fork), sweeps every range itself and
logs why, once, at INFO. Workers are daemonic, so a normal exit ends
them, and each returns at EOF on its socket, so they also end when the
caller is killed. They close the sockets of the workers forked before
them, drop the caller's kept arrays and send their standard output to
the null device: it may be a pipe that a reader reads to EOF, such as
the benchmark's result pipe.

One source of parallelism: while workers run, the caller's own sweep
runs on one BLAS thread, and the workers always do
(:mod:`tribem._blas`); a call without workers keeps the libraries'
threads. H and G are bit-identical either way. The caller's pin pays
where OpenBLAS threads the sweep's products, which grow with the
element count times the rule's points. Per-process medians of
alternating pairs of processes, pinned against unpinned, on a 2-vCPU
VM:

- 384 elements at q=16: 190-252 against 334-387 ms, pinned lower in
  6 of 6 pairs (medians 209 and 353 ms);
- 384 elements at q=4: 57-80 against 59-66 ms, pinned lower in 2 of 6
  (medians 64 and 61 ms);
- 96 elements at q=16 (cube-graphics): 8.1-16.2 against 8.8-10.6 ms,
  pinned lower in 4 of 10 (medians 10.0 and 9.7 ms).

The last two are inside the spread between processes, and the first is
not, so the pin stays.

A small system's working set stays where it is used. Below
``SINGLE_THREAD_DOFS`` (1500, the solver's gate for small, latency-bound
systems) H, G, the sweep buffer and A's float32 copy are arrays the
calling thread keeps and reuses on its next call
(:func:`tribem.solver.working_array`), ~2.9 MB for the 96-element box on
two workers; A itself is a view of H and G. A worker keeps its slabs and
its sweep buffer the same way, ~1.9 MB there. Two calling threads never
share an array, and two calls never share the workers. Fresh arrays cost
~300-840 minor page faults a call in a new process, since glibc hands
their memory back to the OS after every call; kept, ~6. Nothing returned
refers to a kept array, and nothing is kept at or above the gate.
Keeping them took cube-graphics' p90 from 17.9 to 14.0 ms and its p50
from 13.8 to 12.2 ms on a 2-vCPU VM (``BENCH_7.json``, 11 pairs).
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass

from . import _blas
from .assembly import (
    BoundarySpec,
    InfluenceMatrices,
    assemble_columns,
    reject_degenerate,
    set_diagonal_blocks,
    sweep_buffer_size,
)
from .errors import WorkerLostError
from .kernels import Material, QuadratureRule
from .mesh import SurfaceMesh
from .solver import _kept, solve, working_array

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


# The worker processes, forked on first need and kept for later calls;
# a call holds the lock while it uses them
_pool = []
_pool_lock = threading.Lock()
_told = set()  # reasons for running without workers, logged once each
_LENGTH = struct.Struct("!Q")


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _raw(a):
    """The bytes of a column-major 2-D array in memory order; a writable
    array gives a writable view."""
    return memoryview(a.T).cast("B")


def _send(sock, obj):
    body = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _fill(sock, view):
    """Receive exactly ``len(view)`` bytes into ``view``."""
    got = 0
    while got < len(view):
        n = sock.recv_into(view[got:])
        if not n:
            raise EOFError("the socket was closed")
        got += n


def _receive(sock):
    head = bytearray(_LENGTH.size)
    _fill(sock, memoryview(head))
    body = bytearray(_LENGTH.unpack(head)[0])
    _fill(sock, memoryview(body))
    return pickle.loads(body)


def _sweep(mesh, mat, rule, ranges, h, g, columns):
    """:func:`assemble_columns` over ``ranges`` in turn, range i into the
    columns ``columns[i]`` of H and G, in one kept sweep buffer."""
    size = max(sweep_buffer_size(mesh, rule, r) for r in ranges)
    buffer = working_array("sweep", mesh.n_dofs, (size,))
    for elements, cols in zip(ranges, columns):
        assemble_columns(mesh, mat, rule, elements, h[:, cols], g[:, cols], buffer)


def _slabs(mesh, mat, rule, ranges):
    """A worker's part: the column slabs of H and G of ``ranges``, side
    by side in range order, in the worker's kept arrays."""
    n_dofs = mesh.n_dofs
    edges = [0]
    for elements in ranges:
        edges.append(edges[-1] + 3 * len(elements))
    h = working_array("h", n_dofs, (n_dofs, edges[-1]))
    g = working_array("g", n_dofs, (n_dofs, edges[-1]))
    _sweep(mesh, mat, rule, ranges, h, g, [slice(a, b) for a, b in zip(edges, edges[1:])])
    return h, g


def _serve(sock, ours):
    """A worker process's life: for each request (mesh, material, rule,
    ranges), sweep the ranges and send back its finish time and error,
    then, without an error, the slabs of H and G. It closes the caller's
    end of its socket, drops the caller's kept arrays, leaves an
    interrupt to the caller, sends its standard output to the null
    device, runs one BLAS thread, and returns when the caller's end of
    its socket closes."""
    ours.close()
    vars(_kept).clear()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    with contextlib.suppress(EOFError, OSError), _blas.single_threaded():
        while True:
            request = _receive(sock)
            try:
                slabs, error = _slabs(*request), None
            except Exception as exc:
                slabs, error = (), exc
            _send(sock, (time.perf_counter(), error))
            for slab in slabs:
                sock.sendall(_raw(slab))


class _Worker:
    """A forked worker process and the caller's end of its socket."""

    def __init__(self):
        ours, theirs = socket.socketpair()
        self.process = multiprocessing.get_context("fork").Process(
            target=_serve, args=(theirs, ours), daemon=True
        )
        try:
            self.process.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self.sock = ours

    def failed(self, exc):
        return WorkerLostError(f"worker process {self.process.pid} ended during the run: {exc!r}")


def _close_workers():
    """End every worker process and empty the pool. Called under the
    pool's lock, or where no distributed run is in flight."""
    while _pool:
        worker = _pool.pop()
        worker.sock.close()
        worker.process.kill()
        worker.process.join()


def _forget_workers():
    """In a forked child, the parent's workers are not its own: close its
    copies of their sockets, which would keep a worker from seeing EOF
    when the parent ends, and start with no pool and a free lock."""
    global _pool_lock
    for worker in _pool:
        worker.sock.close()
    _pool.clear()
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _fork_refused():
    """Why a worker cannot be forked now, or None. A fork is safe only
    while no other Python thread is alive, since OpenBLAS's fork handler
    joins its pools and a child inherits every lock as held; a thread
    that ``threading`` did not start is not seen (see the module
    docstring)."""
    if threading.active_count() > 1:
        return "another thread alive"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "no fork start method"
    return None


@contextlib.contextmanager
def _lease(n_ranges):
    """Up to min(``n_ranges``, usable CPUs) - 1 live worker processes for
    one call, forking those missing while that is safe, and the reason
    when there are none. A dead worker ends the pool first. A call that
    finds the pool's lock taken gets none."""
    cpus = _usable_cpus()
    if n_ranges == 1 or cpus == 1:
        yield [], "one range" if n_ranges == 1 else "one usable CPU"
        return
    if not _pool_lock.acquire(blocking=False):
        yield [], "pool busy"
        return
    try:
        if not all(w.process.is_alive() for w in _pool):
            _close_workers()
        wanted, reason = min(n_ranges, cpus) - 1, None
        while len(_pool) < wanted and reason is None:
            reason = _fork_refused()
            if reason is None:
                try:
                    _pool.append(_Worker())
                except OSError as exc:
                    reason = f"fork failed: {exc}"
        yield _pool[:wanted], reason
    finally:
        _pool_lock.release()


def _assemble(mesh, mat, rule, active, h, g):
    """Sweep the ranges ``active`` into H and G, dealt round-robin to the
    calling thread and the worker processes; the caller sweeps its own
    while the workers sweep theirs, then receives their slabs in place.
    Returns the last finish time, the time the last slab arrived, the
    ranges swept in workers, the reason when there were none, and
    whether the caller was pinned."""
    with _lease(len(active)) as (pool, reason):
        dealt = [active[i :: len(pool) + 1] for i in range(len(pool) + 1)]
        errors, finished, drained = [], [], False
        try:
            for worker, ranges in zip(pool, dealt[1:]):
                try:
                    _send(worker.sock, (mesh, mat, rule, ranges))
                except OSError as exc:
                    raise worker.failed(exc) from exc
            # with workers running, the caller's BLAS calls take no core of theirs
            with _blas.single_threaded() if pool else contextlib.nullcontext():
                try:
                    columns = [slice(3 * r.start, 3 * r.stop) for r in dealt[0]]
                    _sweep(mesh, mat, rule, dealt[0], h, g, columns)
                except Exception as exc:
                    errors.append(exc)
            finished.append(time.perf_counter())
            for worker, ranges in zip(pool, dealt[1:]):
                try:
                    t_done, error = _receive(worker.sock)
                    for m in (h, g) if error is None else ():
                        for r in ranges:
                            _fill(worker.sock, _raw(m[:, 3 * r.start : 3 * r.stop]))
                except (EOFError, OSError) as exc:
                    raise worker.failed(exc) from exc
                if error is None:
                    finished.append(t_done)
                else:
                    errors.append(error)
            drained = True
        finally:
            if not drained:  # replies may be left in flight: start afresh
                _close_workers()
        t_joined = time.perf_counter()
    if errors:
        raise errors[0]
    in_workers = sum(len(ranges) for ranges in dealt[1:])
    return max(finished), t_joined, in_workers, None if pool else reason, bool(pool)


def distributed_assemble_solve(
    mesh: SurfaceMesh,
    mat: Material,
    bc: BoundarySpec,
    rule: QuadratureRule,
    workers=1,
    block_size=32,
):
    """Assemble in parallel over field-element ranges, then solve in the
    calling process.

    Workers own disjoint contiguous ranges of field elements (block
    distribution), that is the column blocks of H and G, each deriving
    its own elements' factors from the mesh. The ranges are dealt to
    the calling thread and to min(ranges, usable CPUs) - 1 worker
    processes, which sweep them (:func:`assemble_columns`) at the same
    time; each process sends back its ranges' slabs of columns, and once
    every slab is in the caller sets the diagonal blocks, applies the
    boundary conditions and solves. Where no worker can be had (another
    Python thread alive, the pool in use by another thread, or a failed
    fork) the caller sweeps every range itself, and says why once at
    INFO. An error raised in a worker reaches the caller unchanged once
    every reply is in; a worker that dies raises
    :class:`~tribem.errors.WorkerLostError`, and the next call forks a
    new one. ``block_size`` is a label recorded in the timings, not a
    layout. Every range is swept alone whoever sweeps it, every element's
    products have the same shapes and every entry is written once, so the
    Solution is bit-identical for any worker count or block size.

    While workers run, the caller's own sweep runs on one BLAS thread,
    and the workers always do.

    Below ``SINGLE_THREAD_DOFS`` H, G and the sweep buffer are the calling
    thread's kept arrays, as A's float32 copy is in the solve, and
    a worker keeps its slabs and sweep buffer the same way: a call reuses
    what the previous one paged in. The returned Solution refers to none
    of them.

    Timings: ``assembly`` runs to the last range's finish, as each
    worker clocked it (``time.perf_counter`` is system-wide on Linux),
    plus the diagonal pass; ``barrier`` runs from that finish until
    every slab is in, so it is mostly their transfer; ``solve`` covers
    boundary-condition application, LU and scatter. They are logged at
    DEBUG on ``tribem.distribution``, with the ranges swept in worker
    processes.
    """
    if block_size < 1:
        raise ValueError("block size must be positive")
    n = mesh.n_elements
    reject_degenerate(mesh, range(n))

    n_dofs = mesh.n_dofs
    h = working_array("h", n_dofs, (n_dofs, n_dofs))
    g = working_array("g", n_dofs, (n_dofs, n_dofs))
    active = [r for r in partition_rows(n, workers) if len(r)]

    t0 = time.perf_counter()
    t_swept, t_joined, in_workers, reason, pinned = _assemble(mesh, mat, rule, active, h, g)
    if reason is not None and len(active) > 1 and reason not in _told:
        _told.add(reason)
        log.info("distributed run sweeps every range in the calling thread: %s", reason)
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
        "%d elements in ranges of %s; ranges in worker processes: %d of %d%s; "
        "assembly %.4f s, barrier %.4f s, solve %.4f s, total %.4f s; "
        "workers pinned to one BLAS thread: %s",
        n, [len(r) for r in active], in_workers, len(active),
        f" ({reason})" if reason else "", timings.assembly, timings.barrier,
        timings.solve, timings.total, pinned,
    )
    return sol, timings
