"""One BLAS thread for the calls that gain nothing from more, and no
numpy BLAS pool spinning when a large operation starts.

numpy and scipy each load their own OpenBLAS (``numpy.libs`` and
``scipy.libs`` in their wheels). :func:`single_threaded` holds both at
one thread and restores their counts after, so a small solve or a
distributed run's sweeps run in the calling thread and wake no BLAS
pool. A pool's threads busy-wait after a call, so one woken there keeps
a core spinning into the next request.

The libraries' thread count is process-wide: their pthreads builds
keep no per-thread count (``openblas_set_num_threads_local`` sets the
global count there too). So a pin and a call whose rounding depends on
the libraries' own count (a large LU, run inside
:func:`library_threads`) hold one re-entrant lock for their body. The
outermost pin records each library's count, sets it to one and restores
it on exit, also after a raise; a nested entry of either kind runs
inside the outer one, so a thread never waits on itself. A large LU
thus never runs at another thread's pin, and outside a pin nothing is
changed. A child forked while another thread holds the lock would
inherit it held by a thread it lacks, and its first large solve would
wait forever; a fork hook gives such a child the counts that pin found
and a free lock.

The cost falls on concurrent callers, which tribem never makes itself
(its distributed run forks worker processes): small solves from
several threads run one at a time. On a 2-vCPU VM, in 4 alternating
pairs of processes, the earlier gate that let pins overlap against this
lock: two threads looping solves of the 288-DOF cube made 1683-2068
against 1019-1109 solves/s in all (one thread alone, 920-1264 against
955-1187); two threads looping two-worker cube runs at q=16 made
93.6-99.3 against 86.6-92.7 runs/s.

A large operation also starts with numpy's pool joined. After a
threaded call an OpenBLAS worker busy-waits for ``THREAD_TIMEOUT`` (2^28
TSC ticks, ~0.13 s on a 2-vCPU VM) before it sleeps, and pinning the
count does not stop a worker already spinning. tribem's large
operations run on scipy's LAPACK and BLAS, so numpy's pool spins there
only because the caller woke it, with a residual ``a @ x``, say, and it
then took a core from the next regrasp's BC application and LU. So
:func:`quiet`, called at the start of a large
``apply_boundary_conditions`` and by :func:`library_threads`, joins
numpy's pool with OpenBLAS's own ``blas_thread_shutdown_`` (its fork
handler); numpy's next threaded call starts it again at the same count,
so results stay bit for bit the same. scipy's pool is left to the
operation that is about to use it.

A pin keeps a joined pool joined. ``set_num_threads`` starts a joined
pool again, and its new worker spins too, so on a joined pool a pin
writes ``blas_cpu_number``, the count each call reads and
``set_num_threads`` sets, in place. Starting and joining the pool at
each pin instead cost a small request run right after a large one 3-4.5
ms of ~20.

Measured on the 3000-DOF box at q=4 on a 2-vCPU VM, in pairs of
processes, each side first in half of them; medians of the processes'
median request, earlier code first:

- regrasp requests, each followed by the caller's ``a @ x``: 211 to 157
  ms, lower in 10 of 10 pairs (216 to 147 ms, 10 of 10, in 10 earlier
  pairs of the same path);
- regrasp requests with nothing between them: 141 to 147 ms, lower in 3
  of 10, and 178 to 175 ms, lower in 8 of 10, in 10 earlier pairs;
- a regrasp request, then a small request (96-element box, two workers,
  q=16): 150 to 145 ms for the regrasp, lower in 7 of 10, and 18.1 to
  17.3 ms for the small request, lower in 8 of 10;
- a regrasp request, then C07's two-worker distributed run of the box
  (three calls a process): 171 to 169 ms for the regrasp, lower in 6 of
  10, and 420 to 444 ms for the distributed run, lower in 4 of 10, then
  481 to 512 ms, lower in 1 of 6, in 6 more pairs; alternating the two
  behaviours in one process read +24, +24, -2 and -30 ms in four
  processes. Unresolved: the spread between processes is ~100 ms.

Joining both libraries' pools on entry and on exit, without the
in-place count, had made that small request 63% slower (lower in 0 of
12 pairs) and regrasp requests with nothing between them slower in 9 of
12.

The guard: a pool is joined only while ``threading.active_count()`` is
one, since a pool joined during another thread's call would deadlock
it. Its limits: threading does not count threads it did not start, such
as a C extension's native threads or threads started with
``_thread.start_new_thread``, so a BLAS call in one of those while a
large operation starts can hang the process; such use is unsupported.
The other way, on Python 3.11 a foreign thread that once called into
``threading`` leaves an entry that outlives it, and pools are then never
joined. Each :func:`quiet` logs one DEBUG line on ``tribem.blas``
naming the pools quieted, or why they were left running.

Discovery opens only libraries already loaded (``RTLD_NOLOAD``). If none
is found, or one has no thread-count functions, the reason is logged
once at INFO on ``tribem.blas`` and that library keeps its threads; a
library without ``blas_thread_shutdown_``, ``blas_server_avail`` or
``blas_cpu_number`` is logged once the same way and never quieted.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import logging
import os
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

log = logging.getLogger("tribem.blas")

# the packages whose own OpenBLAS copies are pinned; their wheels keep
# them in "<package>.libs" beside the package
_PACKAGES = ("numpy", "scipy")

# held by single_threaded and library_threads for their body, one
# thread at a time, and the counts the outermost pin found (None while
# no pin is in effect)
_lock = threading.RLock()
_saved = None

# the packages whose pools a large operation joins on entry: tribem's
# large operations run on scipy's LAPACK, so numpy's pool spins only
# because a caller woke it, and scipy's is left to the operation
_QUIETED = ("numpy",)


class _Pool(NamedTuple):
    """The controls of one OpenBLAS's thread pool."""

    shutdown: Callable[[], int]  # joins the pool's threads
    joined: Callable[[], bool]  # whether the pool is joined now
    set_count: Callable[[int], None]  # sets the count without starting it


class _Library(NamedTuple):
    """One loaded OpenBLAS, its process-wide thread-count functions and
    its pool's controls (None when the build does not export them)."""

    package: str
    threads: Callable[[], int]
    set_threads: Callable[[int], None]
    pool: _Pool | None


def _functions(lib):
    """(get, set) thread-count functions of an OpenBLAS build, or None.
    Wheels prefix the names and, for 64-bit integers, suffix them."""
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("", "64_"):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


def _pool(lib):
    """The library's :class:`_Pool`, or None. ``shutdown`` is OpenBLAS's
    ``blas_thread_shutdown_``; the library's next threaded call, or any
    ``set_num_threads``, starts the pool again. ``joined`` reads
    ``blas_server_avail``, 0 while the pool is joined, and ``set_count``
    writes ``blas_cpu_number``, the count every call reads and
    ``set_num_threads`` sets."""
    try:
        shutdown = lib.blas_thread_shutdown_
        avail = ctypes.c_int.in_dll(lib, "blas_server_avail")
        count = ctypes.c_int.in_dll(lib, "blas_cpu_number")
    except (AttributeError, ValueError):
        return None
    shutdown.restype, shutdown.argtypes = ctypes.c_int, []
    return _Pool(shutdown, lambda: avail.value == 0, lambda n: setattr(count, "value", n))


def _discover():
    """The OpenBLAS libraries numpy and scipy have loaded, and the
    reason any of them is missing (None when both are found)."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return (), "this platform cannot look up a loaded library"
    found, missing = [], []
    for package in _PACKAGES:
        root = os.path.dirname(importlib.import_module(package).__file__)
        functions = None
        for path in sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            functions = _functions(lib)
            if functions is not None:
                break
        if functions is None:
            missing.append(package)
        else:
            found.append(_Library(package, *functions, _pool(lib)))
    reason = None
    if missing:
        reason = f"no loaded OpenBLAS with thread-count functions for {', '.join(missing)}"
    return tuple(found), reason


@functools.cache
def libraries():
    """The found libraries; logs once why any is missing, and which
    cannot be quieted."""
    found, reason = _discover()
    if reason is not None:
        log.info("BLAS threads stay unpinned: %s", reason)
    awake = [lib.package for lib in found if lib.pool is None]
    if awake:
        log.info("BLAS pools stay awake: no pool controls in %s", ", ".join(awake))
    return found


def thread_counts():
    """{package: BLAS thread count} for the found libraries."""
    return {lib.package: lib.threads() for lib in libraries()}


def _set_threads(lib, n):
    """Set the library's count. A joined pool stays joined: its count is
    written in place, as ``set_num_threads`` would start it again."""
    if lib.pool is not None and lib.pool.joined():
        lib.pool.set_count(n)
    else:
        lib.set_threads(n)


@contextmanager
def single_threaded():
    """Hold the found libraries at one thread for the body, and restore
    the counts found after, also when the body raises. Holds the lock:
    waits while another thread is inside a pin or
    :func:`library_threads`, and a nested entry runs inside the outer
    one."""
    global _saved
    found = libraries()
    with _lock:
        if _saved is not None:
            yield
            return
        _saved = tuple(lib.threads() for lib in found)
        try:
            for lib in found:
                _set_threads(lib, 1)
            yield
        finally:
            for lib, n in zip(found, _saved):
                _set_threads(lib, n)
            _saved = None


def _after_fork_in_child():
    """A child forked while another thread held the lock inherits it held
    by a thread it does not have: restore the counts that thread's pin
    found, if any, and start with a free lock. A lock the forking thread
    holds stays its own."""
    global _lock, _saved
    if _lock.acquire(blocking=False):
        _lock.release()
        return
    if _saved is not None:
        for lib, n in zip(libraries(), _saved):
            _set_threads(lib, n)
        _saved = None
    _lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def quiet():
    """Join numpy's pool at the start of a large operation, unless
    another Python thread is alive: it could be inside the library, and
    a pool joined during a call deadlocks it. One DEBUG line says what
    was done."""
    others = threading.active_count() - 1
    if others:
        log.debug("BLAS pools left running: %d other Python thread(s) alive", others)
        return
    quieted, awake = [], []
    for lib in libraries():
        if lib.package not in _QUIETED:
            continue
        if lib.pool is None:
            awake.append(lib.package)
        else:
            lib.pool.shutdown()
            quieted.append(lib.package)
    said = f"BLAS pools quieted: {', '.join(quieted) or 'none'}"
    if awake:
        said += f"; left running: {', '.join(awake)} (no pool controls)"
    log.debug("%s", said)


@contextmanager
def library_threads():
    """Run the body at the libraries' own thread count, or at one inside
    the caller's own pin: hold the lock, so no other thread's pin
    changes the count until the body ends. Starts with :func:`quiet`."""
    with _lock:
        quiet()
        yield
