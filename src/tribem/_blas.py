"""One BLAS thread for the calls that gain nothing from more.

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

A pin keeps a joined pool joined. OpenBLAS's fork handler joins both
pools, as when the distributed run forks its workers just before it
pins. ``set_num_threads`` starts a joined pool again, and its new worker
spins too, so on a joined pool a pin writes ``blas_cpu_number``, the
count each call reads and ``set_num_threads`` sets, in place. Starting
and joining the pool at each pin instead cost a small request run right
after a large one 3-4.5 ms of ~20.

Discovery opens only libraries already loaded (``RTLD_NOLOAD``). If none
is found, or one has no thread-count functions, the reason is logged
once at INFO on ``tribem.blas`` and that library keeps its threads; a
library without ``blas_server_avail`` or ``blas_cpu_number`` is logged
once the same way, and a pin on it always goes through
``set_num_threads``.
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


class _Pool(NamedTuple):
    """The controls of one OpenBLAS's thread pool."""

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
    """The library's :class:`_Pool`, or None. ``joined`` reads
    ``blas_server_avail``, 0 while the pool is joined (the library's next
    threaded call, or any ``set_num_threads``, starts it again), and
    ``set_count`` writes ``blas_cpu_number``, the count every call reads
    and ``set_num_threads`` sets."""
    try:
        avail = ctypes.c_int.in_dll(lib, "blas_server_avail")
        count = ctypes.c_int.in_dll(lib, "blas_cpu_number")
    except (AttributeError, ValueError):
        return None
    return _Pool(lambda: avail.value == 0, lambda n: setattr(count, "value", n))


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
    """The found libraries; logs once why any is missing, and which have
    no pool controls."""
    found, reason = _discover()
    if reason is not None:
        log.info("BLAS threads stay unpinned: %s", reason)
    uncontrolled = [lib.package for lib in found if lib.pool is None]
    if uncontrolled:
        log.info(
            "no BLAS pool controls in %s: a pin there goes through"
            " set_num_threads, which restarts a joined pool",
            ", ".join(uncontrolled),
        )
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


@contextmanager
def library_threads():
    """Run the body at the libraries' own thread count, or at one inside
    the caller's own pin: hold the lock, so no other thread's pin
    changes the count until the body ends."""
    with _lock:
        yield
