"""One BLAS thread for the calls that gain nothing from more.

numpy and scipy each load their own OpenBLAS (``numpy.libs`` and
``scipy.libs`` in their wheels). :func:`single_threaded` holds both at
one thread and restores their counts after, so a small solve or a pool
worker's products run in the calling thread and wake no BLAS pool. A
pool's threads busy-wait after a call, so one woken there keeps a core
spinning into the next request.

The libraries' thread count is process-wide: their pthreads builds
keep no per-thread count (``openblas_set_num_threads_local`` sets the
global count there too). So the pin is reference-counted. The first
caller to enter records each library's count and sets it to one, and
the last to leave restores it; while any caller is inside, every thread
of the process runs those libraries on one thread. Outside the pin
nothing is changed. Within one tribem call no other BLAS work runs
while the pin is held, but a caller that runs a large solve in one
thread and a small one in another gets the large LU on one thread,
with that LU's rounding.

Discovery opens only libraries already loaded (``RTLD_NOLOAD``). If none
is found, or one has no thread-count functions, the reason is logged
once at INFO on ``tribem.blas`` and that library keeps its threads.
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

# process-wide, as the count it guards: callers inside the pin, and the
# counts the first of them found
_lock = threading.Lock()
_depth = 0
_saved = ()


class _Library(NamedTuple):
    """One loaded OpenBLAS and its process-wide thread-count functions."""

    package: str
    threads: Callable[[], int]
    set_threads: Callable[[int], None]


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
            found.append(_Library(package, *functions))
    reason = None
    if missing:
        reason = f"no loaded OpenBLAS with thread-count functions for {', '.join(missing)}"
    return tuple(found), reason


@functools.cache
def libraries():
    """The found libraries; logs once why any is missing."""
    found, reason = _discover()
    if reason is not None:
        log.info("BLAS threads stay unpinned: %s", reason)
    return found


def thread_counts():
    """{package: BLAS thread count} for the found libraries."""
    return {lib.package: lib.threads() for lib in libraries()}


@contextmanager
def single_threaded():
    """Hold the found libraries at one thread until the last concurrent
    caller leaves, then restore the counts the first one found, also
    when the body raises."""
    global _depth, _saved
    found = libraries()
    with _lock:
        if _depth == 0:
            _saved = tuple(lib.threads() for lib in found)
            for lib in found:
                lib.set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for lib, n in zip(found, _saved):
                    lib.set_threads(n)
