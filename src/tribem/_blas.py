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
nothing is changed.

A call whose rounding depends on the libraries' own count (a large LU)
runs inside :func:`library_threads`. The two form one gate: pins share
it with pins and such calls with each other, but a kind waits while a
thread of the other kind is inside, and while the other kind waits a
new caller of the first does not join, so neither starves. A thread
already inside enters again at once, whatever the kind, so it never
waits on itself; its nested call runs at the count its outer one set.
Each entry and exit takes the gate's lock once.

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

# process-wide, as the count it guards: the kind of caller inside
# (_PINNED or _OWN, None when the gate is empty), how many calls of each
# thread are inside, how many callers of each kind wait, the kind an
# emptied gate admits first when both wait, and the counts the first pin
# found
_PINNED, _OWN = "pinned", "own"
_OTHER = {_PINNED: _OWN, _OWN: _PINNED}
_gate = threading.Condition()
_kind = None
_inside = {}
_waiting = {_PINNED: 0, _OWN: 0}
_turn = _OWN
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


def _admits(kind):
    """Whether a caller of ``kind`` from a thread not yet inside may enter."""
    rival = _OTHER[kind]
    if _kind is None:
        return not _waiting[rival] or _turn == kind
    return _kind == kind and not _waiting[rival]


@contextmanager
def _enter(kind):
    """Hold the gate as ``kind`` for the body; the first pin sets the
    found libraries to one thread and the last caller out restores
    them."""
    global _kind, _saved, _turn
    found = libraries()
    me = threading.get_ident()
    with _gate:
        if me not in _inside:
            _waiting[kind] += 1
            try:
                _gate.wait_for(lambda: _admits(kind))
            finally:
                _waiting[kind] -= 1
            if _kind is None:
                _kind = kind
                if kind == _PINNED:
                    _saved = tuple(lib.threads() for lib in found)
                    for lib in found:
                        lib.set_threads(1)
        _inside[me] = _inside.get(me, 0) + 1
    try:
        yield
    finally:
        with _gate:
            _inside[me] -= 1
            if not _inside[me]:
                del _inside[me]
            if not _inside:
                if _kind == _PINNED:
                    for lib, n in zip(found, _saved):
                        lib.set_threads(n)
                _turn = _OTHER[_kind]
                _kind = None
                _gate.notify_all()


def single_threaded():
    """Hold the found libraries at one thread until the last concurrent
    caller leaves, then restore the counts the first one found, also
    when the body raises. Waits while another thread is inside
    :func:`library_threads`."""
    return _enter(_PINNED)


def library_threads():
    """Run the body at the libraries' own thread count: wait while
    another thread holds a pin, and keep other threads' new pins waiting
    until the body ends."""
    return _enter(_OWN)
