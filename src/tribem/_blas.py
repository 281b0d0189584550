"""numpy's OpenBLAS: the LU routines tribem factors and solves with, and
one BLAS thread for the calls that gain nothing from more.

tribem uses one BLAS library, the OpenBLAS that numpy's wheel keeps in
``numpy.libs``. Its products go through numpy; its LU factorisation and
solve are LAPACK's in-place ``sgetrf``/``dgetrf`` and
``sgetrs``/``dgetrs`` (Anderson et al., *LAPACK Users' Guide*, 3rd ed.,
1999), called through ctypes in the same library (:func:`getrf`,
:func:`getrs`). The wheel exports them as ``scipy_sgetrf_64_`` and the
like: the names are searched with the prefix ``scipy_`` or none and
the suffix ``_64_`` (64-bit sizes and pivots) or ``_``. The routines
are found at import. A numpy without such a library (another BLAS, or
a platform that cannot look up a loaded library) makes the import
raise ``ImportError`` naming the files searched; nothing else provides
LAPACK.

:func:`single_threaded` holds the library at one thread and restores
its count after, so a small solve or a distributed run's sweeps run in
the calling thread and wake no BLAS pool. A pool's threads busy-wait
after a call, so one woken there keeps a core spinning into the next
request.

The thread count is process-wide: the pthreads build keeps no
per-thread count (``openblas_set_num_threads_local`` sets the global
count there too). So a pin and a call whose rounding depends on the
library's own count (a large LU, run inside :func:`library_threads`)
hold one re-entrant lock for their body. The outermost pin records the
count, sets it to one and restores it on exit, also after a raise; a
nested entry of either kind runs inside the outer one, so a thread
never waits on itself. A large LU thus never runs at another thread's
pin, and outside a pin nothing is changed. A child forked while another
thread holds the lock would inherit it held by a thread it lacks, and
its first large solve would wait forever; a fork hook gives such a
child the count that pin found and a free lock.

The lock also owns what tribem keeps between calls: the solver's kept
arrays and the distributed run's worker processes, since every solve
and every distributed run holds it for its whole body
(:mod:`tribem.solver`, :mod:`tribem.distribution`). The cost falls on
concurrent callers, which tribem never makes itself (its distributed
run forks worker processes): solves and distributed runs from several
threads run one at a time. On a 2-vCPU VM, in 4 alternating pairs of
processes, the earlier gate that let pins overlap against this lock:
two threads looping solves of the 288-DOF cube made 1683-2068 against
1019-1109 solves/s in all (one thread alone, 920-1264 against
955-1187); two threads looping two-worker cube runs at q=16 made
93.6-99.3 against 86.6-92.7 runs/s. Measured again on the same VM
once the distributed run held the lock for its whole body, in 8
alternating pairs of 10 s processes, two threads looping two-worker
runs of two cube problems at q=16 made 109-149 runs/s in all (median
125) taking turns, against 108-130 (median 120) when the second
thread's run swept alone beside the first, higher in 6 of 8 pairs.
The lock is not fair: one thread made 28-50% of a process's runs.

A pin keeps a joined pool joined. OpenBLAS's fork handler joins the
pool, as when the distributed run forks its workers just before it
pins. ``set_num_threads`` starts a joined pool again, and its new worker
spins too, so on a joined pool a pin writes ``blas_cpu_number``, the
count each call reads and ``set_num_threads`` sets, in place. Starting
and joining the pool at each pin instead cost a small request run right
after a large one 3-4.5 ms of ~20.

Discovery opens only a library already loaded (``RTLD_NOLOAD``). If it
has no thread-count functions, the reason is logged once at INFO on
``tribem.blas`` and it keeps its threads; a library without
``blas_server_avail`` or ``blas_cpu_number`` is logged once the same
way, and a pin on it always goes through ``set_num_threads``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import os
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

log = logging.getLogger("tribem.blas")

# where numpy's wheel keeps its OpenBLAS
_PATTERN = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
_ROUTINES = ("sgetrf", "sgetrs", "dgetrf", "dgetrs")

# held by single_threaded and library_threads for their body, one
# thread at a time, and the count the outermost pin found (None while
# no pin is in effect)
_lock = threading.RLock()
_saved = None


class _Lapack(NamedTuple):
    """numpy's loaded OpenBLAS, its LU routines by name and the integer
    type of their sizes and pivots."""

    path: str
    lib: ctypes.CDLL
    routines: dict
    integer: type


def _candidates():
    """(path, library) for each OpenBLAS in numpy's wheel that numpy has
    loaded."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return
    for path in sorted(glob.glob(_PATTERN)):
        try:
            yield path, ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue


def _find_lapack(candidates):
    """The first of the (path, library) ``candidates`` that exports all
    of ``_ROUTINES``, as a :class:`_Lapack`; ImportError naming the
    files searched if none does."""
    searched = []
    for path, lib in candidates:
        searched.append(path)
        for prefix in ("scipy_", ""):
            for suffix, integer in (("64_", ctypes.c_int64), ("", ctypes.c_int32)):
                try:
                    routines = {r: getattr(lib, f"{prefix}{r}_{suffix}") for r in _ROUTINES}
                except AttributeError:
                    continue
                p = ctypes.c_void_p
                for name, routine in routines.items():
                    routine.restype = None
                    # getrf(m, n, a, lda, ipiv, info); getrs(trans, n, nrhs,
                    # a, lda, ipiv, b, ldb, info) and Fortran's hidden length
                    # of trans
                    routine.argtypes = [p] * 6 if name.endswith("f") else [p] * 9 + [
                        ctypes.c_size_t
                    ]
                return _Lapack(path, lib, routines, integer)
    where = ", ".join(searched) or "no loaded library"
    if not hasattr(os, "RTLD_NOLOAD"):
        where += " (this platform cannot look up a loaded library)"
    raise ImportError(
        f"tribem needs LAPACK's {', '.join(_ROUTINES)} from numpy's OpenBLAS and found "
        f"none; searched {_PATTERN}: {where}",
        name=__name__,
        path=_PATTERN,
    )


_LAPACK = _find_lapack(_candidates())
_PIVOTS = np.dtype(_LAPACK.integer)
_LETTER = {np.dtype(np.float32): "s", np.dtype(np.float64): "d"}


def _matrix(a, name):
    """n after checking that ``a`` is a writable, square, column-major
    float32 or float64 array."""
    if not isinstance(a, np.ndarray) or a.dtype not in _LETTER:
        got = a.dtype if isinstance(a, np.ndarray) else type(a).__name__
        raise ValueError(f"{name} must be a float32 or float64 array, got {got}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not a.flags.f_contiguous or not a.flags.writeable:
        raise ValueError(f"{name} must be a writable F-contiguous (column-major) array")
    return a.shape[0]


def _checked(name, info):
    """LAPACK's ``info`` of routine ``name``, which rejects an argument
    with a negative one."""
    if info.value < 0:
        raise ValueError(f"LAPACK {name} rejected argument {-info.value}")
    return info.value


def getrf(a):
    """Factor ``a`` = P L U in its own memory, LAPACK's ``sgetrf`` or
    ``dgetrf`` by its dtype: ``a`` then holds U and L's entries below the
    diagonal. ``a`` must be a writable, square, F-contiguous float32 or
    float64 array, checked before the call. Returns LAPACK's 1-based
    pivots, in the library's integer type, and ``info``: 0, or i > 0
    when U[i-1, i-1] is exactly zero."""
    n = _matrix(a, "a")
    piv = np.empty(n, _PIVOTS)
    size, lda, info = _LAPACK.integer(n), _LAPACK.integer(max(1, n)), _LAPACK.integer()
    name = _LETTER[a.dtype] + "getrf"
    _LAPACK.routines[name](ctypes.byref(size), ctypes.byref(size), a.ctypes.data,
                           ctypes.byref(lda), piv.ctypes.data, ctypes.byref(info))
    return piv, _checked(name, info)


def getrs(lu, piv, b):
    """Solve A X = B in place from :func:`getrf`'s ``lu`` and ``piv``:
    LAPACK's ``sgetrs`` or ``dgetrs``, ``b`` overwritten by X and
    returned. ``b`` is a vector or a matrix of right-hand sides of
    ``lu``'s dtype, writable and F-contiguous; dtypes, shapes and layout
    are checked before the call."""
    n = _matrix(lu, "lu")
    if not isinstance(piv, np.ndarray) or piv.dtype != _PIVOTS or piv.shape != (n,):
        raise ValueError(f"piv must be getrf's {n} pivots")
    if not isinstance(b, np.ndarray) or b.dtype != lu.dtype:
        raise ValueError(f"b must be a {lu.dtype} array like lu")
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"b must have {n} rows, got shape {b.shape}")
    if not b.flags.f_contiguous or not b.flags.writeable:
        raise ValueError("b must be a writable F-contiguous (column-major) array")
    size, lda, info = _LAPACK.integer(n), _LAPACK.integer(max(1, n)), _LAPACK.integer()
    nrhs = _LAPACK.integer(1 if b.ndim == 1 else b.shape[1])
    name = _LETTER[lu.dtype] + "getrs"
    _LAPACK.routines[name](ctypes.c_char_p(b"N"), ctypes.byref(size), ctypes.byref(nrhs),
                           lu.ctypes.data, ctypes.byref(lda), piv.ctypes.data, b.ctypes.data,
                           ctypes.byref(lda), ctypes.byref(info), 1)
    _checked(name, info)
    return b


class _Pool(NamedTuple):
    """The controls of one OpenBLAS's thread pool."""

    joined: Callable[[], bool]  # whether the pool is joined now
    set_count: Callable[[int], None]  # sets the count without starting it


class _Library(NamedTuple):
    """numpy's OpenBLAS as a pin sees it: its process-wide thread-count
    functions and its pool's controls (None when the build does not
    export them)."""

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
    """numpy's library as a :class:`_Library` and None, or None and the
    reason it cannot be pinned."""
    functions = _functions(_LAPACK.lib)
    if functions is None:
        return None, f"numpy's OpenBLAS {_LAPACK.path} has no thread-count functions"
    return _Library(*functions, _pool(_LAPACK.lib)), None


@functools.cache
def library():
    """The pinned library, numpy's, or None. Logs once why it is missing,
    or that it has no pool controls."""
    found, reason = _discover()
    if reason is not None:
        log.info("BLAS threads stay unpinned: %s", reason)
    elif found.pool is None:
        log.info(
            "no BLAS pool controls in numpy: a pin there goes through"
            " set_num_threads, which restarts a joined pool"
        )
    return found


def thread_counts():
    """{"numpy": its BLAS thread count}, or {} when no library is pinned."""
    lib = library()
    return {} if lib is None else {"numpy": lib.threads()}


def _set_threads(lib, n):
    """Set the library's count. A joined pool stays joined: its count is
    written in place, as ``set_num_threads`` would start it again."""
    if lib.pool is not None and lib.pool.joined():
        lib.pool.set_count(n)
    else:
        lib.set_threads(n)


@contextmanager
def single_threaded():
    """Hold the library at one thread for the body, and restore the count
    found after, also when the body raises. Holds the lock: waits while
    another thread is inside a pin or :func:`library_threads`, and a
    nested entry runs inside the outer one."""
    global _saved
    lib = library()
    with _lock:
        if lib is None or _saved is not None:
            yield
            return
        _saved = lib.threads()
        try:
            _set_threads(lib, 1)
            yield
        finally:
            _set_threads(lib, _saved)
            _saved = None


def _after_fork_in_child():
    """A child forked while another thread held the lock inherits it held
    by a thread it does not have: restore the count that thread's pin
    found, if any, and start with a free lock. A lock the forking thread
    holds stays its own."""
    global _lock, _saved
    if _lock.acquire(blocking=False):
        _lock.release()
        return
    if _saved is not None:
        _set_threads(library(), _saved)
        _saved = None
    _lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


@contextmanager
def library_threads():
    """Run the body at the library's own thread count, or at one inside
    the caller's own pin: hold the lock, so no other thread's pin
    changes the count until the body ends."""
    with _lock:
        yield
