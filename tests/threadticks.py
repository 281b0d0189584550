"""CPU ticks of each OS thread of this process, read from
``/proc/self/task/*/stat``, to see whether a BLAS pool is left spinning.

An OpenBLAS pool's threads busy-wait for a while after each threaded
call, so a pool left awake gains ticks while the caller sleeps; a pool
that was joined, or has gone to sleep, gains none. Threads are OS
threads, so the pools of both numpy's and scipy's OpenBLAS are seen
although Python knows nothing of them.
"""

import threading
import time
from pathlib import Path

import pytest

TASKS = Path("/proc/self/task")


def require_proc():
    """Skip the calling test where the per-thread stat files are missing."""
    if not TASKS.is_dir():
        pytest.skip("no /proc/self/task on this platform")


def thread_ticks():
    """{OS thread id: user + system CPU ticks} for every thread of this
    process. A thread that exits while being read is left out."""
    ticks = {}
    for task in TASKS.iterdir():
        try:
            stat = (task / "stat").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        # the fields after the command name, which may hold spaces and
        # parentheses; utime and stime are fields 14 and 15 of the line
        fields = stat[stat.rindex(")") + 2 :].split()
        ticks[int(task.name)] = int(fields[11]) + int(fields[12])
    return ticks


def busy_threads(seconds=0.05):
    """{OS thread id: ticks gained} of the threads other than the calling
    one that used CPU while the caller slept for ``seconds``. At
    ``SC_CLK_TCK`` ticks a second (100 on Linux), a thread
    spinning through 50 ms gains about five."""
    me = threading.get_native_id()
    before = thread_ticks()
    time.sleep(seconds)
    after = thread_ticks()
    return {
        tid: after[tid] - before[tid]
        for tid in after.keys() & before.keys()
        if tid != me and after[tid] > before[tid]
    }
