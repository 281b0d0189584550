import json
import logging
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from tribem import _blas

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def found():
    libs = _blas.libraries()
    if not libs:
        pytest.skip("no OpenBLAS of numpy or scipy found")
    return libs


def counts():
    return _blas.thread_counts()


class TestSingleThreaded:
    def test_pins_and_restores(self, found):
        before = counts()
        with _blas.single_threaded():
            assert counts() == {lib.package: 1 for lib in found}
        assert counts() == before

    def test_restores_after_an_exception(self, found):
        before = counts()
        with pytest.raises(KeyError):
            with _blas.single_threaded():
                raise KeyError("inside")
        assert counts() == before

    def test_restores_the_count_it_found(self, found):
        # not the libraries' default count, which is the core count
        before = counts()
        try:
            for lib in found:
                lib.set_threads(1)
            with _blas.single_threaded():
                pass
            assert counts() == {lib.package: 1 for lib in found}
        finally:
            for lib in found:
                lib.set_threads(before[lib.package])

    @pytest.mark.parametrize("first_out", ["first in", "second in"])
    def test_overlapping_callers(self, found, first_out):
        # the count is process-wide: a second thread sees the pin, and the
        # count comes back only when the last caller leaves, whichever it is
        before = counts()
        pinned = {lib.package: 1 for lib in found}
        entered = {name: threading.Event() for name in ("first in", "second in")}
        leave = {name: threading.Event() for name in ("first in", "second in")}
        seen = {}

        def caller(name):
            with _blas.single_threaded():
                entered[name].set()
                leave[name].wait(10)
            seen[name] = counts()

        def bystander():
            seen["bystander"] = counts()

        threads = {name: threading.Thread(target=caller, args=(name,)) for name in entered}
        threads["first in"].start()
        assert entered["first in"].wait(10)
        threads["second in"].start()
        assert entered["second in"].wait(10)
        reader = threading.Thread(target=bystander)
        reader.start()
        reader.join(10)
        assert seen["bystander"] == pinned

        last_out = "second in" if first_out == "first in" else "first in"
        leave[first_out].set()
        threads[first_out].join(10)
        assert seen[first_out] == pinned
        leave[last_out].set()
        threads[last_out].join(10)
        assert seen[last_out] == before
        assert counts() == before


ENTER = {"pin": _blas.single_threaded, "own": _blas.library_threads}
RIVAL = {"pin": "own", "own": "pin"}
KIND = {"pin": _blas._PINNED, "own": _blas._OWN}


class Caller:
    """A thread that enters the gate as ``kind``, records the counts it
    sees inside and stays until released."""

    def __init__(self, kind):
        self.kind = kind
        self.inside = threading.Event()
        self.release = threading.Event()
        self.seen = None
        self.thread = threading.Thread(target=self.run, daemon=True)
        self.thread.start()

    def run(self):
        with ENTER[self.kind]():
            self.seen = counts()
            self.inside.set()
            self.release.wait(10)

    def finish(self):
        self.release.set()
        self.thread.join(10)
        assert not self.thread.is_alive()


def waiting(kind, n=1):
    """Wait until ``n`` callers of ``kind`` wait at the gate."""
    deadline = time.monotonic() + 10
    while _blas._waiting[KIND[kind]] < n:
        assert time.monotonic() < deadline, f"no {kind} caller waits"
        time.sleep(0.001)


class TestGate:
    """Pins and calls at the libraries' own count never overlap across
    threads, and neither kind starves the other."""

    @pytest.mark.parametrize("first", ["pin", "own"])
    def test_overlapping_kinds_take_turns(self, found, first):
        before = counts()
        held = Caller(first)
        assert held.inside.wait(10)
        rival = Caller(RIVAL[first])
        waiting(rival.kind)
        assert not rival.inside.is_set()
        held.finish()
        assert rival.inside.wait(10)
        rival.finish()
        seen = {held.kind: held.seen, rival.kind: rival.seen}
        assert seen == {"pin": {lib.package: 1 for lib in found}, "own": before}
        assert counts() == before

    @pytest.mark.parametrize("first", ["pin", "own"])
    def test_a_waiting_caller_is_not_starved(self, found, first):
        # a caller of first's kind arriving while the rival waits does not
        # join first, which would keep the gate in first's kind
        before = counts()
        held = Caller(first)
        assert held.inside.wait(10)
        rival = Caller(RIVAL[first])
        waiting(rival.kind)
        late = Caller(first)
        waiting(late.kind)
        held.finish()
        assert rival.inside.wait(10)
        assert not late.inside.is_set()
        rival.finish()
        assert late.inside.wait(10)
        late.finish()
        assert counts() == before

    @pytest.mark.parametrize("outer", ["pin", "own"])
    def test_a_thread_never_waits_on_itself(self, found, outer):
        # the nested call enters at once, even with a rival waiting, and
        # runs at the count its outer call set
        before = counts()
        ready, go, done, seen = threading.Event(), threading.Event(), threading.Event(), []

        def nested():
            with ENTER[outer]():
                ready.set()
                go.wait(10)
                with ENTER[RIVAL[outer]]():
                    seen.append(counts())
            done.set()

        thread = threading.Thread(target=nested, daemon=True)
        thread.start()
        assert ready.wait(10)
        rival = Caller(RIVAL[outer])
        waiting(rival.kind)
        go.set()
        assert done.wait(10)
        assert seen == [{lib.package: 1 for lib in found} if outer == "pin" else before]
        assert rival.inside.wait(10)
        rival.finish()
        thread.join(10)
        assert counts() == before


    def test_stress(self, found):
        # more threads than cores, entering both kinds, sometimes nested,
        # with frequent thread switches: the kinds never overlap, each
        # sees its count, and the gate ends empty at the count it started
        before = counts()
        pinned = {lib.package: 1 for lib in found}
        lock, inside, errors = threading.Lock(), {"pin": 0, "own": 0}, []

        def enter(kind):
            with lock:
                inside[kind] += 1
                if inside[RIVAL[kind]]:
                    errors.append(f"{kind} beside {RIVAL[kind]}")
            seen = counts()
            if seen != (pinned if kind == "pin" else before):
                errors.append(f"{kind} saw {seen}")
            with lock:
                inside[kind] -= 1

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(150):
                kind = "pin" if rng.random() < 0.5 else "own"
                with ENTER[kind]():
                    enter(kind)
                    if rng.random() < 0.2:
                        with ENTER[RIVAL[kind]]():
                            pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,), daemon=True) for s in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert counts() == before
        assert _blas._inside == {} and _blas._kind is None


class TestNothingFound:
    @pytest.fixture
    def nothing(self, monkeypatch):
        monkeypatch.setattr(_blas, "_discover", lambda: ((), "no OpenBLAS here"))
        _blas.libraries.cache_clear()
        yield
        _blas.libraries.cache_clear()

    def test_no_op_with_one_info_line(self, nothing, caplog):
        with caplog.at_level(logging.INFO, logger="tribem.blas"):
            for _ in range(3):
                with _blas.single_threaded():
                    assert _blas.thread_counts() == {}
        (record,) = caplog.records
        assert record.levelno == logging.INFO
        assert record.getMessage() == "BLAS threads stay unpinned: no OpenBLAS here"


def test_discovery_loads_nothing_new(found):
    # RTLD_NOLOAD: what is found is what numpy and scipy have loaded
    assert sorted(lib.package for lib in found) == ["numpy", "scipy"]


# Records both libraries' counts before tribem is imported, runs one
# two-worker request on the cube, and records them again.
_GUARD = """
import ctypes, glob, json, os
import numpy, scipy.linalg

def count(package, names):
    root = os.path.dirname(__import__(package).__file__)
    for path in glob.glob(os.path.join(root + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for name in names:
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None

def counts():
    return [
        count("numpy", ["scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"]),
        count("scipy", ["scipy_openblas_get_num_threads", "openblas_get_num_threads"]),
    ]

before = counts()
import tribem
prob = tribem.cube_problem()
tribem.distributed_assemble_solve(
    prob.mesh, prob.material, prob.bc, tribem.gauss_rule(4), workers=2
)
print(json.dumps([before, counts()]))
"""


def test_no_process_wide_side_effect(found):
    result = subprocess.run(
        [sys.executable, "-c", _GUARD],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    before, after = json.loads(result.stdout.strip().splitlines()[-1])
    assert None not in before
    assert after == before
