import _thread
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

import threadticks
import tribem
from tribem import _blas, solver

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


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


class _FakePool:
    """An OpenBLAS pool as the gate sees it: ``set_num_threads`` starts
    it, ``shutdown`` joins it, and the counts written in place are
    kept."""

    def __init__(self):
        self.joined = False
        self.shutdowns = 0
        self.written = []

    def set_threads(self, n):
        self.joined = False

    def shutdown(self):
        self.joined = True
        self.shutdowns += 1
        return 0

    def controls(self):
        return _blas._Pool(self.shutdown, lambda: self.joined, self.written.append)


class TestQuiet:
    """quiet joins numpy's pool at the start of a large operation while
    no other Python thread is alive; a pin keeps a joined pool joined."""

    @pytest.fixture
    def fakes(self, monkeypatch):
        """Install fake numpy and scipy libraries; ``fakes(without=...)``
        leaves those without pool controls."""

        def install(without=()):
            pools = {package: _FakePool() for package in ("numpy", "scipy")}
            libs = tuple(
                _blas._Library(
                    package,
                    lambda: 2,
                    pool.set_threads,
                    None if package in without else pool.controls(),
                )
                for package, pool in pools.items()
            )
            monkeypatch.setattr(_blas, "_discover", lambda: (libs, None))
            _blas.libraries.cache_clear()
            return pools

        assert threading.active_count() == 1, "a thread of an earlier test is alive"
        yield install
        _blas.libraries.cache_clear()

    @staticmethod
    def shutdowns(pools):
        return {package: pool.shutdowns for package, pool in pools.items()}

    def test_numpy_joined_on_entry_only(self, fakes):
        pools = fakes()
        with _blas.library_threads():
            assert self.shutdowns(pools) == {"numpy": 1, "scipy": 0}
        assert self.shutdowns(pools) == {"numpy": 1, "scipy": 0}

    def test_nothing_beside_another_thread(self, fakes, caplog):
        pools = fakes()
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            with caplog.at_level(logging.DEBUG, logger="tribem.blas"):
                with _blas.library_threads():
                    pass
        finally:
            release.set()
            other.join(10)
        assert self.shutdowns(pools) == {"numpy": 0, "scipy": 0}
        (record,) = caplog.records
        assert record.getMessage() == "BLAS pools left running: 1 other Python thread(s) alive"

    def test_raw_thread_not_seen(self, fakes):
        # the guard's limit: threading does not count a thread started
        # with _thread, so a BLAS call in one could be cut off
        pools = fakes()
        started, release = _thread.allocate_lock(), _thread.allocate_lock()
        started.acquire()
        release.acquire()

        def wait():
            started.release()
            release.acquire()

        _thread.start_new_thread(wait, ())
        try:
            assert started.acquire(timeout=10)
            with _blas.library_threads():
                pass
        finally:
            release.release()
        assert self.shutdowns(pools) == {"numpy": 1, "scipy": 0}

    def test_pin_keeps_a_joined_pool_joined(self, fakes, caplog):
        # set_num_threads would start the joined pool, so its count is
        # written in place; a live pool is set as before
        pools = fakes()
        pools["numpy"].joined = True
        with caplog.at_level(logging.DEBUG, logger="tribem.blas"):
            with _blas.single_threaded():
                with _blas.single_threaded():
                    inside = {p: pool.joined for p, pool in pools.items()}
        assert inside == {"numpy": True, "scipy": False}
        assert pools["numpy"].joined
        assert pools["numpy"].written == [1, 2]
        assert pools["scipy"].written == []
        assert self.shutdowns(pools) == {"numpy": 0, "scipy": 0}
        assert caplog.records == []

    @pytest.mark.parametrize("large", [False, True])
    def test_large_apply_boundary_conditions_quiets(self, fakes, monkeypatch, large):
        prob = tribem.cube_problem()
        hg = tribem.assemble(prob.mesh, prob.material, tribem.gauss_rule(4))
        if large:
            monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", hg.n_dofs)
        pools = fakes()
        tribem.apply_boundary_conditions(hg, prob.bc)
        assert self.shutdowns(pools) == {"numpy": int(large), "scipy": 0}

    def test_pin_leaves_live_pools_alone(self, fakes):
        pools = fakes()
        with _blas.single_threaded():
            pass
        assert self.shutdowns(pools) == {"numpy": 0, "scipy": 0}

    def test_one_debug_line_per_operation(self, fakes, caplog):
        pools = fakes()
        with caplog.at_level(logging.DEBUG, logger="tribem.blas"):
            for _ in range(3):
                with _blas.library_threads():
                    pass
        assert self.shutdowns(pools) == {"numpy": 3, "scipy": 0}
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == 3 * [
            (logging.DEBUG, "BLAS pools quieted: numpy")
        ]

    def test_library_without_the_symbol_skipped(self, fakes, caplog):
        pools = fakes(without=("numpy",))
        with caplog.at_level(logging.DEBUG, logger="tribem.blas"):
            for _ in range(2):
                with _blas.library_threads():
                    pass
            with _blas.single_threaded():
                pass
        assert self.shutdowns(pools) == {"numpy": 0, "scipy": 0}
        info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert info == ["BLAS pools stay awake: no pool controls in numpy"]
        debug = {r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG}
        assert debug == {"BLAS pools quieted: none; left running: numpy (no pool controls)"}


def test_discovery_finds_the_pools(found):
    assert all(lib.pool is not None for lib in found)


# After a threaded numpy product, or with argv[1] == "alone" without
# one, solves a seeded, well-conditioned 1600-DOF system (above
# SINGLE_THREAD_DOFS, so at the libraries' own thread count), then a
# 100-DOF one (pinned). Prints the threads the product left busy, the
# ticks each of them gained during the large solve, the threads that
# were started during the small one and are still there, and the hash
# of the large solve's x.
_SPIN = """
import hashlib, json, sys
import numpy as np
from threadticks import busy_threads, thread_ticks
from tribem.assembly import LinearSystem
from tribem.solver import solve_direct

def system(n, seed):
    rng = np.random.default_rng(seed)
    a = np.asfortranarray(rng.standard_normal((n, n)) + n * np.eye(n))
    return LinearSystem(a, rng.standard_normal(n), np.zeros(n, dtype=bool))

large, small = system(1600, 19), system(100, 20)
woken = {}
if sys.argv[1] == "product":
    large.a @ large.b
    woken = busy_threads()
before = thread_ticks()
x = solve_direct(large)
after = thread_ticks()
spun = [after.get(tid, before[tid]) - before[tid] for tid in woken]
threads = set(after)
solve_direct(small)
started = sorted(set(thread_ticks()) - threads)
print(json.dumps([len(woken), spun, started, hashlib.sha256(x.tobytes()).hexdigest()]))
"""


def test_large_solve_joins_the_pool_a_product_left_spinning(found):
    """A numpy product leaves numpy's pool spinning; a large solve joins
    it on entry, so it takes no CPU from the solve, and the pin of the
    small solve after it starts no pool thread that stays. x is the one
    the solve gives without the product."""
    threadticks.require_proc()
    if max(counts().values()) == 1:
        pytest.skip("the libraries run one thread, so they have no pool")

    def run(mode):
        result = subprocess.run(
            [sys.executable, "-c", _SPIN, mode],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])},
            check=True,
        )
        return json.loads(result.stdout.strip().splitlines()[-1])

    woken, spun, started, x_hash = run("product")
    assert woken, "the product left no pool spinning, so the check shows nothing"
    assert spun == [0] * woken
    assert started == []
    assert run("alone")[3] == x_hash
