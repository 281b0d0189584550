import ctypes
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import threadticks
import tribem
from tribem import _blas, solver
from tribem.errors import SingularSystemError

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


@pytest.fixture
def found():
    lib = _blas.library()
    if lib is None:
        pytest.skip("no OpenBLAS of numpy found")
    return lib


def counts():
    return _blas.thread_counts()


@pytest.fixture
def caller():
    """Starts a :class:`Caller` of a kind; every one still inside at
    teardown is released, so a failed test leaves none holding the lock
    for the next."""
    started = []

    def start(kind):
        started.append(Caller(kind))
        return started[-1]

    yield start
    for each in started:
        each.finish()


class TestSingleThreaded:
    def test_pins_and_restores(self, found):
        before = counts()
        with _blas.single_threaded():
            assert counts() == {"numpy": 1}
        assert counts() == before

    def test_restores_after_an_exception(self, found):
        before = counts()
        with pytest.raises(KeyError):
            with _blas.single_threaded():
                raise KeyError("inside")
        assert counts() == before

    def test_restores_the_count_it_found(self, found):
        # not the library's default count, which is the core count
        before = counts()
        try:
            found.set_threads(1)
            with _blas.single_threaded():
                pass
            assert counts() == {"numpy": 1}
        finally:
            found.set_threads(before["numpy"])

    @pytest.mark.parametrize("first_out", ["first in", "second in"])
    def test_overlapping_callers(self, found, caller, first_out):
        # a second thread's pin waits until the first leaves, also when it
        # is released first, and sees one thread once inside; the count is
        # process-wide, so a bystander sees the pin too
        before = counts()
        pinned = {"numpy": 1}
        first = caller("pin")
        assert first.inside.wait(10)
        second = caller("pin")
        assert not second.inside.wait(0.2)
        seen = []
        reader = threading.Thread(target=lambda: seen.append(counts()))
        reader.start()
        reader.join(10)
        assert seen == [pinned]

        {"first in": first, "second in": second}[first_out].release.set()
        if first_out == "second in":
            assert not second.inside.wait(0.2)
        first.finish()
        assert second.inside.wait(10)
        second.finish()
        assert first.seen == second.seen == pinned
        assert counts() == before


ENTER = {"pin": _blas.single_threaded, "own": _blas.library_threads}
RIVAL = {"pin": "own", "own": "pin"}


class Caller:
    """A thread that enters as ``kind``, records the counts it sees
    inside and stays until released."""

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


class TestGate:
    """Pins and calls at the library's own count hold one lock: no two
    threads' calls overlap, and a thread inside enters again at once."""

    @pytest.mark.parametrize("first", ["pin", "own"])
    def test_overlapping_kinds_take_turns(self, found, caller, first):
        before = counts()
        held = caller(first)
        assert held.inside.wait(10)
        rival = caller(RIVAL[first])
        assert not rival.inside.wait(0.2)
        held.finish()
        assert rival.inside.wait(10)
        rival.finish()
        seen = {held.kind: held.seen, rival.kind: rival.seen}
        assert seen == {"pin": {"numpy": 1}, "own": before}
        assert counts() == before

    @pytest.mark.parametrize("outer", ["pin", "own"])
    def test_a_thread_never_waits_on_itself(self, found, caller, outer):
        # the nested call enters at once, even with a rival waiting: a pin
        # inside library_threads pins and restores, and library_threads
        # inside a pin runs at one thread
        before = counts()
        pinned = {"numpy": 1}
        ready, go, done, seen = threading.Event(), threading.Event(), threading.Event(), []

        def nested():
            with ENTER[outer]():
                ready.set()
                go.wait(10)
                with ENTER[RIVAL[outer]]():
                    seen.append(counts())
                seen.append(counts())
            done.set()

        thread = threading.Thread(target=nested, daemon=True)
        thread.start()
        assert ready.wait(10)
        rival = caller(RIVAL[outer])
        assert not rival.inside.wait(0.1)
        go.set()
        assert done.wait(10)
        assert seen == [pinned, pinned if outer == "pin" else before]
        assert rival.inside.wait(10)
        rival.finish()
        thread.join(10)
        assert counts() == before

    def test_stress(self, found, caller):
        # more threads than cores, entering both kinds, sometimes nested,
        # with frequent thread switches: the kinds never overlap, each
        # sees its count, and the lock ends free at the count it started
        before = counts()
        pinned = {"numpy": 1}
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
        after = caller("pin")
        assert after.inside.wait(10)
        after.finish()
        assert after.seen == pinned


class TestNothingFound:
    @pytest.fixture
    def nothing(self, monkeypatch):
        monkeypatch.setattr(_blas, "_discover", lambda: (None, "no OpenBLAS here"))
        _blas.library.cache_clear()
        yield
        _blas.library.cache_clear()

    def test_no_op_with_one_info_line(self, nothing, caplog):
        with caplog.at_level(logging.INFO, logger="tribem.blas"):
            for _ in range(3):
                with _blas.single_threaded():
                    assert _blas.thread_counts() == {}
        (record,) = caplog.records
        assert record.levelno == logging.INFO
        assert record.getMessage() == "BLAS threads stay unpinned: no OpenBLAS here"


def test_discovery_loads_nothing_new(found):
    # RTLD_NOLOAD: what is found is what numpy has loaded, and the LU
    # routines come from the same library
    assert list(_blas.thread_counts()) == ["numpy"]
    assert os.path.dirname(_blas._LAPACK.path) == os.path.dirname(np.__file__) + ".libs"


# Records numpy's library's count before tribem is imported, runs one
# two-worker request on the cube, and records it again.
_GUARD = """
import ctypes, glob, json, os
import numpy

def count(names):
    root = os.path.dirname(numpy.__file__)
    for path in glob.glob(os.path.join(root + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for name in names:
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None

def counts():
    return [count(["scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"])]

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


# Holds a pin in argv[1]'s thread, forks, and solves a seeded 1600-DOF
# system (above SINGLE_THREAD_DOFS, so inside library_threads) in the
# child, which SIGALRM ends after 20 s. Prints the counts before the
# pin, the child's counts after its solve and the child's exit code.
_FORK = """
import json, os, signal, sys, threading
import numpy as np
from tribem import _blas
from tribem.assembly import LinearSystem
from tribem.solver import solve_direct

rng = np.random.default_rng(19)
a = np.asfortranarray(rng.standard_normal((1600, 1600)) + 1600 * np.eye(1600))
system = LinearSystem(a, rng.standard_normal(1600), np.zeros(1600, dtype=bool))
before = _blas.thread_counts()
inside, leave = threading.Event(), threading.Event()

def hold():
    with _blas.single_threaded():
        inside.set()
        leave.wait(60)

def fork():
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)
        solve_direct(system)
        os.write(w, json.dumps(_blas.thread_counts()).encode())
        os._exit(0)
    os.close(w)
    _, status = os.waitpid(pid, 0)
    with os.fdopen(r) as f:
        return json.loads(f.read() or "null"), os.waitstatus_to_exitcode(status)

if sys.argv[1] == "another thread":
    thread = threading.Thread(target=hold)
    thread.start()
    inside.wait(10)
    child = fork()
    leave.set()
    thread.join()
else:
    with _blas.single_threaded():
        child = fork()
print(json.dumps([before, *child]))
"""


@pytest.mark.parametrize("holder", ["another thread", "the forking thread"])
def test_fork_inside_a_pin(found, holder):
    """A child forked while another thread holds a pin starts with the
    counts that pin found and a free lock, so its large solve runs; a
    child forked inside the forking thread's own pin keeps that pin."""
    result = subprocess.run(
        [sys.executable, "-c", _FORK, holder],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    before, seen, code = json.loads(result.stdout.strip().splitlines()[-1])
    assert code == 0, "the child's solve did not finish within 20 s"
    assert seen == (before if holder == "another thread" else {"numpy": 1})


class _FakePool:
    """An OpenBLAS library and its pool as a pin sees them: a count,
    ``set_num_threads``, which starts the pool, and the pool's controls.
    Every call to ``set_num_threads`` or a control is kept in ``calls``."""

    def __init__(self):
        self.count = 2
        self.joined = False
        self.calls = []

    def set_threads(self, n):
        self.calls.append(("set_threads", n))
        self.count = n
        self.joined = False

    def is_joined(self):
        self.calls.append(("joined",))
        return self.joined

    def set_count(self, n):
        self.calls.append(("set_count", n))
        self.count = n

    def controls(self):
        return _blas._Pool(self.is_joined, self.set_count)

    def writes(self):
        """The counts set, each with how: "set_threads" or "set_count"."""
        return [call for call in self.calls if call[0] != "joined"]


class TestPoolControls:
    """A pin keeps a joined pool joined: it writes the count in place, and
    sets a live pool's through ``set_num_threads``, as it does on a
    library without pool controls. Nothing else touches the pool."""

    @pytest.fixture
    def fake(self, monkeypatch):
        """Install one fake library in place of numpy's;
        ``fake(controls=False)`` leaves it without pool controls."""

        def install(controls=True):
            pool = _FakePool()
            lib = _blas._Library(
                lambda: pool.count, pool.set_threads, pool.controls() if controls else None
            )
            monkeypatch.setattr(_blas, "_discover", lambda: (lib, None))
            _blas.library.cache_clear()
            return pool

        yield install
        _blas.library.cache_clear()

    def test_pin_keeps_a_joined_pool_joined(self, fake, caplog):
        # set_num_threads would start the joined pool, so its count is
        # written in place
        pool = fake()
        pool.joined = True
        with caplog.at_level(logging.DEBUG, logger="tribem.blas"):
            with _blas.single_threaded():
                with _blas.single_threaded():
                    inside = pool.joined
        assert inside
        assert pool.joined
        assert pool.writes() == [("set_count", 1), ("set_count", 2)]
        assert caplog.records == []

    @pytest.mark.parametrize("large", [False, True])
    def test_apply_boundary_conditions_leaves_the_pools_alone(self, fake, monkeypatch, large):
        # on both sides of the solver's gate: no control called, no count
        # written, and the count stays as it was
        prob = tribem.cube_problem()
        hg = tribem.assemble(prob.mesh, prob.material, tribem.gauss_rule(4))
        if large:
            monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", hg.n_dofs)
        pool = fake()
        before = counts()
        tribem.apply_boundary_conditions(hg, prob.bc)
        assert pool.calls == []
        assert counts() == before

    def test_pin_leaves_live_pools_alone(self, fake):
        pool = fake()
        with _blas.single_threaded():
            pass
        assert not pool.joined
        assert pool.writes() == [("set_threads", 1), ("set_threads", 2)]

    def test_library_without_the_symbol_skipped(self, fake, caplog):
        # one INFO line; a pin there goes through set_num_threads, which
        # starts its joined pool again, and writes nothing in place
        pool = fake(controls=False)
        pool.joined = True
        with caplog.at_level(logging.DEBUG, logger="tribem.blas"):
            for _ in range(2):
                with _blas.library_threads():
                    pass
            with _blas.single_threaded():
                pass
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (
                logging.INFO,
                "no BLAS pool controls in numpy: a pin there goes through"
                " set_num_threads, which restarts a joined pool",
            )
        ]
        assert pool.calls == [("set_threads", 1), ("set_threads", 2)]
        assert not pool.joined


def test_discovery_finds_the_pools(found):
    assert found.pool is not None


# After a threaded numpy product, or with argv[1] == "alone" without
# one, solves a seeded, well-conditioned 1600-DOF system (above
# SINGLE_THREAD_DOFS, so at the libraries' own thread count), then a
# 100-DOF one (pinned). Prints the threads the product left busy, the
# threads that were started during the small solve and are still
# there, and the hash of the large solve's x.
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
x = solve_direct(large)
threads = set(thread_ticks())
solve_direct(small)
started = sorted(set(thread_ticks()) - threads)
print(json.dumps([len(woken), started, hashlib.sha256(x.tobytes()).hexdigest()]))
"""


def test_large_solve_after_a_numpy_product(found):
    """A numpy product leaves numpy's pool spinning; the large solve
    after it gives the x it gives without the product, and the pin of
    the small solve after that starts no pool thread that stays."""
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

    woken, started, x_hash = run("product")
    assert woken, "the product left no pool spinning, so the check shows nothing"
    assert started == []
    assert run("alone")[2] == x_hash


class TestLapack:
    """getrf and getrs call numpy's OpenBLAS in place, after checking
    what they are given."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every LAPACK routine replaced by one that records its name."""
        made = []
        for name in _blas._ROUTINES:
            monkeypatch.setitem(
                _blas._LAPACK.routines, name, lambda *args, name=name: made.append(name)
            )
        return made

    @staticmethod
    def factored(n=4, dtype=np.float64):
        lu = np.asfortranarray(np.eye(n, dtype=dtype) * 2 + 0.5)
        piv, info = _blas.getrf(lu)
        assert info == 0
        return lu, piv

    @pytest.mark.parametrize(
        "a",
        [
            "C-ordered",
            "int64",
            "complex128",
            "float16",
            "non-square",
            "one-dimensional",
            "read-only",
            "list",
        ],
    )
    def test_getrf_rejects_before_any_call(self, calls, a):
        arrays = {
            "C-ordered": np.ones((4, 4)),
            "int64": np.ones((4, 4), np.int64, order="F"),
            "complex128": np.ones((4, 4), complex, order="F"),
            "float16": np.ones((4, 4), np.float16, order="F"),
            "non-square": np.ones((4, 3), order="F"),
            "one-dimensional": np.ones(4),
            "read-only": np.ones((4, 4), order="F"),
            "list": [[1.0, 0.0], [0.0, 1.0]],
        }
        given = arrays[a]
        if a == "read-only":
            given.setflags(write=False)
        with pytest.raises(ValueError):
            _blas.getrf(given)
        assert calls == []

    @pytest.mark.parametrize(
        "b", ["rows", "float32", "C-ordered", "three-dimensional", "pivots", "pivot dtype", "lu"]
    )
    def test_getrs_rejects_before_any_call(self, calls, b):
        lu, piv = self.factored()
        calls.clear()
        right = np.ones(4)
        cases = {
            "rows": (lu, piv, np.ones(5)),
            "float32": (lu, piv, np.ones(4, np.float32)),
            "C-ordered": (lu, piv, np.ones((4, 2))),
            "three-dimensional": (lu, piv, np.ones((4, 2, 2), order="F")),
            "pivots": (lu, piv[:3], right),
            "pivot dtype": (lu, piv.astype(np.int8), right),
            "lu": (np.ascontiguousarray(lu), piv, right),
        }
        with pytest.raises(ValueError):
            _blas.getrs(*cases[b])
        assert calls == []

    def test_exactly_singular_reaches_the_typed_error(self):
        # the second row is twice the first, so elimination leaves an
        # exactly zero U[1, 1]: getrf reports it, and _checked_lu raises
        a = np.asfortranarray([[1.0, 2.0], [2.0, 4.0]])
        _, info = _blas.getrf(a.copy(order="F"))
        assert info == 2
        with pytest.raises(SingularSystemError) as exc:
            solver._checked_lu(a)
        assert exc.value.pivot == 1

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_numpy_solve(self, dtype, tol, seed):
        rng = np.random.default_rng(seed)
        n = 40 * seed
        a = (rng.standard_normal((n, n)) + n * np.eye(n)).astype(dtype)
        b = rng.standard_normal((n, 3)).astype(dtype)
        lu = np.asfortranarray(a).copy(order="F")
        piv, info = _blas.getrf(lu)
        assert info == 0 and piv.min() >= 1 and piv.max() <= n
        assert lu.dtype == dtype
        for rhs in (b, b[:, 0]):
            want = np.linalg.solve(a, rhs)
            got = _blas.getrs(lu, piv, np.asfortranarray(rhs).copy(order="F"))
            assert got.dtype == dtype
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_no_library_names_the_files_searched(self):
        with pytest.raises(ImportError) as exc:
            _blas._find_lapack([])
        assert exc.value.path == _blas._PATTERN
        assert _blas._PATTERN in str(exc.value)
        libc = ctypes.CDLL(None)
        with pytest.raises(ImportError, match="libc-without-lapack"):
            _blas._find_lapack([("libc-without-lapack", libc)])


# Runs a solve, a precomputed build and apply and a two-worker
# distributed run in a fresh interpreter, then prints the scipy modules
# loaded and what _blas found.
_ONE_LIBRARY = """
import json, sys
import tribem
from tribem import _blas

prob = tribem.cube_problem()
rule = tribem.gauss_rule(4)
hg = tribem.assemble(prob.mesh, prob.material, rule)
tribem.solve(hg, prob.bc)
tribem.apply_precomputed(tribem.PrecomputedOperator.build(hg, prob.bc), prob.bc)
tribem.distributed_assemble_solve(prob.mesh, prob.material, prob.bc, rule, workers=2)
print(json.dumps([
    sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    list(_blas.thread_counts()),
    _blas._LAPACK.path,
]))
"""


def test_one_library_and_no_scipy():
    result = subprocess.run(
        [sys.executable, "-c", _ONE_LIBRARY],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    scipy_modules, packages, path = json.loads(result.stdout.strip().splitlines()[-1])
    assert scipy_modules == []
    assert packages == ["numpy"]
    assert os.path.dirname(path) == os.path.dirname(np.__file__) + ".libs"
