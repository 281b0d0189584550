import contextlib
import hashlib
import json
import logging
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from oracles import gauss_eliminate
from tribem import _blas, solver
from tribem._blas import single_threaded, thread_counts
from tribem.assembly import (
    BoundarySpec,
    InfluenceMatrices,
    LinearSystem,
    apply_boundary_conditions,
    assemble,
    write_matrix,
)
from tribem.errors import (
    BoundaryConditionError,
    SingularSystemError,
    StaleOperatorError,
)
from tribem.kernels import gauss_rule, make_material
from tribem.mesh import generate_cube
from tribem.problems import cube_problem
from tribem.solver import (
    DENSE_SHARE,
    PrecomputedOperator,
    apply_precomputed,
    equilibrium_residual,
    scatter_solution,
    solution_to_csv,
    solve,
    solve_direct,
)

MAT = make_material(200000.0, 0.33)
RULE = gauss_rule(16)


def random_system(rng, n):
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    return LinearSystem(a, b, np.zeros(n, dtype=bool))


@pytest.fixture(scope="module")
def cube_setup():
    prob = cube_problem()
    hg = assemble(prob.mesh, prob.material, RULE)
    op = PrecomputedOperator.build(hg, prob.bc)
    return prob, hg, op


@pytest.fixture(scope="module")
def cube_solution(cube_setup):
    prob, hg, _ = cube_setup
    return prob, hg, solve(hg, prob.bc)


class TestSolveDirect:
    def test_against_elimination_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(3, 61))
            system = random_system(rng, n)
            x = solve_direct(system)
            x_ref = gauss_eliminate(system.a, system.b)
            assert np.abs(x - x_ref).max() < 1e-10

    def test_identity(self):
        n = 12
        b = np.arange(n, dtype=float)
        x = solve_direct(LinearSystem(np.eye(n), b, np.zeros(n, dtype=bool)))
        assert np.array_equal(x, b)

    def test_oracle_through_matrix_dump(self, tmp_path):
        # the binary dump carries full precision: the elimination oracle
        # applied to a reloaded system reproduces the in-memory solve
        from tribem.assembly import read_matrix, write_matrix

        rng = np.random.default_rng(45)
        system = random_system(rng, 30)
        path = tmp_path / "a.mat"
        write_matrix(path, system.a)
        a_back = read_matrix(path)
        assert np.array_equal(a_back, system.a)
        x = solve_direct(system)
        x_ref = gauss_eliminate(a_back, system.b)
        assert np.abs(x - x_ref).max() < 1e-10

    def test_residual_bound(self):
        rng = np.random.default_rng(42)
        system = random_system(rng, 60)
        x = solve_direct(system)
        res = np.linalg.norm(system.a @ x - system.b)
        bound = 1e-10 * (
            np.linalg.norm(system.a) * np.linalg.norm(x) + np.linalg.norm(system.b)
        )
        assert res <= bound

    def test_zero_row_singular(self):
        a = np.eye(5)
        a[3] = 0.0
        with pytest.raises(SingularSystemError) as exc:
            solve_direct(LinearSystem(a, np.ones(5), np.zeros(5, dtype=bool)))
        assert 0 <= exc.value.pivot < 5

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            solve_direct(LinearSystem(a, np.ones(3), np.zeros(3, dtype=bool)))


def conditioned_system(n, log_cond, seed):
    """Seeded n x n system with singular values log-spaced from 1 down to
    10**-log_cond, from the QR factors of two Gaussian matrices."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q1 * np.logspace(0, -log_cond, n)) @ q2.T
    return LinearSystem(a, rng.standard_normal(n), np.zeros(n, dtype=bool))


def clustered_system(n, log_cond, seed):
    """As :func:`conditioned_system`, with nine tenths of the singular
    values 1 and the last tenth 10**-log_cond."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q1 * np.where(np.arange(n) < n - n // 10, 1.0, 10.0**-log_cond)) @ q2.T
    return LinearSystem(a, rng.standard_normal(n), np.zeros(n, dtype=bool))


def double_lu_solve(system):
    """The double LU as solve_direct runs it: getrf and getrs on a dense
    column-major copy of A, on one BLAS thread below SINGLE_THREAD_DOFS,
    since the thread count changes its rounding."""
    small = system.a.shape[0] < solver.SINGLE_THREAD_DOFS
    with single_threaded() if small else contextlib.nullcontext():
        lu = np.array(system.a, dtype=float, order="F")
        piv, _ = _blas.getrf(lu)
        return _blas.getrs(lu, piv, system.b.copy())


def digest(x):
    return hashlib.sha256(x.tobytes()).hexdigest()


@pytest.fixture
def small_blocks(monkeypatch):
    """The float32 cast in blocks of 16 columns of a 300-DOF system."""
    monkeypatch.setattr(solver, "_CAST_BLOCK_BYTES", 4 * 300 * 16)


@pytest.fixture
def low_gate(monkeypatch):
    """Systems from 300 DOFs on solve at the library's own thread count;
    the test starts with nothing kept and leaves the store it found."""
    monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", 300)
    monkeypatch.setattr(solver, "_kept", {})


class TestMixedPrecision:
    """solve_direct factors in single precision and refines in double; it
    answers as the double LU does, and falls back to it where single
    precision cannot decide the system."""

    def assert_double_quality(self, system):
        a, b = np.asarray(system.a).tobytes(), system.b.tobytes()
        x = solve_direct(system)
        assert np.asarray(system.a).tobytes() == a and system.b.tobytes() == b
        res = np.linalg.norm(system.a @ x - system.b) / np.linalg.norm(system.b)
        assert res <= 1e-14
        ref = double_lu_solve(system)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_cube_at_double_accuracy(self, cube_setup):
        prob, hg, _ = cube_setup
        self.assert_double_quality(apply_boundary_conditions(hg, prob.bc))

    def test_random_system_at_double_accuracy(self):
        self.assert_double_quality(random_system(np.random.default_rng(49), 300))

    def test_refinement_logged_at_debug(self, cube_setup, caplog):
        prob, hg, _ = cube_setup
        with caplog.at_level(logging.DEBUG, logger="tribem.solver"):
            solve_direct(apply_boundary_conditions(hg, prob.bc))
        threads, record = caplog.records
        assert threads.levelno == record.levelno == logging.DEBUG
        # 288 DOFs: every found library runs one thread
        pinned = {package: 1 for package in thread_counts()} or "unknown"
        assert threads.getMessage() == f"solving 288 DOFs with BLAS threads {pinned}"
        assert re.fullmatch(
            r"single-precision LU refined in \d+ steps to max\|r\| = \S+ max\|b\|",
            record.getMessage(),
        )

    def test_c_and_f_ordered_a_agree(self, cube_setup):
        # the assembled A is column-major; another layout is converted
        prob, hg, _ = cube_setup
        system = apply_boundary_conditions(hg, prob.bc)
        x_f = solve_direct(system)
        x_c = solve_direct(LinearSystem(np.ascontiguousarray(system.a), system.b, system.swapped))
        assert np.abs(x_c - x_f).max() <= 1e-13 * np.abs(x_f).max()

    def test_no_float64_copy_of_a(self):
        # for either layout: the residual's dgemv reads A, or the transpose
        # of a row-major A, where it sits
        system = random_system(np.random.default_rng(50), 400)
        for order in ("C", "F"):
            system.a = np.array(system.a, order=order)
            tracemalloc.start()
            try:
                solve_direct(system)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.75 * system.a.nbytes  # the float32 copy is half of A

    def test_column_beyond_single_range_falls_back(self, caplog):
        # a finite column that overflows float32 leaves the system to the
        # double LU, which solves it
        system = random_system(np.random.default_rng(53), 300)
        system.a[:, 7] *= 1e39
        with caplog.at_level(logging.INFO, logger="tribem.solver"):
            self.assert_double_quality(system)
        (record,) = caplog.records
        assert record.levelno == logging.INFO
        assert "not finite in single precision" in record.getMessage()
        assert "solving with the double-precision LU" in record.getMessage()

    def assert_falls_back(self, system, caplog, reason):
        with caplog.at_level(logging.INFO, logger="tribem.solver"):
            x = solve_direct(system)
        (record,) = caplog.records
        assert record.levelno == logging.INFO
        assert reason in record.getMessage()
        assert "solving with the double-precision LU" in record.getMessage()
        assert np.array_equal(x, double_lu_solve(system))

    @pytest.mark.parametrize("gate", ["kept array", "factor buffer"])
    @pytest.mark.parametrize("column", [0, 150, 299])  # first, a middle, the last block
    def test_beyond_single_range_falls_back(self, caplog, monkeypatch, small_blocks, gate, column):
        if gate == "factor buffer":
            monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", 300)
        system = random_system(np.random.default_rng(81), 300)
        system.a[:, column] *= 1e39
        self.assert_falls_back(system, caplog, "not finite in single precision")

    @pytest.mark.parametrize("gate", ["kept array", "factor buffer"])
    @pytest.mark.parametrize("column", [0, 150, 299])
    def test_nan_falls_back_and_is_rejected(self, caplog, monkeypatch, small_blocks, gate, column):
        if gate == "factor buffer":
            monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", 300)
        system = random_system(np.random.default_rng(82), 300)
        system.a[column // 2, column] = np.nan
        with caplog.at_level(logging.INFO, logger="tribem.solver"):
            with pytest.raises(ValueError, match="non-finite"):
                solve_direct(system)
        (record,) = caplog.records
        assert "not finite in single precision" in record.getMessage()
        assert "solving with the double-precision LU" in record.getMessage()

    def test_ill_conditioned_falls_back(self, caplog):
        # cond 1e9: beyond what float32 factors can refine
        self.assert_falls_back(
            conditioned_system(200, 9, 51), caplog, "is zero to single precision"
        )

    def test_stalled_residual_falls_back(self, caplog):
        # cond 1e2 at n = 300: no product a_ij x_j is large against b
        # (2.7 max|b| at most), yet the float64 residual stalls at ~30 eps
        # max|b|, above the tolerance, and refinement sees it stall
        self.assert_falls_back(conditioned_system(300, 2, 3), caplog, "residual grew")

    @staticmethod
    def count_single_solves(monkeypatch):
        solves = []
        getrs = _blas.getrs

        def counted(lu, piv, b):
            if lu.dtype == np.float32:
                solves.append(1)
            return getrs(lu, piv, b)

        monkeypatch.setattr(_blas, "getrs", counted)
        return solves

    def test_slow_refinement_falls_back_early(self, caplog, monkeypatch):
        # cond 1e6 with a tenth of the spectrum at the bottom: each step
        # shrinks the residual only a few-fold, so ten steps cannot reach the
        # tolerance, and the solver must see that from the first steps
        solves = self.count_single_solves(monkeypatch)
        self.assert_falls_back(clustered_system(200, 6, 70), caplog, "too slowly")
        assert 1 <= len(solves) <= 3

    @pytest.mark.parametrize(
        "n, log_cond, seed", [(50, 5, 52), (200, 5, 71), (200, 5, 72), (200, 6, 73), (200, 6, 74)]
    )
    def test_residual_floor_falls_back_at_once(self, caplog, monkeypatch, n, log_cond, seed):
        # cond 1e5 and 1e6: x is so large against b that the float64
        # residual rounds above the tolerance, where refinement would stall
        # after four or more steps. The first step shows it, and the solve
        # falls back after one step, with x equal to the double LU's
        solves = self.count_single_solves(monkeypatch)
        self.assert_falls_back(
            conditioned_system(n, log_cond, seed), caplog,
            "float64 residual rounds above the tolerance",
        )
        assert len(solves) == 1

    def test_cube_takes_three_steps(self, cube_setup, monkeypatch):
        # the floor test leaves the BEM systems to refinement
        prob, hg, _ = cube_setup
        solves = self.count_single_solves(monkeypatch)
        self.assert_double_quality(apply_boundary_conditions(hg, prob.bc))
        assert len(solves) == 3

    @pytest.mark.parametrize("nu", [0.33, 0.49, 0.4999])
    def test_soft_tissue_refines(self, caplog, monkeypatch, nu):
        # E = 3 kPa up to near incompressibility: no volumetric locking
        # reaches the solver, which refines as on steel (three steps)
        prob = cube_problem(e=3e-3, nu=nu)
        hg = assemble(prob.mesh, prob.material, gauss_rule(8))
        system = apply_boundary_conditions(hg, prob.bc)
        solves = self.count_single_solves(monkeypatch)
        with caplog.at_level(logging.INFO, logger="tribem.solver"):
            x = solve_direct(system)
        assert 1 <= len(solves) <= 4
        assert "double-precision LU" not in caplog.text
        res = np.linalg.norm(system.a @ x - system.b) / np.linalg.norm(system.b)
        assert res <= 1e-14

    def test_step_limit_falls_back(self, cube_setup, caplog, monkeypatch):
        prob, hg, _ = cube_setup
        monkeypatch.setattr(solver, "REFINE_STEPS", 1)
        self.assert_falls_back(
            apply_boundary_conditions(hg, prob.bc), caplog, "no convergence in 1 steps"
        )

    def test_zero_load_on_singular_system_rejected(self, cube_setup, caplog):
        # traction known everywhere: A = H, singular through the rigid
        # modes. Zero load makes b = 0, which x = 0 solves to any
        # residual, so only the pivot test keeps the double LU's verdict.
        _, hg, _ = cube_setup
        bc = BoundarySpec(np.zeros(hg.n_dofs, dtype=bool), np.zeros(hg.n_dofs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = apply_boundary_conditions(hg, bc)
        with caplog.at_level(logging.INFO, logger="tribem.solver"):
            with pytest.raises(SingularSystemError):
                solve_direct(system)
        assert "zero to single precision" in caplog.text


class TestBlasThreads:
    """solve_direct runs a system below SINGLE_THREAD_DOFS on one BLAS
    thread, fallback included, and a larger one on the libraries' own
    count; it leaves the count as it found it."""

    @staticmethod
    def record_threads(monkeypatch, dtype):
        """The thread counts at each getrf of ``dtype``: float32 for the
        single-precision LU, float64 for the double one."""
        seen = []
        getrf = _blas.getrf

        def recorded(a):
            if a.dtype == dtype:
                seen.append(thread_counts())
            return getrf(a)

        monkeypatch.setattr(_blas, "getrf", recorded)
        return seen

    @pytest.fixture
    def own(self):
        counts = thread_counts()
        if not counts:
            pytest.skip("no OpenBLAS of numpy found")
        return counts

    def test_small_system_on_one_thread(self, own, monkeypatch):
        seen = self.record_threads(monkeypatch, np.float32)
        solve_direct(random_system(np.random.default_rng(60), 300))
        assert seen == [{package: 1 for package in own}]
        assert thread_counts() == own

    def test_large_system_keeps_the_threads(self, own, monkeypatch, caplog):
        monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", 300)
        seen = self.record_threads(monkeypatch, np.float32)
        with caplog.at_level(logging.DEBUG, logger="tribem.solver"):
            solve_direct(random_system(np.random.default_rng(60), 300))
        assert seen == [own]
        assert caplog.records[0].getMessage() == f"solving 300 DOFs with BLAS threads {own}"

    def test_fallback_on_one_thread(self, own, monkeypatch, caplog):
        seen = self.record_threads(monkeypatch, np.float64)
        with caplog.at_level(logging.INFO, logger="tribem.solver"):
            solve_direct(conditioned_system(200, 9, 51))
        assert "double-precision LU" in caplog.text
        assert seen == [{package: 1 for package in own}]
        assert thread_counts() == own


    def test_large_solve_unmoved_by_concurrent_pins(self, own):
        # each 200-DOF solve pins the process-wide count; a 2000-DOF solve
        # beside a loop of them waits for the pin to leave, so its LU runs
        # at the libraries' count and rounds as it does alone
        if max(own.values()) == 1:
            pytest.skip("the libraries run one thread already")

        def digest(x):
            return hashlib.sha256(x.tobytes()).hexdigest()

        large = random_system(np.random.default_rng(70), 2000)
        small = random_system(np.random.default_rng(71), 200)
        alone = digest(solve_direct(large))
        stop, solved = threading.Event(), []

        def loop():
            while not stop.is_set():
                solve_direct(small)
                solved.append(None)

        looper = threading.Thread(target=loop, daemon=True)
        looper.start()
        try:
            deadline = time.monotonic() + 10
            while len(solved) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            beside = [digest(solve_direct(large)) for _ in range(2)]
        finally:
            stop.set()
            looper.join(10)
        assert len(solved) >= 2
        assert beside == [alone, alone]
        assert thread_counts() == own


class TestCastWithScales:
    """The float32 copy of A and its column scales come from one pass
    over column blocks, and equal a whole cast followed by the scales of
    the whole copy."""

    @pytest.mark.parametrize("n, block", [(7, 4 * 7 * 3), (300, 4 * 300 * 16), (300, 1 << 19)])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_equals_cast_then_scales(self, monkeypatch, n, block, order):
        monkeypatch.setattr(solver, "_CAST_BLOCK_BYTES", block)
        a = np.array(np.random.default_rng(80).standard_normal((n, n)), order=order)
        a[:, 2] *= 1e39  # beyond float32's range: inf in the copy and the scale
        want32 = np.empty((n, n), np.float32, order="F")
        with np.errstate(over="ignore"):
            np.copyto(want32, a)
        a32 = np.empty((n, n), np.float32, order="F")
        scales = solver._cast_with_scales(a, a32)
        assert np.array_equal(a32, want32)
        assert np.array_equal(scales, solver._column_scales(want32))
        assert scales.dtype == np.float32 and np.isinf(scales[2])


class TestFactorBuffer:
    """The float32 copy of A goes into the process's one kept buffer,
    ``a32``, at every size; the BLAS lock owns it."""

    def test_fresh_and_reused_buffer_solve_alike(self, low_gate):
        one = random_system(np.random.default_rng(90), 300)
        other = random_system(np.random.default_rng(91), 300)
        fresh = digest(solve_direct(one))
        buffer = solver._kept["a32"]
        assert buffer.shape == (300, 300) and buffer.dtype == np.float32
        solve_direct(other)  # leaves its own factors in the buffer
        assert digest(solve_direct(one)) == fresh
        assert solver._kept["a32"] is buffer

    def test_one_buffer_of_the_last_size(self, low_gate):
        # after any sequence of solves, on either side of the gate: one
        # buffer, of the last size solved, and none of the earlier alive
        made = []
        for n in (300, 400, 400, 200, 300, 250, 500):
            solve_direct(random_system(np.random.default_rng(n), n))
            assert solver._kept["a32"].shape == (n, n)
            made.append(weakref.ref(solver._kept["a32"]))
            assert all(r() is None or r() is solver._kept["a32"] for r in made)

    def test_allocation_and_replacement_logged(self, low_gate, caplog):
        with caplog.at_level(logging.DEBUG, logger="tribem.solver"):
            for n in (300, 300, 200, 400):
                solve_direct(random_system(np.random.default_rng(94), n))
        said = [(r.levelno, r.getMessage()) for r in caplog.records if "buffer" in r.getMessage()]
        assert said == [
            (logging.DEBUG, "float32 factor buffer allocated for 300 DOFs (0.4 MB)"),
            (logging.DEBUG, "float32 factor buffer replaced for 400 DOFs (0.6 MB)"),
        ]

    def test_nothing_returned_shares_it(self, low_gate, cube_setup, monkeypatch):
        prob, hg, _ = cube_setup
        monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", hg.n_dofs)
        system = apply_boundary_conditions(hg, prob.bc)
        x = solve_direct(system)
        sol = solve(hg, prob.bc)
        buffer = solver._kept["a32"]
        assert buffer.shape == (hg.n_dofs, hg.n_dofs)
        for array in (system.a, system.b, x, sol.u, sol.t, sol.displacement_known):
            assert not np.shares_memory(array, buffer)

    def test_concurrent_solves_as_one_after_another(self, low_gate):
        # two threads solving systems of one size share the buffer, and
        # the first thread's second size replaces it between them
        jobs = [
            [random_system(np.random.default_rng(95), n) for n in (300, 400)],
            [random_system(np.random.default_rng(96), 300)],
        ]
        want = [[digest(solve_direct(s)) for s in systems] for systems in jobs]
        got = [[], []]

        def loop(i):
            for _ in range(6):
                got[i].append([digest(solve_direct(s)) for s in jobs[i]])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=loop, args=(i,), daemon=True) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[want[0]] * 6, [want[1]] * 6]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_drops_it(self, low_gate):
        solve_direct(random_system(np.random.default_rng(98), 300))
        assert "a32" in solver._kept
        pid = os.fork()
        if pid == 0:
            os._exit(0 if not solver._kept else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert "a32" in solver._kept


class TestSolveFromTheView:
    """solve_direct reads A from H and G: the float32 copy is cast run by
    run into the kept buffer, and no float64 n x n array is made unless
    the double LU is needed."""

    @staticmethod
    def kinds(prob, name):
        if name == "problem":
            return prob.bc
        disp = np.random.default_rng(83).random(prob.bc.n_dofs) < 0.4
        return BoundarySpec(disp, np.where(disp, 0.0, prob.bc.values))

    @pytest.mark.parametrize("gate", ["kept array", "factor buffer"])
    def test_no_float64_n_by_n_array(self, cube_setup, monkeypatch, gate):
        prob, hg, _ = cube_setup
        monkeypatch.setattr(solver, "_kept", {})
        if gate == "factor buffer":
            monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", 200)
        n = hg.n_dofs
        tracemalloc.start()
        try:
            solve_direct(apply_boundary_conditions(hg, prob.bc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n
        assert solver._kept["a32"].shape == (n, n)

    @pytest.mark.parametrize("kinds", ["problem", "random"])
    def test_factor_buffer_is_the_lu_of_a_cast_of_dense(
        self, cube_setup, monkeypatch, small_blocks, kinds
    ):
        # blocks of 16 columns, so runs of either kind cross block edges
        prob, hg, _ = cube_setup
        monkeypatch.setattr(solver, "_kept", {})
        monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", 200)
        system = apply_boundary_conditions(hg, self.kinds(prob, kinds))
        cast = system.a.dense().astype(np.float32, order="F")
        a32 = np.empty_like(cast, order="F")
        assert np.array_equal(solver._cast_with_scales(system.a, a32), solver._column_scales(cast))
        assert digest(a32) == digest(cast)
        solve_direct(system)
        _blas.getrf(cast)
        assert digest(solver._kept["a32"]) == digest(cast)

    @pytest.mark.parametrize("kinds", ["problem", "random"])
    def test_view_and_its_dense_array_refine_alike(self, cube_setup, kinds):
        # the dense A is the one-run case: one dgemv per residual in place
        # of one per run, so x agrees to the refinement's tolerance
        prob, hg, _ = cube_setup
        system = apply_boundary_conditions(hg, self.kinds(prob, kinds))
        x = solve_direct(system)
        dense = solve_direct(LinearSystem(system.a.dense(), system.b, system.swapped))
        assert np.abs(x - dense).max() <= 1e-13 * np.abs(dense).max()
        res = np.linalg.norm(system.a @ x - system.b) / np.linalg.norm(system.b)
        assert res <= 1e-14


class TestScatter:
    def test_all_traction_known(self):
        x = np.arange(6, dtype=float)
        bc = BoundarySpec(np.zeros(6, dtype=bool), 10 + np.arange(6, dtype=float))
        sol = scatter_solution(x, bc)
        assert np.array_equal(sol.u, x)
        assert np.array_equal(sol.t, bc.values)

    def test_all_displacement_known(self):
        x = np.arange(6, dtype=float)
        bc = BoundarySpec(np.ones(6, dtype=bool), np.zeros(6))
        sol = scatter_solution(x, bc)
        assert np.array_equal(sol.t, x)
        assert np.array_equal(sol.u, bc.values)

    def test_length_mismatch(self):
        bc = BoundarySpec(np.zeros(6, dtype=bool), np.zeros(6))
        with pytest.raises(BoundaryConditionError):
            scatter_solution(np.zeros(5), bc)

    def test_sample_cube_partition(self):
        prob = cube_problem()
        hg = assemble(prob.mesh, prob.material, RULE)
        sol = solve(hg, prob.bc)
        assert sol.displacement_known.sum() == 48  # solved tractions there
        assert (~sol.displacement_known).sum() == 240


class TestPrecomputedOperator:
    def test_scaled_column_not_singular(self):
        # the offline LU's pivot check is per column: one column 1e20
        # larger leaves the others' pivots nonsingular
        a = np.diag([1e20, 1.0, 2.0, 3.0])
        inverse = _blas.getrs(*solver._checked_lu(a), np.eye(4, order="F"))
        assert np.allclose(inverse, np.diag(1 / np.diag(a)), rtol=1e-14)

    def test_singular_rejected(self):
        with pytest.raises(SingularSystemError):
            solver._checked_lu(np.ones((4, 4)))

    def test_matches_direct_solve(self, cube_setup):
        prob, hg, op = cube_setup
        direct = solve(hg, prob.bc)
        fast = apply_precomputed(op, prob.bc)
        scale = max(np.abs(direct.u).max(), 1e-300)
        assert np.abs(fast.u - direct.u).max() <= 1e-8 * scale
        tscale = max(np.abs(direct.t).max(), 1e-300)
        assert np.abs(fast.t - direct.t).max() <= 1e-8 * tscale

    def test_random_bc_value_sets(self, cube_setup):
        prob, hg, op = cube_setup
        rng = np.random.default_rng(44)
        for _ in range(10):
            values = rng.standard_normal(prob.bc.n_dofs)
            bc = BoundarySpec(prob.bc.displacement_known, values)
            direct = solve(hg, bc)
            fast = apply_precomputed(op, bc)
            scale = np.abs(direct.u).max() + np.abs(direct.t).max()
            assert np.abs(fast.u - direct.u).max() <= 1e-8 * scale
            assert np.abs(fast.t - direct.t).max() <= 1e-8 * scale

    def test_linearity_doubled_loads(self, cube_setup):
        prob, hg, op = cube_setup
        sol1 = apply_precomputed(op, prob.bc)
        doubled = BoundarySpec(prob.bc.displacement_known, 2.0 * prob.bc.values)
        sol2 = apply_precomputed(op, doubled)
        solved = ~prob.bc.displacement_known
        scale = np.abs(sol1.u[solved]).max()
        assert np.abs(sol2.u[solved] - 2.0 * sol1.u[solved]).max() <= 1e-8 * scale

    def test_changed_kinds_stale(self, cube_setup):
        prob, _, op = cube_setup
        flipped = ~prob.bc.displacement_known
        with pytest.raises(StaleOperatorError):
            apply_precomputed(op, BoundarySpec(flipped, prob.bc.values))

    def test_save_load_round_trip(self, cube_setup, tmp_path):
        prob, _, built = cube_setup
        op = PrecomputedOperator(built.greens, built.displacement_known, "f" * 64)
        op.save(tmp_path / "op")
        back = PrecomputedOperator.load(tmp_path / "op")
        assert np.array_equal(back.greens, op.greens)
        assert np.array_equal(back.displacement_known, op.displacement_known)
        assert back.fingerprint == "f" * 64
        dense = BoundarySpec(
            prob.bc.displacement_known, np.random.default_rng(46).standard_normal(op.n_dofs)
        )
        for bc in (prob.bc, dense):  # the row branch, then the dense one
            assert isinstance(op.rebuild_rhs(bc.values)[0], slice) == (bc is dense)
            sol = apply_precomputed(back, bc)
            ref = apply_precomputed(op, bc)
            assert np.array_equal(sol.u, ref.u)
            assert np.array_equal(sol.t, ref.t)

    def test_load_rejects_factor_record(self, cube_setup, tmp_path):
        # a directory written with LU factors and pivots carries no
        # format version and must not be read as Green's functions
        _, _, op = cube_setup
        op.save(tmp_path / "op")
        kinds = tmp_path / "op" / "bc_kinds.json"
        record = json.loads(kinds.read_text())
        record["pivots"] = list(range(op.n_dofs))
        del record["format"]
        kinds.write_text(json.dumps(record))
        with pytest.raises(ValueError) as exc:
            PrecomputedOperator.load(tmp_path / "op")
        assert str(tmp_path / "op") in str(exc.value)
        assert "no format version" in str(exc.value)

    def test_load_rejects_inverse_layout(self, cube_setup, tmp_path):
        # the older layout: an explicit inverse, the right-hand-side
        # builder and an unversioned record
        _, _, op = cube_setup
        directory = tmp_path / "op"
        directory.mkdir()
        for name in ("a_inv.mat", "rhs.mat"):
            write_matrix(str(directory / name), np.eye(op.n_dofs))
        (directory / "bc_kinds.json").write_text(
            json.dumps({"n_dofs": op.n_dofs, "displacement_known_indices": [0, 1, 2]})
        )
        with pytest.raises(ValueError) as exc:
            PrecomputedOperator.load(directory)
        assert str(directory) in str(exc.value)

    def test_load_rejects_other_format(self, cube_setup, tmp_path):
        _, _, op = cube_setup
        message = self._load_with_record(op, tmp_path / "op", format=99)
        assert "format 99" in message

    def test_load_rejects_mismatched_files(self, cube_setup, tmp_path):
        _, _, op = cube_setup
        op.save(tmp_path / "op")
        write_matrix(str(tmp_path / "op" / "greens.mat"), np.eye(op.n_dofs)[:72])
        with pytest.raises(ValueError) as exc:
            PrecomputedOperator.load(tmp_path / "op")
        assert str(tmp_path / "op") in str(exc.value)
        assert f"(72, {op.n_dofs})" in str(exc.value)

    def test_load_rejects_wrong_dof_count(self, cube_setup, tmp_path):
        _, _, op = cube_setup
        op.save(tmp_path / "op")
        write_matrix(str(tmp_path / "op" / "greens.mat"), np.eye(72))
        with pytest.raises(ValueError) as exc:
            PrecomputedOperator.load(tmp_path / "op")
        assert str(tmp_path / "op") in str(exc.value)
        assert f"{op.n_dofs} DOFs" in str(exc.value)

    def _load_with_record(self, op, directory, **changes):
        op.save(directory)
        kinds = directory / "bc_kinds.json"
        record = json.loads(kinds.read_text())
        record.update(changes)
        kinds.write_text(json.dumps({k: v for k, v in record.items() if v is not None}))
        with pytest.raises(ValueError) as exc:
            PrecomputedOperator.load(directory)
        assert str(directory) in str(exc.value)
        return str(exc.value)

    def test_load_rejects_index_past_end(self, cube_setup, tmp_path):
        _, _, op = cube_setup
        message = self._load_with_record(
            op, tmp_path / "op", displacement_known_indices=[0, op.n_dofs]
        )
        assert f"[0, {op.n_dofs})" in message

    def test_load_rejects_negative_index(self, cube_setup, tmp_path):
        _, _, op = cube_setup
        message = self._load_with_record(
            op, tmp_path / "op", displacement_known_indices=[0, -1]
        )
        assert f"[0, {op.n_dofs})" in message

    def test_load_rejects_missing_dof_count(self, cube_setup, tmp_path):
        _, _, op = cube_setup
        message = self._load_with_record(op, tmp_path / "op", n_dofs=None)
        assert "n_dofs" in message


def _load_on(bc, rows, rng):
    """``bc``'s kinds with random values on ``rows`` and zero elsewhere."""
    values = np.zeros(bc.n_dofs)
    values[rows] = rng.standard_normal(len(rows))
    return BoundarySpec(bc.displacement_known, values)


def _load_rows(shape, mesh, rng):
    """Loaded rows of one shape on ``mesh``, sorted as rebuild_rhs gives
    them."""
    n = mesh.n_dofs
    if shape == "one":
        return np.array([17])
    if shape == "ends":
        return np.array([0, n - 1])
    if shape == "axis":  # one axis of consecutive elements: every third row
        return 3 * np.arange(10, 30) + 1
    if shape == "scattered":
        return np.sort(rng.choice(n, 20, replace=False))
    if shape == "elements":
        elements = np.sort(rng.choice(mesh.n_elements, 7, replace=False))
    else:  # a probe patch, as box-haptic loads it
        c = mesh.centroids
        elements = np.flatnonzero(np.linalg.norm(c - c[40], axis=1) <= 1.5)
    return (3 * elements[:, None] + np.arange(3)).ravel()


class TestGreensApply:
    """The two apply branches: one axpy per loaded row of M^T, and one
    dense product once more than DENSE_SHARE of the values are nonzero."""

    @staticmethod
    def switch(n):
        """Largest nonzero count that still takes the row branch."""
        return int(DENSE_SHARE * n)

    @pytest.mark.parametrize("shape", ["one", "ends", "axis", "scattered", "elements", "patch"])
    def test_load_shapes_match_dense_product(self, cube_setup, shape):
        prob, _, op = cube_setup
        rng = np.random.default_rng(49)
        rows = _load_rows(shape, prob.mesh, rng)
        values = _load_on(prob.bc, rows, rng).values
        load = op.rebuild_rhs(values)
        assert np.array_equal(load[0], rows)
        dense = op.apply_to_rhs((slice(None), values))
        assert np.abs(op.apply_to_rhs(load) - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("branch", ["gather", "dense"])
    def test_branch_matches_direct_solve(self, cube_setup, branch):
        prob, hg, op = cube_setup
        rng = np.random.default_rng(47)
        count = self.switch(op.n_dofs) + (branch == "dense")
        bc = _load_on(prob.bc, rng.choice(op.n_dofs, count, replace=False), rng)
        rows, _ = op.rebuild_rhs(bc.values)
        assert isinstance(rows, slice) == (branch == "dense")
        x = solve_direct(apply_boundary_conditions(hg, bc))
        sol = apply_precomputed(op, bc)
        got = np.where(bc.displacement_known, sol.t, sol.u)
        assert np.abs(got - x).max() <= 1e-8 * np.abs(x).max()  # C05's bound

    @pytest.mark.parametrize("offset", [0, 1])
    def test_branches_agree_at_switch(self, cube_setup, offset):
        prob, _, op = cube_setup
        rng = np.random.default_rng(48 + offset)
        count = self.switch(op.n_dofs) + offset
        values = _load_on(prob.bc, rng.choice(op.n_dofs, count, replace=False), rng).values
        rows = np.flatnonzero(values)
        gathered = op.apply_to_rhs((rows, values[rows]))
        dense = op.apply_to_rhs((slice(None), values))
        assert np.abs(gathered - dense).max() <= 1e-12 * np.abs(dense).max()
        # and rebuild_rhs picks one of them
        picked = op.apply_to_rhs(op.rebuild_rhs(values))
        assert np.array_equal(picked, gathered if offset == 0 else dense)

    def test_zero_values_give_zero(self, cube_setup):
        prob, _, op = cube_setup
        x = op.apply_to_rhs(op.rebuild_rhs(np.zeros(op.n_dofs)))
        assert x.shape == (op.n_dofs,)
        assert not x.any()

    def test_build_leaves_matrices_unchanged(self):
        prob = cube_problem(k=1)
        hg = assemble(prob.mesh, prob.material, gauss_rule(4))
        h, g = hg.h.tobytes(), hg.g.tobytes()
        PrecomputedOperator.build(hg, prob.bc)
        assert hg.h.tobytes() == h
        assert hg.g.tobytes() == g

    def test_build_rejects_singular_system(self):
        # every DOF displacement-known: A = -G, here singular
        hg = InfluenceMatrices(np.eye(6), np.ones((6, 6)), 2)
        with pytest.raises(SingularSystemError):
            PrecomputedOperator.build(hg, BoundarySpec(np.ones(6, dtype=bool), np.zeros(6)))

    def test_build_rejects_non_finite_system(self):
        g = np.eye(6)
        g[2, 3] = np.nan
        hg = InfluenceMatrices(np.eye(6), g, 2)
        with pytest.raises(ValueError) as exc:
            PrecomputedOperator.build(hg, BoundarySpec(np.ones(6, dtype=bool), np.zeros(6)))
        assert "non-finite" in str(exc.value)


class TestPhysics:
    def test_equilibrium_sample_problem(self, cube_solution):
        prob, _, sol = cube_solution
        f = equilibrium_residual(sol, prob.mesh)
        # 4 N/mm^2 over a 16 mm^2 face: 64 N applied along y
        assert np.linalg.norm(f) <= 0.02 * 64.0

    def test_reaction_balances_load(self, cube_solution):
        prob, _, sol = cube_solution
        fixed = prob.bc.displacement_known.reshape(-1, 3).all(axis=1)
        t = sol.t.reshape(-1, 3)
        reaction = prob.mesh.areas[fixed] @ t[fixed]
        assert reaction[1] == pytest.approx(-64.0, rel=0.02)

    def test_zero_load_zero_field(self):
        prob = cube_problem(traction=0.0)
        hg = assemble(prob.mesh, prob.material, RULE)
        sol = solve(hg, prob.bc)
        assert np.abs(sol.u).max() < 1e-12
        f = equilibrium_residual(sol, prob.mesh)
        assert np.linalg.norm(f) < 1e-8

    def test_rigid_translation_null_tractions(self):
        mesh = generate_cube(4, 2)
        hg = assemble(mesh, MAT, RULE)
        for axis in range(3):
            values = np.zeros(mesh.n_dofs)
            values[axis::3] = 1.0
            bc = BoundarySpec(np.ones(mesh.n_dofs, dtype=bool), values)
            sol = solve(hg, bc)
            assert np.abs(sol.t).max() <= 1e-8 * MAT.mu / 4.0

    def test_linearity_of_solver(self, cube_solution):
        prob, hg, sol = cube_solution
        alpha = 3.5
        scaled_bc = BoundarySpec(prob.bc.displacement_known, alpha * prob.bc.values)
        sol2 = solve(hg, scaled_bc)
        scale = np.abs(sol.u).max() + np.abs(sol.t).max()
        assert np.abs(sol2.u - alpha * sol.u).max() <= 1e-8 * alpha * scale
        assert np.abs(sol2.t - alpha * sol.t).max() <= 1e-8 * alpha * scale

    def test_refinement_convergence(self):
        means = []
        for k in (1, 2, 3, 4):
            prob = cube_problem(k=k)
            hg = assemble(prob.mesh, prob.material, RULE)
            sol = solve(hg, prob.bc)
            loaded = prob.mesh.centroids[:, 0] == 4.0
            means.append(sol.u.reshape(-1, 3)[loaded, 1].mean())
        diffs = np.abs(np.diff(means))
        # mean loaded-face y-displacement converges: successive
        # differences shrink monotonically
        assert diffs[0] > diffs[1] > diffs[2]


class TestCsvExport:
    def test_round_trip_values(self, tmp_path):
        prob = cube_problem(k=1)
        hg = assemble(prob.mesh, prob.material, RULE)
        sol = solve(hg, prob.bc)
        path = tmp_path / "sol.csv"
        text = solution_to_csv(sol, prob.mesh, path)
        assert path.read_text() == text
        import csv as csvmod

        rows = list(csvmod.DictReader(text.splitlines()))
        assert len(rows) == prob.mesh.n_elements
        i = 7
        assert float(rows[i]["uy"]) == sol.u.reshape(-1, 3)[i, 1]
        assert float(rows[i]["ty"]) == sol.t.reshape(-1, 3)[i, 1]
