import contextlib
import json
import logging
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import tribem
from tribem import distribution, solver
from tribem._blas import thread_counts
from tribem.assembly import (
    apply_boundary_conditions,
    assemble,
    assemble_columns,
    sweep_buffer_size,
)
from tribem.bench import solution_hash
from tribem.distribution import (
    BlockCyclicParams,
    BlockMapParams,
    ProcessGrid,
    block_cyclic_invert,
    block_cyclic_map,
    block_map,
    distributed_assemble_solve,
    owner_of_entry,
    partition_rows,
)
from tribem.errors import DegenerateElementError, WorkerLostError
from tribem.kernels import gauss_rule
from tribem.problems import box_problem, cube_problem
from tribem.solver import scatter_solution, solve, solve_direct


class TestBlockMap:
    def test_literal_formula(self):
        params = BlockMapParams(288, 4)
        assert params.l_block == 72
        assert block_map(100, params) == (1, 28)
        assert block_map(0, params) == (0, 0)
        assert block_map(287, params) == (3, 71)

    def test_against_direct_evaluation(self):
        import math

        for m_total, p_total in ((288, 4), (10, 4), (97, 3), (5, 8)):
            params = BlockMapParams(m_total, p_total)
            l = math.ceil(m_total / p_total)
            for m in range(m_total):
                assert block_map(m, params) == (m // l, m % l)

    def test_out_of_range(self):
        params = BlockMapParams(10, 2)
        with pytest.raises(ValueError):
            block_map(10, params)
        with pytest.raises(ValueError):
            block_map(-1, params)


class TestBlockCyclicMap:
    def test_literal_examples(self):
        params = BlockCyclicParams(10_000, 4, 32)
        assert params.t_period == 128
        assert block_cyclic_map(200, params) == (2, 1, 8)
        assert block_cyclic_map(0, params) == (0, 0, 0)

    def test_round_robin_degenerate(self):
        params = BlockCyclicParams(100, 4, 1)
        assert block_cyclic_map(7, params) == (3, 1, 0)

    def test_bijective_with_inverse(self):
        for p_total in (2, 4, 16):
            for r in (1, 16, 32, 64, 128, 144):
                params = BlockCyclicParams(10_000, p_total, r)
                seen = set()
                for m in range(params.m_total):
                    trip = block_cyclic_map(m, params)
                    assert trip not in seen
                    seen.add(trip)
                    assert block_cyclic_invert(*trip, params) == m

    def test_load_balance_round_robin(self):
        # r = 1 deals indices like cards: counts differ by at most one
        for m_total, p_total in ((100, 8), (97, 4), (13, 5)):
            params = BlockCyclicParams(m_total, p_total, 1)
            counts = np.zeros(p_total, dtype=int)
            for m in range(m_total):
                p, _, _ = block_cyclic_map(m, params)
                counts[p] += 1
            assert counts.max() - counts.min() <= 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            block_cyclic_map(600, BlockCyclicParams(600, 2, 4))


class TestOwnerOfEntry:
    def test_matrix_corner_cases(self):
        grid = ProcessGrid(2, 2)
        assert owner_of_entry(150, 10, grid, 144, 144, (288, 288)) == (1, 0)
        assert owner_of_entry(0, 0, grid, 144, 144, (288, 288)) == (0, 0)

    def test_exhaustive_counts_12x12(self):
        # enumeration oracle: every process of a 2x2 grid owns exactly 36
        # entries of a 12x12 matrix under block size 3
        grid = ProcessGrid(2, 2)
        counts = {}
        for row in range(12):
            for col in range(12):
                key = owner_of_entry(row, col, grid, 3, 3, (12, 12))
                counts[key] = counts.get(key, 0) + 1
        assert counts == {(0, 0): 36, (0, 1): 36, (1, 0): 36, (1, 1): 36}

    def test_factorisation(self):
        # row owner depends only on (row, R, row_block); column owner only
        # on (col, C, col_block)
        grid = ProcessGrid(2, 4)
        rng = np.random.default_rng(51)
        for _ in range(200):
            r1, r2 = rng.integers(0, 100, 2)
            c1, c2 = rng.integers(0, 100, 2)
            p_r1, _ = owner_of_entry(r1, c1, grid, 8, 16, (100, 100))
            p_r1b, _ = owner_of_entry(r1, c2, grid, 8, 16, (100, 100))
            assert p_r1 == p_r1b
            _, p_c1 = owner_of_entry(r1, c1, grid, 8, 16, (100, 100))
            _, p_c1b = owner_of_entry(r2, c1, grid, 8, 16, (100, 100))
            assert p_c1 == p_c1b


class TestPartitionRows:
    def test_even_split(self):
        ranges = partition_rows(96, 4)
        assert [len(r) for r in ranges] == [24, 24, 24, 24]
        assert ranges[0] == range(0, 24)

    def test_single_worker(self):
        assert partition_rows(96, 1) == [range(0, 96)]

    def test_ceiling_imbalance(self):
        assert [len(r) for r in partition_rows(10, 4)] == [3, 3, 3, 1]

    def test_cover_and_disjoint(self):
        for n, w in ((96, 4), (10, 4), (7, 10), (1, 3), (288, 16)):
            ranges = partition_rows(n, w)
            flat = [i for r in ranges for i in r]
            assert flat == list(range(n))


@pytest.fixture(scope="module")
def prob():
    return cube_problem()


@pytest.fixture
def fresh_workers():
    """No worker process before the test, so that the test's first
    distributed call forks them from what it has patched, and none after
    it, so that no later test meets the patch."""
    distribution._close_workers()
    yield
    distribution._close_workers()


def running(pid):
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def worker_pids():
    return [w.process.pid for w in distribution._pool]


needs_workers = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 or not Path("/proc/self/stat").exists(),
    reason="worker processes need two usable CPUs; their state is read from /proc",
)


class TestDistributedAssembleSolve:
    def test_bit_identical_across_workers(self, prob):
        rule = gauss_rule(16)
        hashes = set()
        # 96 field elements: 3, 9 and 11 workers give odd range lengths
        # that cut across the sweep's chunks of elements. Workers share one
        # read-only quadrature table; frequent thread switches (more
        # workers than cores) would expose any write to shared state.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 4, 9, 11, 16):
                sol, _ = distributed_assemble_solve(
                    prob.mesh, prob.material, prob.bc, rule, workers=workers
                )
                hashes.add(solution_hash(sol))
        finally:
            sys.setswitchinterval(interval)
        assert len(hashes) == 1

    @pytest.mark.parametrize("size", ["cube q=16", "3000-DOF box q=4"])
    def test_distributed_hashes_as_sequential(self, size):
        # A is read from H and G in runs, one dgemv per run in each residual,
        # on either path; the 3000-DOF box solves in the factor buffer
        if size == "cube q=16":
            prob, rule = cube_problem(), gauss_rule(16)
        else:
            prob, rule = box_problem((4.0, 4.0, 8.0), (5, 5, 10)), gauss_rule(4)
        hg = assemble(prob.mesh, prob.material, rule)
        x = solve_direct(apply_boundary_conditions(hg, prob.bc))
        del hg
        hashes = {solution_hash(scatter_solution(x, prob.bc))}
        for workers in (1, 2, 4):
            sol, _ = distributed_assemble_solve(
                prob.mesh, prob.material, prob.bc, rule, workers=workers
            )
            hashes.add(solution_hash(sol))
        assert len(hashes) == 1

    def test_matrices_column_major(self, prob, monkeypatch):
        seen = []

        def spy(hg, bc):
            seen.append(hg)
            return solve(hg, bc)

        monkeypatch.setattr("tribem.distribution.solve", spy)
        distributed_assemble_solve(prob.mesh, prob.material, prob.bc, gauss_rule(4), workers=2)
        (hg,) = seen
        assert hg.h.flags.f_contiguous and hg.g.flags.f_contiguous

    def test_one_process_whole_matrix_block(self, prob):
        # the single-process configuration: one 288x288 block, same result
        rule = gauss_rule(16)
        sol1, _ = distributed_assemble_solve(
            prob.mesh, prob.material, prob.bc, rule, workers=1, block_size=288
        )
        sol2, _ = distributed_assemble_solve(
            prob.mesh, prob.material, prob.bc, rule, workers=1, block_size=32
        )
        assert solution_hash(sol1) == solution_hash(sol2)

    def test_bit_identical_across_block_sizes(self, prob):
        rule = gauss_rule(16)
        hashes = set()
        for bs in (144, 128, 64, 32, 1):
            sol, _ = distributed_assemble_solve(
                prob.mesh, prob.material, prob.bc, rule, workers=4, block_size=bs
            )
            hashes.add(solution_hash(sol))
        assert len(hashes) == 1

    def test_phase_timings_sane(self, prob):
        rule = gauss_rule(16)
        _, tm = distributed_assemble_solve(
            prob.mesh, prob.material, prob.bc, rule, workers=2
        )
        assert tm.assembly > 0 and tm.solve > 0 and tm.barrier >= 0
        parts = tm.assembly + tm.barrier + tm.solve
        assert parts <= tm.total * 1.05 + 1e-4
        assert tm.total >= parts - 1e-3

    def test_phase_timings_logged_at_debug(self, prob, caplog, capsys):
        with caplog.at_level(logging.DEBUG, logger="tribem.distribution"):
            _, tm = distributed_assemble_solve(
                prob.mesh, prob.material, prob.bc, gauss_rule(4), workers=3
            )
        (record,) = [r for r in caplog.records if r.name == "tribem.distribution"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith("96 elements in ranges of [32, 32, 32]; ")
        logged = dict(re.findall(r"(\w+) (\d+\.\d+) s", message))
        for phase in ("assembly", "barrier", "solve", "total"):
            assert float(logged[phase]) == pytest.approx(getattr(tm, phase), abs=1e-4)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("workers, pinned", [(1, False), (2, True)])
    def test_worker_pin_logged_at_debug(self, prob, caplog, workers, pinned):
        with caplog.at_level(logging.DEBUG, logger="tribem.distribution"):
            distributed_assemble_solve(
                prob.mesh, prob.material, prob.bc, gauss_rule(4), workers=workers
            )
        (record,) = [r for r in caplog.records if r.name == "tribem.distribution"]
        assert record.getMessage().endswith(
            f"; workers pinned to one BLAS thread: {pinned}"
        )

    @needs_workers
    def test_workers_run_on_one_blas_thread(self, prob, monkeypatch, tmp_path, fresh_workers):
        # each sweep, the caller's and the worker process's, records the
        # BLAS thread counts it ran with
        own = thread_counts()
        if not own:
            pytest.skip("no OpenBLAS of numpy or scipy found")
        record = tmp_path / "counts"

        def recorded(*args):
            with open(record, "a") as f:
                f.write(json.dumps([os.getpid(), thread_counts()]) + "\n")
            return assemble_columns(*args)

        monkeypatch.setattr("tribem.distribution.assemble_columns", recorded)
        distributed_assemble_solve(prob.mesh, prob.material, prob.bc, gauss_rule(4), workers=2)
        seen = [json.loads(line) for line in record.read_text().splitlines()]
        assert sorted(pid == os.getpid() for pid, _ in seen) == [False, True]
        assert [counts for _, counts in seen] == [{package: 1 for package in own}] * 2
        assert thread_counts() == own

    def test_block_size_must_be_positive(self, prob):
        with pytest.raises(ValueError, match="block size"):
            distributed_assemble_solve(
                prob.mesh, prob.material, prob.bc, gauss_rule(4), block_size=0
            )

    @needs_workers
    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_error_reaches_caller(self, prob, monkeypatch, fresh_workers, workers):
        # raised only in a worker process, in a range that is not the
        # first, so the caller's ranges finish normally; the caller must
        # see the typed error, not a secondary one
        caller = os.getpid()

        def failing(mesh, mat, rule, elements, *args):
            if 50 in elements and os.getpid() != caller:
                raise DegenerateElementError("element 50 has zero area")
            return assemble_columns(mesh, mat, rule, elements, *args)

        monkeypatch.setattr("tribem.distribution.assemble_columns", failing)
        with pytest.raises(DegenerateElementError) as caught:
            distributed_assemble_solve(
                prob.mesh, prob.material, prob.bc, gauss_rule(4), workers=workers
            )
        assert type(caught.value) is DegenerateElementError
        assert str(caught.value) == "element 50 has zero area"

    @needs_workers
    def test_ranges_in_workers_logged(self, prob, caplog, fresh_workers):
        with caplog.at_level(logging.DEBUG, logger="tribem.distribution"):
            distributed_assemble_solve(
                prob.mesh, prob.material, prob.bc, gauss_rule(4), workers=2
            )
            distributed_assemble_solve(
                prob.mesh, prob.material, prob.bc, gauss_rule(4), workers=1
            )
        two, one = [r.getMessage() for r in caplog.records if r.name == "tribem.distribution"]
        assert "; ranges in worker processes: 1 of 2; assembly " in two
        assert "; ranges in worker processes: 0 of 1 (one range); assembly " in one

    @needs_workers
    @pytest.mark.parametrize("slow", ["worker", "caller"])
    def test_assembly_runs_to_the_last_finish(self, prob, monkeypatch, fresh_workers, slow):
        # the worker clocks its own finish, so a slow range of either side
        # lands in the assembly, and the barrier is the slabs' transfer
        caller = os.getpid()

        def sweep(*args):
            if (os.getpid() == caller) == (slow == "caller"):
                time.sleep(0.3)
            return assemble_columns(*args)

        monkeypatch.setattr("tribem.distribution.assemble_columns", sweep)
        _, tm = distributed_assemble_solve(
            prob.mesh, prob.material, prob.bc, gauss_rule(4), workers=2
        )
        assert tm.assembly >= 0.3
        assert tm.barrier < 0.1


def in_new_thread(fn, *args):
    """fn(*args) on a thread of its own, which starts with nothing kept;
    returns its result or raises its exception."""
    outcome = []

    def run():
        try:
            outcome.append((True, fn(*args)))
        except Exception as exc:
            outcome.append((False, exc))

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    (ok, value), = outcome
    if not ok:
        raise value
    return value


def kept_arrays():
    """The calling thread's kept arrays, by name."""
    return dict(vars(solver._kept))


class TestWorkingSet:
    """Below SINGLE_THREAD_DOFS a calling thread keeps H, G, the
    float32 copy and the sweep buffers, and reuses them on its next call."""

    @staticmethod
    def run(prob, rule, workers=2):
        sol, _ = distributed_assemble_solve(
            prob.mesh, prob.material, prob.bc, rule, workers=workers
        )
        return sol

    def lone_hash(self, prob, rule, workers=2):
        return in_new_thread(lambda: solution_hash(self.run(prob, rule, workers)))

    def test_reused_memory_is_not_faulted_again(self):
        # In a new process, as a benchmark or a user's program starts, glibc
        # hands the memory of each call's new arrays back to the OS, and the
        # next call touches it afresh: 540-840 minor faults a call. With the
        # working set kept, about 6. Counted in this process, the figure
        # would depend on what earlier tests allocated and freed.
        script = """
import resource
from tribem.distribution import distributed_assemble_solve
from tribem.kernels import gauss_rule
from tribem.problems import cube_problem
prob, rule = cube_problem(), gauss_rule(16)
def run():
    distributed_assemble_solve(prob.mesh, prob.material, prob.bc, rule, workers=2)
for _ in range(3):
    run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    run()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(tribem.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 50

    @needs_workers
    def test_what_a_thread_keeps(self, prob, monkeypatch, tmp_path, fresh_workers):
        # the 96-element cube on two workers: the caller keeps H, G, A in
        # float32 and the sweep buffer of its 48-element range, ~2.9 MB; the
        # worker process its range's column slabs of H and G and its own
        # sweep buffer, ~1.9 MB, and nothing it inherited from the caller
        rule = gauss_rule(16)
        caller, record = os.getpid(), tmp_path / "kept"

        def recorded(*args):
            assemble_columns(*args)
            if os.getpid() != caller:
                record.write_text(str(sum(a.nbytes for a in kept_arrays().values())))

        monkeypatch.setattr("tribem.distribution.assemble_columns", recorded)
        self.run(prob, rule)  # forks the worker from this thread, which keeps arrays

        def kept_after_call():
            self.run(prob, rule)
            return sum(a.nbytes for a in kept_arrays().values())

        n = prob.mesh.n_dofs
        sweep = sweep_buffer_size(prob.mesh, rule, range(48))
        assert in_new_thread(kept_after_call) == 2 * 8 * n * n + 4 * n * n + 8 * sweep
        assert int(record.read_text()) == 2 * 8 * n * (n // 2) + 8 * sweep

    @needs_workers
    def test_worker_holds_no_factor_buffer(self, prob, monkeypatch, tmp_path, fresh_workers):
        # the caller holds the process's float32 factor buffer when it
        # forks the worker; the worker process starts without it
        monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", 200)
        monkeypatch.setattr(solver, "_factor32", None)
        rule = gauss_rule(4)
        caller, record = os.getpid(), tmp_path / "held"

        def recorded(*args):
            assemble_columns(*args)
            if os.getpid() != caller:
                record.write_text(repr(solver._factor32))

        monkeypatch.setattr("tribem.distribution.assemble_columns", recorded)
        solve(assemble(prob.mesh, prob.material, rule), prob.bc)
        assert solver._factor32 is not None
        self.run(prob, rule)  # forks the worker
        assert record.read_text() == "None"

    def test_nothing_returned_aliases_a_kept_array(self, prob):
        rule = gauss_rule(8)
        sol = self.run(prob, rule)
        before = [a.copy() for a in (sol.u, sol.t, sol.displacement_known)]
        other = cube_problem(traction=-7.0, fixed_axis="y", load_axis="x")
        self.run(other, rule)
        assert all(
            np.array_equal(a, b) for a, b in zip((sol.u, sol.t, sol.displacement_known), before)
        )
        # nor do the public steps' results, which a caller may keep
        hg = assemble(prob.mesh, prob.material, rule)
        system = apply_boundary_conditions(hg, prob.bc)
        x = solve_direct(system)
        returned = [sol.u, sol.t, hg.h, hg.g, system.a, system.b, x, solve(hg, prob.bc).u]
        kept = kept_arrays()
        # A is a view of H and G, so no float64 A is kept
        assert {"h", "g", "a32", "sweep"} <= kept.keys() and "a" not in kept
        for array in returned:
            assert not any(np.shares_memory(array, k) for k in kept.values())

    def test_changing_shapes_hash_as_lone_calls(self):
        rule = gauss_rule(8)
        probs = {24: cube_problem(k=1), 96: cube_problem()}
        calls = [(96, 2), (96, 3), (96, 2), (24, 2), (96, 2), (24, 3), (24, 3)]
        lone = {(n, w): self.lone_hash(probs[n], rule, w) for n, w in set(calls)}
        for n, w in calls:
            assert solution_hash(self.run(probs[n], rule, w)) == lone[n, w]

    def test_concurrent_callers_keep_their_own(self):
        rule = gauss_rule(8)
        jobs = [(cube_problem(), 2), (cube_problem(traction=-3.0, load_axis="z"), 3)]
        want = [self.lone_hash(p, rule, w) for p, w in jobs]
        got = [[], []]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [
                threading.Thread(
                    target=lambda i=i, p=p, w=w: got[i].extend(
                        solution_hash(self.run(p, rule, w)) for _ in range(4)
                    ),
                    daemon=True,
                )
                for i, (p, w) in enumerate(jobs)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [[want[0]] * 4, [want[1]] * 4]

    @needs_workers
    def test_call_after_worker_error(self, prob, monkeypatch, fresh_workers):
        # the failing worker process leaves NaN in its kept slabs and sweep
        # buffer and stays in the pool; its next call overwrites every
        # entry it sends
        rule = gauss_rule(8)
        want = self.lone_hash(prob, rule)
        caller, failed = os.getpid(), []

        def sweep(mesh, mat, rule, elements, h, g, buffer):
            if os.getpid() != caller and not failed:
                failed.append(True)
                for array in (h, g, buffer):
                    array.fill(np.nan)
                raise DegenerateElementError("element 50 has zero area")
            return assemble_columns(mesh, mat, rule, elements, h, g, buffer)

        monkeypatch.setattr("tribem.distribution.assemble_columns", sweep)
        with pytest.raises(DegenerateElementError):
            self.run(prob, rule)
        pids = worker_pids()
        assert solution_hash(self.run(prob, rule)) == want
        assert worker_pids() == pids

    def test_nothing_kept_at_the_gate(self, prob, monkeypatch):
        monkeypatch.setattr(solver, "SINGLE_THREAD_DOFS", 200)

        def kept_after_call():
            self.run(prob, gauss_rule(4))
            return kept_arrays()

        assert in_new_thread(kept_after_call) == {}


@needs_workers
class TestWorkerProcesses:
    """The worker processes: their lifetime, and the calls that run
    without them."""

    @staticmethod
    def run(prob, rule, workers=2):
        sol, _ = distributed_assemble_solve(
            prob.mesh, prob.material, prob.bc, rule, workers=workers
        )
        return solution_hash(sol)

    @pytest.mark.parametrize("ending", ["exit", "kill", "kill beside a forked child"])
    def test_worker_ends_with_its_caller(self, ending):
        # a benchmark run that leaves a process behind fails: after a
        # normal exit, and after the caller is SIGKILLed, the worker is
        # gone, also while a child the caller forked later lives on
        script = """
import os, sys, time
from tribem import distribution
from tribem.kernels import gauss_rule
from tribem.problems import cube_problem
prob = cube_problem()
distribution.distributed_assemble_solve(prob.mesh, prob.material, prob.bc, gauss_rule(4), workers=2)
pids = [w.process.pid for w in distribution._pool]
if sys.argv[1] == "kill beside a forked child":
    child = os.fork()
    if child == 0:
        time.sleep(60)
        os._exit(0)
    pids.append(child)
print(*pids, flush=True)
if sys.argv[1] != "exit":
    time.sleep(60)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(tribem.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-c", script, ending], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ) as proc:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            if ending != "exit":
                proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=60) == (0 if ending == "exit" else -signal.SIGKILL)
        worker, *child = pids
        try:
            assert len(child) == (ending == "kill beside a forked child")
            deadline = time.monotonic() + 5
            while running(worker) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not running(worker)
        finally:
            for pid in child:
                os.kill(pid, signal.SIGKILL)

    def test_killed_worker_replaced(self, prob, fresh_workers):
        rule = gauss_rule(8)
        want = self.run(prob, rule, workers=1)
        self.run(prob, rule)
        (pid,) = worker_pids()
        os.kill(pid, signal.SIGKILL)
        while running(pid):
            time.sleep(0.01)
        assert self.run(prob, rule) == want
        (new,) = worker_pids()
        assert new != pid and running(new)

    def test_worker_dying_in_a_call(self, prob, monkeypatch, tmp_path, fresh_workers):
        # the first worker dies in its sweep; the next call forks another
        rule = gauss_rule(8)
        want = self.run(prob, rule, workers=1)
        caller, died = os.getpid(), tmp_path / "died"

        def dying(*args):
            if os.getpid() != caller and not died.exists():
                died.touch()
                os._exit(3)
            return assemble_columns(*args)

        monkeypatch.setattr("tribem.distribution.assemble_columns", dying)
        with pytest.raises(WorkerLostError, match="worker process"):
            self.run(prob, rule)
        assert distribution._pool == []
        assert self.run(prob, rule) == want

    @staticmethod
    @contextlib.contextmanager
    def another_thread():
        release = threading.Event()
        other = threading.Thread(target=release.wait, daemon=True)
        other.start()
        try:
            yield
        finally:
            release.set()
            other.join()

    @pytest.mark.parametrize("reason", ["another thread alive", "pool busy"])
    def test_caller_alone(self, prob, caplog, monkeypatch, fresh_workers, reason):
        # with another Python thread alive nothing is forked; with the pool
        # held by another call the caller does not wait for it. Either way
        # it sweeps every range itself, as a lone call would
        rule = gauss_rule(8)
        want = self.run(prob, rule, workers=1)
        monkeypatch.setattr(distribution, "_told", set())
        alive = reason == "another thread alive"
        hold = self.another_thread() if alive else distribution._pool_lock
        with caplog.at_level(logging.DEBUG, logger="tribem.distribution"):
            with hold:
                got = [self.run(prob, rule) for _ in range(2)]
        assert got == [want, want]
        assert distribution._pool == []
        said = [r for r in caplog.records if r.name == "tribem.distribution"]
        info = [r.getMessage() for r in said if r.levelno == logging.INFO]
        debug = [r.getMessage() for r in said if r.levelno == logging.DEBUG]
        assert info == [f"distributed run sweeps every range in the calling thread: {reason}"]
        assert len(debug) == 2
        for message in debug:
            assert f"; ranges in worker processes: 0 of 2 ({reason}); " in message
            assert message.endswith("; workers pinned to one BLAS thread: False")
