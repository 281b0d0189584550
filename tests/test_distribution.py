import logging
import re
import sys
import threading

import numpy as np
import pytest

from tribem.assembly import assemble_columns
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
from tribem.errors import DegenerateElementError
from tribem.kernels import gauss_rule
from tribem.problems import cube_problem
from tribem.solver import solve


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

    def test_unknown_strategy_rejected_before_sweep(self, prob, monkeypatch):
        def sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("tribem.distribution.assemble_columns", sweep)
        with pytest.raises(ValueError, match="self-integration strategy 'magic'"):
            distributed_assemble_solve(
                prob.mesh, prob.material, prob.bc, gauss_rule(4), strategy="magic"
            )

    def test_block_size_must_be_positive(self, prob):
        with pytest.raises(ValueError, match="block size"):
            distributed_assemble_solve(
                prob.mesh, prob.material, prob.bc, gauss_rule(4), block_size=0
            )

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_error_reaches_caller(self, prob, monkeypatch, workers):
        # the failing range is not the first, so the other workers finish
        # normally; the caller must see the typed error, not a secondary one
        def failing(mesh, mat, rule, elements, *args):
            if 50 in elements:
                raise DegenerateElementError("element 50 has zero area")
            return assemble_columns(mesh, mat, rule, elements, *args)

        monkeypatch.setattr("tribem.distribution.assemble_columns", failing)
        outcome = []

        def run():
            try:
                distributed_assemble_solve(
                    prob.mesh, prob.material, prob.bc, gauss_rule(4), workers=workers
                )
            except Exception as exc:
                outcome.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(outcome) == 1
        assert type(outcome[0]) is DegenerateElementError
        assert str(outcome[0]) == "element 50 has zero area"
