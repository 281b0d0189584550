import csv
import dataclasses
import time

import numpy as np
import pytest

from tribem.bench import (
    BenchConfig,
    TimingRecord,
    distinct_hashes,
    emit_report,
    estimate_nonlinear,
    realtime_verdict,
    run_sweep,
    summarize,
)
from tribem.problems import cube_problem


def records_from_totals(config_id, totals, workers=None, block_size=None):
    return [
        TimingRecord(config_id, workers, block_size, "total", i + 1, s, "h0")
        for i, s in enumerate(totals)
    ]


class TestSummarize:
    def test_serial_row_average(self):
        # reference serial row: four trials averaging to 0.179
        records = records_from_totals("serial", [0.170, 0.246, 0.165, 0.134])
        summary = summarize(records)
        (cfg,) = summary.configs
        assert f"{cfg.mean_seconds:.3f}" == "0.179"

    def test_four_process_grand_mean(self):
        # five block-size cells of the 4-process runs average to 0.267
        cell_means = {
            144: [0.226, 0.069, 0.136, 0.053],
            128: [0.219, 0.116, 0.099, 0.106],
            64: [0.406, 0.497, 0.212, 0.460],
            32: [0.221, 0.187, 0.255, 0.239],
            1: [0.532, 0.441, 0.344, 0.527],
        }
        records = []
        for bs, totals in cell_means.items():
            records += records_from_totals(f"w4_b{bs}", totals, workers=4, block_size=bs)
        summary = summarize(records)
        assert f"{summary.worker_means[4]:.3f}" == "0.267"

    def test_single_record(self):
        summary = summarize(records_from_totals("x", [0.5]))
        assert summary.configs[0].mean_seconds == pytest.approx(0.5)

    def test_permutation_invariant(self):
        totals = [0.4, 0.1, 0.3, 0.2]
        base = summarize(records_from_totals("x", totals))
        shuffled = records_from_totals("x", totals)
        shuffled.reverse()
        other = summarize(shuffled)
        assert base.configs[0].mean_seconds == other.configs[0].mean_seconds
        assert base.configs[0].trial_seconds == other.configs[0].trial_seconds

    def test_warmup_excluded(self):
        records = [TimingRecord("x", None, None, "total", 0, 99.0, None)]
        records += records_from_totals("x", [0.1, 0.1])
        summary = summarize(records)
        assert summary.configs[0].mean_seconds == pytest.approx(0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestVerdict:
    def test_reference_cases(self):
        v = realtime_verdict(0.042)
        assert v.computations_per_second == pytest.approx(23.8, abs=0.1)
        assert not v.graphics_ok
        v = realtime_verdict(0.030)
        assert v.computations_per_second == pytest.approx(33.3, abs=0.1)
        assert v.graphics_ok and not v.haptics_ok

    def test_haptics_boundary(self):
        v = realtime_verdict(0.001)
        assert v.computations_per_second == pytest.approx(1000.0)
        assert v.haptics_ok

    def test_monotone(self):
        rng = np.random.default_rng(61)
        times = np.sort(rng.uniform(1e-4, 1.0, 50))
        rates = [realtime_verdict(t).computations_per_second for t in times]
        assert all(r1 > r2 for r1, r2 in zip(rates, rates[1:]))
        for t in times:
            v = realtime_verdict(t)
            assert v.graphics_ok == (v.computations_per_second >= 30.0)
            assert v.haptics_ok == (v.computations_per_second >= 1000.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            realtime_verdict(0.0)


class TestNonlinearEstimate:
    def test_default_hundred_iterations(self):
        est = estimate_nonlinear(0.054, 100)
        assert est.seconds == pytest.approx(5.4)
        assert not est.verdict.graphics_ok

    def test_newton_range_lower_bound(self):
        est = estimate_nonlinear(0.054, 62)
        assert est.seconds == pytest.approx(3.348)

    def test_identity(self):
        est = estimate_nonlinear(0.25, 1)
        assert est.seconds == pytest.approx(0.25)

    def test_linear_in_both_arguments(self):
        base = estimate_nonlinear(0.02, 10).seconds
        assert estimate_nonlinear(0.04, 10).seconds == pytest.approx(2 * base)
        assert estimate_nonlinear(0.02, 20).seconds == pytest.approx(2 * base)


class TestDummySweep:
    def test_sizes_counted_and_hashed(self):
        config = BenchConfig(mode="dummy-system", sizes=(50, 80), trials=3)
        records = run_sweep(config)
        totals = [r for r in records if r.phase == "total"]
        # per size: warm-up + 3 trials
        assert len(totals) == 2 * 4
        summary = summarize(records)
        assert [c.config_id for c in summary.configs] == ["dummy_n50", "dummy_n80"]
        assert all(len(c.trial_seconds) == 3 for c in summary.configs)
        # fixed seed per cell: the solve result never varies across trials
        for c in summary.configs:
            assert len(c.result_hashes) == 1

    def test_reference_sizes_run(self):
        config = BenchConfig(mode="dummy-system", sizes=(500, 1000, 1500), trials=1)
        records = run_sweep(config)
        summary = summarize(records)
        assert len(summary.configs) == 3


@pytest.fixture(scope="module")
def sweep():
    config = BenchConfig(
        problem=cube_problem(),
        trials=2,
        workers=(1, 4),
        block_sizes=(32, 1),
    )
    records = run_sweep(config)
    return config, records


class TestProblemSweep:
    def test_record_counts(self, sweep):
        config, records = sweep
        cells = 4
        runs = cells * (config.trials + 1)
        assert len([r for r in records if r.phase == "total"]) == runs
        assert len([r for r in records if r.phase == "assembly"]) == runs

    def test_result_hash_invariance(self, sweep):
        _, records = sweep
        assert len(distinct_hashes(records)) == 1

    def test_phase_sums(self, sweep):
        _, records = sweep
        by_run = {}
        for r in records:
            by_run.setdefault((r.config_id, r.trial), {})[r.phase] = r.seconds
        for phases in by_run.values():
            parts = phases["assembly"] + phases["barrier"] + phases["solve"]
            assert parts <= phases["total"] * 1.05 + 1e-4


class TestReports:
    def make_summary(self):
        records = records_from_totals("w1_b288", [0.170, 0.246, 0.165, 0.134], 1, 288)
        records += records_from_totals("w4_b144", [0.226, 0.069, 0.136, 0.053], 4, 144)
        return summarize(records)

    def test_table_shape(self):
        summary = self.make_summary()
        text = emit_report(summary, "text-table")
        lines = [l for l in text.splitlines() if l.strip()]
        header = lines[0]
        assert "First Run" in header and "Average" in header
        assert "0.179" in text and "0.121" in text

    def test_table_shows_small_times(self):
        summary = summarize(records_from_totals("matvec_n288", [2.13e-5, 3.4e-5]))
        text = emit_report(summary, "text-table")
        assert "0.0000213" in text and "0.0000340" in text
        assert "0.0000277" in text  # the average
        assert "0.000 " not in text + " "

    def test_table_generic_trial_names(self):
        summary = summarize(records_from_totals("x", [0.1, 0.2]))
        text = emit_report(summary, "text-table")
        assert "Trial 1" in text and "Trial 2" in text

    def test_csv_round_trip(self, tmp_path):
        summary = self.make_summary()
        path = tmp_path / "report.csv"
        emit_report(summary, "csv", path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(summary.records)
        for row, r in zip(rows, summary.records):
            assert row["config_id"] == r.config_id
            assert int(row["workers"]) == r.workers
            assert int(row["block_size"]) == r.block_size
            assert row["phase"] == r.phase
            assert int(row["trial"]) == r.trial
            assert float(row["seconds"]) == r.seconds  # %.17g is exact
            assert row["result_hash"] == r.result_hash

    def test_unwritable_destination(self, tmp_path):
        summary = self.make_summary()
        with pytest.raises(OSError):
            emit_report(summary, "csv", tmp_path / "no" / "such" / "dir" / "x.csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.make_summary(), "yaml")


class TestTimerSanity:
    def test_noop_timing_below_1ms(self):
        worst = 0.0
        for _ in range(100):
            t0 = time.perf_counter()
            t1 = time.perf_counter()
            worst = max(worst, t1 - t0)
        assert worst < 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(mode="nope")
        with pytest.raises(ValueError):
            BenchConfig(trials=0, problem=cube_problem(k=1))
        with pytest.raises(ValueError):
            BenchConfig(mode="dummy-system", sizes=())
        with pytest.raises(ValueError):
            BenchConfig(mode="assemble-and-solve", problem=None)
        with pytest.raises(ValueError):
            BenchConfig(mode="precomputed-matvec", sizes=(200,))

        # a field a mode does not read (the sweep command refuses its flag
        # there) must keep its default, and any other value counts as given
        defaults = {f.name: f.default for f in dataclasses.fields(BenchConfig)}
        problem = cube_problem(k=1)
        for mode, name, value in [
            ("assemble-and-solve", "sizes", (200,)),
            ("precomputed-matvec", "sizes", (200,)),
            ("precomputed-matvec", "workers", (2,)),
            ("precomputed-matvec", "block_sizes", (1,)),
            ("dummy-system", "problem", problem),
            ("dummy-system", "quad_order", 4),
            ("dummy-system", "workers", (1, 4)),
            ("dummy-system", "block_sizes", (16,)),
        ]:
            needed = dict(sizes=(50,)) if mode == "dummy-system" else dict(problem=problem)
            with pytest.raises(ValueError, match=f"^{mode} mode does not use {name}$"):
                BenchConfig(mode=mode, **{**needed, name: value})
            BenchConfig(mode=mode, **{**needed, name: defaults[name]})
