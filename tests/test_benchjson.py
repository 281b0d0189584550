"""tools/benchjson.py's summary of benchmark runs, on synthetic result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("benchjson", ROOT / "tools" / "benchjson.py")
benchjson = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchjson)

BETTER = {"latency_p50_ms": "lower", "throughput_per_s": "higher"}


def record(side, seed, p50, rate, workload="cube-graphics", failed=0):
    result = {
        "correct": not failed, "attempted": 100, "failed": failed,
        "metrics": {
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "throughput_per_s": {"value": rate, "unit": "1/s"},
        },
    }
    return {
        "side": side, "workload": workload, "seed": seed, "trace": 0, "seconds": 18.0,
        "ran_first": "parent", "revision": {"head": f"{side}-rev", "src_sha256": "0" * 64},
        "wall_s": 25.0, "environment": {"nproc": 2}, "result": result,
    }


@pytest.fixture
def records():
    # five pairs: the change is lower in four, tied in one; its rate
    # is higher in three
    parent = [(1, 10.0, 90.0), (2, 12.0, 80.0), (3, 11.0, 85.0), (4, 13.0, 70.0), (5, 9.0, 95.0)]
    change = [(1, 8.0, 95.0), (2, 9.0, 85.0), (3, 11.0, 80.0), (4, 10.0, 75.0), (5, 8.5, 90.0)]
    return [record("parent", *row) for row in parent] + [record("change", *row) for row in change]


def test_medians_and_quartiles(records):
    out = benchjson.summarize(records, BETTER, 9)
    parent = out["summary"]["cube-graphics"]["parent"]
    assert parent["seeds"] == [1, 2, 3, 4, 5]
    assert parent["attempted"] == 500 and parent["failed"] == 0
    # inclusive quartiles of 9, 10, 11, 12, 13
    assert parent["metrics"]["latency_p50_ms"] == {
        "median": 11.0, "q1": 10.0, "q3": 12.0, "n": 5, "unit": "ms"
    }
    change = out["summary"]["cube-graphics"]["change"]["metrics"]["latency_p50_ms"]
    assert (change["median"], change["q1"], change["q3"]) == (9.0, 8.5, 10.0)


def test_paired_wins_follow_each_metric_direction(records):
    paired = benchjson.summarize(records, BETTER, 9)["paired"]["cube-graphics"]
    p50 = paired["latency_p50_ms"]
    assert (p50["change_better"], p50["ties"], p50["pairs"]) == (4, 1, 5)
    # medians 11 and 9, two apart, against the parent's range 10-12
    assert p50["median_gap_over_parent_iqr"] == pytest.approx(1.0)
    assert paired["throughput_per_s"]["change_better"] == 3


def test_unpaired_runs_count_in_the_summary_only(records):
    records.append(record("change", 6, 7.0, 99.0))
    records.append(record("parent", 1, 1.0, 1.0, workload="box-haptic"))
    out = benchjson.summarize(records, BETTER, 9)
    assert out["summary"]["cube-graphics"]["change"]["metrics"]["latency_p50_ms"]["n"] == 6
    assert out["paired"]["cube-graphics"]["latency_p50_ms"]["pairs"] == 5
    assert "box-haptic" not in out["paired"]
    assert out["summary"]["box-haptic"]["parent"]["metrics"]["latency_p50_ms"]["n"] == 1


def test_traced_runs_in_rows_of_their_own(records):
    traced = record("parent", 1, 3.0, 30.0)
    traced["trace"] = 1
    out = benchjson.summarize(records + [traced], BETTER, 9)
    assert out["summary"]["cube-graphics traced"]["parent"]["metrics"]["latency_p50_ms"]["n"] == 1
    assert out["summary"]["cube-graphics"]["parent"]["metrics"]["latency_p50_ms"]["n"] == 5
    assert "cube-graphics traced" not in out["paired"]


def test_write_keeps_runs_revisions_and_environment(records, tmp_path):
    log = tmp_path / "runs.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "BENCH_9.json"
    assert benchjson.main(["write", "--log", str(log), "--index", "9", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["index"] == 9
    assert bench["runs"] == records
    assert bench["environment"] == {"nproc": 2}
    assert bench["revisions"] == {
        side: [{"head": f"{side}-rev", "src_sha256": "0" * 64}] for side in ("parent", "change")
    }


def test_directions_from_the_benchmark_spec():
    better = benchjson.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert better["latency_p50_ms"] == "lower"
    assert better["throughput_per_s"] == "higher"
    assert better["solver.lu_gflops"] == "higher"


def test_seed_ranges():
    assert benchjson.parse_seeds("11-14") == [11, 12, 13, 14]
    assert benchjson.parse_seeds("7") == [7]


# A stub perfbench/run.py: prints an environment line and a result
# line, or, for the seeds in FAIL, a traceback on stderr and exits 1.
_STUB = """
import json, sys
FAIL = {fail}
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print("environment: " + json.dumps({{"nproc": 2}}))
if seed in FAIL:
    print("Traceback (most recent call last):", file=sys.stderr)
    print("RuntimeError: seed " + str(seed), file=sys.stderr)
    sys.exit(1)
metrics = {{"latency_p50_ms": {{"value": float(seed), "unit": "ms"}}}}
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}}))
"""


def test_a_failed_run_is_logged_and_the_rest_run(tmp_path):
    checkouts = {}
    for side, fail in (("parent", {1}), ("change", set())):
        run = tmp_path / side / "perfbench" / "run.py"
        run.parent.mkdir(parents=True)
        run.write_text(_STUB.format(fail=fail))
        checkouts[side] = tmp_path / side
    log = tmp_path / "runs.jsonl"
    assert benchjson.main([
        "pairs", "--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
        "--workload", "cube-graphics", "--seeds", "1-2", "--seconds", "1", "--log", str(log),
    ]) == 0
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(r["seed"], r["side"]) for r in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent")
    ]
    (failed,) = [r for r in runs if r["result"] is None]
    assert (failed["seed"], failed["side"]) == (1, "parent")
    assert failed["failure"] == {
        "exit_code": 1,
        "stderr_tail": ["Traceback (most recent call last):", "RuntimeError: seed 1"],
    }
    assert failed["environment"] == {"nproc": 2}

    out = benchjson.summarize(runs, BETTER, 9)
    parent, change = (out["summary"]["cube-graphics"][side] for side in ("parent", "change"))
    assert (parent["failed_runs"], parent["seeds"]) == (1, [2])
    assert parent["metrics"]["latency_p50_ms"]["median"] == 2.0
    assert (change["failed_runs"], change["seeds"]) == (0, [1, 2])
    assert out["paired"]["cube-graphics"]["latency_p50_ms"]["pairs"] == 1


def test_a_side_with_only_failed_runs(records):
    for r in records:
        if r["side"] == "change":
            r["result"], r["failure"] = None, {"exit_code": 1, "stderr_tail": []}
    out = benchjson.summarize(records, BETTER, 9)
    assert out["summary"]["cube-graphics"]["change"] == {"seeds": [], "failed_runs": 5}
    assert out["summary"]["cube-graphics"]["parent"]["failed_runs"] == 0
    assert "cube-graphics" not in out["paired"]


# A stub level probe: the n-th call reports n ms for the LU's median, 4n
# for its first call and 2n for the product, counting its calls in a file.
_PROBE = """
import json
from pathlib import Path
count = Path({path!r})
n = int(count.read_text() or 0) + 1 if count.exists() else 1
count.write_text(str(n))
print(json.dumps({{
    "sgetrf_1600_ms": float(n), "sgetrf_1600_first_ms": 4.0 * n, "dgemv_3000_ms": 2.0 * n
}}))
"""


def test_level_probe_logged_and_summarized(tmp_path, monkeypatch):
    monkeypatch.setattr(benchjson, "PROBE", _PROBE.format(path=str(tmp_path / "calls")))
    checkouts = {}
    for side in ("parent", "change"):
        run = tmp_path / side / "perfbench" / "run.py"
        run.parent.mkdir(parents=True)
        run.write_text(_STUB.format(fail=set()))
        checkouts[side] = tmp_path / side
    log = tmp_path / "runs.jsonl"
    assert benchjson.main([
        "pairs", "--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
        "--workload", "cube-graphics", "--seeds", "1-2", "--seconds", "1", "--log", str(log),
    ]) == 0
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    # one probe before each run, in run order
    assert [(r["seed"], r["side"], r["probe"]["sgetrf_1600_ms"]) for r in runs] == [
        (1, "parent", 1.0), (1, "change", 2.0), (2, "change", 3.0), (2, "parent", 4.0)
    ]
    out = benchjson.summarize(runs, BETTER, 11)
    summary = out["summary"]["cube-graphics"]
    parent, change = (summary[side]["probe"] for side in ("parent", "change"))
    assert parent["sgetrf_1600_ms"]["median"] == 2.5 and change["sgetrf_1600_ms"]["median"] == 2.5
    assert parent["dgemv_3000_ms"]["median"] == 5.0
    assert parent["sgetrf_1600_first_ms"]["median"] == 10.0
    assert change["sgetrf_1600_first_ms"]["median"] == 10.0
    assert out["probe_ratios"]["cube-graphics"] == [
        {"seed": 1, "sgetrf_1600_ms": 2.0, "sgetrf_1600_first_ms": 2.0, "dgemv_3000_ms": 2.0},
        {"seed": 2, "sgetrf_1600_ms": 0.75, "sgetrf_1600_first_ms": 0.75, "dgemv_3000_ms": 0.75},
    ]


def test_the_level_probe_runs():
    level = benchjson.probe()
    assert set(level) == {"sgetrf_1600_ms", "sgetrf_1600_first_ms", "dgemv_3000_ms"}
    assert all(v > 0 for v in level.values())


def test_logs_without_a_probe_summarize(records):
    out = benchjson.summarize(records, BETTER, 9)
    assert out["summary"]["cube-graphics"]["parent"]["probe"] == {}
    assert out["probe_ratios"]["cube-graphics"] == []
