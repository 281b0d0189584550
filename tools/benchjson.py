"""Run the benchmark in alternating pairs and write ``BENCH_<n>.json``.

    python3 tools/benchjson.py pairs --parent ../parent --workload cube-graphics \
        --seeds 11-20 --log runs.jsonl
    python3 tools/benchjson.py write --log runs.jsonl --index 9 --out BENCH_9.json

``pairs`` runs ``perfbench/run.py`` of two checkouts, the parent and the
change (by default the checkout holding this script), once each per
seed, alternating which side runs first. Before each run it times a
fixed probe of the machine's level in a fresh interpreter: a seeded
1600 x 1600 float32 ``sgetrf`` and a 3000 x 3000 ``dgemv``, 5 calls
each, medians in ms, and the first ``sgetrf`` call alone, which shows a
slow start that the median hides. It appends one line per run to the log: the side,
workload, seed, trace flag, which side ran first, the checkout's git
revision and a digest of its ``src/``, the probe, the environment line
the run printed, and the run's result (the last line of its standard
output). A run that exits non-zero is logged with no result,
its exit code and the last lines of its standard error, and the seeds
after it still run.

``write`` turns a log into one JSON object: per workload and side the
median and quartiles of each metric over runs (traced runs in rows of
their own), per workload the pairs
(same seed and trace flag on both sides) in which the change was better
by each metric's direction in ``BENCHMARK.json``, and how far apart the
two medians are against the parent's interquartile range. It reports
each side's probe medians and, per pair, the change's probe over the
parent's, so a pair can be read against the level the machine was at
when each side ran. It counts
the failed runs per workload and side and keeps them out of the medians
and pairs. It also keeps the environment, the revisions and every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
ENVIRONMENT = "environment: "
STDERR_LINES = 20  # of a failed run, kept in the log

# The level probe: prints {"sgetrf_1600_ms": ..., "sgetrf_1600_first_ms":
# ..., "dgemv_3000_ms": ...}, the medians of 5 calls each on seeded
# inputs and the time of the first LU call. The LU factors a fresh copy
# each call, made outside the timing. It runs on scipy's OpenBLAS,
# although tribem itself uses only numpy's: the probe is the same for
# both sides of a pair whatever either side's code imports, and its
# readings stay comparable with the earlier BENCH_*.json files.
PROBE = """
import json, time
import numpy as np
from scipy.linalg import blas, lapack

def times_ms(calls):
    times = []
    for call in calls:
        t0 = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - t0))
    return times

def median(times):
    return sorted(times)[len(times) // 2]

rng = np.random.default_rng(0)
a = np.asfortranarray(rng.standard_normal((1600, 1600)) + 1600 * np.eye(1600), np.float32)
copies = [a.copy(order="F") for _ in range(5)]
m, x = np.asfortranarray(rng.standard_normal((3000, 3000))), rng.standard_normal(3000)
lu = times_ms([lambda c=c: lapack.sgetrf(c, overwrite_a=True) for c in copies])
print(json.dumps({
    "sgetrf_1600_ms": median(lu),
    "sgetrf_1600_first_ms": lu[0],
    "dgemv_3000_ms": median(times_ms([lambda: blas.dgemv(1.0, m, x)] * 5)),
}))
"""


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def revision(checkout):
    """The checkout's git HEAD (with ``+dirty`` for uncommitted changes,
    None outside git) and a sha256 of the files under its ``src/``."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head and git("status", "--porcelain", "--untracked-files=no", "--", "src"):
        head += "+dirty"
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return {"head": head, "src_sha256": digest.hexdigest()}


def probe():
    """The level probe's medians, timed in a fresh interpreter, or None
    if it failed."""
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None


def run_once(checkout, workload, seed, seconds, trace):
    """One run of the checkout's benchmark: (environment, result, wall
    seconds, failure). A run that exits non-zero has no result; its
    failure is its exit code and the last lines of its standard error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    env = next((json.loads(line[len(ENVIRONMENT):]) for line in lines
                if line.startswith(ENVIRONMENT)), None)
    if out.returncode:
        failure = {"exit_code": out.returncode,
                   "stderr_tail": out.stderr.strip().splitlines()[-STDERR_LINES:]}
        return env, None, wall, failure
    return env, json.loads(lines[-1]), wall, None


def pairs(args):
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    revisions = {side: revision(path) for side, path in checkouts.items()}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            level = probe()
            env, result, wall, failure = run_once(checkouts[side], args.workload, seed,
                                                  args.seconds, args.trace)
            record = {
                "side": side, "workload": args.workload, "seed": seed,
                "trace": args.trace, "seconds": args.seconds, "ran_first": order[0],
                "revision": revisions[side], "wall_s": round(wall, 2), "probe": level,
                "environment": env, "result": result, "failure": failure,
            }
            with open(args.log, "a") as f:
                f.write(json.dumps(record) + "\n")
            if failure:
                said = f"exited {failure['exit_code']}"
            else:
                p50 = result["metrics"].get("latency_p50_ms", {}).get("value")
                said = f"p50 {p50} ms, failed {result['failed']} of {result['attempted']}"
            print(f"{args.workload} seed {seed} {side}: {said}; probe {level}", flush=True)


def spread(values):
    """Median and quartiles (inclusive method) of one or more values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def directions(spec):
    """{metric: "lower" | "higher"} from a BENCHMARK.json object."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def label(record):
    """A run's row in the summary: its workload, marked when traced."""
    return record["workload"] + (" traced" if record["trace"] else "")


def probe_medians(runs):
    """Median and quartiles of each probe measure over the runs that
    logged one."""
    levels = [r["probe"] for r in runs if r.get("probe")]
    if not levels:
        return {}
    return {name: spread([level[name] for level in levels]) for name in levels[0]}


def summarize(records, better, index, note=""):
    """The BENCH object for the log's records."""
    summary, paired, probe_ratios = {}, {}, {}
    by_key, failed_runs = {}, {}
    for r in records:
        if r["result"] is None:
            key = (label(r), r["side"])
            failed_runs[key] = failed_runs.get(key, 0) + 1
            continue
        by_key.setdefault((label(r), r["side"]), []).append(r)
        by_key.setdefault((label(r), r["seed"], r["trace"]), {})[r["side"]] = r
    for workload in sorted({label(r) for r in records}):
        summary[workload] = {}
        for side in SIDES:
            runs = by_key.get((workload, side), [])
            failed = failed_runs.get((workload, side), 0)
            if not runs:
                if failed:
                    summary[workload][side] = {"seeds": [], "failed_runs": failed}
                continue
            names = runs[0]["result"]["metrics"]
            summary[workload][side] = {
                "seeds": [r["seed"] for r in runs],
                "failed_runs": failed,
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "failed": sum(r["result"]["failed"] for r in runs),
                "probe": probe_medians(runs),
                "metrics": {
                    name: {**spread([r["result"]["metrics"][name]["value"] for r in runs]),
                           "unit": names[name]["unit"]}
                    for name in names
                },
            }
        matched = [v for k, v in by_key.items()
                   if len(k) == 3 and k[0] == workload and len(v) == 2]
        if not matched:
            continue
        probe_ratios[workload] = [
            {"seed": pair["change"]["seed"],
             **{name: pair["change"]["probe"][name] / pair["parent"]["probe"][name]
                for name in pair["parent"]["probe"]}}
            for pair in sorted(matched, key=lambda pair: pair["change"]["seed"])
            if pair["change"].get("probe") and pair["parent"].get("probe")
        ]
        paired[workload] = {}
        for name in matched[0]["change"]["result"]["metrics"]:
            wins = ties = 0
            for pair in matched:
                old, new = (pair[s]["result"]["metrics"][name]["value"] for s in SIDES)
                ties += new == old
                wins += new < old if better[name] == "lower" else new > old
            base = summary[workload]["parent"]["metrics"][name]
            iqr = base["q3"] - base["q1"]
            gap = abs(summary[workload]["change"]["metrics"][name]["median"] - base["median"])
            paired[workload][name] = {
                "change_better": wins, "ties": ties, "pairs": len(matched),
                "median_gap_over_parent_iqr": gap / iqr if iqr else None,
            }
    envs = [r["environment"] for r in records if r.get("environment")]
    revisions = {side: [] for side in SIDES}
    for r in records:
        if r["revision"] not in revisions[r["side"]]:
            revisions[r["side"]].append(r["revision"])
    return {
        "index": index,
        "note": note,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace R",
        "revisions": revisions,
        "environment": envs[0] if envs else None,
        "summary": summary,
        "paired": paired,
        "probe_ratios": probe_ratios,
        "runs": records,
    }


def write(args):
    records = [json.loads(line) for line in args.log.read_text().splitlines() if line.strip()]
    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    bench = summarize(records, better, args.index, args.note)
    out = args.out or ROOT / f"BENCH_{args.index}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"{len(records)} runs written to {out}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    q = sub.add_parser("pairs", help="run both checkouts per seed, alternating")
    q.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    q.add_argument("--change", type=Path, default=ROOT, help="default: this checkout")
    q.add_argument("--workload", required=True)
    q.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 11-20")
    q.add_argument("--seconds", type=float, default=18.0)
    q.add_argument("--trace", type=int, choices=(0, 1), default=0)
    q.add_argument("--log", type=Path, required=True, help="JSON lines, appended")
    w = sub.add_parser("write", help="write BENCH_<index>.json from a log")
    w.add_argument("--log", type=Path, required=True)
    w.add_argument("--index", type=int, required=True)
    w.add_argument("--out", type=Path, help="default: BENCH_<index>.json here")
    w.add_argument("--note", default="")
    args = p.parse_args(argv)
    (pairs if args.command == "pairs" else write)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
