"""Run-to-run spread of the end-to-end metrics, and the held-out seed.

    python3 perfbench/spread.py --workload box-regrasp --seeds 1-10 --heldout 1001
    python3 perfbench/spread.py --workload box-regrasp --seeds 11-20 \
        --against perfbench/out/spread-box-regrasp.json

Runs ``run.py`` once per seed (untraced, for ``run_seconds`` from
BENCHMARK.json) and reports, per end-to-end metric, the median and the
distance between the first and third quartiles as a share of the
median. A metric, ``setup_s`` included, is steady when that spread is
within a third of its bound. ``--heldout`` runs one more seed that no tuning used and
requires each metric to be no worse than the median by more than its
bound. ``--against`` compares the medians with an earlier saved run of
this script the same way. Exits 1 if any run is wrong or any check
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def worse_by(value, base, better):
    """Share by which ``value`` is worse than ``base`` (negative: better)."""
    return (base - value) / base if better == "higher" else (value - base) / base


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p.add_argument("--heldout", type=int)
    p.add_argument("--against", type=Path)
    p.add_argument("--save", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = []
    ok = True
    for seed in args.seeds:
        r = run_once(args.workload, seed, seconds)
        runs.append(r)
        ok &= r["correct"]
        print(f"seed {seed}: wall {r['wall_s']:.1f} s, correct {r['correct']}, "
              + ", ".join(f"{k} {v['value']:.5g}" for k, v in r["metrics"].items()),
              flush=True)

    summary = {}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    for name, m in metrics.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        steady = spread <= m["bound"] / 3
        ok &= steady
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"  {name}: median {med:.6g} {m['unit']}, spread {spread:.4f} "
              f"(bound {m['bound']}) {'ok' if steady else 'TOO WIDE'}")

    def compare(label, values, base):
        """Each metric in ``values`` no worse than in ``base`` by more
        than its bound."""
        nonlocal ok
        for name, m in metrics.items():
            w = worse_by(values[name], base[name], m["better"])
            fine = w <= m["bound"]
            ok &= fine
            print(f"  {label} {name}: {values[name]:.6g} against {base[name]:.6g}, "
                  f"worse by {w:+.4f} (bound {m['bound']}) {'ok' if fine else 'FAIL'}")

    medians = {name: s["median"] for name, s in summary.items()}
    if args.heldout is not None:
        r = run_once(args.workload, args.heldout, seconds)
        ok &= r["correct"]
        compare(f"held-out seed {args.heldout}",
                {k: v["value"] for k, v in r["metrics"].items()}, medians)
    if args.against is not None:
        earlier = json.loads(args.against.read_text())["summary"]
        compare(f"median against {args.against.name}", medians,
                {name: s["median"] for name, s in earlier.items()})

    save = args.save or HERE / "out" / f"spread-{args.workload}.json"
    save.parent.mkdir(exist_ok=True)
    save.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                "runs": runs, "summary": summary}, indent=1))
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'}; saved {save}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
