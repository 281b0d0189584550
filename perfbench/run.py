"""tribem benchmark: one workload, one seed, one closed-loop stream.

    python3 perfbench/run.py --workload cube-graphics --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; tribem is imported from its
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see README.md).

Every set-up runs in a fresh process, because a user pays interpreter
start, imports and first-call library costs once per process, and
because assembly repeated in one process has been seen to run slower.
The untraced run starts the processes of ``SCHEDULE`` in sequence.
Each sets up; a stream part then streams for a third of ``--seconds``,
and the parts' requests are pooled, while a set-up process stops once
it is ready. Latency on this class of machine drifts between processes
as well as over time, so pooling three processes steadies the medians.
``setup_s`` is the median of all five set-up times, so that a slow
first call or a burst of interference in one or two processes does not
set it. The traced run starts one process that streams for all
of ``--seconds``.
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
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("cube-graphics", "box-haptic", "box-regrasp")
# stream parts, with set-up-only processes between them so that the
# set-up samples spread over the run
SCHEDULE = ("part", "setup", "part", "setup", "last")
PARTS = SCHEDULE.count("part") + SCHEDULE.count("last")
READY = "READY"
RESULT = "RESULT "


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="show that corrupted results are counted as failures")
    p.add_argument("--child", choices=("part", "last", "traced", "setup"),
                   help=argparse.SUPPRESS)
    p.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and not args.self_test:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def spawn(args, role, part, seconds):
    """Run one child; returns (seconds until it was ready, its payload)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--child", role, "--part", str(part)]
    t0 = time.perf_counter()
    ready = None
    payloads = []
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        for line in proc.stdout:
            if ready is None and line.rstrip("\n") == READY:
                ready = time.perf_counter() - t0
            elif line.startswith(RESULT):
                payloads.append(json.loads(line[len(RESULT):]))
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
    if proc.returncode != 0 or ready is None or len(payloads) != 1:
        raise SystemExit(f"{role} process for {args.workload} failed "
                         f"(exit code {proc.returncode})")
    return ready, payloads[0]


def pool(parts, setups):
    """End-to-end result from the parts' raw streams."""
    lat = [s for p in parts for s in p["latencies"]]
    failed = sum(p["failed"] for p in parts)
    # throughput is the median over the parts, so that a burst of
    # interference in one part does not set it
    rate = [len(p["latencies"]) / p["window"] for p in parts]
    metrics = {
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
        "throughput_per_s": (statistics.median(rate), "1/s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
        "ref_rel_err": (parts[-1]["ref_rel_err"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, len(lat)


def report(result, samples, setups):
    from tribem.bench import realtime_verdict

    m = result["metrics"]
    print(f"requests: attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['failed'] / result['attempted']:.6g}, "
          f"latency samples {samples}")
    v = realtime_verdict(1.0 / m["throughput_per_s"]["value"])
    print(f"realtime: {v.computations_per_second:.4g}/s, graphics (30/s) "
          f"{'met' if v.graphics_ok else 'missed'}, haptics (1000/s) "
          f"{'met' if v.haptics_ok else 'missed'}")
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    for name, metric in m.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")


def parent_main(args):
    if args.trace:
        _, result = spawn(args, "traced", 0, args.seconds)
    else:
        setups, parts = [], []
        for role in SCHEDULE:
            ready, payload = spawn(args, role, len(parts), args.seconds / PARTS)
            setups.append(ready)
            if role != "setup":
                parts.append(payload)
        result, samples = pool(parts, setups)
        import_tribem()
        report(result, samples, setups)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        raise SystemExit("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ declared)}")
    print(json.dumps(result))
    return 0


def import_tribem():
    """Import tribem from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import tribem

    if Path(tribem.__file__).resolve().parent != SRC / "tribem":
        raise SystemExit(f"tribem imported from {tribem.__file__}, not {SRC}")


def child_main(args):
    import_tribem()
    import harness

    return harness.run_child(args, ready=lambda: print(READY, flush=True),
                             result_prefix=RESULT, out_dir=OUT, root=ROOT)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tribem" / "__init__.py").is_file():
        print(f"no tribem sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        import_tribem()
        import harness

        return harness.self_test()
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
