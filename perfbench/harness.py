"""The stream loop, the metrics and the self-test, run inside a child
process of ``run.py`` after tribem has been imported from the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, BoxHaptic, BoxRegrasp, CubeGraphics

LAYERS = ("kernels", "assembly", "solver", "distribution", "bench", "problems")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Stream:
    """Outcome of one closed-loop stream."""

    def __init__(self):
        self.latencies = []  # seconds, completed untraced requests
        self.traced = []  # seconds, completed traced requests
        self.window = 0.0  # seconds inside request calls, failed ones too
        self.attempted = 0
        self.failed = set()  # request ids
        self.errors = []
        self.peak_rss_mb = 0.0

    def result(self, metrics):
        return {
            "correct": not self.failed,
            "attempted": self.attempted,
            "failed": len(self.failed),
            "metrics": metrics,
        }


def run_stream(wl, tracer, seconds, extras=True):
    """Send requests one after another for ``seconds``.

    Input generation and per-request checks sit outside each request's
    latency window. With tracing on, every other request is traced, so
    ``trace.overhead_pct`` compares requests from the same stretch of
    time. The sampled checks run after the loop and after the peak
    memory reading. Peak memory is the larger of the set-up's peak and
    the stream's, the latter without the benchmark's own buffers.
    """
    st = Stream()
    setup_rss_mb = max_rss_mb()
    wl.prepare_stream()
    tracing = tracer.enabled
    t_end = time.perf_counter() + seconds
    rid = 0
    while time.perf_counter() < t_end:
        traced = tracing and rid % 2 == 0
        tracer.enabled = traced
        tracer.request = f"r{rid}"
        inp = wl.next_input()
        t0 = time.perf_counter()
        try:
            out = tracer.call("request", wl.request, inp) if traced else wl.request(inp)
        except Exception as exc:  # a failed request is counted, not fatal
            st.window += time.perf_counter() - t0
            st.failed.add(rid)
            st.errors.append(f"r{rid}: {type(exc).__name__}: {exc}")
        else:
            dt = time.perf_counter() - t0
            st.window += dt
            (st.traced if traced else st.latencies).append(dt)
            st.failed.update(wl.check(rid, inp, out))
        st.attempted += 1
        rid += 1
    st.peak_rss_mb = max(setup_rss_mb, max_rss_mb() - wl.uncounted_mb)
    tracer.enabled = tracing
    tracer.request = "check"
    st.failed.update(wl.sampled_checks(extras))
    return st


def max_rss_mb():
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_error():
    """The paper's 4 mm cube: max|u(q=16) - u(q=32)| / max|u(q=32)|."""
    from tribem.assembly import assemble
    from tribem.kernels import gauss_rule
    from tribem.problems import cube_problem
    from tribem.solver import solve

    prob = cube_problem()
    u16, u32 = (
        solve(assemble(prob.mesh, prob.material, gauss_rule(q)), prob.bc).u
        for q in (16, 32)
    )
    return float(np.abs(u16 - u32).max() / np.abs(u32).max())


def git_commit(root):
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed, root):
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(root),
    }


def _ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def per_layer_metrics(wl, tracer, st):
    """Medians of span self times per layer call, plus counts computed
    from the workload's shape. Time units follow the metric names."""
    def med(name):
        values = tracer.self_seconds(name)
        return statistics.median(values) if values else 0.0

    pt = wl.phase_timings
    dist = {
        phase: _ms([getattr(t, phase) for t in pt]) for phase in ("assembly", "barrier", "solve")
    }
    other = _ms([t.total - t.assembly - t.barrier - t.solve for t in pt])
    evals = wl.point_evals()
    n = 3 * wl.n_elements
    if wl.assembles_per_request:
        main_assembly_s = dist["assembly"] / 1e3
    else:
        main_assembly_s = med("assembly.assemble")
    lu = tracer.self_seconds("solver.solve_direct")
    rebuild, apply_ = med("solver.rebuild_rhs"), med("solver.apply_to_rhs")
    gen = [
        s.self_ns * 1e-9 for s in tracer.spans
        if s.name.startswith("problems.") and s.request.startswith("r")
    ]
    overhead = 100.0 * (statistics.median(st.traced) / statistics.median(st.latencies) - 1.0)
    m = {
        "distribution.assembly_ms": (dist["assembly"], "ms"),
        "distribution.barrier_ms": (dist["barrier"], "ms"),
        "distribution.solve_ms": (dist["solve"], "ms"),
        "distribution.other_ms": (other, "ms"),
        "assembly.assemble_s": (med("assembly.assemble"), "s"),
        "kernels.point_evals": (evals, "count"),
        "assembly.evals_per_s": (evals / main_assembly_s if main_assembly_s else 0.0, "1/s"),
        "kernels.gauss_rule_ms": (1e3 * med("kernels.gauss_rule"), "ms"),
        "assembly.apply_bc_ms": (1e3 * med("assembly.apply_boundary_conditions"), "ms"),
        "solver.lu_ms": (1e3 * statistics.median(lu) if lu else 0.0, "ms"),
        "solver.lu_gflops": (
            statistics.median(2.0 * n**3 / 3.0 / s for s in lu) * 1e-9 if lu else 0.0,
            "GFLOP/s",
        ),
        "solver.scatter_ms": (1e3 * med("solver.scatter_solution"), "ms"),
        "solver.build_operator_s": (med("solver.build_operator"), "s"),
        "solver.rebuild_rhs_ms": (1e3 * rebuild, "ms"),
        "solver.apply_to_rhs_ms": (1e3 * apply_, "ms"),
        "solver.apply_gbps": (
            2.0 * n**2 * 8 / (rebuild + apply_) * 1e-9 if rebuild + apply_ else 0.0,
            "GB/s",
        ),
        "problems.build_ms": (_ms(gen), "ms"),
        "trace.overhead_pct": (overhead, "%"),
    }
    counts = tracer.layer_counts()
    for layer in LAYERS:
        calls, failures = counts.get(layer, (0, 0))
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.failures"] = (failures, "count")
    return m


def run_child(args, ready, result_prefix, out_dir, root):
    """Set up, signal ``ready``, stream, check, and print one payload.

    A "setup" process stops after ``ready`` with an empty payload. A
    "part" process returns its raw stream (latencies, counts, peak
    memory) for run.py to pool; the "last" part also runs the extra
    checks and the reference-accuracy solve. The "traced" process
    returns the finished per-layer result and writes its spans.
    """
    tracer = Tracer(args.child == "traced")
    wl = WORKLOADS[args.workload](args.seed, tracer, args.part)
    wl.setup()
    ready()
    if args.child == "setup":
        print(result_prefix + "{}", flush=True)
        return 0
    last = args.child != "part"
    if last:
        env = environment(args.seed, root)
        print("environment: " + json.dumps(env), flush=True)
    st = run_stream(wl, tracer, args.seconds, extras=last)
    print(f"part {args.part}: attempted {st.attempted}, failed {len(st.failed)}, "
          f"latency samples {len(st.latencies)} untraced, {len(st.traced)} traced, "
          f"p50 {_ms(st.latencies):.4g} ms",
          flush=True)
    for err in st.errors[:5]:
        print(f"error: {err}")
    if not st.latencies:
        raise SystemExit("no request completed")
    if not tracer.enabled:
        payload = {
            "latencies": st.latencies,
            "window": st.window,
            "attempted": st.attempted,
            "failed": len(st.failed),
            "peak_rss_mb": st.peak_rss_mb,
        }
        if last:
            payload["ref_rel_err"] = reference_error()
        print(result_prefix + json.dumps(payload), flush=True)
        return 0
    metrics = per_layer_metrics(wl, tracer, st)
    print(f"mesh: n_elements {wl.n_elements}, n_dofs {3 * wl.n_elements}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    payload = st.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"environment": env, "result": payload,
                        "layer_self_s": layer_self_seconds(tracer)})
    print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(root)}")
    print(result_prefix + json.dumps(payload), flush=True)
    return 0


def layer_self_seconds(tracer):
    out = {}
    for s in tracer.spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.self_ns * 1e-9
    return out


class _Corrupt:
    """Wraps a workload so every request returns a damaged result."""

    def __init__(self, wl, damage):
        self.wl = wl
        self.damage = damage

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def request(self, inp):
        return self.damage(self.wl.request(inp))


def _nudge(sol):
    """Move the last solved component by a relative 1e-6: finite, small,
    and far outside every check's tolerance."""
    x = sol.u if not sol.displacement_known[-1] else sol.t
    x[-1] += 1e-6 * max(np.abs(sol.u).max(), np.abs(sol.t).max())
    return sol


def _damage_regrasp(out):
    system, x, sol = out
    x = x.copy()
    x[-1] += 1e-6 * np.abs(x).max()
    return system, x, sol


SELF_TEST_CASES = (
    (CubeGraphics, dict(q=4), lambda out: (_nudge(out[0]), out[1])),
    (BoxHaptic, dict(divisions=(2, 2, 4)), _nudge),
    (BoxRegrasp, dict(divisions=(2, 2, 4)), _damage_regrasp),
)


def self_test():
    """Each workload on a small input: a clean run must report no
    failure, and a run whose every result is damaged must count its
    requests as failed and report ``correct: false``."""
    ok = True
    for cls, small, damage in SELF_TEST_CASES:
        for corrupt in (False, True):
            wl = cls(7, Tracer(False))
            for key, value in small.items():
                setattr(wl, key, value)
            wl.setup()
            st = run_stream(_Corrupt(wl, damage) if corrupt else wl, Tracer(False), 0.5)
            res = st.result({})
            passed = (not res["correct"] and res["failed"] >= 1) if corrupt else res["correct"]
            ok &= passed
            print(f"self-test {cls.name} {'corrupted' if corrupt else 'clean'}: "
                  f"attempted {res['attempted']}, failed {res['failed']} -> "
                  f"{'ok' if passed else 'WRONG'}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
