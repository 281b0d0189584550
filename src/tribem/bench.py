"""Benchmark orchestration: timing sweeps, summaries, realtime verdicts.

Runs multi-trial wall-clock sweeps over worker counts and block sizes
(or over synthetic system sizes), tagging every run with a hash of its
result so that layout/worker invariance is provable from the report
alone. Each cell gets one warm-up run, recorded as trial 0 and excluded
from averages rather than discarded silently. Reports come in two
shapes: a raw CSV of every record, and a text table with one row per
configuration, one column per trial and a 3-decimal average column.

Verdict thresholds follow the interactive-use targets: ~30 computations
per second for realtime graphics, ~1000 for realtime haptics. A
hyperelastic solve costs a bounded number of Newton iterations, each
one linearised solve, so its feasibility is estimated as linear cost
times iteration count (default budget: 100 iterations, a conservative
ceiling for such problems).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import LinearSystem, assemble
from .distribution import distributed_assemble_solve
from .errors import TriBemError
from .kernels import gauss_rule
from .problems import Problem
from .solver import PrecomputedOperator, Solution, precompute_inverse, solve_direct

GRAPHICS_RATE = 30.0
HAPTICS_RATE = 1000.0


@dataclass
class BenchConfig:
    """One sweep: problem source, solve mode, and the grid of cells."""

    mode: str = "assemble-and-solve"
    problem: Problem | None = None
    quad_order: int = 16
    self_strategy: str = "subdivide"
    trials: int = 4
    workers: tuple = (1,)
    block_sizes: tuple = (32,)
    sizes: tuple = ()  # synthetic DOF counts for dummy/matvec modes
    seed: int = 2014

    def __post_init__(self):
        if self.mode not in ("assemble-and-solve", "precomputed-matvec", "dummy-system"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(w < 1 for w in self.workers) or any(b < 1 for b in self.block_sizes):
            raise ValueError("worker counts and block sizes must be positive")
        if any(n < 1 for n in self.sizes):
            raise ValueError("system sizes must be positive")
        if self.mode == "assemble-and-solve" and self.problem is None:
            raise ValueError("assemble-and-solve mode needs a problem")
        if self.mode == "dummy-system" and not self.sizes:
            raise ValueError("dummy-system mode needs at least one size")
        if self.mode == "precomputed-matvec" and self.problem is None and not self.sizes:
            raise ValueError("precomputed-matvec mode needs a problem or sizes")


@dataclass
class TimingRecord:
    """One timed phase of one trial. Trial 0 is the warm-up run."""

    config_id: str
    workers: int | None
    block_size: int | None
    phase: str
    trial: int
    seconds: float
    result_hash: str | None = None


@dataclass
class RealtimeVerdict:
    computations_per_second: float
    graphics_ok: bool
    haptics_ok: bool


@dataclass
class NonlinearEstimate:
    seconds: float
    iterations: int
    verdict: RealtimeVerdict


@dataclass
class ConfigSummary:
    config_id: str
    workers: int | None
    block_size: int | None
    trial_seconds: list
    mean_seconds: float
    result_hashes: set

    @property
    def label(self):
        if self.workers is not None and self.block_size is not None:
            return f"workers={self.workers} block={self.block_size}"
        return self.config_id


@dataclass
class SweepSummary:
    records: list
    configs: list  # of ConfigSummary, in first-seen order
    worker_means: dict  # worker count -> grand mean over its cells
    failed: list = field(default_factory=list)  # config ids


def solution_hash(sol: Solution):
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(sol.u).tobytes())
    digest.update(np.ascontiguousarray(sol.t).tobytes())
    return digest.hexdigest()


def vector_hash(x):
    return hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes()).hexdigest()


def realtime_verdict(mean_total_seconds) -> RealtimeVerdict:
    """Computations-per-second rate and the two interactivity flags."""
    s = float(mean_total_seconds)
    if not s > 0:
        raise ValueError(f"need positive seconds, got {s}")
    rate = 1.0 / s
    return RealtimeVerdict(rate, rate >= GRAPHICS_RATE, rate >= HAPTICS_RATE)


def estimate_nonlinear(linear_seconds, iterations=100) -> NonlinearEstimate:
    """Cost of a hyperelastic solve as repeated linearised solves."""
    if not linear_seconds > 0:
        raise ValueError("linear_seconds must be positive")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    seconds = linear_seconds * iterations
    return NonlinearEstimate(seconds, iterations, realtime_verdict(seconds))


def _dummy_system(n, rng):
    """Random diagonally dominant system: well conditioned at any size,
    so timing reflects size alone."""
    a = rng.random((n, n)) + n * np.eye(n)
    b = rng.random(n)
    return LinearSystem(a, b, np.zeros(n, dtype=bool))


def _run_assemble_cells(config, records):
    rule = gauss_rule(config.quad_order)
    prob = config.problem
    for w in config.workers:
        for bs in config.block_sizes:
            cid = f"w{w}_b{bs}"
            try:
                for trial in range(config.trials + 1):
                    sol, tm = distributed_assemble_solve(
                        prob.mesh,
                        prob.material,
                        prob.bc,
                        rule,
                        workers=w,
                        block_size=bs,
                        strategy=config.self_strategy,
                    )
                    h = solution_hash(sol)
                    for phase, secs in (
                        ("assembly", tm.assembly),
                        ("barrier", tm.barrier),
                        ("solve", tm.solve),
                        ("total", tm.total),
                    ):
                        records.append(TimingRecord(cid, w, bs, phase, trial, secs, h))
            except TriBemError:
                records.append(
                    TimingRecord(cid, w, bs, "failed", 0, float("nan"), None)
                )


def _run_dummy_cells(config, records):
    for n in config.sizes:
        cid = f"dummy_n{n}"
        rng = np.random.default_rng(config.seed + n)
        system = _dummy_system(n, rng)
        try:
            for trial in range(config.trials + 1):
                t0 = time.perf_counter()
                x = solve_direct(system)
                dt = time.perf_counter() - t0
                h = vector_hash(x)
                records.append(TimingRecord(cid, None, None, "solve", trial, dt, h))
                records.append(TimingRecord(cid, None, None, "total", trial, dt, h))
        except TriBemError:
            records.append(TimingRecord(cid, None, None, "failed", 0, float("nan"), None))


def _run_matvec_cells(config, records):
    if config.problem is not None:
        prob = config.problem
        rule = gauss_rule(config.quad_order)
        hg = assemble(prob.mesh, prob.material, rule, config.self_strategy)
        op = PrecomputedOperator.build(hg, prob.bc)
        cid = f"matvec_n{op.n_dofs}"
        for trial in range(config.trials + 1):
            t0 = time.perf_counter()
            b = op.rebuild_rhs(prob.bc.values)
            tm0 = time.perf_counter()
            x = op.apply_to_rhs(b)
            tm1 = time.perf_counter()
            total = tm1 - t0
            h = vector_hash(x)
            records.append(TimingRecord(cid, None, None, "matvec", trial, tm1 - tm0, h))
            records.append(TimingRecord(cid, None, None, "total", trial, total, h))
        return

    for n in config.sizes:
        cid = f"matvec_n{n}"
        rng = np.random.default_rng(config.seed + n)
        system = _dummy_system(n, rng)
        a_inv = precompute_inverse(system.a)
        for trial in range(config.trials + 1):
            t0 = time.perf_counter()
            x = a_inv @ system.b
            dt = time.perf_counter() - t0
            h = vector_hash(x)
            records.append(TimingRecord(cid, None, None, "matvec", trial, dt, h))
            records.append(TimingRecord(cid, None, None, "total", trial, dt, h))


def run_sweep(config: BenchConfig):
    """Execute every cell of the sweep; returns all timing records.

    Cells run sequentially for timing isolation. A failing cell is
    recorded with phase "failed" and the sweep continues.
    """
    records = []
    if config.mode == "assemble-and-solve":
        _run_assemble_cells(config, records)
    elif config.mode == "dummy-system":
        _run_dummy_cells(config, records)
    else:
        _run_matvec_cells(config, records)
    return records


def summarize(records) -> SweepSummary:
    """Per-configuration trial times and means, and per-worker grand
    means over all that worker count's cells (warm-ups excluded)."""
    records = list(records)
    if not records:
        raise ValueError("no timing records to summarise")

    order = []
    cells = {}
    failed = [r.config_id for r in records if r.phase == "failed"]
    for r in records:
        if r.phase != "total" or r.trial == 0 or not math.isfinite(r.seconds):
            continue
        if r.config_id not in cells:
            order.append(r.config_id)
            cells[r.config_id] = []
        cells[r.config_id].append(r)
    if not cells:
        raise ValueError("no completed timed trials to summarise")

    configs = []
    for cid in order:
        rs = sorted(cells[cid], key=lambda r: r.trial)
        secs = [r.seconds for r in rs]
        hashes = {
            r.result_hash
            for r in records
            if r.config_id == cid and r.result_hash is not None
        }
        configs.append(
            ConfigSummary(
                cid,
                rs[0].workers,
                rs[0].block_size,
                secs,
                float(np.mean(secs)),
                hashes,
            )
        )

    worker_means = {}
    by_worker = {}
    for c in configs:
        if c.workers is not None:
            by_worker.setdefault(c.workers, []).append(c.mean_seconds)
    for w, means in by_worker.items():
        worker_means[w] = float(np.mean(means))

    return SweepSummary(records, configs, worker_means, failed)


def distinct_hashes(records):
    """All distinct result hashes in a record set; a one-element set
    proves result invariance across the sweep."""
    return {r.result_hash for r in records if r.result_hash is not None}


_ORDINAL_RUNS = ("First Run", "Second Run", "Third Run", "Fourth Run")


def _table_text(summary: SweepSummary):
    n_trials = max(len(c.trial_seconds) for c in summary.configs)
    if n_trials == len(_ORDINAL_RUNS):
        trial_names = list(_ORDINAL_RUNS)
    else:
        trial_names = [f"Trial {i}" for i in range(1, n_trials + 1)]
    headers = ["Configuration"] + trial_names + ["Average"]

    rows = []
    for c in summary.configs:
        cells = [f"{s:.3f}" for s in c.trial_seconds]
        cells += [""] * (n_trials - len(cells))
        rows.append([c.label] + cells + [f"{c.mean_seconds:.3f}"])
    if summary.worker_means:
        rows.append([])
        for w in sorted(summary.worker_means):
            label = f"all blocks, workers={w}"
            rows.append([label] + [""] * n_trials + [f"{summary.worker_means[w]:.3f}"])

    widths = [
        max(len(headers[j]), max((len(r[j]) for r in rows if r), default=0))
        for j in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) if j == 0 else h.rjust(w) for j, (h, w) in enumerate(zip(headers, widths)))
    ]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        if not r:
            lines.append("")
            continue
        lines.append(
            "  ".join(
                c.ljust(w) if j == 0 else c.rjust(w)
                for j, (c, w) in enumerate(zip(r, widths))
            )
        )
    return "\n".join(lines) + "\n"


def _csv_text(summary: SweepSummary):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["config_id", "workers", "block_size", "phase", "trial", "seconds", "result_hash"]
    )
    for r in summary.records:
        writer.writerow(
            [
                r.config_id,
                "" if r.workers is None else r.workers,
                "" if r.block_size is None else r.block_size,
                r.phase,
                r.trial,
                f"{r.seconds:.17g}",
                r.result_hash or "",
            ]
        )
    return buf.getvalue()


def emit_report(summary: SweepSummary, format="text-table", path=None):
    """Render the summary as CSV (raw records) or a Table-1-style text
    table; optionally write it to ``path``."""
    if format in ("csv",):
        text = _csv_text(summary)
    elif format in ("text-table", "table", "text"):
        text = _table_text(summary)
    else:
        raise ValueError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def read_records_csv(path):
    """Parse a CSV report back into timing records (round-trip of
    :func:`emit_report`'s csv format)."""
    out = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            out.append(
                TimingRecord(
                    row["config_id"],
                    int(row["workers"]) if row["workers"] else None,
                    int(row["block_size"]) if row["block_size"] else None,
                    row["phase"],
                    int(row["trial"]),
                    float(row["seconds"]),
                    row["result_hash"] or None,
                )
            )
    return out
