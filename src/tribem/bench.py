"""Benchmark orchestration: timing sweeps, summaries, realtime verdicts.

Runs multi-trial wall-clock sweeps over worker counts and block sizes
(or over synthetic system sizes), tagging every run with a hash of its
result so that layout/worker invariance is provable from the report
alone. Each cell gets one warm-up run, recorded as trial 0 and excluded
from averages rather than discarded silently. Every mode runs the same
trial loop, and an error in any run stops the sweep and reaches the
caller as raised: all cells of a problem sweep compute the same
solution, so a failure in one is a failure in all. Reports come in two
shapes: a raw CSV of every record, and a text table with one row per
configuration, one column per trial and an average column, each time
printed to three decimals or to three significant digits, whichever
shows more.

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
from dataclasses import dataclass
from functools import partial

import numpy as np

from .assembly import LinearSystem, assemble
from .distribution import distributed_assemble_solve
from .kernels import gauss_rule
from .problems import Problem
from .solver import (
    PrecomputedOperator,
    Solution,
    apply_precomputed,
    solve_direct,
)

GRAPHICS_RATE = 30.0
HAPTICS_RATE = 1000.0
SEED = 2014


@dataclass
class BenchConfig:
    """One sweep: problem source, solve mode, and the grid of cells."""

    mode: str = "assemble-and-solve"
    problem: Problem | None = None
    quad_order: int = 16
    trials: int = 4
    workers: tuple = (1,)
    block_sizes: tuple = (32,)
    sizes: tuple = ()  # synthetic DOF counts for the dummy mode

    def __post_init__(self):
        if self.mode not in _CELLS:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(w < 1 for w in self.workers) or any(b < 1 for b in self.block_sizes):
            raise ValueError("worker counts and block sizes must be positive")
        if any(n < 1 for n in self.sizes):
            raise ValueError("system sizes must be positive")
        if self.mode == "dummy-system" and not self.sizes:
            raise ValueError("dummy-system mode needs at least one size")
        if self.mode != "dummy-system" and self.problem is None:
            raise ValueError(f"{self.mode} mode needs a problem")


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


def vector_hash(x):
    return hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes()).hexdigest()


def solution_hash(sol: Solution):
    """sha256 of the bytes of u followed by those of t."""
    return vector_hash(np.concatenate((sol.u, sol.t)))


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


def _dummy_system(n):
    """Random diagonally dominant system seeded by its size: well
    conditioned at any size, so timing reflects size alone. A is
    column-major, the layout the assembled A has and the solver reads."""
    rng = np.random.default_rng(SEED + n)
    a = n * np.eye(n, order="F")
    a += rng.random((n, n))
    b = rng.random(n)
    return LinearSystem(a, b, np.zeros(n, dtype=bool))


def _timed(phase, call, digest=vector_hash):
    """A trial that times one call; its time is both ``phase`` and total."""

    def run():
        t0 = time.perf_counter()
        out = call()
        dt = time.perf_counter() - t0
        return {phase: dt, "total": dt}, digest(out)

    return run


def _assemble_cells(config):
    rule = gauss_rule(config.quad_order)
    prob = config.problem
    for w in config.workers:
        for bs in config.block_sizes:

            def run(w=w, bs=bs):
                sol, tm = distributed_assemble_solve(
                    prob.mesh, prob.material, prob.bc, rule,
                    workers=w, block_size=bs,
                )
                phases = {"assembly": tm.assembly, "barrier": tm.barrier,
                          "solve": tm.solve, "total": tm.total}
                return phases, solution_hash(sol)

            yield f"w{w}_b{bs}", w, bs, run


def _dummy_cells(config):
    for n in config.sizes:
        yield f"dummy_n{n}", None, None, _timed("solve", partial(solve_direct, _dummy_system(n)))


def _matvec_cells(config):
    prob = config.problem
    hg = assemble(prob.mesh, prob.material, gauss_rule(config.quad_order))
    op = PrecomputedOperator.build(hg, prob.bc)
    run = _timed("matvec", partial(apply_precomputed, op, prob.bc), solution_hash)
    yield f"matvec_n{op.n_dofs}", None, None, run


_CELLS = {
    "assemble-and-solve": _assemble_cells,
    "dummy-system": _dummy_cells,
    "precomputed-matvec": _matvec_cells,
}


def run_sweep(config: BenchConfig):
    """Execute every cell of the sweep; returns all timing records.

    Each cell is a ``(config_id, workers, block_size, run)`` tuple whose
    ``run()`` times one trial and returns its ``{phase: seconds}`` and
    result hash. Cells run sequentially for timing isolation: trial 0
    is the warm-up, then ``config.trials`` counted trials. An error in
    any trial stops the sweep and reaches the caller as raised.
    """
    records = []
    for cid, workers, block_size, run in _CELLS[config.mode](config):
        for trial in range(config.trials + 1):
            phases, digest = run()
            records += [
                TimingRecord(cid, workers, block_size, phase, trial, secs, digest)
                for phase, secs in phases.items()
            ]
    return records


def summarize(records) -> SweepSummary:
    """Per-configuration trial times and means, and per-worker grand
    means over all that worker count's cells (warm-ups excluded)."""
    records = list(records)
    totals = {}  # config id -> its timed "total" records, in first-seen order
    hashes = {}
    for r in records:
        if r.result_hash is not None:
            hashes.setdefault(r.config_id, set()).add(r.result_hash)
        if r.phase == "total" and r.trial != 0:
            totals.setdefault(r.config_id, []).append(r)
    if not totals:
        raise ValueError("no timed trials to summarise")

    configs = []
    for cid, rs in totals.items():
        rs.sort(key=lambda r: r.trial)
        secs = [r.seconds for r in rs]
        w, bs = rs[0].workers, rs[0].block_size
        configs.append(
            ConfigSummary(cid, w, bs, secs, float(np.mean(secs)), hashes.get(cid, set()))
        )

    by_worker = {}
    for c in configs:
        if c.workers is not None:
            by_worker.setdefault(c.workers, []).append(c.mean_seconds)
    worker_means = {w: float(np.mean(means)) for w, means in by_worker.items()}
    return SweepSummary(records, configs, worker_means)


def distinct_hashes(records):
    """All distinct result hashes in a record set; a one-element set
    proves result invariance across the sweep."""
    return {r.result_hash for r in records if r.result_hash is not None}


_ORDINAL_RUNS = ("First Run", "Second Run", "Third Run", "Fourth Run")


def format_seconds(s):
    """Three decimals, or more where a time needs them to show three
    significant digits: a microsecond apply prints as 0.0000213, not
    0.000."""
    if not s > 0 or not math.isfinite(s):
        return f"{s:.3f}"
    return f"{s:.{max(3, 2 - math.floor(math.log10(s)))}f}"


def _table_text(summary: SweepSummary):
    n_trials = max(len(c.trial_seconds) for c in summary.configs)
    if n_trials == len(_ORDINAL_RUNS):
        trial_names = list(_ORDINAL_RUNS)
    else:
        trial_names = [f"Trial {i}" for i in range(1, n_trials + 1)]
    headers = ["Configuration"] + trial_names + ["Average"]

    rows = []
    for c in summary.configs:
        cells = [format_seconds(s) for s in c.trial_seconds]
        cells += [""] * (n_trials - len(cells))
        rows.append([c.label] + cells + [format_seconds(c.mean_seconds)])
    if summary.worker_means:
        rows.append([])
        for w in sorted(summary.worker_means):
            label = f"all blocks, workers={w}"
            rows.append([label] + [""] * n_trials + [format_seconds(summary.worker_means[w])])

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
    if format == "csv":
        text = _csv_text(summary)
    elif format in ("text-table", "table"):
        text = _table_text(summary)
    else:
        raise ValueError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text
