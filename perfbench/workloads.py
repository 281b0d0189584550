"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: the next request is
generated only after the previous one returned. Every call into tribem
goes through ``Tracer.call`` so the traced run can time it; the
untraced run calls straight through.

A workload has these parts:

- ``setup()``: everything a user pays before the first request,
  including warm-up requests that absorb first-call library costs;
- ``prepare_stream()``: the benchmark's own preparation, after the
  process has reported ready, so it stays out of ``setup_s``;
- ``next_input()``: input generation from the seed (outside the
  latency window);
- ``request(inp)``: the timed call, returning the ``Solution`` plus
  whatever the checks need;
- ``check(inp, out)`` per request (cheap, outside the window) and
  ``sampled_checks(extras)`` after the stream, on a seeded reservoir
  of requests. Both return request ids that failed. ``extras`` adds
  the costlier path checks (C05, C07), which one process per run does.

A run's stream is split over several processes (see run.py); ``part``
numbers them, so each draws its own requests from the seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tribem.assembly import apply_boundary_conditions, assemble
from tribem.bench import solution_hash
from tribem.distribution import distributed_assemble_solve
from tribem.errors import StaleOperatorError
from tribem.kernels import gauss_rule
from tribem.problems import BcBuilder, box_problem
from tribem.solver import (
    PrecomputedOperator,
    apply_precomputed,
    scatter_solution,
    solve_direct,
)

# C05: precomputed and direct paths agree within this share of max|x|
PATH_TOL = 1e-8
# ||Ax - b|| / ||b|| above this means the LU solve went wrong
RESIDUAL_TOL = 1e-10

BOX_LENGTHS = (4.0, 4.0, 8.0)
BOX_DIVISIONS = (5, 5, 10)  # 1000 elements, 3000 DOF


def last_level_cache_bytes(default=64 << 20, cap=512 << 20):
    """Size of the largest CPU cache, from sysfs; ``default`` if unknown."""
    sizes = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        digits = text.rstrip("KM")
        if digits.isdigit():
            sizes.append(int(digits) * scale)
    return min(max(sizes, default=default), cap)


def mixed_unknowns(sol):
    """The solve's unknown vector x: t where u was prescribed, else u."""
    return np.where(sol.displacement_known, sol.t, sol.u)


def point_evals(n_elements, q):
    """Kernel evaluations in one assembly with the fixed q x q rule:
    q^2 per off-diagonal pair plus three subdivided self-terms."""
    return (n_elements * (n_elements - 1) + 3 * n_elements) * q * q


class Reservoir:
    """Seeded uniform sample of k items from a stream of unknown length."""

    def __init__(self, k, rng):
        self.k = k
        self.rng = rng
        self.items = []
        self.seen = 0

    def offer(self, make_item):
        """Keep the current stream item if drawn; ``make_item`` builds it
        only when kept, so unsampled requests cost nothing."""
        slot = self.seen if self.seen < self.k else int(self.rng.integers(0, self.seen + 1))
        self.seen += 1
        if slot < self.k:
            if slot == len(self.items):
                self.items.append(make_item())
            else:
                self.items[slot] = make_item()


class Workload:
    name = ""
    samples = 1  # requests re-checked per process
    assembles_per_request = False  # else H and G are assembled in set-up

    def __init__(self, seed, tracer, part=0):
        self.tr = tracer
        self.warm_rng = np.random.default_rng([seed, 0])
        self.rng = np.random.default_rng([seed, 1, part])
        self.reservoir = Reservoir(self.samples, np.random.default_rng([seed, 2, part]))
        self.phase_timings = []
        self.n_elements = 0  # set by setup()
        self.uncounted_mb = 0.0  # benchmark memory left out of peak_rss_mb

    def point_evals(self):
        """Kernel evaluations in one assembly of this workload's mesh."""
        return point_evals(self.n_elements, self.q)

    def prepare_stream(self):
        pass

    def next_input(self):
        return self._generate(self.rng)

    def warm_up(self):
        """Requests on inputs of their own, paid in set-up."""
        for _ in range(self.warmups):
            self.request(self._generate(self.warm_rng))

    def distributed_check(self, rid, mesh, mat, bc, rule, expected_hash):
        """C07 at this workload's size: the two-worker distributed path
        must reproduce the sequential solution bit for bit."""
        sol, timings = self.tr.call(
            "distribution.distributed_assemble_solve",
            distributed_assemble_solve, mesh, mat, bc, rule, workers=2,
        )
        self.phase_timings.append(timings)
        return [] if self.tr.call("bench.solution_hash", solution_hash, sol) == expected_hash else [rid]

    def direct_solve(self, hg, bc):
        system = self.tr.call(
            "assembly.apply_boundary_conditions", apply_boundary_conditions, hg, bc
        )
        x = self.tr.call("solver.solve_direct", solve_direct, system)
        return system, x, self.tr.call("solver.scatter_solution", scatter_solution, x, bc)

    def precomputed_solve(self, op, bc):
        """``apply_precomputed`` replayed through its public steps, so the
        traced run can time each one."""
        b = self.tr.call("solver.rebuild_rhs", op.rebuild_rhs, bc.values)
        x = self.tr.call("solver.apply_to_rhs", op.apply_to_rhs, b)
        return self.tr.call("solver.scatter_solution", scatter_solution, x, bc)

    @staticmethod
    def paths_agree(got, want):
        x = mixed_unknowns(want)
        return bool(np.abs(mixed_unknowns(got) - x).max() <= PATH_TOL * np.abs(x).max())


class CubeGraphics(Workload):
    """A new 96-element box per request, assembled and solved on two
    workers at q=16: the paper's graphics question."""

    name = "cube-graphics"
    assembles_per_request = True
    workers = 2
    q = 16
    divisions = (2, 2, 2)
    warmups = 2

    def setup(self):
        self.rule = self.tr.call("kernels.gauss_rule", gauss_rule, self.q)
        self.n_elements = 4 * 2 * sum(
            a * b for a, b in zip(self.divisions, self.divisions[1:] + self.divisions[:1])
        )  # four triangles per square on every face
        self.warm_up()

    def _generate(self, rng):
        lengths = tuple(float(v) for v in rng.uniform(3.0, 5.0, 3))
        fixed_axis, load_axis = (str(a) for a in rng.choice(list("xyz"), 2))
        traction = float(rng.uniform(1.0, 8.0) * rng.choice([-1.0, 1.0]))
        return self.tr.call(
            "problems.box_problem", box_problem, lengths, self.divisions,
            traction=traction, fixed_axis=fixed_axis, load_axis=load_axis,
        )

    def request(self, prob):
        return self.tr.call(
            "distribution.distributed_assemble_solve",
            distributed_assemble_solve,
            prob.mesh, prob.material, prob.bc, self.rule, workers=self.workers,
        )

    def check(self, rid, prob, out):
        sol, timings = out
        self.phase_timings.append(timings)
        self.reservoir.offer(lambda: (rid, prob, solution_hash(sol)))
        return [] if np.isfinite(sol.u).all() and np.isfinite(sol.t).all() else [rid]

    def sampled_checks(self, extras):
        """C07: the sequential assemble + solve path gives the same hash.
        Extra, C05 on the first sample: the precomputed operator agrees
        with it."""
        failed = []
        for n, (rid, prob, want) in enumerate(self.reservoir.items):
            hg = self.tr.call(
                "assembly.assemble", assemble, prob.mesh, prob.material, self.rule
            )
            _, _, direct = self.direct_solve(hg, prob.bc)
            if self.tr.call("bench.solution_hash", solution_hash, direct) != want:
                failed.append(rid)
            if extras and n == 0:
                op = self.tr.call(
                    "solver.build_operator", PrecomputedOperator.build, hg, prob.bc
                )
                if not self.paths_agree(self.precomputed_solve(op, prob.bc), direct):
                    failed.append(rid)
        return failed


class _Box(Workload):
    """Shared set-up of the 3000-DOF box: mesh, rule and H, G."""

    q = 4
    lengths = BOX_LENGTHS
    divisions = BOX_DIVISIONS

    def setup_box(self):
        self.prob = self.tr.call(
            "problems.box_problem", box_problem, self.lengths, self.divisions
        )
        self.mesh = self.prob.mesh
        self.n_elements = self.mesh.n_elements
        self.rule = self.tr.call("kernels.gauss_rule", gauss_rule, self.q)
        self.hg = self.tr.call(
            "assembly.assemble", assemble, self.mesh, self.prob.material, self.rule
        )
        builder = BcBuilder(self.mesh)
        self.clamped = builder.on_plane("x", 0.0)

    def boundary(self, patch, kind, vector):
        """x=0 clamped; ``vector`` prescribed as ``kind`` on ``patch``."""
        builder = BcBuilder(self.mesh)
        builder.set(self.clamped, "xyz", "displacement", 0.0)
        for axis, value in zip("xyz", vector):
            builder.set(patch, axis, kind, float(value))
        return builder.build()


class BoxHaptic(_Box):
    """A probe dragged over the box: BC kinds fixed, values change, so
    every request is one ``apply_precomputed``.

    Before each request the benchmark reads a buffer the size of the
    last-level cache, so every apply starts with the 144 MB operator out
    of cache. Without that, on a machine whose shared cache is larger
    than the operator, apply time depends on how much of the cache other
    tenants hold at the moment (measured: 0.15 spread between 1 s
    windows, 0.02 with eviction), and what is measured is the
    memory-bound cost any machine with a smaller cache pays. The buffer
    is allocated after set-up, and its size is left out of
    ``peak_rss_mb``.
    """

    name = "box-haptic"
    warmups = 20
    step = 1.0  # mm, probe move per request
    radius = 0.9  # mm, probe patch

    def setup(self):
        self.setup_box()
        self.op = self.tr.call(
            "solver.build_operator", PrecomputedOperator.build, self.hg, self.prob.bc
        )
        self.free = np.setdiff1d(np.arange(self.mesh.n_elements), self.clamped)
        self.probe = int(self.warm_rng.integers(len(self.free)))
        self.warm_up()

    def prepare_stream(self):
        self.evict = np.ones(last_level_cache_bytes() // 8)
        self.uncounted_mb = self.evict.nbytes / (1 << 20)

    def _generate(self, rng):
        c = self.mesh.centroids[self.free]
        dist = np.linalg.norm(c - c[self.probe], axis=1)
        self.probe = int(rng.choice(np.flatnonzero((dist > 0) & (dist <= self.step))))
        dist = np.linalg.norm(c - c[self.probe], axis=1)
        traction = rng.normal(0.0, 2.0, 3)
        return self.tr.call(
            "problems.bc_builder", self.boundary,
            self.free[dist <= self.radius], "traction", traction,
        )

    def next_input(self):
        self.evict.sum()
        return super().next_input()

    def request(self, bc):
        if self.tr.enabled:
            return self.precomputed_solve(self.op, bc)
        return apply_precomputed(self.op, bc)

    def check(self, rid, bc, sol):
        self.reservoir.offer(lambda: (rid, bc, sol))
        return [] if np.isfinite(sol.u).all() and np.isfinite(sol.t).all() else [rid]

    def sampled_checks(self, extras):
        """C05: each sampled apply agrees with a direct solve. Extra, C07
        on the first sample: the distributed path reproduces the direct
        one."""
        failed = []
        self.op = self.evict = None  # release both before the checks allocate
        for n, (rid, bc, got) in enumerate(self.reservoir.items):
            _, _, direct = self.direct_solve(self.hg, bc)
            if not self.paths_agree(got, direct):
                failed.append(rid)
            if extras and n == 0:
                failed += self.distributed_check(
                    rid, self.mesh, self.prob.material, bc, self.rule,
                    solution_hash(direct),
                )
        return failed


class BoxRegrasp(_Box):
    """A grasp patch that moves to a new place on every request: BC
    kinds change, so each request applies BCs and factorises afresh."""

    name = "box-regrasp"
    samples = 2
    warmups = 1
    radius = 1.2  # mm, grasp patch
    faces = (("x", 4.0), ("y", 0.0), ("y", 4.0), ("z", 0.0), ("z", 8.0))

    def setup(self):
        self.setup_box()
        builder = BcBuilder(self.mesh)
        self.face_ids = [builder.on_plane(axis, coord) for axis, coord in self.faces]
        self.warm_up()

    def _generate(self, rng):
        ids = self.face_ids[int(rng.integers(len(self.face_ids)))]
        c = self.mesh.centroids
        centre = c[int(rng.choice(ids))]
        patch = ids[np.linalg.norm(c[ids] - centre, axis=1) <= self.radius]
        shift = rng.uniform(-0.01, 0.01, 3)
        return self.tr.call(
            "problems.bc_builder", self.boundary, patch, "displacement", shift
        )

    def request(self, bc):
        return self.direct_solve(self.hg, bc)

    def check(self, rid, bc, out):
        system, x, sol = out
        residual = np.linalg.norm(system.a @ x - system.b) / np.linalg.norm(system.b)
        self.reservoir.offer(lambda: (rid, bc, sol))
        return [] if residual <= RESIDUAL_TOL and np.isfinite(sol.u).all() else [rid]

    def sampled_checks(self, extras):
        """Extras only (every request's residual is already checked).
        C05 on the first sample: an operator built for its BC kinds
        reproduces the direct solve, and is refused as stale for the
        second sample's kinds. C07: the distributed path reproduces the
        direct solve bit for bit."""
        items = self.reservoir.items
        if not extras or not items:
            return []
        rid, bc, want = items[0]
        failed = []
        op = self.tr.call("solver.build_operator", PrecomputedOperator.build, self.hg, bc)
        if not self.paths_agree(self.precomputed_solve(op, bc), want):
            failed.append(rid)
        if len(items) > 1:
            other_rid, other_bc, _ = items[1]
            if not np.array_equal(other_bc.displacement_known, bc.displacement_known):
                try:
                    apply_precomputed(op, other_bc)
                    failed.append(other_rid)
                except StaleOperatorError:
                    pass
        del op
        failed += self.distributed_check(
            rid, self.mesh, self.prob.material, bc, self.rule, solution_hash(want)
        )
        return failed


WORKLOADS = {w.name: w for w in (CubeGraphics, BoxHaptic, BoxRegrasp)}
