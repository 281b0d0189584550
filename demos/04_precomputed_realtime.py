#!/usr/bin/env python3
"""The realtime fast path: solve the system offline once per unit
boundary value, storing one Green's function per DOF, then every new
load case costs a weighted sum of the Green's functions at its nonzero
values (one dense product once many values are nonzero).

Interactive graphics wants ~30 solutions per second and haptics ~1000.
Assembling and factorising from scratch misses those rates even for the
small cube; applying a precomputed operator beats the graphics rate by
orders of magnitude as long as the geometry (and which DOFs are
prescribed) stays fixed.
"""

import time

import numpy as np

from tribem import BoundarySpec, PrecomputedOperator, apply_precomputed, assemble, gauss_rule
from tribem.bench import estimate_nonlinear, realtime_verdict
from tribem.problems import cube_problem

prob = cube_problem()

t0 = time.perf_counter()
hg = assemble(prob.mesh, prob.material, gauss_rule(16))
op = PrecomputedOperator.build(hg, prob.bc)
print(f"offline stage (assemble + Green's functions): {time.perf_counter() - t0:.2f} s")

# online stage: sweep load magnitudes as an interactive session would
rng = np.random.default_rng(0)
trials = 200
t0 = time.perf_counter()
for _ in range(trials):
    values = prob.bc.values * rng.uniform(0.2, 2.0)
    apply_precomputed(op, BoundarySpec(prob.bc.displacement_known, values))
per_solve = (time.perf_counter() - t0) / trials

v = realtime_verdict(per_solve)
print(f"online per-solve time: {per_solve * 1e3:.3f} ms "
      f"-> {v.computations_per_second:.0f}/s")
print(f"  realtime graphics (>=30/s): {'yes' if v.graphics_ok else 'no'}")
print(f"  realtime haptics (>=1000/s): {'yes' if v.haptics_ok else 'no'}")
print()

# linearity makes load scaling free of charge
sol1 = apply_precomputed(op, prob.bc)
sol2 = apply_precomputed(op, BoundarySpec(prob.bc.displacement_known, 2 * prob.bc.values))
free = ~prob.bc.displacement_known
ratio = sol2.u[free].max() / sol1.u[free].max()
print(f"doubling the load doubles the response: ratio {ratio:.12f}")
print()

# a hyperelastic material would need Newton iterations, each one linear
# solve; budget 100 of them
est = estimate_nonlinear(per_solve, 100)
print(f"nonlinear estimate (100 linearised solves): {est.seconds * 1e3:.1f} ms "
      f"-> graphics {'ok' if est.verdict.graphics_ok else 'NOT ok'}")
