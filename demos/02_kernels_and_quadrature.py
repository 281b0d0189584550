#!/usr/bin/env python3
"""The Kelvin fundamental solutions and triangle quadrature.

U* gives the displacement at a field point per unit point load in an
infinite elastic medium (1/r decay); T* gives the corresponding
traction through a surface with known normal (1/r^2 decay).
"""

import numpy as np

from tribem import gauss_rule, kelvin_T, kelvin_U, make_material
from tribem.kernels import collapsed_map

mat = make_material(200000.0, 0.33)  # N/mm^2, steel-ish benchmark values
print(f"material: E={mat.e:g} nu={mat.nu} -> mu={mat.mu:.4f}")
print()

u = kelvin_U((0, 0, 0), (2.0, 0, 0), mat)
print("U* at 2 mm along x (symmetric, diagonal for an axis-aligned pair):")
print(u)
print("closed form U*_11 = 1/(4 pi mu d):", 1 / (4 * np.pi * mat.mu * 2.0))
print()

t = kelvin_T((0, 0, 0), (0, 0, 2.0), (0, 0, 1), mat)
print("T* at 2 mm along z with normal e_z:")
print(t)
print()

# homogeneity: scaling geometry by s scales U* by 1/s and T* by 1/s^2
s = 5.0
print("U* scale check:", np.allclose(kelvin_U((0, 0, 0), (2 * s, 0, 0), mat), u / s))
print("T* scale check:", np.allclose(kelvin_T((0, 0, 0), (0, 0, 2 * s), (0, 0, 1), mat), t / s**2))
print()

# quadrature: tensor Gauss on the square, collapsed onto the triangle.
# weights always reproduce the area; higher orders buy accuracy for the
# near-singular integrands of close element pairs.
print("triangle quadrature on the unit right triangle:")
for n in (4, 8, 16, 32):
    pts, w = collapsed_map(gauss_rule(n), (0, 0, 0), (1, 0, 0), (0, 1, 0))
    moment = np.sum(w * pts[:, 0])  # analytic value 1/6
    print(f"  n={n:2d}: {len(w):4d} points, sum w = {w.sum():.15f}, int x dA = {moment:.15f}")
print("exact: area 0.5, moment 1/6 =", 1 / 6)
