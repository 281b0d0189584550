#!/usr/bin/env python3
"""Surface meshes: generation, validation, STL round trips.

The benchmark body is a 4 mm cube whose six faces each carry 16
triangular constant elements (k=2 subdivision -> 24*k^2 = 96 elements,
three degrees of freedom each).
"""

import numpy as np

from tribem import generate_box, generate_cube, load_stl, validate, write_stl

cube = generate_cube(4.0, 2)
print("sample cube")
print(validate(cube))
print()

# every element has the same area, and area-weighted normals cancel on a
# closed surface
assert np.allclose(cube.areas, 1.0)
print("closure residual:", np.linalg.norm(cube.closure_residual()))

# the divergence theorem in one line: integral of x . n over a closed
# surface equals 3 x volume
flux = np.einsum("i,ij,ij->", cube.areas, cube.centroids, cube.normals)
print(f"surface flux of x: {flux:.6f}  (3 x volume = {3 * 4.0**3:.1f})")
print()

# STL round trip (binary stores float32, so geometry survives to ~1e-6)
blob = write_stl(cube)
back = load_stl(blob)
print(f"binary STL: {len(blob)} bytes, reloaded {back.n_elements} elements")
print("max vertex deviation:", np.abs(back.vertices - cube.vertices).max())
print()

# non-cubic closed boxes work the same way; this one has exactly 1000
# elements (3000 dofs), the size used in the throughput demo
box = generate_box((4.0, 4.0, 8.0), (5, 5, 10))
report = validate(box)
print("4 x 4 x 8 box")
print(report)
