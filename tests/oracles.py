"""Independent reference implementations used to cross-check production
code. Everything here is deliberately written from the defining formulas
with plain loops or generic adaptive refinement, sharing no code with
the package internals it verifies. Two exceptions:
:func:`integrate_pair`, the per-block reference for the moment-form
assembly, evaluates the point kernels at every quadrature point of the
package's triangle map, sharing neither the moments nor the
reference-coordinate factors it checks; and :func:`kelvin_blocks`, the
dense (..., 3, 3) form of the blocks from their moments, is the
reference that the per-entry evaluator must match bit for bit.
"""

import math

import numpy as np

from tribem.errors import DegenerateElementError
from tribem.kernels import collapsed_map, kelvin_t_points, kelvin_u_points


def integrate_pair(i, j, mesh, mat, rule):
    """Off-diagonal blocks H_ij, G_ij: kernels from collocation point i
    integrated over field element j, point by point. Requires i != j."""
    if i == j:
        raise ValueError("integrate_pair is for off-diagonal blocks only (i != j)")
    if j in mesh.degenerate_indices():
        raise DegenerateElementError(f"element {j} is degenerate")
    pts, w = collapsed_map(rule, *mesh.vertices[j])
    c = mesh.centroids[i]
    t_blocks = kelvin_t_points(c, pts, mesh.normals[j], mat)
    u_blocks = kelvin_u_points(c, pts, mat)
    h_ij = np.einsum("q,qab->ab", w, t_blocks)
    g_ij = np.einsum("q,qab->ab", w, u_blocks)
    return h_ij, g_ij


_EYE3 = np.eye(3)
_OUTER_INDEX = np.array([[4, 5, 6], [5, 7, 8], [6, 8, 9]])  # moment index of rho_a rho_b


def _weighted_outer(offsets, m):
    """sum w f d d^T from the moments m (..., 10) of one weight f:
    m0 = m[..., 0], m1 = m[..., 1:4] and m2 the rho rho^T entries.

    Written D s^T + s D^T + m2 with s = D m0 / 2 + m1, which equals
    D D^T m0 + D m1^T + m1 D^T + m2 and is exactly symmetric.
    """
    s = offsets * (0.5 * m[..., :1]) + m[..., 1:4]
    out = offsets[..., :, None] * s[..., None, :]
    out += out.swapaxes(-1, -2).copy()
    out += m[..., _OUTER_INDEX]
    return out


def kelvin_blocks(moments, offsets, normals, mat):
    """Integrated T* and U* blocks as whole 3 x 3 blocks, from moments
    (..., 3, 10) of 1/r, 1/r^3, 1/r^5 about a centre in the triangle's
    plane, offsets D (..., 3) from the source to that centre and unit
    normals (..., 3). Returns (H, G), each (..., 3, 3):

        G = c_u [(3-4nu) sum w/r I + sum w d d^T / r^3]
        H = c_t [k (D.n) sum w/r^3 I + 3 (D.n) sum w d d^T / r^5
                 - k (v n^T - n v^T)],   v = sum w d / r^3, k = 1-2nu
    """
    nu = mat.nu
    k = 1.0 - 2.0 * nu
    m_r1, m_r3, m_r5 = moments[..., 0, :], moments[..., 1, :], moments[..., 2, :]

    g = _weighted_outer(offsets, m_r3)
    g += ((3.0 - 4.0 * nu) * m_r1[..., 0])[..., None, None] * _EYE3
    g *= 1.0 / (16.0 * np.pi * mat.mu * (1.0 - nu))

    dn = (
        offsets[..., 0] * normals[..., 0]
        + offsets[..., 1] * normals[..., 1]
        + offsets[..., 2] * normals[..., 2]
    )
    h = _weighted_outer(offsets, m_r5)
    h *= (3.0 * dn)[..., None, None]
    h += (k * dn * m_r3[..., 0])[..., None, None] * _EYE3
    v = offsets * m_r3[..., :1] + m_r3[..., 1:4]
    skew = v[..., :, None] * normals[..., None, :]
    skew -= skew.swapaxes(-1, -2).copy()
    h -= k * skew
    h *= -1.0 / (8.0 * np.pi * (1.0 - nu))
    return h, g


def gauss_eliminate(a, b):
    """Textbook Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError(f"zero pivot at column {col}")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def kelvin_u_reference(source, field, e, nu):
    """Displacement kernel evaluated term by term with scalar arithmetic."""
    mu = e / (2.0 * (1.0 + nu))
    dx = [field[i] - source[i] for i in range(3)]
    r = math.sqrt(dx[0] ** 2 + dx[1] ** 2 + dx[2] ** 2)
    rd = [dx[i] / r for i in range(3)]
    out = np.empty((3, 3))
    c = 1.0 / (16.0 * math.pi * mu * (1.0 - nu) * r)
    for i in range(3):
        for j in range(3):
            delta = 1.0 if i == j else 0.0
            out[i, j] = c * ((3.0 - 4.0 * nu) * delta + rd[i] * rd[j])
    return out


def kelvin_t_reference(source, field, normal, nu):
    """Traction kernel evaluated term by term with scalar arithmetic."""
    dx = [field[i] - source[i] for i in range(3)]
    r = math.sqrt(dx[0] ** 2 + dx[1] ** 2 + dx[2] ** 2)
    rd = [dx[i] / r for i in range(3)]
    drdn = sum(rd[k] * normal[k] for k in range(3))
    out = np.empty((3, 3))
    c = -1.0 / (8.0 * math.pi * (1.0 - nu) * r * r)
    for i in range(3):
        for j in range(3):
            delta = 1.0 if i == j else 0.0
            term1 = drdn * ((1.0 - 2.0 * nu) * delta + 3.0 * rd[i] * rd[j])
            term2 = (1.0 - 2.0 * nu) * (rd[i] * normal[j] - rd[j] * normal[i])
            out[i, j] = c * (term1 - term2)
    return out


# degree-5 rule on a triangle: centroid plus two symmetric point groups
_S15 = math.sqrt(15.0)
_TRI7_BARY = []
_TRI7_W = []
_TRI7_BARY.append((1 / 3, 1 / 3, 1 / 3))
_TRI7_W.append(9.0 / 40.0)
_a = (6.0 - _S15) / 21.0
for perm in ((1 - 2 * _a, _a, _a), (_a, 1 - 2 * _a, _a), (_a, _a, 1 - 2 * _a)):
    _TRI7_BARY.append(perm)
    _TRI7_W.append((155.0 - _S15) / 1200.0)
_b = (6.0 + _S15) / 21.0
for perm in ((1 - 2 * _b, _b, _b), (_b, 1 - 2 * _b, _b), (_b, _b, 1 - 2 * _b)):
    _TRI7_BARY.append(perm)
    _TRI7_W.append((155.0 + _S15) / 1200.0)
_TRI7_BARY = np.array(_TRI7_BARY)
_TRI7_W = np.array(_TRI7_W)


def _tri_area(v):
    return 0.5 * np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]))


def _tri7(f, v):
    """Degree-5 fixed rule: integral of matrix-valued f over triangle v."""
    pts = _TRI7_BARY @ v
    vals = f(pts)  # (7, 3, 3)
    return _tri_area(v) * np.einsum("q,qab->ab", _TRI7_W, vals)


def _uniform_refine_uv(tris, times):
    """Uniform midpoint refinement of triangles given in 2D coords."""
    for _ in range(times):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        tris = np.concatenate(
            [
                np.stack([a, ab, ca], axis=1),
                np.stack([ab, b, bc], axis=1),
                np.stack([ca, bc, c], axis=1),
                np.stack([ab, bc, ca], axis=1),
            ]
        )
    return tris


def _shell_subdivision_uv(levels, refine):
    """Recursive midpoint subdivision of the unit corner triangle
    (0,0)-(1,0)-(0,1) towards the singular vertex at the origin.

    Each level splits the current corner triangle at edge midpoints and
    keeps recursing into the child that touches the origin; the three
    children away from the origin form a shell and are refined ``refine``
    more times for accuracy. Returns all shell triangles plus the tiny
    terminal corner triangle whose contribution is O(2^-levels).
    """
    shell0 = np.array(
        [
            [[0.5, 0.0], [1.0, 0.0], [0.5, 0.5]],
            [[0.0, 0.5], [0.5, 0.5], [0.0, 1.0]],
            [[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]],
        ]
    )
    shell0 = _uniform_refine_uv(shell0, refine)
    out = [shell0 * 0.5**k for k in range(levels)]
    out.append(
        0.5**levels * np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    )
    return np.concatenate(out)


def singular_u_integral_reference(vertices, point, e, nu, levels=36, refine=5):
    """Brute-force refinement evaluation of the weakly singular integral
    of the displacement kernel over a triangle, the kernel's source
    placed at an interior ``point``.

    The triangle is fanned into three corner triangles at the singular
    point (so the 1/r point only ever sits on vertices, never under a
    quadrature node). Each corner triangle is then subdivided
    recursively towards the singular vertex; every shell of that
    recursion is refined uniformly and integrated with the fixed
    degree-5 rule. Shell contributions shrink geometrically, so the
    truncated corner is negligible by construction.
    """
    v = np.asarray(vertices, dtype=float)
    c = np.asarray(point, dtype=float)
    mu = e / (2.0 * (1.0 + nu))
    pref_c = 1.0 / (16.0 * math.pi * mu * (1.0 - nu))
    uv = _shell_subdivision_uv(levels, refine)  # (T, 3, 2)

    total = np.zeros((3, 3))
    for a, b in ((v[0], v[1]), (v[1], v[2]), (v[2], v[0])):
        ea, eb = a - c, b - c
        # uv -> physical corner triangle, all shell triangles at once
        tri = c + uv[..., 0:1] * ea + uv[..., 1:2] * eb  # (T, 3, 3)
        pts = _TRI7_BARY @ tri  # (T, 7, 3)
        areas = 0.5 * np.linalg.norm(
            np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
        )
        w = areas[:, None] * _TRI7_W  # (T, 7)
        d = pts - c
        r = np.sqrt(np.einsum("tqi,tqi->tq", d, d))
        rd = d / r[..., None]
        wk = w * (pref_c / r)
        total += np.einsum("tq,tqi,tqj->ij", wk, rd, rd, optimize=True)
        total += (3.0 - 4.0 * nu) * wk.sum() * np.eye(3)
    return total


def subdivided_u_integral(vertices, point, e, nu, order=32):
    """The same integral by tensor Gauss-Legendre quadrature on each of
    the three corner triangles fanned out at the interior ``point``,
    each mapped from the unit square with the edge a = 0 collapsed onto
    ``point`` (y = point + a (p - point) + a b (q - p)), so that the
    Jacobian's factor a cancels the 1/r growth. Converges to the exact
    integral as ``order`` grows.
    """
    v = np.asarray(vertices, dtype=float)
    c = np.asarray(point, dtype=float)
    mu = e / (2.0 * (1.0 + nu))
    pref_c = 1.0 / (16.0 * math.pi * mu * (1.0 - nu))
    x, w = np.polynomial.legendre.leggauss(order)
    a = 0.5 * (x[:, None] + 1.0)
    b = 0.5 * (x[None, :] + 1.0)
    unit_w = 0.25 * np.outer(w, w) * a  # (order, order)

    total = np.zeros((3, 3))
    for p, q in ((v[0], v[1]), (v[1], v[2]), (v[2], v[0])):
        d = a[..., None] * (p - c) + (a * b)[..., None] * (q - p)  # y - point
        r = np.sqrt(np.einsum("abi,abi->ab", d, d))
        rd = d / r[..., None]
        jac = np.linalg.norm(np.cross(p - c, q - c))
        wk = unit_w * jac * (pref_c / r)
        total += np.einsum("ab,abi,abj->ij", wk, rd, rd)
        total += (3.0 - 4.0 * nu) * wk.sum() * np.eye(3)
    return total


def random_triangle(rng, scale=1.0, min_quality=0.1):
    """Random well-shaped triangle: area at least min_quality * bbox^2."""
    while True:
        v = rng.uniform(-scale, scale, size=(3, 3))
        area = _tri_area(v)
        span = np.linalg.norm(v.max(axis=0) - v.min(axis=0))
        if span > 0 and area > min_quality * span * span:
            return v
