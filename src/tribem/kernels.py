"""Kelvin fundamental solutions and triangle quadrature.

Displacement and traction kernels for an isotropic infinite elastic
medium under a unit point load, in the Brebbia/Dominguez convention:

    U*_ij = 1 / (16 pi mu (1-nu) r) * [ (3-4nu) d_ij + r,i r,j ]

    T*_ij = -1 / (8 pi (1-nu) r^2) * { dr/dn [ (1-2nu) d_ij + 3 r,i r,j ]
                                       - (1-2nu) (r,i n_j - r,j n_i) }

with r = |y - x|, r,i = (y - x)_i / r, n the outward unit normal at the
field point y, and dr/dn = r,k n_k. U* decays as 1/r and is symmetric;
T* decays as 1/r^2.

Quadrature is a tensor-product Gauss-Legendre rule on [-1,1]^2 mapped
onto triangles by collapsing one square edge to a vertex (Duffy-style),
which clusters points towards that vertex and tames weakly singular
integrands placed there.

Moment form. Over a flat triangle with centroid C and a source x, write
d = y - x = D + rho with D = C - x and rho = y - C. Because rho lies in
the triangle's plane, d.n = D.n is one number per (source, triangle),
and every weighted sum the integrated kernels need,

    sum w f(r) d d^T = D D^T m0 + D m1^T + m1 D^T + m2,

follows from the moments m = sum w f(r) [1, rho, rho rho^T] of the
three radial weights f = 1/r, 1/r^3, 1/r^5.

Both factors are split in the collapsed map's reference coordinates
(u, v). With J = [v1 - v0, v2 - v1] and p = (u - 2/3, v - 1/3), the
offset is exactly rho = J p and the weight w = area w_ref, so

    r^2 = |D|^2 + 2 (J^T D).p + p^T (J^T J) p,
    m   = mu T^T,   mu = sum w_ref f [1, p_u, p_v, p_u^2, p_u p_v, p_v^2],

with T (10 x 6) built from J and the area. The six monomials of p and
their products with w_ref depend on the rule alone and are computed
once per rule (:func:`gauss_rule`); per triangle there are only J, its
Gram entries and T (:func:`triangle_transforms`). Assembly then sweeps
the field triangles: for each, every source at once costs one
(M x 6)(6 x Q) product for r^2, one division and one square root per
point for the radial weights, and one (3M x Q)(Q x 6) and one
(3M x 6)(6 x 10) product for the moments (:func:`radial_moments`).
:func:`kelvin_block_columns` then forms the integrated blocks of F
triangles at once: the entries (a, b) are stacked (3, F, M) and
(3, 3, F, M) arrays, reached through slices, and all nine of H's and of
G's are written straight into their columns in one call each.

The expanded r^2 rounds to within about eps (|D|^2 + |rho|^2) of the
true value, where subtracting coordinates gives about eps |y| r. The
two agree while no quadrature point comes much closer to a source than
the triangle's size, as on well-shaped meshes. Measured against direct
subtraction at 16 points, blocks agree to 1e-15 on the 72 edge-sharing
pairs of the 24-element cube, to 3e-15 on a sliver whose apex lies 1e-4
past its neighbour's edge and to 5e-15 on a unit triangle hovering 3e-5
above a parallel copy. On a skewed triangle away from the origin,
hovering 3e-5 of its size above its copy, H is up to 6e-14 from an
extended-precision sum at 16 points and 5e-13 at 32, and direct
subtraction up to 2e-14 and 2e-13: the normal offset is itself known
only to eps |y|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMaterialError, SingularEvaluationError

SUPPORTED_ORDERS = (4, 8, 16, 32)
N_MONOMIALS = 6  # [1, p_u, p_v, p_u^2, p_u p_v, p_v^2]

_EYE3 = np.eye(3)


@dataclass(frozen=True)
class Material:
    """Isotropic linear-elastic constants.

    e: Young's modulus (N/mm^2), nu: Poisson's ratio, mu: shear modulus
    derived as e / (2 (1 + nu)).
    """

    e: float
    nu: float
    mu: float


def make_material(e, nu) -> Material:
    """Validate (E, nu) and derive the shear modulus."""
    e = float(e)
    nu = float(nu)
    if not np.isfinite(e) or e <= 0:
        raise InvalidMaterialError(f"Young's modulus must be positive, got {e}")
    if not np.isfinite(nu) or not -1.0 < nu < 0.5:
        raise InvalidMaterialError(
            f"Poisson's ratio must lie in (-1, 0.5), got {nu}"
        )
    return Material(e, nu, e / (2.0 * (1.0 + nu)))


def kelvin_u_points(source, points, mat: Material):
    """U* blocks from one source point to many field points: (M, 3, 3).

    All distances must be positive; the self-point must never reach this
    function. Assembly uses the moment form instead; this point-by-point
    evaluator is the reference the test oracles integrate.
    """
    d = np.asarray(points, dtype=float).reshape(-1, 3) - np.asarray(source, dtype=float)
    r = np.sqrt(np.einsum("mi,mi->m", d, d))
    if np.any(r == 0.0):
        raise SingularEvaluationError("displacement kernel evaluated at r = 0")
    invr = 1.0 / r
    rd = d * invr[:, None]
    c = invr / (16.0 * np.pi * mat.mu * (1.0 - mat.nu))
    blocks = np.einsum("mi,mj->mij", rd, rd)
    blocks += (3.0 - 4.0 * mat.nu) * _EYE3
    blocks *= c[:, None, None]
    return blocks


def kelvin_t_points(source, points, normals, mat: Material):
    """T* blocks from one source point to many field points: (M, 3, 3).

    ``normals`` holds the outward unit normal at each field point;
    a single (3,) normal is broadcast to all points.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    d = pts - np.asarray(source, dtype=float)
    r2 = np.einsum("mi,mi->m", d, d)
    if np.any(r2 == 0.0):
        raise SingularEvaluationError("traction kernel evaluated at r = 0")
    r = np.sqrt(r2)
    rd = d / r[:, None]
    nrm = np.broadcast_to(np.asarray(normals, dtype=float), pts.shape)

    drdn = np.einsum("mi,mi->m", rd, nrm)
    k = 1.0 - 2.0 * mat.nu
    sym = 3.0 * np.einsum("mi,mj->mij", rd, rd)
    sym += k * _EYE3
    sym *= drdn[:, None, None]
    skew = np.einsum("mi,mj->mij", rd, nrm)
    skew = skew - skew.transpose(0, 2, 1)
    blocks = sym - k * skew
    blocks *= (-1.0 / (8.0 * np.pi * (1.0 - mat.nu) * r2))[:, None, None]
    return blocks


def kelvin_U(source, field, mat: Material):
    """Displacement kernel U*(x, y) as a symmetric 3x3 block."""
    return kelvin_u_points(source, np.asarray(field, dtype=float)[None, :], mat)[0]


def kelvin_T(source, field, normal_at_field, mat: Material):
    """Traction kernel T*(x, y; n) as a 3x3 block.

    ``normal_at_field`` must be a unit vector.
    """
    n = np.asarray(normal_at_field, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError("normal_at_field must be a unit vector")
    return kelvin_t_points(source, np.asarray(field, dtype=float)[None, :], n, mat)[0]


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Legendre rule on the square [-1,1]^2, with
    its moment-form factors on the triangle (:func:`gauss_rule`)."""

    order: int
    points: np.ndarray  # (order^2, 2)
    weights: np.ndarray  # (order^2,)
    monomials: np.ndarray  # (N_MONOMIALS, order^2): the right factor of r^2
    features: np.ndarray  # (order^2, N_MONOMIALS): the right factor of the moments

    def __post_init__(self):
        for arr in (self.points, self.weights, self.monomials, self.features):
            arr.setflags(write=False)

    @property
    def n_points(self):
        return self.order * self.order


def _collapse(points):
    """Reference coordinates (u, v) of square points under the collapsed
    map y = v0 + u (v1 - v0) + v (v2 - v1). u is also the map's area
    factor: a square weight w becomes w u area / 2 on the triangle."""
    a = 0.5 * (points[:, 0] + 1.0)
    b = 0.5 * (points[:, 1] + 1.0)
    return a, a * b


def gauss_rule(n) -> QuadratureRule:
    """n x n Gauss-Legendre rule on [-1,1]^2.

    Supported orders are 4, 8, 16 and 32 (the 16x16 rule with its 256
    points per element is the default throughout). Nodes and weights are
    computed, not tabulated.

    The rule also carries the triangle-independent factors of the moment
    form. With p = (u - 2/3, v - 1/3) the offset of a mapped point from
    the centroid of its triangle in reference coordinates,
    ``monomials`` holds [1, p_u, p_v, p_u^2, p_u p_v, p_v^2] at each point
    and ``features`` their products with w_ref, the point's weight on a
    triangle of unit area (w = area w_ref).
    """
    if n not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported quadrature order {n}; pick one of {SUPPORTED_ORDERS}")
    x, w = np.polynomial.legendre.leggauss(n)
    xi, eta = np.meshgrid(x, x, indexing="ij")
    points = np.column_stack([xi.ravel(), eta.ravel()])
    weights = np.outer(w, w).ravel()
    u, v = _collapse(points)
    pu, pv = u - 2.0 / 3.0, v - 1.0 / 3.0
    monomials = np.stack([np.ones_like(pu), pu, pv, pu * pu, pu * pv, pv * pv])
    features = (monomials * (0.5 * weights * u)).T.copy()
    return QuadratureRule(n, points, weights, monomials, features)


def collapsed_map(rule: QuadratureRule, v0, v1, v2):
    """Map a square rule onto triangle (v0, v1, v2), collapsing onto v0.

    The square edge xi = -1 degenerates to v0, so the Jacobian vanishes
    there and quadrature points cluster towards v0. Returns physical
    points (n^2, 3) and weights (n^2,) that sum to the triangle area.
    The vertices may also be stacked (..., 3) arrays that broadcast
    against each other, mapping many triangles at once into points
    (..., n^2, 3) and weights (..., n^2). Assembly works in the map's
    reference coordinates instead; these physical points serve the
    point-by-point reference integrals of the test oracles.
    """
    v0 = np.asarray(v0, dtype=float)[..., None, :]
    v1 = np.asarray(v1, dtype=float)[..., None, :]
    v2 = np.asarray(v2, dtype=float)[..., None, :]
    u, v = _collapse(rule.points)
    pts = v0 + u[:, None] * (v1 - v0) + v[:, None] * (v2 - v1)
    area2 = np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=-1)
    weights = rule.weights * u * (area2 / 4.0)
    return pts, weights


N_FEATURES = 10  # w [1, rho (3), rho rho^T (6 distinct entries)]
_OUTER_ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def triangle_transforms(vertices, areas):
    """The per-triangle factors of the moment form.

    ``vertices`` (..., 3, 3) and their triangles' ``areas`` (...), as
    :class:`~tribem.mesh.SurfaceMesh` holds them. With J = [v1 - v0,
    v2 - v1] the Jacobian of :func:`collapsed_map`, the offset from the
    centroid is rho = J p. Returns

    - ``jacobians`` (..., 3, 2), J;
    - ``gram`` (..., 3), [G_uu, 2 G_uv, G_vv] of G = J^T J, so that
      |rho|^2 = p^T G p;
    - ``transforms`` (..., N_MONOMIALS, N_FEATURES), T^T with T the map
      from the moments of [1, p, p p^T] under w_ref to the moments of
      [1, rho, rho rho^T] under w = area w_ref.
    """
    v = np.asarray(vertices, dtype=float)
    jac = np.stack([v[..., 1, :] - v[..., 0, :], v[..., 2, :] - v[..., 1, :]], axis=-1)
    ju, jv = jac[..., 0], jac[..., 1]
    area = np.asarray(areas, dtype=float)
    gram = np.stack([(ju * ju).sum(-1), 2.0 * (ju * jv).sum(-1), (jv * jv).sum(-1)], axis=-1)
    t = np.zeros(area.shape + (N_MONOMIALS, N_FEATURES))
    t[..., 0, 0] = area
    a_ju = area[..., None] * ju
    a_jv = area[..., None] * jv
    t[..., 1, 1:4] = a_ju
    t[..., 2, 1:4] = a_jv
    for col, (a, b) in enumerate(_OUTER_ENTRIES, start=4):
        t[..., 3, col] = a_ju[..., a] * ju[..., b]
        t[..., 4, col] = a_ju[..., a] * jv[..., b] + a_jv[..., a] * ju[..., b]
        t[..., 5, col] = a_jv[..., a] * jv[..., b]
    return jac, gram, t


def radial_moments(sources, rule: QuadratureRule, transform, work, out):
    """Moments of 1/r, 1/r^3, 1/r^5 from M sources over one triangle.

    ``sources`` (M, N_MONOMIALS) holds the rows [|D|^2, 2 J^T D, G_uu,
    2 G_uv, G_vv] with D = C - x and J, G the triangle's Jacobian and
    its Gram matrix (:func:`triangle_transforms`), so that r^2 is one
    (M x 6)(6 x Q) product against ``rule.monomials``. The weights then
    take one division and one square root per point: 1/r^2,
    1/r = sqrt(1/r^2), and 1/r^3, 1/r^5 by multiplication. ``work`` is a
    C-contiguous (3, M, Q) buffer for the weights. Their reference
    moments are one (3M x Q)(Q x 6) product against ``rule.features``,
    and the triangle's ``transform`` (N_MONOMIALS, N_FEATURES) turns
    them into the moments of [1, rho, rho rho^T], written to ``out``, a
    C-contiguous (3, M, N_FEATURES) buffer. Every product has the same
    shape whatever else is being assembled, so a result does not depend
    on how the triangles are split. No point may coincide with its
    source.
    """
    m = sources.shape[0]
    inv_r2 = np.matmul(sources, rule.monomials, out=work[2])
    np.divide(1.0, inv_r2, out=inv_r2)
    np.sqrt(inv_r2, out=work[0])
    np.multiply(work[0], inv_r2, out=work[1])
    np.multiply(work[1], inv_r2, out=work[2])  # 1/r^5 replaces 1/r^2
    reference = work.reshape(3 * m, -1) @ rule.features
    np.matmul(reference, transform, out=out.reshape(3 * m, -1))
    return out


def centroid_self_integrals(vertices, centres):
    """Closed-form weakly singular integrals over flat triangles.

    ``vertices`` (..., 3, 3) and ``centres`` (..., 3), each centre an
    interior point in its triangle's plane (the collocation centroid).
    Returns I1 = integral of 1/r dS (...,) and M = integral of
    r,i r,j / r dS (..., 3, 3), r measured from the centre.

    In polar coordinates about the centre the triangle is three fans,
    one per edge. For an edge at distance p, with e1 the unit vector to
    its foot point, e2 its direction and phi measured from e1, the
    radial integral reaches p / cos(phi), so

        I1 += p [asinh(tan phi)]
        M  += p [e1 e1^T sin phi - (e1 e2^T + e2 e1^T) cos phi
                 + e2 e2^T (asinh(tan phi) - sin phi)]

    between the angles of the edge's two ends (Brebbia & Dominguez).
    With s the end's coordinate along e2 and rho its distance from the
    centre, tan phi = s / p, sin phi = s / rho and cos phi = p / rho.
    M is exactly symmetric.
    """
    a = np.asarray(vertices, dtype=float) - np.asarray(centres, dtype=float)[..., None, :]
    b = np.roll(a, -1, axis=-2)  # edge k runs from vertex k to vertex k + 1
    e2 = b - a
    e2 /= np.linalg.norm(e2, axis=-1, keepdims=True)
    s_a = np.einsum("...i,...i->...", a, e2)
    s_b = np.einsum("...i,...i->...", b, e2)
    e1 = a - s_a[..., None] * e2
    p = np.linalg.norm(e1, axis=-1)
    e1 /= p[..., None]
    rho_a = np.linalg.norm(a, axis=-1)
    rho_b = np.linalg.norm(b, axis=-1)

    log_term = p * (np.arcsinh(s_b / p) - np.arcsinh(s_a / p))
    sin_term = p * (s_b / rho_b - s_a / rho_a)
    cos_term = p * (p / rho_b - p / rho_a)
    mixed = e1[..., :, None] * e2[..., None, :]
    m = sin_term[..., None, None] * (e1[..., :, None] * e1[..., None, :])
    m -= cos_term[..., None, None] * (mixed + mixed.swapaxes(-1, -2))
    m += (log_term - sin_term)[..., None, None] * (e2[..., :, None] * e2[..., None, :])
    return log_term.sum(axis=-1), m.sum(axis=-3)


def kelvin_self_g(i1, m, mat: Material):
    """G_ii = c_u [(3-4nu) I1 I + M] from :func:`centroid_self_integrals`."""
    g = ((3.0 - 4.0 * mat.nu) * np.asarray(i1))[..., None, None] * _EYE3
    g += m
    g *= 1.0 / (16.0 * np.pi * mat.mu * (1.0 - mat.nu))
    return g


# (F, M) arrays of the buffer kelvin_block_columns works in
BLOCK_WORK = 30


def kelvin_block_columns(moments, offsets, normals, mat: Material, h_out, g_out, work):
    """Integrated T* and U* blocks from :func:`radial_moments` output,
    written into column slabs of H and G.

    ``moments`` (F, 3, M, N_FEATURES) holds, for each of F field
    triangles, the moments of 1/r, 1/r^3 and 1/r^5 from M sources;
    ``offsets`` (F, M, 3) is D = C - x from each source to the centre the
    moments were taken about, and ``normals`` (F, 3) each triangle's unit
    normal. The centre must lie in the triangle's plane, so that
    d.n = D.n at every point. Entry (a, b) of the block from source i
    over triangle j is written to ``h_out[j, b, i, a]`` and
    ``g_out[j, b, i, a]``:

        G = c_u [(3-4nu) sum w/r I + sum w d d^T / r^3]
        H = c_t [k (D.n) sum w/r^3 I + 3 (D.n) sum w d d^T / r^5
                 - k (v n^T - n v^T)],   v = sum w d / r^3, k = 1-2nu

    with sum w f d d^T = D s^T + s D^T + m2, s = D m0 / 2 + m1, from the
    moments m0, m1 and m2 of f (exactly symmetric). The entries are
    stacked (3, F, M) and (3, 3, F, M) arrays, reached through slices
    and written in one call per matrix, so no (F, M, 3, 3) block is
    formed and a chunk costs a fixed few dozen numpy calls. Each entry
    takes the same floating-point operations as the dense 3 x 3 form,
    so the two agree bit for bit, signed zeros included. The stacked
    arrays live in ``work``, a float64 buffer of at least
    ``BLOCK_WORK`` F M elements whose first ones are used contiguously,
    so that a caller sweeping many chunks allocates them once.
    """
    nu = mat.nu
    k = 1.0 - 2.0 * nu
    f, m = offsets.shape[:2]
    work = work[: BLOCK_WORK * f * m].reshape(BLOCK_WORK, f, m)
    d = work[:3]  # one contiguous (F, M) array per axis
    d[...] = offsets.transpose(2, 0, 1)
    n = normals.T[:, :, None]  # (3, F, 1)
    m_r1, m_r3 = moments.transpose(1, 3, 0, 2)[:2]  # [feature] is an (F, M) view
    # nine (F, M) arrays, reused: s and m0 / 2, then D.n's terms and v,
    # then the skew part
    scratch = work[3:12]

    # sum w f d d^T for f = 1/r^3 and 1/r^5 at once: outer[a, b, f] is
    # first d_a s_b, then d_a s_b + d_b s_a above the diagonal and
    # 2 d_a s_a on it, plus m2, and finally mirrored below the diagonal.
    # With f inside (a, b), the entries an update reads and writes lie in
    # disjoint stretches of memory, so numpy copies neither.
    both = moments[:, 1:].transpose(3, 1, 0, 2)  # (N_FEATURES, 2, F, M)
    half = np.multiply(both[0], 0.5, out=scratch[6:8])
    s = np.multiply(d[:, None], half, out=scratch[:6].reshape(3, 2, f, m))
    s += both[1:4]
    outer = np.multiply(d[:, None, None], s, out=work[12:].reshape(3, 3, 2, f, m))
    diagonal = outer.reshape(9, 2, f, m)[::4]
    diagonal += diagonal
    outer[0, 1:] += outer[1:, 0]
    outer[1, 2] += outer[2, 1]
    for a, col in enumerate((4, 7, 9)):  # m2 holds row a's entries (a, a), ..., (a, 2) from col
        outer[a, a:] += both[col : col + 3 - a]
    outer[1:, 0] = outer[0, 1:]
    outer[2, 1] = outer[1, 2]
    g, h = outer.transpose(2, 0, 1, 3, 4)
    g_diagonal, h_diagonal = diagonal.swapaxes(0, 1)
    # [a, b] of a block view is the (F, M) array of entry (a, b)
    g_entries, h_entries = g_out.transpose(3, 1, 0, 2), h_out.transpose(3, 1, 0, 2)

    c_u = 1.0 / (16.0 * np.pi * mat.mu * (1.0 - nu))
    g_diagonal += (3.0 - 4.0 * nu) * m_r1[0]
    np.multiply(g, c_u, out=g_entries)

    c_t = -1.0 / (8.0 * np.pi * (1.0 - nu))
    dn_terms = np.multiply(d, n, out=scratch[:3])
    dn = dn_terms[0] + dn_terms[1]
    dn += dn_terms[2]
    h *= 3.0 * dn
    h_diagonal_term = k * dn * m_r3[0]
    h_diagonal += h_diagonal_term
    v = np.multiply(d, m_r3[0], out=scratch[3:6])
    v += m_r3[1:4]
    # entry (a, b) takes v_a n_b - v_b n_a and (b, a) its negation,
    # computed apart: for v_a n_b = v_b n_a both are +0
    vn = np.multiply(v[:, None], n, out=g)  # G is written out
    skew = np.subtract(vn, vn.transpose(1, 0, 2, 3), out=scratch.reshape(3, 3, f, m))
    skew *= k
    # the off-diagonal entries of k (D.n) sum w/r^3 I, which fix the sign
    # of a zero entry between coplanar triangles
    zero = np.multiply(h_diagonal_term, 0.0, out=h_diagonal_term)
    h9, skew9 = h.reshape(9, f, m), skew.reshape(9, f, m)
    # entries (0, 1), (0, 2), (1, 0), then (1, 2), (2, 0), (2, 1)
    for entries in (slice(1, 4), slice(5, 8)):
        h9[entries] += zero
        h9[entries] -= skew9[entries]
    np.multiply(h, c_t, out=h_entries)
