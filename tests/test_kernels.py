import numpy as np
import pytest

from oracles import kelvin_blocks, kelvin_t_reference, kelvin_u_reference, random_triangle
from tribem.errors import InvalidMaterialError, SingularEvaluationError
from tribem.kernels import (
    BLOCK_WORK,
    N_FEATURES,
    SUPPORTED_ORDERS,
    collapsed_map,
    gauss_rule,
    kelvin_block_columns,
    kelvin_T,
    kelvin_U,
    make_material,
    radial_moments,
    triangle_transforms,
)

MAT = make_material(200000.0, 0.33)


class TestMaterial:
    def test_sample_values(self):
        m = make_material(200000, 0.33)
        assert m.mu == pytest.approx(200000 / 2.66, rel=1e-14)

    def test_simple(self):
        assert make_material(1, 0).mu == pytest.approx(0.5)

    @pytest.mark.parametrize("e,nu", [(200000, 0.5), (0, 0.3), (-1, 0.3), (1, -1.0), (1, 0.7)])
    def test_out_of_range(self, e, nu):
        with pytest.raises(InvalidMaterialError):
            make_material(e, nu)


class TestKelvinU:
    def test_axis_aligned_values(self):
        d = 1.7
        u = kelvin_U((0, 0, 0), (d, 0, 0), MAT)
        assert u[0, 0] == pytest.approx(1.0 / (4 * np.pi * MAT.mu * d), rel=1e-13)
        expected_22 = (3 - 4 * MAT.nu) / (16 * np.pi * MAT.mu * (1 - MAT.nu) * d)
        assert u[1, 1] == pytest.approx(expected_22, rel=1e-13)
        assert u[2, 2] == pytest.approx(expected_22, rel=1e-13)
        off = u - np.diag(np.diag(u))
        assert np.abs(off).max() < 1e-18

    def test_symmetry_and_scaling_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x = rng.uniform(-5, 5, 3)
            y = rng.uniform(-5, 5, 3)
            if np.linalg.norm(y - x) < 1e-6:
                continue
            u = kelvin_U(x, y, MAT)
            assert np.abs(u - u.T).max() <= 1e-14 * np.abs(u).max()
            s = 3.0
            assert np.allclose(kelvin_U(s * x, s * y, MAT), u / s, rtol=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, y = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            if np.linalg.norm(y - x) < 1e-3:
                continue
            ref = kelvin_u_reference(x, y, MAT.e, MAT.nu)
            assert np.allclose(kelvin_U(x, y, MAT), ref, rtol=1e-13, atol=0)

    def test_self_point_rejected(self):
        with pytest.raises(SingularEvaluationError):
            kelvin_U((1, 2, 3), (1, 2, 3), MAT)


class TestKelvinT:
    def test_matches_reference_full_block(self):
        # axis case: source at origin, field on z axis, normal along z
        d = 0.9
        t = kelvin_T((0, 0, 0), (0, 0, d), (0, 0, 1), MAT)
        ref = kelvin_t_reference((0, 0, 0), (0, 0, d), (0, 0, 1), MAT.nu)
        assert np.allclose(t, ref, rtol=1e-13, atol=0)
        expected_33 = -(1 - 2 * MAT.nu + 3) / (8 * np.pi * (1 - MAT.nu) * d * d)
        assert t[2, 2] == pytest.approx(expected_33, rel=1e-13)

    def test_matches_reference_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x, y = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            if np.linalg.norm(y - x) < 1e-3:
                continue
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            ref = kelvin_t_reference(x, y, n, MAT.nu)
            got = kelvin_T(x, y, n, MAT)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-16 * np.abs(ref).max())

    def test_tangent_plane_antisymmetric(self):
        # normal perpendicular to (field - source): dr/dn = 0, leaving only
        # the antisymmetric part
        x = np.array([0.0, 0.0, 0.0])
        y = np.array([2.0, 0.0, 0.0])
        n = np.array([0.0, 0.0, 1.0])
        t = kelvin_T(x, y, n, MAT)
        assert np.abs(t + t.T).max() < 1e-16
        k = 1 - 2 * MAT.nu
        expected_13 = k / (8 * np.pi * (1 - MAT.nu) * 4.0)
        assert t[0, 2] == pytest.approx(expected_13, rel=1e-13)

    def test_scaling(self):
        rng = np.random.default_rng(6)
        x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        t = kelvin_T(x, y, n, MAT)
        assert np.allclose(kelvin_T(4 * x, 4 * y, n, MAT), t / 16, rtol=1e-12)

    def test_coplanar_collocation_no_normal_gradient(self):
        # flat element with the collocation point in its plane: the
        # dr/dn term vanishes at every quadrature point, leaving a
        # purely antisymmetric block there
        v = np.array([(0, 0, 0), (2, 0, 0), (0, 2, 0)], dtype=float)
        normal = np.array([0.0, 0.0, 1.0])
        c = np.array([5.0, -3.0, 0.0])  # same plane, outside the element
        pts, _ = collapsed_map(gauss_rule(8), *v)
        drdn = (pts - c) @ normal / np.linalg.norm(pts - c, axis=1)
        assert np.abs(drdn).max() == 0.0
        for p in pts[::17]:
            t = kelvin_T(c, p, normal, MAT)
            assert np.abs(t + t.T).max() <= 1e-16

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            kelvin_T((0, 0, 0), (1, 0, 0), (0, 0, 2), MAT)

    def test_self_point_rejected(self):
        with pytest.raises(SingularEvaluationError):
            kelvin_T((1, 0, 0), (1, 0, 0), (0, 0, 1), MAT)


class TestGaussRule:
    def test_point_counts(self):
        assert gauss_rule(16).n_points == 256
        assert gauss_rule(4).n_points == 16

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_weights_sum_to_square_measure(self, n):
        rule = gauss_rule(n)
        assert rule.weights.sum() == pytest.approx(4.0, abs=1e-12)
        assert (rule.weights > 0).all()
        assert (np.abs(rule.points) < 1.0).all()

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_polynomial_exactness(self, n):
        # exact for degree <= 2n-1 per axis; analytic value of
        # int xi^p eta^q over the square is separable
        rule = gauss_rule(n)
        for p, q in ((2 * n - 1, 0), (2 * n - 2, 2 * n - 2), (3, 2 * n - 1)):
            approx = np.sum(rule.weights * rule.points[:, 0] ** p * rule.points[:, 1] ** q)
            exact_1d = lambda d: 0.0 if d % 2 else 2.0 / (d + 1)
            assert approx == pytest.approx(exact_1d(p) * exact_1d(q), abs=1e-12)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            gauss_rule(7)

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_arrays_read_only(self, n):
        # one rule is shared by every worker of an assembly
        rule = gauss_rule(n)
        for arr in (rule.points, rule.weights, rule.monomials, rule.features):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestTriangleMap:
    def test_area_reproduction_unit_triangle(self):
        v = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], dtype=float)
        for n in (4, 8, 16, 32):
            _, w = collapsed_map(gauss_rule(n), *v)
            assert w.sum() == pytest.approx(0.5, rel=1e-14)

    def test_area_reproduction_random(self):
        rng = np.random.default_rng(8)
        rule = gauss_rule(8)
        for _ in range(100):
            v = random_triangle(rng, scale=3.0, min_quality=0.01)
            _, w = collapsed_map(rule, *v)
            area = 0.5 * np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]))
            assert w.sum() == pytest.approx(area, rel=1e-10)

    def test_constant_integrand(self):
        _, w = collapsed_map(gauss_rule(4), (0, 0, 0), (2, 0, 0), (0, 3, 0))
        assert np.sum(7.5 * w) == pytest.approx(7.5 * 3.0, rel=1e-13)

    def test_linear_moment(self):
        # int x dA over the unit right triangle is 1/6
        pts, w = collapsed_map(gauss_rule(4), (0, 0, 0), (1, 0, 0), (0, 1, 0))
        assert np.sum(w * pts[:, 0]) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_points_inside(self):
        rng = np.random.default_rng(9)
        rule = gauss_rule(8)
        for _ in range(20):
            v = random_triangle(rng, scale=2.0)
            pts, _ = collapsed_map(rule, *v)
            # barycentric coordinates all within (0, 1)
            t = np.linalg.lstsq(
                np.vstack([(v[1] - v[0]), (v[2] - v[0])]).T, (pts - v[0]).T, rcond=None
            )[0]
            u, s = t[0], t[1]
            assert (u > 0).all() and (s > 0).all() and (u + s < 1).all()


def _reference_triangles():
    """Random well-shaped triangles and a sliver 1e-4 of its length wide."""
    rng = np.random.default_rng(12)
    tris = [random_triangle(rng, scale=3.0) for _ in range(10)]
    tris.append(np.array([(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.5 + 1e-4, 0.5 + 1e-4, 0.0)]))
    return tris


def _area(v):
    return 0.5 * np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]))


class TestReferenceForm:
    """The moment form in the collapsed map's reference coordinates
    against the mapped points and weights of :func:`collapsed_map`."""

    @pytest.mark.parametrize("order", [4, 16])
    @pytest.mark.parametrize("v", _reference_triangles())
    def test_points_and_weights(self, v, order):
        rule = gauss_rule(order)
        pts, w = collapsed_map(rule, *v)
        area = _area(v)
        jac, _, _ = triangle_transforms(v, area)
        size = np.abs(v).max()
        mapped = v.mean(axis=0) + (jac @ rule.monomials[1:3]).T
        assert np.abs(mapped - pts).max() <= 1e-14 * size
        assert np.abs(area * rule.features[:, 0] - w).max() <= 1e-14 * w.max()

    @pytest.mark.parametrize("v", _reference_triangles())
    def test_distance_and_moments(self, v):
        # r^2 and the ten moments of 1/r, 1/r^3, 1/r^5 for sources around
        # the triangle, against direct subtraction and a brute-force sum
        rule = gauss_rule(16)
        pts, w = collapsed_map(rule, *v)
        centre = v.mean(axis=0)
        size = np.linalg.norm(v - np.roll(v, 1, axis=0), axis=-1).max()
        sources = centre + size * np.random.default_rng(5).uniform(-2.0, 2.0, (20, 3))
        jac, gram, transform = triangle_transforms(v, _area(v))
        d = centre - sources
        rows = np.column_stack([(d * d).sum(axis=1), 2.0 * d @ jac, np.tile(gram, (20, 1))])
        r2 = ((pts[None] - sources[:, None]) ** 2).sum(axis=-1)
        assert np.abs(rows @ rule.monomials - r2).max() <= 1e-13 * r2.max()

        work = np.empty((3, 20, rule.n_points))
        got = radial_moments(rows, rule, transform, work, np.empty((3, 20, N_FEATURES)))
        rho = pts - centre
        outer = [rho[:, a] * rho[:, b] for a in range(3) for b in range(a, 3)]
        features = w[:, None] * np.column_stack([np.ones(len(w)), rho] + outer)
        r = np.sqrt(r2)
        want = np.stack([(1.0 / r**p) @ features for p in (1, 3, 5)])
        # each moment against the size of its order in rho
        scale = want[..., :1] * np.array([1.0] + [size] * 3 + [size * size] * 6)
        assert (np.abs(got - want) <= 1e-13 * scale).all()


def _block_inputs(k, m, seed, coplanar=False):
    """Seeded moments (k, 3, m, N_FEATURES), offsets (k, m, 3) and unit
    normals (k, 3). ``coplanar`` puts every source in the z = 0 plane of
    triangles with normal +z or -z, so that D.n, the out-of-plane
    moments and several products vanish and entries come out as signed
    zeros."""
    rng = np.random.default_rng(seed)
    moments = rng.standard_normal((k, 3, m, N_FEATURES))
    offsets = rng.standard_normal((k, m, 3))
    normals = rng.standard_normal((k, 3))
    if coplanar:
        moments[..., [3, 6, 8, 9]] = 0.0  # rho_z, rho_x rho_z, rho_y rho_z, rho_z^2
        moments[:, :, ::2, 1] *= -0.0  # some zero in-plane moments, of either sign
        offsets[..., 2] = 0.0
        offsets[:, ::3, 0] = -0.0
        normals = np.zeros((k, 3))
        normals[:, 2] = np.where(np.arange(k) % 2, -1.0, 1.0)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return moments, offsets, normals


class TestKelvinBlockColumns:
    """The stacked evaluator against the dense (k, M, 3, 3) form."""

    @pytest.mark.parametrize("coplanar", [False, True], ids=["general", "coplanar"])
    # (24, 96) and (4, 3000): the chunks of the 96-element cube's ranges
    # and of the 1000-element box
    @pytest.mark.parametrize("k,m", [(1, 1), (1, 17), (5, 13), (24, 96), (4, 3000)])
    def test_bit_identical_to_dense_blocks(self, k, m, coplanar):
        moments, offsets, normals = _block_inputs(k, m, 40 + 7 * k + m, coplanar)
        h = np.full((k, 3, m, 3), np.nan)
        g = np.full((k, 3, m, 3), np.nan)
        # a longer buffer than needed, and not cleared
        work = np.full(BLOCK_WORK * k * m + 7, np.nan)
        kelvin_block_columns(moments, offsets, normals, MAT, h, g, work)
        want_h, want_g = kelvin_blocks(
            np.moveaxis(moments, 1, 2), offsets, normals[:, None, :], MAT
        )
        # [j, b, i, a] is entry (a, b) of block (i, j); tobytes also
        # compares the sign of zero entries
        assert h.transpose(0, 2, 3, 1).tobytes() == want_h.tobytes()
        assert g.transpose(0, 2, 3, 1).tobytes() == want_g.tobytes()
        if coplanar:
            assert (want_h == 0.0).any() and np.signbit(want_h[want_h == 0.0]).any()

    def test_writes_through_strided_views(self):
        # as assembly passes them: the column slab of a column-major matrix
        k, m = 3, 8
        moments, offsets, normals = _block_inputs(k, m, 60)
        h = np.zeros((3 * m, 3 * m), order="F")
        g = np.zeros((3 * m, 3 * m), order="F")
        cols = slice(2, 2 + k)
        kelvin_block_columns(
            moments, offsets, normals, MAT,
            h.T.reshape(m, 3, m, 3)[cols], g.T.reshape(m, 3, m, 3)[cols],
            np.empty(BLOCK_WORK * k * m),
        )
        want_h, want_g = kelvin_blocks(
            np.moveaxis(moments, 1, 2), offsets, normals[:, None, :], MAT
        )
        for got, want in ((h, want_h), (g, want_g)):
            blocks = got.reshape(m, 3, m, 3)[:, :, cols]  # [i, a, j, b]
            assert np.array_equal(blocks, want.transpose(1, 2, 0, 3))
            assert not got[:, : 3 * cols.start].any() and not got[:, 3 * cols.stop :].any()
