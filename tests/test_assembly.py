import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    integrate_pair,
    random_triangle,
    singular_u_integral_reference,
    subdivided_u_integral,
)
from tribem import assembly
from tribem.assembly import (
    BoundarySpec,
    InfluenceMatrices,
    allocate_influence,
    apply_boundary_conditions,
    assemble,
    assemble_columns,
    integrate_self_g,
    read_matrix,
    rhs_matrix,
    rigid_body_diagonal,
    set_diagonal_blocks,
    strided_runs,
    write_matrix,
)
from tribem.errors import (
    BoundaryConditionError,
    DegenerateElementError,
    SolvabilityWarning,
)
from tribem.distribution import partition_rows
from tribem.kernels import gauss_rule, kelvin_block_columns, kelvin_U, make_material
from tribem.mesh import SurfaceMesh, generate_box, generate_cube

MAT = make_material(200000.0, 0.33)
RULE = gauss_rule(16)


def two_triangle_mesh(offset):
    """One unit triangle at the origin, a second one translated away."""
    base = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], dtype=float)
    return SurfaceMesh(np.stack([base, base + np.asarray(offset, dtype=float)]))


class TestIntegratePair:
    def test_far_field_midpoint_approximation(self):
        # separation much larger than element diameter: block integral is
        # close to area * kernel(centroid distance)
        mesh = two_triangle_mesh((40.0, 7.0, 11.0))
        _, g01 = integrate_pair(0, 1, mesh, MAT, RULE)
        approx = mesh.areas[1] * kelvin_U(mesh.centroids[0], mesh.centroids[1], MAT)
        assert np.abs(g01 - approx).max() <= 0.01 * np.abs(approx).max()

    def test_refinement_consistency_nonadjacent(self):
        mesh = two_triangle_mesh((3.0, 1.0, 2.0))
        h16, g16 = integrate_pair(0, 1, mesh, MAT, RULE)
        h32, g32 = integrate_pair(0, 1, mesh, MAT, gauss_rule(32))
        assert np.abs(g16 - g32).max() <= 1e-8 * np.abs(g32).max()
        assert np.abs(h16 - h32).max() <= 1e-8 * np.abs(h32).max()

    def test_geometry_scaling(self):
        mesh = two_triangle_mesh((2.0, 0.5, 1.0))
        scaled = SurfaceMesh(3.0 * mesh.vertices)
        h1, g1 = integrate_pair(0, 1, mesh, MAT, RULE)
        h3, g3 = integrate_pair(0, 1, scaled, MAT, RULE)
        # U* ~ 1/r against area ~ s^2 leaves G scaled by s; H is invariant
        assert np.allclose(g3, 3.0 * g1, rtol=1e-12)
        assert np.allclose(h3, h1, rtol=1e-12)

    def test_rejects_diagonal(self):
        mesh = two_triangle_mesh((2.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            integrate_pair(1, 1, mesh, MAT, RULE)

    def test_zero_area_field_element_rejected(self):
        tris = np.array(
            [
                [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                [(3, 0, 0), (4, 0, 0), (5, 0, 0)],
            ],
            dtype=float,
        )
        mesh = SurfaceMesh(tris)
        with pytest.raises(DegenerateElementError):
            integrate_pair(0, 1, mesh, MAT, RULE)
        with pytest.raises(DegenerateElementError):
            integrate_self_g(1, mesh, MAT, RULE)


class TestIntegrateSelfG:
    def test_equilateral_closed_form(self):
        # equilateral side L from its centroid: three fans at the inradius
        # p = L / (2 sqrt 3), each spanning -60..60 degrees, give
        # integral 1/r = sqrt(3) L ln(2 + sqrt 3); in-plane isotropy makes
        # integral r,i r,j / r half of that times the in-plane projector
        side = 1.7
        v = side * np.array([(0, 0, 0), (1, 0, 0), (0.5, np.sqrt(3) / 2, 0)])
        mesh = SurfaceMesh(v[None])
        i1 = np.sqrt(3.0) * side * np.log(2.0 + np.sqrt(3.0))
        in_plane = np.diag([1.0, 1.0, 0.0])
        c_u = 1.0 / (16.0 * np.pi * MAT.mu * (1.0 - MAT.nu))
        expected = c_u * ((3.0 - 4.0 * MAT.nu) * i1 * np.eye(3) + 0.5 * i1 * in_plane)
        for order in (4, 32):  # the closed form does not use the rule
            g = integrate_self_g(0, mesh, MAT, gauss_rule(order))
            assert np.abs(g - expected).max() <= 1e-14 * np.abs(expected).max()

    @staticmethod
    def _check_against_refinement_oracle(seed, count, shift):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            v = random_triangle(rng, scale=2.0, min_quality=0.2) + shift
            mesh = SurfaceMesh(v[None])
            ref = singular_u_integral_reference(v, mesh.centroids[0], MAT.e, MAT.nu)
            got = integrate_self_g(0, mesh, MAT, RULE)
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_against_refinement_oracle(self):
        self._check_against_refinement_oracle(21, 8, np.zeros(3))

    def test_against_refinement_oracle_far_from_origin(self):
        self._check_against_refinement_oracle(26, 4, np.array([1e3, -700.0, 400.0]))

    def test_cube_matches_fine_subdivided_quadrature(self):
        # the fan quadrature at order 32 reaches ~6e-10 on the cube's
        # right-isosceles elements and converges towards the closed form
        mesh = generate_cube(4, 2)
        assert mesh.n_elements == 96
        for i in range(mesh.n_elements):
            ref = subdivided_u_integral(mesh.vertices[i], mesh.centroids[i], MAT.e, MAT.nu)
            got = integrate_self_g(i, mesh, MAT, RULE)
            assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_symmetric(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            v = random_triangle(rng, min_quality=0.15)
            mesh = SurfaceMesh(v[None])
            g = integrate_self_g(0, mesh, MAT, RULE)
            assert np.array_equal(g, g.T)

    def test_rotation_equivariant(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            v = random_triangle(rng, scale=3.0, min_quality=0.2)
            rot = _rotation(*rng.standard_normal(3), rng.uniform(0.0, 2.0 * np.pi))
            g = integrate_self_g(0, SurfaceMesh(v[None]), MAT, RULE)
            turned = integrate_self_g(0, SurfaceMesh((v @ rot.T)[None]), MAT, RULE)
            assert np.abs(turned - rot @ g @ rot.T).max() <= 1e-14 * np.abs(g).max()

    def test_linear_in_scale(self):
        # U* ~ 1/r against area ~ s^2
        rng = np.random.default_rng(25)
        for scale in (1e-3, 0.37, 2.5, 1e3):
            v = random_triangle(rng, min_quality=0.2)
            g = integrate_self_g(0, SurfaceMesh(v[None]), MAT, RULE)
            scaled = integrate_self_g(0, SurfaceMesh(scale * v[None]), MAT, RULE)
            assert np.abs(scaled - scale * g).max() <= 1e-14 * np.abs(scale * g).max()


class TestRigidBodyDiagonal:
    def test_synthetic_blocks_bit_exact(self):
        rng = np.random.default_rng(23)
        blocks = rng.standard_normal((17, 3, 3))
        expected = -np.sum(blocks, axis=0)
        assert np.array_equal(rigid_body_diagonal(blocks), expected)

    def test_row_block_sums_vanish_exactly(self):
        hg = assemble(generate_cube(4, 1), MAT, RULE)
        n = hg.n_elements
        for i in range(n):
            row = hg.h[3 * i : 3 * i + 3].reshape(3, n, 3).transpose(1, 0, 2)
            others = np.concatenate([np.arange(0, i), np.arange(i + 1, n)])
            # the diagonal was built as minus this exact pairwise sum
            assert np.array_equal(np.sum(row[others], axis=0), -row[i])

    def test_rigid_translation_nullspace(self):
        hg = assemble(generate_cube(4, 2), MAT, RULE)
        scale = np.abs(hg.h).max()
        for axis in range(3):
            v = np.zeros(hg.n_dofs)
            v[axis::3] = 1.0
            assert np.abs(hg.h @ v).max() <= 1e-12 * scale


def _sliver_pair(gap):
    """A regular element and a sliver on its edge, the sliver's apex
    ``gap`` past the edge's midpoint: its centroid nearly touches the
    regular element."""
    regular = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    sliver = [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.5 + gap, 0.5 + gap, 0.0)]
    return SurfaceMesh(np.array([regular, sliver]))


def _hovering_pair(lift):
    """A unit right triangle and a parallel copy ``lift`` above it."""
    base = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    return SurfaceMesh(np.stack([base, base + (0.0, 0.0, lift)]))


def _near_degenerate_cube():
    # element 3's apex 4e-13 off its base edge: area 8e-13, positive but
    # far below the mesh's threshold, 1e-12 x its bounding-box diagonal
    # squared (16)
    v = generate_cube(4, 1).vertices.copy()
    a, b, c = v[3]
    foot = a + np.dot(c - a, b - a) / np.dot(b - a, b - a) * (b - a)
    v[3, 2] = foot + 4e-13 * (c - foot) / np.linalg.norm(c - foot)
    mesh = SurfaceMesh(v)
    assert 0.0 < mesh.areas[3] < 1e-12
    return mesh


class TestScaleRelativeDegeneracy:
    """Every entry point rejects an element by the mesh's one rule
    (SurfaceMesh.degenerate_indices), not only a zero area."""

    def test_assemble(self):
        with pytest.raises(DegenerateElementError, match=r"degenerate elements \[3\]"):
            assemble(_near_degenerate_cube(), MAT, RULE)

    @pytest.mark.parametrize("elements", [range(0, 24), range(2, 4)])
    def test_assemble_columns(self, elements):
        mesh = _near_degenerate_cube()
        h, g = allocate_influence(mesh.n_dofs)
        with pytest.raises(DegenerateElementError, match=r"degenerate elements \[3\]"):
            assemble_columns(mesh, MAT, gauss_rule(4), elements, h, g)

    def test_assemble_columns_outside_range(self):
        mesh = _near_degenerate_cube()
        h, g = allocate_influence(mesh.n_dofs)
        assemble_columns(mesh, MAT, gauss_rule(4), range(4, mesh.n_elements), h, g)

    def test_integrate_self_g(self):
        mesh = _near_degenerate_cube()
        with pytest.raises(DegenerateElementError, match=r"degenerate elements \[3\]"):
            integrate_self_g(3, mesh, MAT, RULE)
        assert np.isfinite(integrate_self_g(2, mesh, MAT, RULE)).all()

    def test_integrate_pair_oracle(self):
        # the reference for off-diagonal blocks keeps the library's rule
        mesh = _near_degenerate_cube()
        with pytest.raises(DegenerateElementError, match=r"element 3 is degenerate"):
            integrate_pair(0, 3, mesh, MAT, RULE)
        assert np.isfinite(integrate_pair(0, 2, mesh, MAT, RULE)[1]).all()


class TestAssemble:
    def test_cube_dimensions(self):
        hg = assemble(generate_cube(4, 2), MAT, RULE)
        assert hg.h.shape == (288, 288)
        assert hg.g.shape == (288, 288)

    def test_deterministic(self):
        mesh = generate_cube(4, 1)
        a = assemble(mesh, MAT, RULE)
        b = assemble(mesh, MAT, RULE)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.g, b.g)

    def test_partitioned_columns_bit_exact(self):
        mesh = generate_cube(4, 1)
        full = assemble(mesh, MAT, RULE)
        h, g = allocate_influence(mesh.n_dofs)
        # simulate two workers with an uneven split of the field elements
        assemble_columns(mesh, MAT, RULE, range(0, 5), h, g)
        assemble_columns(mesh, MAT, RULE, range(5, mesh.n_elements), h, g)
        set_diagonal_blocks(mesh, MAT, h, g)
        assert np.array_equal(h, full.h)
        assert np.array_equal(g, full.g)

    @pytest.mark.parametrize("length", [1, 3, 5, 7])
    def test_short_ranges_bit_exact(self, length):
        # 384 elements: the chunk byte budget allows six field elements, so
        # the whole range takes 64 chunks of six, ranges of 1, 3 and 5
        # elements one chunk each and a range of 7 two, of 3 and 4
        mesh = generate_cube(4, 4)
        rule = gauss_rule(4)
        h_full, g_full = allocate_influence(mesh.n_dofs)
        assemble_columns(mesh, MAT, rule, range(mesh.n_elements), h_full, g_full)
        h, g = allocate_influence(mesh.n_dofs)
        for start in range(0, mesh.n_elements, length):
            stop = min(start + length, mesh.n_elements)
            assemble_columns(mesh, MAT, rule, range(start, stop), h, g)
        assert h.tobytes() == h_full.tobytes()
        assert g.tobytes() == g_full.tobytes()

    def test_matches_integrate_pair(self):
        # r^2 is expanded as |D|^2 + 2 (J^T D).p + p^T J^T J p, whose
        # cancellation is worst where the field element touches the
        # collocation point's own element: check every edge-sharing pair,
        # and one far pair
        mesh = generate_cube(4, 1)
        hg = assemble(mesh, MAT, RULE)
        keys = [{tuple(v) for v in tri} for tri in mesh.vertices]
        pairs = [
            (i, j)
            for i in range(mesh.n_elements)
            for j in range(mesh.n_elements)
            if i != j and len(keys[i] & keys[j]) == 2
        ]
        assert len(pairs) == 3 * mesh.n_elements  # closed surface: 3 neighbours each
        far = np.linalg.norm(mesh.centroids[:, None] - mesh.centroids, axis=-1)
        pairs.append(np.unravel_index(far.argmax(), far.shape))
        for i, j in pairs:
            h_ij, g_ij = integrate_pair(i, j, mesh, MAT, RULE)
            got_h = hg.h[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
            got_g = hg.g[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
            assert np.abs(got_h - h_ij).max() <= 1e-13 * np.abs(h_ij).max()
            assert np.abs(got_g - g_ij).max() <= 1e-13 * np.abs(g_ij).max()

    @pytest.mark.parametrize(
        "mesh",
        [_sliver_pair(1e-2), _sliver_pair(1e-4), _hovering_pair(3e-5)],
        ids=["0.01", "0.0001", "hovering"],
    )
    def test_sliver_matches_integrate_pair(self, mesh):
        # the expanded r^2 handles worst a source nearly touching the
        # field element's plane, as in these pairs
        hg = assemble(mesh, MAT, RULE)
        for i, j in ((0, 1), (1, 0)):
            h_ij, g_ij = integrate_pair(i, j, mesh, MAT, RULE)
            got_h = hg.h[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
            got_g = hg.g[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
            assert np.abs(got_h - h_ij).max() <= 1e-13 * np.abs(h_ij).max()
            assert np.abs(got_g - g_ij).max() <= 1e-13 * np.abs(g_ij).max()

    def test_scale_invariance_of_h(self):
        mesh = generate_cube(4, 1)
        scaled = SurfaceMesh(2.5 * mesh.vertices)
        a = assemble(mesh, MAT, RULE)
        b = assemble(scaled, MAT, RULE)
        assert np.abs(b.h - a.h).max() <= 1e-10 * np.abs(a.h).max()
        assert np.abs(b.g - 2.5 * a.g).max() <= 1e-10 * np.abs(2.5 * a.g).max()

    def test_far_field_decay(self):
        mesh = generate_cube(4, 2)
        hg = assemble(mesh, MAT, RULE)
        c = mesh.centroids
        ratios = []
        for i, j in ((0, 50), (3, 80), (10, 90), (20, 60)):
            d = np.linalg.norm(c[i] - c[j])
            if d < 2.0:
                continue
            block = hg.g[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
            ratios.append(np.linalg.norm(block) * d)
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 10.0  # bounded 1/r decay band

    def test_degenerate_mesh_rejected(self):
        tris = np.array(
            [
                [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
            ],
            dtype=float,
        )
        with pytest.raises(DegenerateElementError):
            assemble(SurfaceMesh(tris), MAT, RULE)


class TestChunks:
    """How assemble_columns splits a range into kelvin_block_columns calls."""

    @staticmethod
    def widths(monkeypatch, mesh, rule, ranges, compute=True):
        """The elements each kelvin_block_columns call covers, per range;
        without ``compute`` no moment or block is evaluated."""
        calls = []

        def counted(moments, *args):
            calls[-1].append(moments.shape[0])
            if compute:
                kelvin_block_columns(moments, *args)

        monkeypatch.setattr(assembly, "kelvin_block_columns", counted)
        if not compute:
            monkeypatch.setattr(assembly, "radial_moments", lambda *args: None)
        h, g = allocate_influence(mesh.n_dofs)
        for elements in ranges:
            calls.append([])
            assemble_columns(mesh, MAT, rule, elements, h, g)
        return calls

    def test_two_worker_cube_ranges(self, monkeypatch):
        # the cube-graphics request: each 48-element range of the
        # 96-element cube takes two calls of 24
        mesh = generate_cube(4.0, 2)
        ranges = partition_rows(mesh.n_elements, 2)
        assert self.widths(monkeypatch, mesh, RULE, ranges) == [[24, 24], [24, 24]]

    @pytest.mark.parametrize("length", [1, 5, 23, 25, 47, 49, 96])
    def test_no_call_wider_than_its_range(self, monkeypatch, length):
        mesh = generate_cube(4.0, 2)
        ranges = [range(start, min(start + length, 96)) for start in range(0, 96, length)]
        for elements, widths in zip(ranges, self.widths(monkeypatch, mesh, RULE, ranges)):
            assert sum(widths) == len(elements)
            assert max(widths) <= min(len(elements), 24)
            assert max(widths) - min(widths) <= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_box_keeps_chunks_of_four(self, monkeypatch, workers):
        # the box workloads' set-up (one range) and C07 check (two)
        mesh = generate_box((4.0, 4.0, 8.0), (5, 5, 10))
        ranges = partition_rows(mesh.n_elements, workers)
        widths = self.widths(monkeypatch, mesh, gauss_rule(4), ranges, compute=False)
        assert [set(w) for w in widths] == [{4}] * workers

    def test_sweep_footprint(self):
        # numpy's peak for one worker's range of the cube-graphics request:
        # 1.47 MiB with chunks of 24 (1.09 MiB with the earlier chunks of
        # 11), bounded 10% above so that a wider chunk shows here first
        mesh = generate_cube(4.0, 2)
        h, g = allocate_influence(mesh.n_dofs)
        assemble_columns(mesh, MAT, RULE, range(48), h, g)
        tracemalloc.start()
        try:
            assemble_columns(mesh, MAT, RULE, range(48), h, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 1.47 * 2**20


class TestSweepBuffer:
    """assemble_columns in a caller-owned buffer, as the distributed run
    reuses one per range."""

    def test_half_cube_buffer_size(self):
        # each range of the two-worker cube-graphics request: weights
        # (3 x 96 x 256), moments (24 x 3 x 96 x 10), sources (24 x 96 x 6)
        mesh = generate_cube(4.0, 2)
        size = assembly.sweep_buffer_size(mesh, RULE, range(48))
        assert size == 3 * 96 * 256 + 24 * 3 * 96 * 10 + 24 * 96 * 6

    @pytest.mark.parametrize("elements", [range(48), range(41, 96), range(0, 7)])
    def test_dirty_buffer_bit_exact(self, elements):
        # a longer buffer full of NaN gives the columns the sweep's own
        # buffer gives, and the buffer is all the sweep writes besides H, G
        mesh = generate_cube(4.0, 2)
        h, g = allocate_influence(mesh.n_dofs)
        h.fill(0.0)
        g.fill(0.0)
        assemble_columns(mesh, MAT, RULE, elements, h, g)
        h2, g2 = allocate_influence(mesh.n_dofs)
        h2.fill(0.0)
        g2.fill(0.0)
        buffer = np.full(assembly.sweep_buffer_size(mesh, RULE, elements) + 17, np.nan)
        assemble_columns(mesh, MAT, RULE, elements, h2, g2, buffer)
        assert h2.tobytes() == h.tobytes() and g2.tobytes() == g.tobytes()
        assert np.isnan(buffer[-17:]).all()

    @pytest.mark.parametrize(
        "bad", [np.empty(10), np.empty(2 * 10**6)[::2], np.empty(10**6, np.float32)]
    )
    def test_unfit_buffer_rejected(self, bad):
        # too short, not contiguous (writes would go to a copy), not float64
        mesh = generate_cube(4.0, 2)
        h, g = allocate_influence(mesh.n_dofs)
        with pytest.raises(ValueError, match="flat float64 buffer"):
            assemble_columns(mesh, MAT, RULE, range(48), h, g, bad)


def _rotation(x, y, z, angle):
    """Rotation by ``angle`` about the axis (x, y, z) (Rodrigues)."""
    axis = np.array([x, y, z]) / np.linalg.norm([x, y, z])
    k = np.array(
        [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _blocks(m):
    n = m.shape[0] // 3
    return m.reshape(n, 3, n, 3).transpose(0, 2, 1, 3)


def _moved_cube(k):
    """generate_cube(4, k) turned and shifted off the axes, so that no
    D.n_j vanishes by symmetry except between truly coplanar elements."""
    rot = _rotation(0.3, -0.5, 0.8, 1.1)
    return SurfaceMesh(generate_cube(4, k).vertices @ rot.T + np.array([3.0, -7.0, 11.0]))


class TestMomentEvaluator:
    """Every assembled block against the per-pair point-kernel oracles."""

    @pytest.mark.parametrize("order", [4, 16])
    @pytest.mark.parametrize(
        "mesh", [generate_cube(4, 1), _moved_cube(2)], ids=["cube-k1", "moved-cube-k2"]
    )
    def test_every_block_matches_oracles(self, mesh, order):
        rule = gauss_rule(order)
        n = mesh.n_elements
        hg = assemble(mesh, MAT, rule)
        g = _blocks(hg.g)
        for i in range(n):
            ref = integrate_self_g(i, mesh, MAT, rule)
            assert np.abs(g[i, i] - ref).max() <= 1e-13 * np.abs(ref).max()
        h = _blocks(hg.h)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                h_ij, g_ij = integrate_pair(i, j, mesh, MAT, rule)
                assert np.abs(h[i, j] - h_ij).max() <= 1e-13 * np.abs(h_ij).max()
                assert np.abs(g[i, j] - g_ij).max() <= 1e-13 * np.abs(g_ij).max()

    @settings(max_examples=15, deadline=None, database=None)
    @given(
        axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda a: np.linalg.norm(a) > 0.1
        ),
        angle=st.floats(0.0, 2.0 * np.pi),
        shift=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
    )
    def test_rigid_motion_rotates_every_block(self, axis, angle, shift):
        # H and G of a moved body are the old blocks seen in the new frame:
        # B' = Rot B Rot^T for every 3x3 block, diagonal blocks included
        mesh = generate_cube(4, 1)
        rot = _rotation(*axis, angle)
        moved = SurfaceMesh(mesh.vertices @ rot.T + np.asarray(shift))
        base = assemble(mesh, MAT, RULE)
        turned = assemble(moved, MAT, RULE)
        for before, after in ((base.h, turned.h), (base.g, turned.g)):
            expected = rot @ _blocks(before) @ rot.T
            assert np.abs(_blocks(after) - expected).max() <= 1e-12 * np.abs(before).max()


@pytest.fixture(scope="module")
def hg():
    return assemble(generate_cube(4, 1), MAT, RULE)


class TestApplyBoundaryConditions:

    def test_all_traction_known(self, hg):
        n = hg.n_dofs
        tbar = np.linspace(-1, 1, n)
        bc = BoundarySpec(np.zeros(n, dtype=bool), tbar)
        with pytest.warns(SolvabilityWarning):
            system = apply_boundary_conditions(hg, bc)
        assert np.array_equal(system.a, hg.h)
        assert np.allclose(system.b, hg.g @ tbar, rtol=1e-14)
        assert not system.swapped.any()

    def test_all_displacement_known(self, hg):
        n = hg.n_dofs
        ubar = np.linspace(0, 2, n)
        bc = BoundarySpec(np.ones(n, dtype=bool), ubar)
        system = apply_boundary_conditions(hg, bc)
        assert np.array_equal(system.a, -hg.g)
        assert np.allclose(system.b, -hg.h @ ubar, rtol=1e-14)
        assert system.swapped.all()

    def test_mixed_columns(self, hg):
        n = hg.n_dofs
        rng = np.random.default_rng(31)
        disp = rng.random(n) < 0.4
        vals = rng.standard_normal(n)
        bc = BoundarySpec(disp, vals)
        system = apply_boundary_conditions(hg, bc)
        a = np.asarray(system.a)
        assert np.array_equal(a[:, disp], -hg.g[:, disp])
        assert np.array_equal(a[:, ~disp], hg.h[:, ~disp])
        expected_b = hg.g[:, ~disp] @ vals[~disp] - hg.h[:, disp] @ vals[disp]
        assert np.allclose(system.b, expected_b, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n_loaded", [1, 4])
    def test_few_values_read_only_their_columns(self, hg, n_loaded):
        n = hg.n_dofs
        rng = np.random.default_rng(35)
        disp = rng.random(n) < 0.4
        vals = np.zeros(n)
        loaded = rng.choice(n, n_loaded, replace=False)
        vals[loaded] = rng.standard_normal(n_loaded)
        expected = apply_boundary_conditions(hg, BoundarySpec(disp, vals)).b
        dense = hg.g @ np.where(disp, 0.0, vals) - hg.h @ np.where(disp, vals, 0.0)
        assert np.allclose(expected, dense, rtol=1e-13, atol=1e-13 * np.abs(dense).max())
        poisoned = InfluenceMatrices(hg.h.copy(), hg.g.copy(), hg.n_elements)
        unloaded = np.setdiff1d(np.arange(n), loaded)
        poisoned.h[:, unloaded] = np.nan
        poisoned.g[:, unloaded] = np.nan
        got = apply_boundary_conditions(poisoned, BoundarySpec(disp, vals)).b
        assert np.array_equal(got, expected)

    def test_matches_column_gather_bitwise(self, hg):
        # the in-place negation writes exactly what the column gather did
        n = hg.n_dofs
        disp = np.random.default_rng(33).random(n) < 0.25
        system = apply_boundary_conditions(hg, BoundarySpec(disp, np.zeros(n)))
        ref = hg.h.copy()
        ref[:, disp] = -hg.g[:, disp]
        assert system.a.dense().tobytes() == ref.tobytes()

    def test_swap_involution(self, hg):
        # toggling one DOF's kind and toggling it back restores A and b
        # exactly (the bookkeeping has no memory)
        n = hg.n_dofs
        rng = np.random.default_rng(32)
        disp = rng.random(n) < 0.5
        vals = rng.standard_normal(n)
        s1 = apply_boundary_conditions(hg, BoundarySpec(disp, vals))
        flipped = disp.copy()
        flipped[5] = not flipped[5]
        s_flipped = apply_boundary_conditions(hg, BoundarySpec(flipped, vals))
        assert not np.array_equal(s_flipped.a, s1.a)
        s2 = apply_boundary_conditions(hg, BoundarySpec(disp, vals))
        assert np.array_equal(s1.a, s2.a)
        assert np.array_equal(s1.b, s2.b)

    def test_sample_cube_swap_count(self):
        from tribem.problems import cube_problem

        prob = cube_problem()
        hg2 = assemble(prob.mesh, prob.material, RULE)
        system = apply_boundary_conditions(hg2, prob.bc)
        assert system.swapped.sum() == 48
        assert (~system.swapped).sum() == 240

    def test_missing_dofs_rejected(self, hg):
        with pytest.raises(BoundaryConditionError):
            apply_boundary_conditions(
                hg, BoundarySpec(np.zeros(5, dtype=bool), np.zeros(5))
            )

    def test_rhs_matrix_consistency(self, hg):
        n = hg.n_dofs
        rng = np.random.default_rng(33)
        disp = rng.random(n) < 0.3
        vals = rng.standard_normal(n)
        bc = BoundarySpec(disp, vals)
        system = apply_boundary_conditions(hg, bc)
        b2 = rhs_matrix(hg, bc) @ vals
        assert np.allclose(system.b, b2, rtol=1e-13, atol=1e-13)
        # G with -H in the displacement-known columns, bit for bit, also
        # when runs of them touch the first and last column
        ends = disp.copy()
        ends[[0, 1, -1]] = True
        for mask in (disp, ends, np.ones(n, dtype=bool), np.zeros(n, dtype=bool)):
            want = np.array(hg.g, order="F")
            want[:, mask] = -hg.h[:, mask]
            assert rhs_matrix(hg, BoundarySpec(mask, vals)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_one_pass_build_matches_two_passes(self, hg, order):
        # A and R are written in one pass over runs of equal kind; the
        # reference copies one matrix and negates the other's columns into
        # it. From row-major H and G too, A and R come out column-major,
        # and b reads the same columns.
        n = hg.n_dofs
        laid_out = InfluenceMatrices(
            np.array(hg.h, order=order), np.array(hg.g, order=order), hg.n_elements
        )
        rng = np.random.default_rng(36)
        disp = rng.random(n) < 0.3
        ends = disp.copy()
        ends[[0, 1, -1]] = True
        vals = rng.standard_normal(n)
        for mask in (disp, ends, np.ones(n, dtype=bool), np.zeros(n, dtype=bool)):
            bc = BoundarySpec(mask, vals)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SolvabilityWarning)
                system = apply_boundary_conditions(laid_out, bc)
                want_b = apply_boundary_conditions(hg, bc).b
            want_a = hg.h.copy(order="F")
            np.negative(hg.g, out=want_a, where=mask)
            want_r = hg.g.copy(order="F")
            np.negative(hg.h, out=want_r, where=mask)
            r = rhs_matrix(laid_out, bc)
            a = system.a.dense()
            assert a.flags.f_contiguous and r.flags.f_contiguous
            assert a.tobytes() == want_a.tobytes()
            assert r.tobytes() == want_r.tobytes()
            assert system.b.tobytes() == want_b.tobytes()


class TestStridedRuns:
    """Sorted indices split into maximal progressions, taken from the
    front, each with the slice of the list that holds it."""

    @pytest.mark.parametrize(
        "indices, want",
        [
            ([], []),
            ([7], [(slice(7, 8, 1), slice(0, 1))]),
            ([49, 52, 55, 58], [(slice(49, 59, 3), slice(0, 4))]),
            ([0, 1, 2, 5, 6, 7, 20],
             [(slice(0, 3, 1), slice(0, 3)), (slice(5, 8, 1), slice(3, 6)),
              (slice(20, 21, 1), slice(6, 7))]),
            ([0, 1, 5, 9], [(slice(0, 2, 1), slice(0, 2)), (slice(5, 10, 4), slice(2, 4))]),
        ],
        ids=["none", "one", "every third", "three runs", "from the front"],
    )
    def test_progressions(self, indices, want):
        indices = np.array(indices, dtype=np.intp)
        found = strided_runs(indices)
        assert found == want
        for where, positions in found:
            assert np.array_equal(np.arange(100)[where], indices[positions])

    @pytest.mark.parametrize("step", [1, 3])
    def test_b_of_every_step_th_dof_does_not_depend_on_layout(self, hg, step):
        # one-axis loads make progressions of every third column, read in
        # place from column-major H and G, which row-major ones become
        # when InfluenceMatrices takes them, so b comes out the same bit
        # for bit
        n = hg.n_dofs
        disp = np.zeros(n, dtype=bool)
        disp[: n // 4] = True
        values = np.zeros(n)
        values[1::step] = np.random.default_rng(40).standard_normal(len(values[1::step]))
        bc = BoundarySpec(disp, values)
        c_ordered = InfluenceMatrices(
            np.ascontiguousarray(hg.h), np.ascontiguousarray(hg.g), hg.n_elements
        )
        b = apply_boundary_conditions(hg, bc).b
        assert apply_boundary_conditions(c_ordered, bc).b.tobytes() == b.tobytes()
        want = rhs_matrix(hg, bc) @ values
        assert np.abs(b - want).max() <= 1e-14 * np.abs(want).max()


class TestSystemMatrix:
    """A is a view of H's columns and -G's: dense() and np.asarray give
    the column gather bit for bit, and @ reads the runs where they sit."""

    @staticmethod
    def masks(n):
        disp = np.random.default_rng(37).random(n) < 0.4
        ends = disp.copy()
        ends[[0, 1, -1]] = True  # swapped runs at the first and last column
        return {
            "random": disp, "ends": ends, "inner": ~ends,
            "all": np.ones(n, dtype=bool), "none": np.zeros(n, dtype=bool),
        }

    @staticmethod
    def system(hg, order, mask):
        laid_out = InfluenceMatrices(
            np.array(hg.h, order=order), np.array(hg.g, order=order), hg.n_elements
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SolvabilityWarning)
            return apply_boundary_conditions(laid_out, BoundarySpec(mask, np.zeros(hg.n_dofs)))

    @pytest.mark.parametrize("kinds", ["random", "ends", "inner", "all", "none"])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_dense_is_the_column_gather(self, hg, order, kinds):
        mask = self.masks(hg.n_dofs)[kinds]
        a = self.system(hg, order, mask).a
        want = np.array(hg.h, order="F")
        want[:, mask] = -hg.g[:, mask]
        dense = a.dense()
        assert dense.flags.f_contiguous and dense.tobytes() == want.tobytes()
        assert np.asarray(a).tobytes() == want.tobytes()
        out = np.full((hg.n_dofs, hg.n_dofs), np.nan, order="F")
        assert a.dense(out) is out and out.tobytes() == want.tobytes()
        assert a.shape == want.shape

    @pytest.mark.parametrize("kinds", ["random", "ends", "inner", "all", "none"])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_product_matches_dense_product(self, hg, order, kinds):
        a = self.system(hg, order, self.masks(hg.n_dofs)[kinds]).a
        x = np.random.default_rng(38).standard_normal(hg.n_dofs)
        want = a.dense() @ x
        got = a @ x
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        # alpha A x + y, y kept
        y = np.random.default_rng(39).standard_normal(hg.n_dofs)
        kept = y.copy()
        got = a.matvec(x, -1.0, y)
        assert np.array_equal(y, kept)
        assert np.abs(got - (y - want)).max() <= 1e-15 * np.abs(y - want).max()

    def test_no_view_without_a_copy(self, hg):
        disp = self.masks(hg.n_dofs)["random"]
        a = apply_boundary_conditions(hg, BoundarySpec(disp, np.zeros(hg.n_dofs))).a
        with pytest.raises(ValueError, match="only as a copy"):
            np.asarray(a, copy=False)
        with pytest.raises(ValueError, match="vector"):
            a @ np.ones((hg.n_dofs, 2))


class TestColumnMajorLayout:
    """H and G are allocated column-major, the layout LAPACK reads, and
    the matrices built from them keep it."""

    def test_assembled_and_derived_matrices(self, hg):
        rng = np.random.default_rng(35)
        n = hg.n_dofs
        bc = BoundarySpec(rng.random(n) < 0.3, rng.standard_normal(n))
        for m in (hg.h, hg.g, apply_boundary_conditions(hg, bc).a.dense(), rhs_matrix(hg, bc)):
            assert m.flags.f_contiguous

    def test_assembled_matrices_pass_through_uncopied(self, monkeypatch):
        made = []

        def allocate(n_dofs):
            made.extend(allocate_influence(n_dofs))
            return tuple(made)

        monkeypatch.setattr(assembly, "allocate_influence", allocate)
        hg = assemble(generate_cube(4, 1), MAT, RULE)
        assert hg.h is made[0] and hg.g is made[1]

    def test_other_layouts_converted_once(self):
        h = np.arange(36.0).reshape(6, 6)
        g = np.arange(36, dtype=np.float32).reshape(6, 6).T
        hg = InfluenceMatrices(h, g, 2)
        for got, given in ((hg.h, h), (hg.g, g)):
            assert got.flags.f_contiguous and got.dtype == np.float64
            assert np.array_equal(got, given)

    def test_c_ordered_output_rejected(self):
        mesh = generate_cube(4, 1)
        n3 = mesh.n_dofs
        with pytest.raises(ValueError, match="F-contiguous"):
            assemble_columns(
                mesh, MAT, RULE, range(mesh.n_elements), np.empty((n3, n3)), np.empty((n3, n3))
            )


class TestMatrixDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(34)
        m = rng.standard_normal((7, 5))
        path = tmp_path / "m.mat"
        write_matrix(path, m)
        assert np.array_equal(read_matrix(path), m)

    @pytest.mark.parametrize("change", [-8, -1, 1, 8])
    def test_wrong_length_names_the_counts(self, tmp_path, change):
        path = tmp_path / "m.mat"
        write_matrix(path, np.ones((4, 5)))
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + b"\x00" * change)
        with pytest.raises(ValueError, match=f"expected 20 values, found {20 + change / 8:g}"):
            read_matrix(path)

    def test_reads_with_one_allocation(self, tmp_path):
        m = np.arange(1 << 20, dtype=float).reshape(1024, 1024)  # 8 MiB
        path = tmp_path / "big.mat"
        write_matrix(path, m)
        tracemalloc.start()
        try:
            got = read_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, m)
        assert peak < 1.2 * m.nbytes

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"NOTAMATX" + b"\x00" * 20)
        with pytest.raises(ValueError):
            read_matrix(path)
