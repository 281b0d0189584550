import struct

import numpy as np
import pytest

from tribem.errors import EmptyMeshError, StlParseError
from tribem.mesh import (
    SurfaceMesh,
    generate_box,
    generate_cube,
    load_stl,
    validate,
    write_stl,
)


def facet(vertices):
    """A one-facet mesh."""
    return SurfaceMesh(np.array([vertices], dtype=float))


class TestElementGeometry:
    def test_unit_right_triangle(self):
        mesh = facet([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert np.allclose(mesh.centroids[0], [1 / 3, 1 / 3, 0])
        assert mesh.areas[0] == pytest.approx(0.5)
        assert np.allclose(mesh.normals[0], [0, 0, 1])

    def test_collinear_vertices_rejected(self):
        mesh = facet([(0, 0, 0), (2, 0, 0), (4, 0, 0)])
        assert mesh.degenerate_indices().tolist() == [0]

    def test_winding_flips_normal(self):
        mesh = facet([(0, 0, 0), (0, 0, 1), (0, 1, 0)])
        assert np.allclose(mesh.normals[0], [-1, 0, 0])

    def test_cyclic_permutation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.uniform(-3, 3, size=(3, 3))
            m0 = facet(v)
            if len(m0.degenerate_indices()):
                continue
            for shift in (1, 2):
                m = facet(np.roll(v, shift, axis=0))
                assert np.allclose(m.centroids, m0.centroids, atol=1e-12)
                assert m.areas[0] == pytest.approx(m0.areas[0], rel=1e-12)
                assert np.allclose(m.normals, m0.normals, atol=1e-12)

    def test_normal_unit_and_orthogonal(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.uniform(-1, 1, size=(3, 3))
            mesh = facet(v)
            if len(mesh.degenerate_indices()):
                continue
            n = mesh.normals[0]
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            scale = np.linalg.norm(v[1] - v[0])
            assert abs(np.dot(n, v[1] - v[0])) < 1e-10 * scale
            assert abs(np.dot(n, v[2] - v[0])) < 1e-10 * scale


class TestInputCopied:
    def test_caller_array_stays_writable(self):
        base = generate_cube(4, 1).vertices.copy()
        SurfaceMesh(base)
        assert base.flags.writeable
        base += 10.0

    def test_later_writes_do_not_reach_mesh(self):
        base = generate_cube(4, 1).vertices.copy()
        mesh = SurfaceMesh(base[:])
        before = mesh.vertices.copy()
        base += 10.0
        assert np.array_equal(mesh.vertices, before)
        assert np.allclose(mesh.centroids, before.mean(axis=1))


class TestGenerateCube:
    def test_sample_problem_counts(self):
        mesh = generate_cube(4, 2)
        assert mesh.n_elements == 96
        assert mesh.n_dofs == 288

    def test_equal_areas(self):
        mesh = generate_cube(4, 2)
        assert np.allclose(mesh.areas, 1.0)
        assert mesh.areas.sum() == pytest.approx(96.0)

    def test_area_formula_various_k(self):
        for side, k in ((4.0, 1), (4.0, 3), (2.5, 2), (1.0, 5)):
            mesh = generate_cube(side, k)
            assert mesh.n_elements == 24 * k * k
            assert np.allclose(mesh.areas, side * side / (4 * k * k))

    def test_face_normals_axis_aligned_outward(self):
        mesh = generate_cube(4, 2)
        on_face = mesh.centroids[:, 1] == 4.0
        assert on_face.sum() == 16
        assert np.allclose(mesh.normals[on_face], [0, 1, 0])
        on_face = mesh.centroids[:, 0] == 0.0
        assert np.allclose(mesh.normals[on_face], [-1, 0, 0])

    def test_closure(self):
        for k in (1, 2, 3):
            mesh = generate_cube(4, k)
            res = np.linalg.norm(mesh.closure_residual())
            assert res <= 1e-10 * mesh.areas.sum()

    def test_outwardness_via_divergence(self):
        # div(x) = 3: closed-surface integral of x . n equals 3 * volume
        mesh = generate_cube(2, 2)
        flux = np.einsum("i,ij,ij->", mesh.areas, mesh.centroids, mesh.normals)
        assert flux == pytest.approx(3 * 8.0, rel=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_cube(0, 2)
        with pytest.raises(ValueError):
            generate_cube(4, 0)


class TestGenerateBox:
    def test_counts(self):
        mesh = generate_box((4, 4, 8), (5, 5, 10))
        assert mesh.n_elements == 8 * (5 * 5 + 5 * 10 + 10 * 5)
        assert mesh.n_elements == 1000
        assert mesh.n_dofs == 3000

    def test_closure_and_volume(self):
        mesh = generate_box((1, 2, 3), (2, 1, 3))
        assert np.linalg.norm(mesh.closure_residual()) <= 1e-10 * mesh.areas.sum()
        flux = np.einsum("i,ij,ij->", mesh.areas, mesh.centroids, mesh.normals)
        assert flux == pytest.approx(3 * 6.0, rel=1e-12)


class TestStl:
    def test_cube_binary_round_trip(self):
        mesh = generate_cube(4, 2)
        data = write_stl(mesh, binary=True)
        back = load_stl(data)
        assert back.n_elements == 96
        # binary STL stores float32
        assert np.abs(back.vertices - mesh.vertices).max() < 1e-6
        assert np.abs(back.areas - mesh.areas).max() < 1e-5
        assert np.abs(back.normals - mesh.normals).max() < 1e-6

    def test_cube_ascii_round_trip(self):
        mesh = generate_cube(4, 2)
        back = load_stl(write_stl(mesh, binary=False))
        assert back.n_elements == 96
        assert np.abs(back.vertices - mesh.vertices).max() < 1e-8

    def test_ascii_single_triangle_normal_recomputed(self):
        # junk normal in file: must be recomputed from CCW winding
        text = b"""solid demo
  facet normal 9 9 9
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 1 0
    endloop
  endfacet
endsolid demo
"""
        mesh = load_stl(text)
        assert mesh.n_elements == 1
        assert np.allclose(mesh.normals[0], [0, 0, 1])
        assert mesh.areas[0] == pytest.approx(0.5)

    def test_truncated_binary_rejected(self):
        mesh = generate_cube(4, 1)
        data = bytearray(write_stl(mesh, binary=True))
        struct.pack_into("<I", data, 80, 10)  # claim 10 facets, keep fewer
        data = bytes(data[: 84 + 3 * 50])
        with pytest.raises(StlParseError) as exc:
            load_stl(data)
        assert exc.value.offset == len(data)

    def test_header_too_short(self):
        with pytest.raises(StlParseError):
            load_stl(b"\x00" * 50)

    def test_zero_facets(self):
        data = b"\x00" * 80 + b"\x00\x00\x00\x00"
        with pytest.raises(EmptyMeshError):
            load_stl(data)

    def test_ascii_malformed_facet(self):
        text = b"solid x\n facet normal 0 0 1\n outer loop\n vertex 0 0 0\n endloop\n endfacet\nendsolid x\n"
        with pytest.raises(StlParseError):
            load_stl(text)

    def test_ascii_non_finite_coordinate(self):
        text = write_stl(generate_cube(4, 1), binary=False)
        second = text.index(b"facet", text.index(b"endfacet") + len(b"endfacet"))
        line = text.index(b"vertex", second)
        text = text[:line] + b"vertex nan 0 0" + text[text.index(b"\n", line) :]
        with pytest.raises(StlParseError) as exc:
            load_stl(text)
        assert exc.value.offset == second

    def test_binary_non_finite_coordinate(self):
        data = bytearray(write_stl(generate_cube(4, 1), binary=True))
        # facet 3, vertex 1, y: after the 12-byte normal and one vertex
        struct.pack_into("<f", data, 84 + 3 * 50 + 12 + 12 + 4, float("nan"))
        with pytest.raises(StlParseError) as exc:
            load_stl(bytes(data))
        assert exc.value.offset == 84 + 3 * 50

    def test_binary_with_solid_header_prefix(self):
        # binary files sometimes start with "solid" in their 80-byte header
        mesh = generate_cube(1, 1)
        data = bytearray(write_stl(mesh, binary=True))
        data[:5] = b"solid"
        back = load_stl(bytes(data))
        assert back.n_elements == 24


class TestValidate:
    def test_cube_clean(self):
        report = validate(generate_cube(4, 2))
        assert report.ok
        assert report.is_closed
        assert report.closure_residual_norm < 1e-12
        assert len(report.degenerate_indices) == 0

    def test_open_single_triangle(self):
        mesh = SurfaceMesh(np.array([[(0, 0, 0), (1, 0, 0), (0, 1, 0)]], dtype=float))
        report = validate(mesh)
        assert not report.is_closed
        assert report.closure_residual_norm == pytest.approx(0.5)

    def test_zero_area_facet_flagged(self):
        tris = np.array(
            [
                [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
            ],
            dtype=float,
        )
        report = validate(SurfaceMesh(tris))
        assert list(report.degenerate_indices) == [1]
        assert not report.ok
