import struct

import pytest

from tribem.cli import main
from tribem.mesh import SurfaceMesh, generate_cube, write_stl


@pytest.fixture()
def cube_stl(tmp_path):
    path = tmp_path / "cube.stl"
    path.write_bytes(write_stl(generate_cube(4, 2)))
    return path


@pytest.fixture()
def cube_bc(tmp_path):
    path = tmp_path / "cube.bc"
    path.write_text(
        "plane x 0 : xyz = displacement 0\nplane x 4 : y = traction 4\n"
    )
    return path


class TestSolve:
    def test_cube_solve(self, capsys, tmp_path):
        out = tmp_path / "sol.csv"
        code = main(["solve", "--cube", "4,2", "--report", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "96 / 288" in text
        assert out.exists()

    def test_stl_with_bc_file(self, capsys, cube_stl, cube_bc):
        code = main(["solve", "--mesh", str(cube_stl), "--bc", str(cube_bc)])
        assert code == 0
        assert "96 / 288" in capsys.readouterr().out

    def test_mesh_without_bc_is_io_error(self, cube_stl):
        assert main(["solve", "--mesh", str(cube_stl)]) == 3

    def test_non_finite_bc_value_is_input_error(self, capsys, cube_stl, tmp_path):
        bc = tmp_path / "nan.bc"
        bc.write_text("plane x 0 : xyz = displacement 0\nplane x 4: x = t nan\n")
        assert main(["solve", "--mesh", str(cube_stl), "--bc", str(bc)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_plane_tolerance_is_input_error(self, capsys, cube_stl, tmp_path):
        bc = tmp_path / "tol.bc"
        bc.write_text("plane x 0 : xyz = displacement 0\nplane x 4 tol inf : x = t 1\n")
        assert main(["solve", "--mesh", str(cube_stl), "--bc", str(bc)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_io_error(self):
        assert main(["solve", "--mesh", "/no/such/file.stl", "--bc", "x"]) == 3


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["solve", "--frobnicate"]) == 1

    def test_bad_cube_spec(self):
        assert main(["solve", "--cube", "banana"]) == 1

    def test_bad_quad_order(self):
        assert main(["solve", "--cube", "4,1", "--quad", "7"]) == 1

    @pytest.mark.parametrize("flag", ["--workers"])
    def test_solve_takes_one_value_not_a_list(self, flag):
        # sweep takes lists; solve runs one configuration and must not
        # drop the rest of a list without a word
        assert main(["solve", "--cube", "4,1", flag, "2,4"]) == 1


class TestValidateCommand:
    def test_cube(self, capsys):
        assert main(["validate", "--cube", "4,2"]) == 0
        out = capsys.readouterr().out
        assert "96" in out and "closed" in out

    def test_stl(self, capsys, cube_stl):
        assert main(["validate", "--mesh", str(cube_stl)]) == 0

    def test_garbage_stl_io_error(self, tmp_path):
        bad = tmp_path / "bad.stl"
        bad.write_bytes(b"\x01" * 60)
        assert main(["validate", "--mesh", str(bad)]) == 3

    @pytest.mark.parametrize("binary", [False, True])
    def test_non_finite_stl_input_error(self, capsys, tmp_path, binary):
        data = write_stl(generate_cube(4, 1), binary=binary)
        if binary:
            data = bytearray(data)
            data[84 + 12 : 84 + 16] = struct.pack("<f", float("nan"))
        else:
            data = data.replace(b"vertex 0.000000000e+00", b"vertex nan", 1)
        bad = tmp_path / "nan.stl"
        bad.write_bytes(bytes(data))
        assert main(["validate", "--mesh", str(bad)]) == 3
        assert "non-finite" in capsys.readouterr().err


class TestSweepCommand:
    def test_dummy_table(self, capsys):
        code = main(
            ["sweep", "--mode", "dummy", "--size", "60,90", "--trials", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dummy_n60" in out and "Average" in out

    def test_cube_sweep_csv(self, capsys, tmp_path):
        report = tmp_path / "r.csv"
        code = main(
            [
                "sweep", "--cube", "4,1", "--trials", "1",
                "--workers", "1,2", "--block-sizes", "8",
                "--report", str(report), "--format", "csv",
            ]
        )
        assert code == 0
        text = report.read_text()
        assert text.startswith("config_id,")
        assert "w2_b8" in text
        assert "invariant" in capsys.readouterr().out

    def test_precomputed_mode_synthetic(self, capsys):
        code = main(["sweep", "--mode", "precomputed", "--size", "120", "--trials", "2"])
        assert code == 0
        assert "matvec_n120" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["direct", "precomputed"])
    def test_degenerate_facet_is_numerical_error(self, capsys, tmp_path, cube_bc, mode):
        # every cell of a sweep computes the same solution, so the
        # element's error must stop the sweep, not become an empty table
        mesh = generate_cube(4, 2)
        verts = mesh.vertices.copy()
        verts[5, 2] = verts[5, 0]
        path = tmp_path / "degen.stl"
        path.write_bytes(write_stl(SurfaceMesh(verts)))
        code = main(["sweep", "--mesh", str(path), "--bc", str(cube_bc),
                     "--mode", mode, "--trials", "1", "--quad", "4"])
        assert code == 2
        assert "degenerate elements [5]" in capsys.readouterr().err


class TestPrecomputeApply:
    def test_round_trip(self, capsys, tmp_path, cube_stl, cube_bc):
        opdir = tmp_path / "op"
        code = main(
            ["precompute", "--mesh", str(cube_stl), "--bc", str(cube_bc),
             "--operator", str(opdir)]
        )
        assert code == 0
        assert (opdir / "a_inv.mat").exists()

        out = tmp_path / "sol.csv"
        code = main(
            ["apply", "--operator", str(opdir), "--mesh", str(cube_stl),
             "--bc", str(cube_bc), "--report", str(out)]
        )
        assert code == 0
        assert "applied precomputed operator" in capsys.readouterr().out
        assert out.exists()

    def test_stale_operator_numerical_error(self, tmp_path, cube_stl, cube_bc):
        opdir = tmp_path / "op"
        main(["precompute", "--mesh", str(cube_stl), "--bc", str(cube_bc),
              "--operator", str(opdir)])
        other_bc = tmp_path / "other.bc"
        other_bc.write_text("plane y 0 : xyz = displacement 0\n")
        code = main(
            ["apply", "--operator", str(opdir), "--mesh", str(cube_stl),
             "--bc", str(other_bc)]
        )
        assert code == 2
