import argparse
import re
import shlex
import struct
import time
from pathlib import Path

import pytest

from tribem import cli
from tribem.cli import main
from tribem.solver import apply_precomputed
from tribem.mesh import SurfaceMesh, generate_cube, write_stl

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


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

    @pytest.mark.parametrize("value", ["subdivide", "analytic", "paper-faithful"])
    @pytest.mark.parametrize("command", ["solve", "sweep", "precompute"])
    def test_self_quad_is_gone(self, command, value, tmp_path):
        argv = [command, "--cube", "4,1", "--self-quad", value]
        if command == "precompute":
            argv += ["--operator", str(tmp_path / "op")]
        assert main(argv) == 1

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

    def test_precomputed_table_shows_digits(self, capsys):
        # an apply takes microseconds; three fixed decimals read 0.000
        code = main(["sweep", "--mode", "precomputed", "--cube", "4,2", "--trials", "2"])
        assert code == 0
        row = next(l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("matvec_n288"))
        cells = row.split()[1:]
        assert len(cells) == 3  # two trials and the average
        assert all(re.search("[1-9]", c) for c in cells)

    def test_precomputed_problem_refuses_unused_flags(self, capsys):
        # a problem sweep times the problem alone: sizes and workers
        # would be dropped without a word
        code = main(["sweep", "--mode", "precomputed", "--cube", "4,1",
                     "--size", "50", "--workers", "1,4"])
        assert code == 1
        assert "--size, --workers" in capsys.readouterr().err

    def test_direct_refuses_size(self, capsys):
        assert main(["sweep", "--cube", "4,1", "--size", "50"]) == 1
        assert "--size" in capsys.readouterr().err

    def test_precomputed_mode_synthetic(self, capsys):
        # the precomputed mode times a problem's apply; synthetic sizes
        # are the dummy mode's
        code = main(["sweep", "--mode", "precomputed", "--size", "120", "--trials", "2"])
        assert code == 1
        assert "--size" in capsys.readouterr().err
        assert main(["sweep", "--mode", "precomputed", "--trials", "2"]) == 1
        assert "needs a problem" in capsys.readouterr().err

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
        assert (opdir / "greens.mat").exists()

        out = tmp_path / "sol.csv"
        code = main(
            ["apply", "--operator", str(opdir), "--mesh", str(cube_stl),
             "--bc", str(cube_bc), "--report", str(out)]
        )
        assert code == 0
        assert "applied precomputed operator" in capsys.readouterr().out
        assert out.exists()

    def test_apply_prints_median_of_steady_applies(
        self, capsys, monkeypatch, tmp_path, cube_stl, cube_bc
    ):
        opdir = tmp_path / "op"
        assert main(["precompute", "--mesh", str(cube_stl), "--bc", str(cube_bc),
                     "--quad", "4", "--operator", str(opdir)]) == 0
        calls = []

        def slow_first(op, bc):
            calls.append(bc)
            if len(calls) == 1:
                time.sleep(0.5)  # a cold first call, as after loading
            return apply_precomputed(op, bc)

        monkeypatch.setattr(cli, "apply_precomputed", slow_first)
        capsys.readouterr()
        assert main(["apply", "--operator", str(opdir), "--mesh", str(cube_stl),
                     "--bc", str(cube_bc)]) == 0
        assert len(calls) == 1 + cli.APPLY_REPEATS
        line = capsys.readouterr().out.splitlines()[0]
        printed = float(re.search(r"median ([0-9.]+) s over (\d+)", line).group(1))
        assert f"over {cli.APPLY_REPEATS} repeat applies" in line
        assert printed < 0.25

    def test_generated_cube_applies_to_its_stl(self, tmp_path, cube_stl, cube_bc):
        # the fingerprint hashes vertices at STL precision, so a cube
        # precomputed from the generator matches its STL
        opdir = tmp_path / "op"
        assert main(["precompute", "--cube", "4,2", "--quad", "4",
                     "--operator", str(opdir)]) == 0
        assert main(["apply", "--operator", str(opdir), "--mesh", str(cube_stl),
                     "--bc", str(cube_bc)]) == 0

    def test_other_geometry_is_stale(self, capsys, tmp_path, cube_stl, cube_bc):
        # same element count and BC kinds, twice the size: the operator
        # would give displacements off by 2x
        opdir = tmp_path / "op"
        assert main(["precompute", "--mesh", str(cube_stl), "--bc", str(cube_bc),
                     "--quad", "4", "--operator", str(opdir)]) == 0
        big = tmp_path / "big.stl"
        big.write_bytes(write_stl(generate_cube(8, 2)))
        big_bc = tmp_path / "big.bc"
        big_bc.write_text("plane x 0 : xyz = displacement 0\nplane x 8 : y = traction 4\n")
        capsys.readouterr()
        code = main(["apply", "--operator", str(opdir), "--mesh", str(big),
                     "--bc", str(big_bc)])
        assert code == 2
        assert str(big) in capsys.readouterr().err

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


class TestReadme:
    """The README's command lines and flags match the parser, so a
    removed flag cannot linger in the docs."""

    def test_commands_parse(self):
        lines = [
            line.strip()
            for block in re.findall(r"```sh\n(.*?)```", README, re.DOTALL)
            for line in block.replace("\\\n", " ").splitlines()
            if line.strip().startswith("tribem ")
        ]
        assert len(lines) >= 7
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line, comments=True)[1:])

    def test_flags_exist(self):
        section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {flag for p in sub.choices.values() for flag in p._option_string_actions}
        named = set(re.findall(r"--[a-z][a-z-]*", section))
        assert named and named <= options, named - options
