import numpy as np
import pytest

from tribem.errors import BcFileError
from tribem.mesh import generate_cube
from tribem.problems import BcBuilder, box_problem, cube_problem, parse_bc_file


class TestCubeProblem:
    def test_sample_problem_shape(self):
        prob = cube_problem()
        assert prob.mesh.n_elements == 96
        assert prob.bc.n_dofs == 288
        assert prob.bc.displacement_known.sum() == 48  # 16 elements x 3

    def test_fixed_face_fully_clamped(self):
        prob = cube_problem()
        fixed = prob.mesh.centroids[:, 0] == 0.0
        mask = prob.bc.displacement_known.reshape(-1, 3)
        assert mask[fixed].all()
        assert not mask[~fixed].any()
        assert np.all(prob.bc.values[prob.bc.displacement_known] == 0.0)

    def test_loaded_face_traction(self):
        prob = cube_problem()
        loaded = prob.mesh.centroids[:, 0] == 4.0
        vals = prob.bc.values.reshape(-1, 3)
        assert np.all(vals[loaded, 1] == 4.0)
        assert np.all(vals[loaded, 0] == 0.0)
        free = ~(loaded | (prob.mesh.centroids[:, 0] == 0.0))
        assert np.all(vals[free] == 0.0)

    def test_material(self):
        prob = cube_problem()
        assert prob.material.e == 200000.0
        assert prob.material.nu == 0.33

    def test_orientation_options(self):
        prob = cube_problem(fixed_axis="y", load_axis="y")
        fixed = prob.mesh.centroids[:, 1] == 0.0
        assert prob.bc.displacement_known.reshape(-1, 3)[fixed].all()


class TestBoxProblem:
    def test_dof_total(self):
        prob = box_problem((4, 4, 8), (5, 5, 10))
        assert prob.mesh.n_dofs == 3000
        # fixed face x=0 spans y,z: 5*10 squares, 4 triangles each
        assert prob.bc.displacement_known.sum() == 3 * 4 * 5 * 10

    @pytest.mark.parametrize("make", [box_problem, cube_problem], ids=["box", "cube"])
    def test_unknown_fixed_axis_rejected(self, make):
        args = ((4, 4, 8), (1, 1, 2)) if make is box_problem else ()
        with pytest.raises(ValueError, match="bad axis 'w'"):
            make(*args, fixed_axis="w")


class TestBcBuilder:
    @pytest.mark.parametrize(
        "kind, known",
        [("displacement", True), ("Displacement", True), ("u", True), ("U", True),
         ("traction", False), ("T", False)],
    )
    def test_kind_names(self, kind, known):
        bc = BcBuilder(generate_cube(4, 1)).set([0, 2], "xz", kind, 0.5).build()
        dofs = [0, 2, 6, 8]
        assert np.array_equal(bc.displacement_known[dofs], [known] * 4)
        assert np.all(bc.values[dofs] == 0.5)

    def test_unknown_kind_rejected(self):
        builder = BcBuilder(generate_cube(4, 1))
        with pytest.raises(ValueError, match="unknown kind 'wobble'"):
            builder.set([0], "x", "wobble", 1.0)
        assert not builder.displacement_known.any() and not builder.values.any()

    @pytest.mark.parametrize(
        "axes, dofs", [("X", [0]), ("zy", [1, 2]), ("all", [0, 1, 2]), ("ALL", [0, 1, 2])]
    )
    def test_axis_names(self, axes, dofs):
        bc = BcBuilder(generate_cube(4, 1)).set([0], axes, "u", 0.5).build()
        assert np.flatnonzero(bc.displacement_known).tolist() == dofs
        assert np.flatnonzero(bc.values).tolist() == dofs

    @pytest.mark.parametrize("axes", ["w", "xx", "", "x y"])
    def test_unknown_axes_rejected(self, axes):
        builder = BcBuilder(generate_cube(4, 1))
        with pytest.raises(ValueError, match="bad axis spec"):
            builder.set([0], axes, "u", 1.0)
        assert not builder.displacement_known.any() and not builder.values.any()


    @pytest.mark.parametrize("axis", ["w", "xy", ""])
    def test_unknown_plane_axis_rejected(self, axis):
        with pytest.raises(ValueError, match=f"bad axis {axis!r}"):
            BcBuilder(generate_cube(4, 1)).on_plane(axis, 0.0)


class TestBcFile:
    def test_cube_equivalent_via_file(self):
        mesh = generate_cube(4, 2)
        text = """
# benchmark cube: clamp x=0, shear the opposite face along +y
plane x 0 : xyz = displacement 0
plane x 4 : y = traction 4
"""
        bc = parse_bc_file(text, mesh)
        ref = cube_problem().bc
        assert np.array_equal(bc.displacement_known, ref.displacement_known)
        assert np.array_equal(bc.values, ref.values)

    def test_ids_selector_and_override(self):
        mesh = generate_cube(4, 1)
        text = """
all : z = traction 1
ids 0,2 : z = displacement 5
"""
        bc = parse_bc_file(text, mesh)
        kinds = bc.displacement_known.reshape(-1, 3)
        vals = bc.values.reshape(-1, 3)
        assert kinds[0, 2] and kinds[2, 2] and not kinds[1, 2]
        assert vals[0, 2] == 5.0 and vals[1, 2] == 1.0

    def test_default_free_surface(self):
        mesh = generate_cube(4, 1)
        bc = parse_bc_file("ids 0 : x = u 1\n", mesh)
        assert bc.displacement_known.sum() == 1
        assert np.all(bc.values[1:] == 0.0)

    def test_plane_tolerance(self):
        mesh = generate_cube(4, 1)
        bc = parse_bc_file("plane x 0.05 tol 0.1 : all = u 0\n", mesh)
        fixed = mesh.centroids[:, 0] == 0.0
        assert bc.displacement_known.reshape(-1, 3)[fixed].all()

    @pytest.mark.parametrize(
        "bad",
        [
            "plane q 0 : x = u 0",
            "plane x : x = u 0",
            "ids 0 : w = u 0",
            "ids 0 : x = wobble 0",
            "ids 0 : x = u",
            "ids zero : x = u 0",
            "nonsense here",
            "ids 99999 : x = u 0",
        ],
    )
    def test_malformed_lines(self, bad):
        mesh = generate_cube(4, 1)
        with pytest.raises(BcFileError):
            parse_bc_file(bad + "\n", mesh)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, value):
        mesh = generate_cube(4, 1)
        text = f"plane x 0 : xyz = u 0\nplane x 4 : x = t {value}\n"
        with pytest.raises(BcFileError, match="line 2"):
            parse_bc_file(text, mesh)

    @pytest.mark.parametrize(
        "selector", ["plane x nan", "plane x inf", "plane x 4 tol -1", "plane x 4 tol inf"]
    )
    def test_bad_plane_numbers_name_line(self, selector):
        # each used to select no element, or every element, without a word
        mesh = generate_cube(4, 1)
        text = f"plane x 0 : xyz = u 0\n{selector} : x = t 1\n"
        with pytest.raises(BcFileError, match="line 2"):
            parse_bc_file(text, mesh)

    def test_comments_and_blanks_ignored(self):
        mesh = generate_cube(4, 1)
        bc = parse_bc_file("\n# nothing\n   \n", mesh)
        assert not bc.displacement_known.any()
