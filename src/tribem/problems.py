"""Problem setup: the benchmark cube, box variants, and BC files.

The sample benchmark body is a 4 mm cube with one face completely
fixed and a 4 N/mm^2 traction applied along y over the opposite face
(a stubby cantilever); each face carries 16 constant elements at the
default subdivision, giving 96 elements and 288 equations.

Boundary conditions for arbitrary meshes come from a small line-based
text format mapping element selectors to per-axis prescriptions:

    # fix the x = 0 face, shear the opposite face along +y
    plane x 0   : xyz = displacement 0
    plane x 4   : y   = traction 4
    ids 12,13   : z   = traction -1
    all         : ...

Each line is ``<selector> : <assignment> [, <assignment>]*``.
Selectors: ``plane <axis> <coord> [tol <t>]`` matches elements whose
centroid coordinate lies within ``tol`` of ``coord`` (default
1e-9 x bounding-box diagonal); ``ids i,j,...`` explicit element list;
``all`` every element. Assignments: ``<axes> = <kind> <value>`` with
axes a subset of ``xyz`` (or ``all``) and kind ``displacement``/``u``
or ``traction``/``t``. Later lines override earlier ones; DOFs no line
covers default to zero prescribed traction (free surface).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import BoundarySpec
from .errors import BcFileError
from .kernels import Material, make_material
from .mesh import SurfaceMesh, generate_box

_AXES = {"x": 0, "y": 1, "z": 2}
# prescribed-quantity names, matched case-insensitively -> displacement known
_KINDS = {"displacement": True, "u": True, "traction": False, "t": False}


@dataclass
class Problem:
    """A mesh with material and boundary data, ready to assemble."""

    mesh: SurfaceMesh
    material: Material
    bc: BoundarySpec
    label: str = ""


class BcBuilder:
    """Accumulate per-axis prescriptions over element selections."""

    def __init__(self, mesh: SurfaceMesh):
        self.mesh = mesh
        n = mesh.n_dofs
        # free surface by default: zero prescribed traction
        self.displacement_known = np.zeros(n, dtype=bool)
        self.values = np.zeros(n)

    def set(self, element_ids, axes, kind, value):
        """Prescribe ``kind`` (a key of ``_KINDS``, any case) at ``value``
        on ``axes`` (distinct letters of ``xyz``, or ``all``, any case) of
        the given elements. Raises ``ValueError`` before changing anything
        if either is unknown."""
        known = _KINDS.get(kind.lower())
        if known is None:
            raise ValueError(f"unknown kind {kind!r}")
        axes = _parse_axes(axes)
        ids = np.asarray(element_ids, dtype=int)
        if ids.size and (ids.min() < 0 or ids.max() >= self.mesh.n_elements):
            raise ValueError("element id outside mesh")
        for ax in axes:
            dofs = 3 * ids + _AXES[ax]
            self.displacement_known[dofs] = known
            self.values[dofs] = value
        return self

    def on_plane(self, axis, coord, tol=None):
        """Ids of the elements whose centroid lies on an axis-aligned plane."""
        if tol is None:
            lo = self.mesh.vertices.reshape(-1, 3).min(axis=0)
            hi = self.mesh.vertices.reshape(-1, 3).max(axis=0)
            tol = 1e-9 * float(np.linalg.norm(hi - lo))
        return np.flatnonzero(
            np.abs(self.mesh.centroids[:, _AXES[axis]] - coord) <= tol
        )

    def build(self) -> BoundarySpec:
        return BoundarySpec(self.displacement_known.copy(), self.values.copy())


def cube_problem(
    side=4.0,
    k=2,
    e=200000.0,
    nu=0.33,
    traction=4.0,
    fixed_axis="x",
    load_axis="y",
) -> Problem:
    """The benchmark cube: one face fixed, uniform traction opposite.

    The face normal to ``fixed_axis`` at coordinate 0 is fully fixed
    (all three displacement components zero); the opposite face carries
    the given traction along ``load_axis``. Remaining faces are
    traction-free. Defaults reproduce the 288-equation sample problem.
    """
    box = box_problem((side,) * 3, (k,) * 3, e, nu, traction, fixed_axis, load_axis)
    return Problem(box.mesh, box.material, box.bc, f"cube side={side:g} k={k}")


def box_problem(
    lengths,
    divisions,
    e=200000.0,
    nu=0.33,
    traction=4.0,
    fixed_axis="x",
    load_axis="y",
) -> Problem:
    """Box analogue of :func:`cube_problem`, which is its equal-sided case."""
    mesh = generate_box(lengths, divisions)
    mat = make_material(e, nu)
    extent = lengths[_AXES[fixed_axis]]
    builder = BcBuilder(mesh)
    builder.set(builder.on_plane(fixed_axis, 0.0), "xyz", "displacement", 0.0)
    builder.set(builder.on_plane(fixed_axis, extent), load_axis, "traction", traction)
    return Problem(
        mesh, mat, builder.build(), f"box {lengths[0]:g}x{lengths[1]:g}x{lengths[2]:g}"
    )


def _parse_axes(token):
    token = token.strip().lower()
    if token == "all":
        return "xyz"
    if token and all(ch in _AXES for ch in token) and len(set(token)) == len(token):
        return token
    raise ValueError(f"bad axis spec {token!r}")


def parse_bc_file(text, mesh: SurfaceMesh) -> BoundarySpec:
    """Parse the BC text format (see module docstring) against a mesh."""
    builder = BcBuilder(mesh)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            selector_part, _, rhs = line.partition(":")
            if not rhs:
                raise ValueError("missing ':' between selector and assignments")
            ids = _parse_selector(selector_part.strip(), builder)
            for clause in rhs.split(","):
                axes_part, _, spec = clause.partition("=")
                if not spec:
                    raise ValueError(f"missing '=' in assignment {clause.strip()!r}")
                axes = _parse_axes(axes_part)
                fields = spec.split()
                if len(fields) != 2:
                    raise ValueError(f"assignment needs '<kind> <value>', got {spec.strip()!r}")
                kind, value_token = fields
                value = float(value_token)
                if not math.isfinite(value):
                    raise ValueError(f"value must be finite, got {value_token!r}")
                builder.set(ids, axes, kind, value)
        except ValueError as exc:
            raise BcFileError(f"line {lineno}: {exc}") from None
    return builder.build()


def _parse_selector(text, builder: BcBuilder):
    fields = text.split()
    if not fields:
        raise ValueError("empty selector")
    head = fields[0].lower()
    if head == "all":
        if len(fields) != 1:
            raise ValueError("'all' takes no arguments")
        return np.arange(builder.mesh.n_elements)
    if head == "plane":
        if len(fields) not in (3, 5):
            raise ValueError("expected 'plane <axis> <coord> [tol <t>]'")
        axis = fields[1].lower()
        if axis not in _AXES:
            raise ValueError(f"bad axis {fields[1]!r}")
        coord = float(fields[2])
        if not math.isfinite(coord):
            raise ValueError(f"plane coordinate must be finite, got {fields[2]!r}")
        tol = None
        if len(fields) == 5:
            if fields[3].lower() != "tol":
                raise ValueError("expected 'tol <t>'")
            tol = float(fields[4])
            if not (math.isfinite(tol) and tol >= 0):
                raise ValueError(f"plane tolerance must be finite and >= 0, got {fields[4]!r}")
        return builder.on_plane(axis, coord, tol)
    if head == "ids":
        if len(fields) != 2:
            raise ValueError("expected 'ids i,j,...'")
        try:
            return np.array([int(s) for s in fields[1].split(",") if s], dtype=int)
        except ValueError:
            raise ValueError(f"bad id list {fields[1]!r}") from None
    raise ValueError(f"unknown selector {head!r}")


def load_bc_file(path, mesh: SurfaceMesh) -> BoundarySpec:
    with open(path) as f:
        return parse_bc_file(f.read(), mesh)
