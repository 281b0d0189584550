"""Dense influence-matrix assembly by centroid collocation.

Builds H (traction-kernel) and G (displacement-kernel) influence
matrices for the boundary integral identity H u = G t. Off-diagonal
3x3 blocks come from mapped Gauss quadrature over the field element;
H's diagonal blocks come from the rigid-body identity (a rigid
translation of a bounded body produces zero tractions, which pins each
row-block sum of H to zero and absorbs the free term together with the
strongly singular integral); G's diagonal blocks are weakly singular
and integrated either by centroid subdivision with the collapsed vertex
on the singular point, or by direct brute-force quadrature over the
whole element.

Off-diagonal blocks use the moment form of the kernels (see
:mod:`tribem.kernels`). Elements are flat, so for collocation point
c_i and field element j with centroid C_j, D = C_j - c_i gives
d.n_j = D.n_j at every quadrature point. A table of centred features
w [1, rho, rho rho^T], rho = y - C_j, is built once per assembly;
each collocation row then needs only 1/r, 1/r^3 and 1/r^5 at the
quadrature points and one contraction against that table, after which
every block follows from D, n_j and ten moments per weight. Subdivided
self-terms go through the same evaluator with D = 0 (features taken
about the collocation point); paper-faithful self-terms are the row's
own entry, which is exactly that D = 0 quadrature over the element.

integrate_pair and integrate_self_g evaluate the point kernels directly
and serve as the per-block reference.

DOF ordering is element-major: DOF d = 3 * element + axis.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryConditionError,
    DegenerateElementError,
    SolvabilityWarning,
)
from .kernels import (
    N_FEATURES,
    Material,
    QuadratureRule,
    collapsed_map,
    kelvin_blocks,
    kelvin_t_points,
    kelvin_u_points,
    kernel_moments,
    moment_features,
)
from .mesh import SurfaceMesh


@dataclass
class InfluenceMatrices:
    """Dense H and G operators (3N x 3N) for an N-element mesh."""

    h: np.ndarray
    g: np.ndarray
    n_elements: int

    @property
    def n_dofs(self):
        return 3 * self.n_elements


@dataclass
class BoundarySpec:
    """Per-DOF boundary data: which quantity is prescribed, and its value.

    ``displacement_known[d]`` True means u_d is prescribed (value in mm)
    and t_d is solved for; False means t_d is prescribed (N/mm^2) and
    u_d is solved for.
    """

    displacement_known: np.ndarray  # (3N,) bool
    values: np.ndarray  # (3N,) float

    def __post_init__(self):
        self.displacement_known = np.asarray(self.displacement_known, dtype=bool)
        self.values = np.asarray(self.values, dtype=float)
        if self.displacement_known.shape != self.values.shape:
            raise BoundaryConditionError("kind and value arrays differ in length")
        if self.displacement_known.ndim != 1:
            raise BoundaryConditionError("boundary spec must be one-dimensional")
        if not np.isfinite(self.values).all():
            raise BoundaryConditionError("boundary values must be finite")

    @property
    def n_dofs(self):
        return self.displacement_known.shape[0]

    @classmethod
    def all_traction(cls, n_dofs, values=None):
        vals = np.zeros(n_dofs) if values is None else np.asarray(values, dtype=float)
        return cls(np.zeros(n_dofs, dtype=bool), vals)

    def constrained_axes(self):
        """Which of x, y, z have at least one prescribed displacement."""
        mask = self.displacement_known.reshape(-1, 3)
        return mask.any(axis=0)


@dataclass
class LinearSystem:
    """Boundary-condition-rearranged system A x = b.

    ``swapped[d]`` records that column d was exchanged (displacement
    prescribed there, so x_d is a traction); the unknown vector mixes
    displacements and tractions accordingly.
    """

    a: np.ndarray
    b: np.ndarray
    swapped: np.ndarray  # (3N,) bool


@dataclass(frozen=True)
class QuadratureTable:
    """The mesh's mapped quadrature in moment form, read-only.

    ``points`` (3, N, Q) holds the physical points component-major;
    ``features`` (N, N_FEATURES, Q) holds w [1, rho, rho rho^T] with rho
    measured from each element's centroid. Built once per assembly and
    shared by every worker.
    """

    points: np.ndarray
    features: np.ndarray


def quadrature_table(mesh: SurfaceMesh, rule: QuadratureRule) -> QuadratureTable:
    """Map ``rule`` onto every element and tabulate its centred features."""
    v = mesh.vertices
    pts, w = collapsed_map(rule, v[:, 0], v[:, 1], v[:, 2])
    features = moment_features(pts, w, mesh.centroids[:, None, :])
    points = np.ascontiguousarray(np.moveaxis(pts, -1, 0))
    points.setflags(write=False)
    features.setflags(write=False)
    return QuadratureTable(points, features)


def integrate_pair(i, j, mesh: SurfaceMesh, mat: Material, rule: QuadratureRule):
    """Off-diagonal blocks H_ij, G_ij: kernels from collocation point i
    integrated over field element j. Requires i != j."""
    if i == j:
        raise ValueError("integrate_pair is for off-diagonal blocks only (i != j)")
    if mesh.areas[j] <= 0.0:
        raise DegenerateElementError(f"element {j} is degenerate")
    pts, w = collapsed_map(rule, *mesh.vertices[j])
    c = mesh.centroids[i]
    t_blocks = kelvin_t_points(c, pts, mesh.normals[j], mat)
    u_blocks = kelvin_u_points(c, pts, mat)
    h_ij = np.einsum("q,qab->ab", w, t_blocks)
    g_ij = np.einsum("q,qab->ab", w, u_blocks)
    return h_ij, g_ij


def integrate_self_g(
    i, mesh: SurfaceMesh, mat: Material, rule: QuadratureRule, strategy="subdivide"
):
    """Weakly singular diagonal block G_ii.

    strategy "subdivide": split the element into three sub-triangles at
    the centroid and integrate each with the collapsed vertex placed on
    the singular point, so the vanishing Jacobian cancels the 1/r
    growth. strategy "paper-faithful": direct mapped quadrature over the
    whole element, relying on point count alone.
    """
    v = mesh.vertices[i]
    c = mesh.centroids[i]
    if mesh.areas[i] <= 0.0:
        raise DegenerateElementError(f"element {i} is degenerate")

    if strategy == "paper-faithful":
        pts, w = collapsed_map(rule, *v)
        blocks = kelvin_u_points(c, pts, mat)
        return np.einsum("q,qab->ab", w, blocks)
    if strategy != "subdivide":
        raise ValueError(f"unknown self-integration strategy {strategy!r}")

    g_ii = np.zeros((3, 3))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        pts, w = collapsed_map(rule, c, v[a], v[b])
        blocks = kelvin_u_points(c, pts, mat)
        g_ii += np.einsum("q,qab->ab", w, blocks)
    return g_ii


def rigid_body_diagonal(off_diagonal_blocks):
    """Diagonal block H_ii = -sum of the row's off-diagonal blocks.

    The blocks must be ordered by ascending column element index; the
    reduction is numpy's deterministic pairwise sum over that order, so
    results are bit-reproducible across runs and worker counts.
    """
    blocks = np.asarray(off_diagonal_blocks, dtype=float)
    return -np.sum(blocks, axis=0)


_SELF_STRATEGIES = ("subdivide", "paper-faithful")
# Collocation rows per contraction. Each row holds 3 N Q doubles of work
# space per worker; 4 rows ran ~15% faster than 2 on the 96-element box
# but raised peak memory by ~3 MB, 2 rows kept it at the old level.
_ROW_BATCH = 2


def _subdivided_self_g(mesh: SurfaceMesh, mat: Material, rule: QuadratureRule, rows):
    """G_ii for each element in ``rows``: the three sub-triangles meeting
    at the centroid, each collapsed onto it, as one quadrature with D = 0."""
    b = len(rows)
    c = mesh.centroids[rows]
    v = mesh.vertices[rows]
    pts, w = collapsed_map(rule, c[:, None, :], v, v[:, [1, 2, 0]])
    pts = pts.reshape(b, -1, 3)
    features = moment_features(pts, w.reshape(b, -1), c[:, None, :])
    points = np.ascontiguousarray(np.moveaxis(pts, -1, 0))
    moments = kernel_moments(
        points, features, c.T[:, :, None], np.empty_like(points), np.empty((b, 3, N_FEATURES))
    )
    _, g = kelvin_blocks(moments, np.zeros((b, 3)), mesh.normals[rows], mat)
    return g


def assemble_rows(
    mesh: SurfaceMesh,
    mat: Material,
    rule: QuadratureRule,
    table: QuadratureTable,
    rows,
    h_out,
    g_out,
    strategy="subdivide",
):
    """Fill the collocation rows ``rows`` of preallocated H and G.

    Rows are taken two at a time: the radial weights 1/r, 1/r^3, 1/r^5
    from each row's collocation point to every quadrature point of the
    mesh are contracted against ``table`` (from :func:`quadrature_table`
    for the same mesh and rule), and the blocks follow from the moments,
    the centroid offsets D and the element normals (flat elements:
    d.n_j = D.n_j). Every (row, element) pair is its own fixed-shape
    contraction and writes are disjoint, so any partition of rows across
    workers, and any grouping of rows within one, yields bit-identical
    matrices. Then the diagonal
    blocks are set: H_ii by the rigid-body identity over the
    off-diagonal blocks in ascending column order, G_ii by singular
    integration (``strategy``, as in :func:`integrate_self_g`).
    """
    if strategy not in _SELF_STRATEGIES:
        raise ValueError(f"unknown self-integration strategy {strategy!r}")
    rows = np.asarray(rows, dtype=int)
    degenerate = rows[mesh.areas[rows] <= 0.0]
    if len(degenerate):
        raise DegenerateElementError(f"elements {degenerate.tolist()} are degenerate")
    n = mesh.n_elements
    work = np.empty((3, _ROW_BATCH) + table.points.shape[1:])
    moments = np.empty((_ROW_BATCH, n, 3, N_FEATURES))

    for start in range(0, len(rows), _ROW_BATCH):
        batch = rows[start : start + _ROW_BATCH]
        b = len(batch)
        c = mesh.centroids[batch]
        # The row's own element is evaluated too (D = 0): that is its
        # paper-faithful G_ii. It stays finite because every supported
        # order is even, so no Gauss point maps onto the centroid.
        kernel_moments(
            table.points, table.features, c.T[:, :, None, None], work[:, :b], moments[:b]
        )
        h, g = kelvin_blocks(moments[:b], mesh.centroids - c[:, None, :], mesh.normals, mat)
        if strategy == "subdivide":
            g[np.arange(b), batch] = _subdivided_self_g(mesh, mat, rule, batch)

        for i, row_h, row_g in zip(batch, h, g):
            others = np.concatenate([np.arange(0, i), np.arange(i + 1, n)])
            row_h[i] = rigid_body_diagonal(row_h[others])
            h_out[3 * i : 3 * i + 3, :] = row_h.transpose(1, 0, 2).reshape(3, 3 * n)
            g_out[3 * i : 3 * i + 3, :] = row_g.transpose(1, 0, 2).reshape(3, 3 * n)


def assemble(
    mesh: SurfaceMesh, mat: Material, rule: QuadratureRule, strategy="subdivide"
) -> InfluenceMatrices:
    """Assemble dense H and G for the whole mesh (sequentially).

    Deterministic: repeated assembly of the same mesh is bit-identical.
    A closed body needs at least 4 elements; degenerate facets are
    rejected up front.
    """
    bad = mesh.degenerate_indices()
    if len(bad):
        raise DegenerateElementError(f"mesh contains degenerate elements {bad.tolist()}")
    n3 = mesh.n_dofs
    h = np.empty((n3, n3))
    g = np.empty((n3, n3))
    table = quadrature_table(mesh, rule)
    assemble_rows(mesh, mat, rule, table, range(mesh.n_elements), h, g, strategy)
    return InfluenceMatrices(h, g, mesh.n_elements)


def _warn_if_underconstrained(bc: BoundarySpec):
    axes = bc.constrained_axes()
    if not axes.all():
        free = [ax for ax, ok in zip("xyz", axes) if not ok]
        warnings.warn(
            f"no prescribed displacement along {', '.join(free)}: rigid "
            "translation unconstrained, solution defined up to rigid modes",
            SolvabilityWarning,
            stacklevel=3,
        )


def apply_boundary_conditions(hg: InfluenceMatrices, bc: BoundarySpec) -> LinearSystem:
    """Rearrange H u = G t into A x = b under mixed boundary conditions.

    Traction-known DOF d keeps column d of H in A (unknown u_d) and
    sends G[:,d] * t_d to the right-hand side; displacement-known DOF d
    swaps in -G[:,d] (unknown t_d) and sends -H[:,d] * u_d to the
    right-hand side.
    """
    if bc.n_dofs != hg.n_dofs:
        raise BoundaryConditionError(
            f"boundary spec covers {bc.n_dofs} DOFs, system has {hg.n_dofs}"
        )
    _warn_if_underconstrained(bc)
    disp = bc.displacement_known
    a = hg.h.copy()
    a[:, disp] = -hg.g[:, disp]
    # zeroing values, not gathering columns, keeps b free of N x N copies
    b = hg.g @ np.where(disp, 0.0, bc.values) - hg.h @ np.where(disp, bc.values, 0.0)
    return LinearSystem(a, b, disp.copy())


def rhs_matrix(hg: InfluenceMatrices, bc: BoundarySpec):
    """Matrix B with b = B @ values: G columns where traction is known,
    -H columns where displacement is known. Pairs with A for the
    precomputed-operator path."""
    disp = bc.displacement_known
    m = hg.g.copy()
    m[:, disp] = -hg.h[:, disp]
    return m


# ---------------------------------------------------------------------------
# binary matrix dump
# ---------------------------------------------------------------------------

_MATRIX_MAGIC = b"TRIBEMMX"


def write_matrix(path, arr):
    """Dump a 2D float64 matrix: 16-byte header (magic, rows, cols) then
    row-major data."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("matrix dump expects a 2D array")
    with open(path, "wb") as f:
        f.write(_MATRIX_MAGIC)
        f.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        f.write(arr.tobytes())


def read_matrix(path):
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16 or header[:8] != _MATRIX_MAGIC:
            raise ValueError(f"{path} is not a tribem matrix dump")
        rows, cols = struct.unpack("<II", header[8:])
        data = np.frombuffer(f.read(), dtype=np.float64)
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {data.size}")
    return data.reshape(rows, cols).copy()


def matrix_summary(arr):
    arr = np.asarray(arr)
    return (
        f"shape {arr.shape[0]}x{arr.shape[1]}, "
        f"fro norm {np.linalg.norm(arr):.6e}, "
        f"max |entry| {np.abs(arr).max():.6e}"
    )
