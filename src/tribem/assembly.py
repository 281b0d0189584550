"""Dense influence-matrix assembly by centroid collocation.

Builds H (traction-kernel) and G (displacement-kernel) influence
matrices for the boundary integral identity H u = G t. Off-diagonal
3x3 blocks come from mapped Gauss quadrature over the field element;
H's diagonal blocks come from the rigid-body identity (a rigid
translation of a bounded body produces zero tractions, which pins each
row-block sum of H to zero and absorbs the free term together with the
strongly singular integral); G's diagonal blocks are weakly singular
and taken either in closed form ("analytic", the default: the centroid
lies in the flat element's plane, so the integral is exact in polar
coordinates about it) or by direct brute-force quadrature over the
whole element ("paper-faithful", the paper's own method).

Off-diagonal blocks use the moment form of the kernels (see
:mod:`tribem.kernels`). Elements are flat, so for collocation point
c_i and field element j with centroid C_j, D = C_j - c_i gives
d.n_j = D.n_j at every quadrature point. The quadrature enters through
factors that depend on the rule alone (its monomials of the reference
offset p and their weighted products), computed once per rule and
passed to the sweep as it is; per element the sweep derives from the
mesh's vertices only the map's Jacobian J_j, its Gram entries and the
moment transform T_j, a few numbers whatever the rule's size.
The sweep then runs over field elements, the column blocks of H and G:
for element j, r^2 at every quadrature point from every collocation
point is one product, the radial weights 1/r, 1/r^3, 1/r^5 follow with
one division and one square root per point, and two more products give
their moments, after which every block of the column follows from D,
n_j and ten moments per weight. For a chunk of a few field elements,
each of the nine entries (a, b) of the blocks is one array over
(element, collocation point), written straight into its place. H and G
are column-major (Fortran order), the layout LAPACK reads, so a chunk's
entries land in one contiguous slab of columns, and the system matrix
A built from them reaches the LU with no conversion. A column block
depends on no other column, so any split of the elements gives
bit-identical matrices, and a parallel run gives each worker a
contiguous range of field elements.
After the sweep one pass sets the diagonal blocks: H_ii from the rigid-body identity over
the finished rows, G_ii from the mesh's closed-form self-integrals
or, for paper-faithful, left at the row's own D = 0 entry, which is
exactly the quadrature over the element.

integrate_self_g evaluates one diagonal block G_ii on its own and
serves as the reference for the assembled diagonal.

DOF ordering is element-major: DOF d = 3 * element + axis.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .errors import (
    BoundaryConditionError,
    DegenerateElementError,
    SolvabilityWarning,
)
from .kernels import (
    N_FEATURES,
    N_MONOMIALS,
    Material,
    QuadratureRule,
    centroid_self_integrals,
    collapsed_map,
    kelvin_block_columns,
    kelvin_self_g,
    kelvin_u_points,
    radial_moments,
    triangle_transforms,
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


SELF_STRATEGIES = ("analytic", "paper-faithful")


def check_self_strategy(strategy):
    """Reject a self-integration strategy outside ``SELF_STRATEGIES``,
    before any work is spent on it."""
    if strategy not in SELF_STRATEGIES:
        raise ValueError(f"unknown self-integration strategy {strategy!r}")


def reject_degenerate(mesh: SurfaceMesh, elements: range):
    """Raise :class:`DegenerateElementError` naming those of ``elements``
    (a contiguous range) that fail the mesh's scale-relative area
    threshold (:meth:`SurfaceMesh.degenerate_indices`)."""
    bad = mesh.degenerate_indices()
    bad = bad[(bad >= elements.start) & (bad < elements.stop)]
    if len(bad):
        raise DegenerateElementError(f"mesh contains degenerate elements {bad.tolist()}")


def integrate_self_g(
    i, mesh: SurfaceMesh, mat: Material, rule: QuadratureRule, strategy="analytic"
):
    """Weakly singular diagonal block G_ii.

    strategy "analytic": the exact integral over the flat element from
    its centroid, in closed form (:func:`centroid_self_integrals`); the
    rule is not used. strategy "paper-faithful": direct mapped
    quadrature over the whole element, relying on point count alone.
    """
    check_self_strategy(strategy)
    reject_degenerate(mesh, range(i, i + 1))
    v = mesh.vertices[i]
    c = mesh.centroids[i]
    if strategy == "analytic":
        return kelvin_self_g(*centroid_self_integrals(v, c), mat)
    pts, w = collapsed_map(rule, *v)
    blocks = kelvin_u_points(c, pts, mat)
    return np.einsum("q,qab->ab", w, blocks)


def rigid_body_diagonal(off_diagonal_blocks):
    """Diagonal block H_ii = -sum of the row's off-diagonal blocks.

    The blocks are stacked along the first axis in ascending column
    element index (any trailing axes are summed independently). numpy's
    summation order depends only on the input's shape and memory
    layout, so for a fixed shape and layout the result is bit-identical
    across runs and worker counts.
    """
    blocks = np.asarray(off_diagonal_blocks, dtype=float)
    return -np.sum(blocks, axis=0)


# Field elements per kelvin_block_columns call: their moments, 240 bytes
# per collocation point each, take about this much (11 elements on the
# 96-element box), but never fewer than _MIN_CHUNK elements, since each
# call costs ~130 numpy calls whatever its size (4 on the 1000-element
# box, where 256 KB holds one). Over 60 two-worker requests on
# 96-element boxes at q=16 (2-vCPU VM, two runs each), peak RSS read
# 63.7-64.4 MB with 128 KB chunks, 64.2-65.3 MB with 256 KB and
# 64.2-64.3 MB with 512 KB; a request took a median 28-35 ms, 24.0 ms
# and 24.0-24.6 ms.
_CHUNK_BYTES = 1 << 18
_MIN_CHUNK = 4


def allocate_influence(n_dofs):
    """Empty H and G for ``n_dofs`` DOFs, column-major: the layout
    :func:`assemble_columns` fills and LAPACK reads, so nothing
    downstream converts them."""
    return np.empty((n_dofs, n_dofs), order="F"), np.empty((n_dofs, n_dofs), order="F")


def _block_view(m, n):
    """A column-major (3n, 3n) matrix as the (n, 3, n, 3) blocks of its
    transpose: [j, b, i, a] is entry (3i + a, 3j + b), and writes reach
    ``m``."""
    if not m.flags.f_contiguous:
        raise ValueError("H and G must be F-contiguous to be filled in place")
    return m.T.reshape(n, 3, n, 3)


def assemble_columns(
    mesh: SurfaceMesh, mat: Material, rule: QuadratureRule, elements: range, h_out, g_out
):
    """Fill the off-diagonal column blocks of field elements ``elements``
    (a contiguous range) in H and G from :func:`allocate_influence`.

    For each field element j, r^2 from every collocation point to its
    quadrature points is one (N x 6)(6 x Q) product against the rule's
    monomials, the radial weights follow pointwise, and their moments
    are one (3N x Q)(Q x 6) product against the rule's features and one
    (3N x 6)(6 x 10) product against the element's transform (see
    :func:`radial_moments`). The transforms of the range's elements
    come from one :func:`triangle_transforms` call over their vertices.
    :func:`kelvin_block_columns` then turns the moments, the centroid
    offsets D and the element normals (flat elements: d.n_j = D.n_j) of
    a chunk of elements into the nine entries of their blocks, each
    written straight into the chunk's contiguous slab of columns. Every
    element's products have the same shapes, the transforms and the
    entries are elementwise and writes are disjoint, so any partition
    of elements across workers, and any chunking within one, yields
    bit-identical matrices. The diagonal blocks hold the D = 0
    entries until :func:`set_diagonal_blocks` runs.
    """
    reject_degenerate(mesh, elements)
    n = mesh.n_elements
    h4, g4 = _block_view(h_out, n), _block_view(g_out, n)
    chunk = max(_MIN_CHUNK, _CHUNK_BYTES // (3 * n * N_FEATURES * 8))
    work = np.empty((3, n, rule.n_points))
    moments = np.empty((chunk, 3, n, N_FEATURES))
    sources = np.empty((chunk, n, N_MONOMIALS))
    # indexed relative to elements.start: element j is row j - elements.start
    jacobians, gram, transforms = triangle_transforms(
        mesh.vertices[elements.start : elements.stop]
    )

    for lo in range(0, len(elements), chunk):
        local = slice(lo, min(lo + chunk, len(elements)))
        cols = slice(elements.start + local.start, elements.start + local.stop)
        k = local.stop - local.start
        d = mesh.centroids[cols, None, :] - mesh.centroids  # (k, N, 3): D = C_j - c_i
        # each source's row [|D|^2, 2 J^T D, Gram entries]; the stacked
        # product is one (N x 3)(3 x 2) product per element, whatever k is
        sources[:k, :, 0] = d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
        np.matmul(d, 2.0 * jacobians[local], out=sources[:k, :, 1:3])
        sources[:k, :, 3:] = gram[local, None, :]
        # Each column's own row is evaluated too (D = 0): that is its
        # paper-faithful G_ii. It stays finite because every supported
        # order is even, so no Gauss point maps onto the centroid.
        for m in range(k):
            radial_moments(sources[m], rule, transforms[lo + m], work, moments[m])
        kelvin_block_columns(
            moments[:k], d, mesh.normals[cols], mat, h4[cols], g4[cols]
        )


def set_diagonal_blocks(mesh: SurfaceMesh, mat: Material, h, g, strategy="analytic"):
    """Set every diagonal block of H and G, once all columns are filled.

    H_ii comes from the rigid-body identity, summed over the row's
    off-diagonal blocks as one (n, 3, n, 3) view of the whole of H, whose
    shape and layout do not depend on the worker count; G_ii from singular
    integration (``strategy``, as in :func:`integrate_self_g`): the
    closed-form self-integrals of every element from its centroid for
    "analytic", while "paper-faithful" keeps the D = 0 quadrature entry
    the sweep wrote.
    """
    check_self_strategy(strategy)
    n = mesh.n_elements
    h4, g4 = _block_view(h, n), _block_view(g, n)
    diag = np.arange(n)
    # h4[j, b, i, a] is entry (3i + a, 3j + b): the sum over j leaves
    # [b, i, a], and a diagonal selection [i, b, a] holds blocks transposed
    h4[diag, :, diag, :] = 0.0  # so that the sum over every column skips it
    h4[diag, :, diag, :] = rigid_body_diagonal(h4).transpose(1, 0, 2)
    if strategy == "analytic":
        i1, m = centroid_self_integrals(mesh.vertices, mesh.centroids)
        g_ii = kelvin_self_g(i1, m, mat)
        g4[diag, :, diag, :] = g_ii.swapaxes(1, 2)


def assemble(
    mesh: SurfaceMesh, mat: Material, rule: QuadratureRule, strategy="analytic"
) -> InfluenceMatrices:
    """Assemble dense H and G for the whole mesh (sequentially).

    Deterministic: repeated assembly of the same mesh is bit-identical.
    A closed body needs at least 4 elements; degenerate facets are
    rejected up front.
    """
    check_self_strategy(strategy)
    h, g = allocate_influence(mesh.n_dofs)
    assemble_columns(mesh, mat, rule, range(mesh.n_elements), h, g)
    set_diagonal_blocks(mesh, mat, h, g, strategy)
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


def _signed_columns(keep, negate, swapped):
    """Column-major matrix with ``keep``'s columns where ``swapped`` is
    False and ``-negate``'s where it is True, written in one pass over
    the runs of equal kind: each run is one copy or one negation of a
    block of columns, read where it sits, whatever layout the inputs
    have."""
    out = np.empty(keep.shape, order="F")
    edges = (np.flatnonzero(swapped[1:] != swapped[:-1]) + 1).tolist()
    for start, stop in zip([0, *edges], [*edges, swapped.shape[0]]):
        if swapped[start]:
            np.negative(negate[:, start:stop], out=out[:, start:stop])
        else:
            out[:, start:stop] = keep[:, start:stop]
    return out


def apply_boundary_conditions(hg: InfluenceMatrices, bc: BoundarySpec) -> LinearSystem:
    """Rearrange H u = G t into A x = b under mixed boundary conditions.

    Traction-known DOF d keeps column d of H in A (unknown u_d) and
    sends G[:,d] * t_d to the right-hand side; displacement-known DOF d
    swaps in -G[:,d] (unknown t_d) and sends -H[:,d] * u_d to the
    right-hand side. A is column-major, the layout the LU reads. b
    starts at zero and takes one BLAS axpy per nonzero value, which
    reads that value's column of G or H in place.
    """
    if bc.n_dofs != hg.n_dofs:
        raise BoundaryConditionError(
            f"boundary spec covers {bc.n_dofs} DOFs, system has {hg.n_dofs}"
        )
    _warn_if_underconstrained(bc)
    disp = bc.displacement_known
    v = bc.values
    a = _signed_columns(hg.h, hg.g, disp)
    b = np.zeros(hg.n_dofs)
    for d in np.flatnonzero(v).tolist():
        col, scale = (hg.h, -v[d]) if disp[d] else (hg.g, v[d])
        b = blas.daxpy(col[:, d], b, a=scale)
    return LinearSystem(a, b, disp.copy())


def rhs_matrix(hg: InfluenceMatrices, bc: BoundarySpec):
    """Matrix B with b = B @ values: G columns where traction is known,
    -H columns where displacement is known. Pairs with A for the
    precomputed-operator path, whose in-place solve needs it
    column-major, as it is returned."""
    return _signed_columns(hg.g, hg.h, bc.displacement_known)


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
    """Load a :func:`write_matrix` dump, reading the data straight into
    the one array returned."""
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16 or header[:8] != _MATRIX_MAGIC:
            raise ValueError(f"{path} is not a tribem matrix dump")
        rows, cols = struct.unpack("<II", header[8:])
        found = (os.fstat(f.fileno()).st_size - len(header)) / 8
        if found != rows * cols:
            raise ValueError(f"{path}: expected {rows * cols} values, found {found:.15g}")
        data = np.empty((rows, cols))
        if f.readinto(data) != data.nbytes:
            raise ValueError(f"{path}: file shrank while being read")
    return data

