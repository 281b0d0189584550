"""Dense influence-matrix assembly by centroid collocation.

Builds H (traction-kernel) and G (displacement-kernel) influence
matrices for the boundary integral identity H u = G t. Off-diagonal
3x3 blocks come from mapped Gauss quadrature over the field element;
H's diagonal blocks come from the rigid-body identity (a rigid
translation of a bounded body produces zero tractions, which pins each
row-block sum of H to zero and absorbs the free term together with the
strongly singular integral); G's diagonal blocks are weakly singular
and taken in closed form (the centroid lies in the flat element's
plane, so the integral is exact in polar coordinates about it).

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
n_j and ten moments per weight. For a chunk of field elements, the
entries (a, b) of the blocks are stacked arrays over (entry, element,
collocation point), and all nine of H's and of G's are written into
their places in one call each. H and G
are column-major (Fortran order), the layout LAPACK reads, so a chunk's
entries land in one contiguous slab of columns. The system matrix A of
a boundary-condition set is no array of its own but a view of those
slabs (:class:`SystemMatrix`), read at solve time: its float32 copy is
cast from them and each residual multiplies by them where they sit, so
a change of BC kinds builds no float64 n x n array. A column block
depends on no other column, so any split of the elements gives
bit-identical matrices, and a parallel run gives each worker a
contiguous range of field elements.
After the sweep one pass sets the diagonal blocks: H_ii from the rigid-body identity over
the finished rows, G_ii from the mesh's closed-form self-integrals.

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

from .errors import (
    BoundaryConditionError,
    DegenerateElementError,
    SolvabilityWarning,
)
from .kernels import (
    BLOCK_WORK,
    N_FEATURES,
    N_MONOMIALS,
    Material,
    QuadratureRule,
    centroid_self_integrals,
    kelvin_block_columns,
    kelvin_self_g,
    radial_moments,
    triangle_transforms,
)
from .mesh import SurfaceMesh


@dataclass
class InfluenceMatrices:
    """Dense H and G operators (3N x 3N) for an N-element mesh, held
    column-major in float64: the layout assembly fills and LAPACK reads.
    Arrays given in another layout or dtype are converted once here; a
    column-major float64 array is kept as it is."""

    h: np.ndarray
    g: np.ndarray
    n_elements: int

    def __post_init__(self):
        self.h = np.asfortranarray(self.h, dtype=float)
        self.g = np.asfortranarray(self.g, dtype=float)

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

    a: SystemMatrix | np.ndarray  # an ndarray is solved as one run
    b: np.ndarray
    swapped: np.ndarray  # (3N,) bool


def reject_degenerate(mesh: SurfaceMesh, elements: range):
    """Raise :class:`DegenerateElementError` naming those of ``elements``
    (a contiguous range) that fail the mesh's scale-relative area
    threshold (:meth:`SurfaceMesh.degenerate_indices`)."""
    bad = mesh.degenerate_indices()
    bad = bad[(bad >= elements.start) & (bad < elements.stop)]
    if len(bad):
        raise DegenerateElementError(f"mesh contains degenerate elements {bad.tolist()}")


def integrate_self_g(i, mesh: SurfaceMesh, mat: Material, rule: QuadratureRule):
    """Weakly singular diagonal block G_ii: the exact integral over the
    flat element from its centroid, in closed form
    (:func:`centroid_self_integrals`). ``rule`` is not used; it keeps
    the signature of the other per-block evaluators."""
    reject_degenerate(mesh, range(i, i + 1))
    return kelvin_self_g(*centroid_self_integrals(mesh.vertices[i], mesh.centroids[i]), mat)


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
# per collocation point each, take at most this much, but never fewer
# than _MIN_CHUNK elements. A range takes the fewest chunks this allows,
# of equal width, so no chunk is wider than its range: the 96-element
# box's two 48-element worker ranges take two chunks of 24 each, and the
# 1000-element box, where the budget holds two, takes chunks of 4. A call
# costs ~40 numpy calls whatever its width, and two worker threads, as
# the distributed run had then, handed each other the GIL at most of
# them. On a 2-vCPU VM the cube-graphics p50 went from 17.8 to 15.2 ms
# against the earlier 256 KB budget (chunks of 11, five per range;
# BENCH_6.json), and numpy's peak for one range from 1.09 to 1.47 MiB.
# One chunk per range, or a 4 MB budget, was faster still but raised the
# benchmark's peak RSS by 2-6 MB.
_CHUNK_BYTES = 552960
_MIN_CHUNK = 4


def allocate_influence(n_dofs):
    """Empty H and G for ``n_dofs`` DOFs, column-major: the layout
    :func:`assemble_columns` fills and LAPACK reads, so nothing
    downstream converts them."""
    return np.empty((n_dofs, n_dofs), order="F"), np.empty((n_dofs, n_dofs), order="F")


def _block_view(m, n):
    """A column-major (3n, 3k) matrix, the column blocks of k elements,
    as the (k, 3, n, 3) blocks of its transpose: [j, b, i, a] is entry
    (3i + a, 3j + b), and writes reach ``m``."""
    if not m.flags.f_contiguous:
        raise ValueError("H and G must be F-contiguous to be filled in place")
    if m.shape[0] != 3 * n or m.shape[1] % 3:
        raise ValueError(f"{m.shape} is no column slab of a {n}-element mesh")
    return m.T.reshape(-1, 3, n, 3)


def _chunks(n, elements):
    """The edges of the fewest chunks ``_CHUNK_BYTES`` allows over the
    range ``elements`` of an ``n``-element mesh, of equal width so that
    none is wider than the range, and the width of the widest."""
    cap = max(_MIN_CHUNK, _CHUNK_BYTES // (3 * n * N_FEATURES * 8))
    n_chunks = max(1, -(-len(elements) // cap))
    edges = [len(elements) * c // n_chunks for c in range(n_chunks + 1)]
    return edges, -(-len(elements) // n_chunks)


def _sweep_layout(n, rule: QuadratureRule, chunk):
    """Items of the sweep buffer's three parts: the work buffer, which
    holds each element's radial weights and then the chunk's stacked
    block entries, the chunk's moments and its sources."""
    work = max(3 * n * rule.n_points, BLOCK_WORK * chunk * n)
    return work, chunk * 3 * n * N_FEATURES, chunk * n * N_MONOMIALS


def sweep_buffer_size(mesh: SurfaceMesh, rule: QuadratureRule, elements: range):
    """Float64 items of the buffer :func:`assemble_columns` works in for
    the field elements ``elements``: ~1.25 MB for either half of the
    96-element box at q=16."""
    _, chunk = _chunks(mesh.n_elements, elements)
    return sum(_sweep_layout(mesh.n_elements, rule, chunk))


def assemble_columns(
    mesh: SurfaceMesh,
    mat: Material,
    rule: QuadratureRule,
    elements: range,
    h_out,
    g_out,
    buffer=None,
):
    """Fill the off-diagonal column blocks of field elements ``elements``
    (a contiguous range) in H and G from :func:`allocate_influence`, or
    in ``h_out`` and ``g_out`` holding only those columns: column-major
    (3N, 3 len(elements)) slabs, such as a worker process fills and
    sends back, or the slice ``h[:, 3 * start:3 * stop]`` of a whole H.

    For each field element j, r^2 from every collocation point to its
    quadrature points is one (N x 6)(6 x Q) product against the rule's
    monomials, the radial weights follow pointwise, and their moments
    are one (3N x Q)(Q x 6) product against the rule's features and one
    (3N x 6)(6 x 10) product against the element's transform (see
    :func:`radial_moments`). The transforms of the range's elements
    come from one :func:`triangle_transforms` call over their vertices
    and the areas the mesh holds.
    :func:`kelvin_block_columns` then turns the moments, the centroid
    offsets D and the element normals (flat elements: d.n_j = D.n_j) of
    a chunk of elements into the nine entries of their blocks, written
    straight into the chunk's contiguous slab of columns. The range is
    split into the fewest chunks ``_CHUNK_BYTES`` allows, of equal
    width, and the buffers are sized for the widest of them. Every
    element's products have the same shapes, the transforms and the
    entries are elementwise and writes are disjoint, so any partition
    of elements across workers, and any chunking within one, yields
    bit-identical matrices. The diagonal blocks hold the D = 0
    entries until :func:`set_diagonal_blocks` runs.

    The sweep works in one float64 buffer of
    :func:`sweep_buffer_size` items: the radial weights, the block
    entries, the moments and the sources. ``buffer``, when given, is a
    caller-owned flat, contiguous buffer of at least that many items,
    whose contents are overwritten; without it the sweep allocates its
    own, the same size, and frees it on return. A caller that assembles
    often reuses one buffer per concurrent range, as the distributed
    run does for small systems.
    """
    reject_degenerate(mesh, elements)
    n = mesh.n_elements
    # indexed relative to elements.start: element j is row j - elements.start
    own = slice(elements.start, elements.stop)
    h4, g4 = _block_view(h_out, n), _block_view(g_out, n)
    if h4.shape[0] == n:  # whole matrices: the range's own slab of them
        h4, g4 = h4[own], g4[own]
    if h4.shape[0] != len(elements) or g4.shape != h4.shape:
        raise ValueError(f"H and G hold neither every column nor those of {elements}")
    edges, chunk = _chunks(n, elements)
    sizes = _sweep_layout(n, rule, chunk)
    if buffer is None:
        buffer = np.empty(sum(sizes))
    elif buffer.dtype != float or buffer.ndim != 1 or not buffer.flags.c_contiguous \
            or buffer.size < sum(sizes):
        raise ValueError(f"the sweep needs a flat float64 buffer of {sum(sizes)} items")
    work, moments, sources = np.split(buffer[: sum(sizes)], np.cumsum(sizes[:2]))
    weights = work[: 3 * n * rule.n_points].reshape(3, n, rule.n_points)
    moments = moments.reshape(chunk, 3, n, N_FEATURES)
    sources = sources.reshape(chunk, n, N_MONOMIALS)
    jacobians, gram, transforms = triangle_transforms(mesh.vertices[own], mesh.areas[own])

    for lo, hi in zip(edges, edges[1:]):
        local = slice(lo, hi)
        cols = slice(elements.start + local.start, elements.start + local.stop)
        k = local.stop - local.start
        d = mesh.centroids[cols, None, :] - mesh.centroids  # (k, N, 3): D = C_j - c_i
        # each source's row [|D|^2, 2 J^T D, Gram entries]; the stacked
        # product is one (N x 3)(3 x 2) product per element, whatever k is
        sources[:k, :, 0] = d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
        np.matmul(d, 2.0 * jacobians[local], out=sources[:k, :, 1:3])
        sources[:k, :, 3:] = gram[local, None, :]
        # Each column's own row is evaluated too (D = 0), so that every
        # element's products have the same shapes; set_diagonal_blocks
        # overwrites it. It stays finite because every supported order
        # is even, so no Gauss point maps onto the centroid.
        for m in range(k):
            radial_moments(sources[m], rule, transforms[lo + m], weights, moments[m])
        kelvin_block_columns(
            moments[:k], d, mesh.normals[cols], mat, h4[local], g4[local], work
        )


def set_diagonal_blocks(mesh: SurfaceMesh, mat: Material, h, g):
    """Set every diagonal block of H and G, once all columns are filled.

    H_ii comes from the rigid-body identity, summed over the row's
    off-diagonal blocks as one (n, 3, n, 3) view of the whole of H, whose
    shape and layout do not depend on the worker count; G_ii from the
    closed-form self-integrals of every element from its centroid, as in
    :func:`integrate_self_g`.
    """
    n = mesh.n_elements
    h4, g4 = _block_view(h, n), _block_view(g, n)
    diag = np.arange(n)
    # h4[j, b, i, a] is entry (3i + a, 3j + b): the sum over j leaves
    # [b, i, a], and a diagonal selection [i, b, a] holds blocks transposed
    h4[diag, :, diag, :] = 0.0  # so that the sum over every column skips it
    h4[diag, :, diag, :] = rigid_body_diagonal(h4).transpose(1, 0, 2)
    i1, m = centroid_self_integrals(mesh.vertices, mesh.centroids)
    g4[diag, :, diag, :] = kelvin_self_g(i1, m, mat).swapaxes(1, 2)


def assemble(mesh: SurfaceMesh, mat: Material, rule: QuadratureRule) -> InfluenceMatrices:
    """Assemble dense H and G for the whole mesh (sequentially).

    Deterministic: repeated assembly of the same mesh is bit-identical.
    A closed body needs at least 4 elements; degenerate facets are
    rejected up front.
    """
    h, g = allocate_influence(mesh.n_dofs)
    assemble_columns(mesh, mat, rule, range(mesh.n_elements), h, g)
    set_diagonal_blocks(mesh, mat, h, g)
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


def strided_runs(indices):
    """Split sorted, distinct ``indices`` into arithmetic progressions,
    each as long as it can be, taken from the front: (where, positions)
    per progression, ``where`` the slice of the indices it holds and
    ``positions`` the slice of ``indices`` that lists them. A load along
    one axis on consecutive elements, every third DOF, is one
    progression, and numpy multiplies by a slab of every third column or
    row of a matrix in place, as one ``dgemv``."""
    found = []
    indices = indices.tolist()
    i, k = 0, len(indices)
    while i < k:
        step = indices[i + 1] - indices[i] if i + 1 < k else 1
        j = i + 1
        while j < k and indices[j] - indices[j - 1] == step:
            j += 1
        found.append((slice(indices[i], indices[j - 1] + 1, step), slice(i, j)))
        i = j
    return found


class SystemMatrix:
    """A of A x = b as a view of H and G: ``keep``'s columns where
    ``swapped`` is False and ``-negate``'s where it is True, read where
    they sit, in runs of columns of equal kind.

    Nothing n x n is built but by :meth:`dense`. ``@`` is one numpy
    product per run, which numpy hands to its BLAS as one ``dgemv`` on
    the run's slab of columns;
    :meth:`write` copies or negates each run's slab into another array,
    casting on the way, so a float32 copy of A is read straight from H
    and G; :meth:`dense` and ``np.asarray`` give A itself, column-major,
    as a new array. An ndarray A is the one-run case: ``SystemMatrix(a,
    a, all False)``.
    """

    def __init__(self, keep, negate, swapped):
        self.keep, self.negate = keep, negate
        edges = (np.flatnonzero(swapped[1:] != swapped[:-1]) + 1).tolist()
        n = swapped.shape[0]
        self.runs = [(start, stop, bool(swapped[start]))
                     for start, stop in zip([0, *edges], [*edges, n]) if start < stop]

    @property
    def shape(self):
        return self.keep.shape

    def slabs(self, start=0, stop=None):
        """(columns, slab, negated) for the part of each run within
        columns ``start:stop``."""
        stop = self.shape[1] if stop is None else stop
        for lo, hi, negated in self.runs:
            lo, hi = max(lo, start), min(hi, stop)
            if lo < hi:
                cols = slice(lo, hi)
                yield cols, (self.negate if negated else self.keep)[:, cols], negated

    def write(self, out, start=0, stop=None):
        """Write A's columns ``start:stop`` into the same columns of
        ``out``, in ``out``'s dtype: one copy or one negation per run,
        each read where it sits."""
        for cols, slab, negated in self.slabs(start, stop):
            if negated:
                np.negative(slab, out=out[:, cols])
            else:
                np.copyto(out[:, cols], slab)

    def dense(self, out=None):
        """A as a column-major float64 array: ``out`` when given, else a
        new one."""
        if out is None:
            out = np.empty(self.shape, order="F")
        self.write(out)
        return out

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("A is a view of H and G: it exists only as a copy")
        a = self.dense()
        return a if dtype is None else a.astype(dtype, copy=False)

    def matvec(self, x, alpha=1.0, y=None):
        """alpha A x, plus ``y`` when given, which is left unchanged: one
        product per run of its slab of columns with x's entries there,
        scaled by alpha or -alpha, each added into the one result. A run
        of H or G is read in place, and so is a row-major ndarray A, the
        one run of its own matrix, through its transpose."""
        out = None if y is None else y.copy()
        for cols, slab, negated in self.slabs():
            part = slab @ ((-alpha if negated else alpha) * x[cols])
            if out is None:
                out = part
            else:
                out += part
        return out

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape[1:]:
            raise ValueError(f"A is {self.shape}; x must be a vector of {self.shape[1]}")
        return self.matvec(x)


def apply_boundary_conditions(hg: InfluenceMatrices, bc: BoundarySpec) -> LinearSystem:
    """Rearrange H u = G t into A x = b under mixed boundary conditions.

    Traction-known DOF d keeps column d of H in A (unknown u_d) and
    sends G[:,d] * t_d to the right-hand side; displacement-known DOF d
    swaps in -G[:,d] (unknown t_d) and sends -H[:,d] * u_d to the
    right-hand side. A is a :class:`SystemMatrix`, a view that reads H
    and G where they sit when the solve casts it or multiplies by it, so
    no n x n array is built here and there is no output array to pass; H
    and G must not change while the system is in use (a copy from its
    ``dense()`` may). b starts at zero and takes one product per
    progression of nonzero values of one kind (:func:`strided_runs`),
    traction-known then displacement-known ones, which reads those
    columns of G or H in place.
    """
    if bc.n_dofs != hg.n_dofs:
        raise BoundaryConditionError(
            f"boundary spec covers {bc.n_dofs} DOFs, system has {hg.n_dofs}"
        )
    _warn_if_underconstrained(bc)
    disp = bc.displacement_known
    v = bc.values
    b = np.zeros(hg.n_dofs)
    for m, sign, known in ((hg.g, 1.0, ~disp), (hg.h, -1.0, disp)):
        for cols, _ in strided_runs(np.flatnonzero(known & (v != 0))):
            b += m[:, cols] @ (sign * v[cols])
    return LinearSystem(SystemMatrix(hg.h, hg.g, disp), b, disp.copy())


def rhs_matrix(hg: InfluenceMatrices, bc: BoundarySpec):
    """Matrix B with b = B @ values: G columns where traction is known,
    -H columns where displacement is known. Pairs with A for the
    precomputed-operator path, whose in-place solve needs it
    column-major, as it is returned."""
    return SystemMatrix(hg.g, hg.h, bc.displacement_known).dense()


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

