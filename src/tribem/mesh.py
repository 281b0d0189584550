"""Triangular surface meshes for constant-element BEM.

Elements are flat triangles with a single collocation node at the
centroid. Vertices are stored per element and never welded: constant
elements need no connectivity. Normals always follow the right-hand
rule over the stored vertex winding.
"""

from __future__ import annotations

import io
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMeshError, StlParseError

# A triangle is degenerate when its area falls at or below this fraction
# of its own squared bounding-box diagonal (scale-relative, unit-free).
DEGENERACY_RATIO = 1e-12


class SurfaceMesh:
    """Ordered collection of triangular elements.

    Immutable after construction; geometry is cached in packed arrays
    (``vertices``, ``centroids``, ``areas``, ``normals``) for vectorised
    consumers. This class is the only place that computes them.
    """

    def __init__(self, vertices):
        """Build a mesh from an (N, 3, 3) vertex array.

        The array is copied, so the caller's array stays writable and
        later changes to it cannot reach the mesh. Degenerate facets are
        admitted here (real STL files carry them); they surface in
        :func:`validate` and are rejected by assembly.
        """
        v = np.array(vertices, dtype=float)
        if v.ndim != 3 or v.shape[1:] != (3, 3):
            raise ValueError(f"expected (N, 3, 3) vertex array, got {v.shape}")
        if v.shape[0] == 0:
            raise EmptyMeshError("mesh has no facets")
        if not np.isfinite(v).all():
            raise ValueError("mesh vertices must be finite")

        n = v.shape[0]
        centroids = v.mean(axis=1)
        cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        norms = np.linalg.norm(cross, axis=1)
        areas = 0.5 * norms
        normals = np.zeros((n, 3))
        ok = norms > 0.0
        normals[ok] = cross[ok] / norms[ok, None]

        self.vertices = v
        self.centroids = centroids
        self.areas = areas
        self.normals = normals
        for arr in (self.vertices, self.centroids, self.areas, self.normals):
            arr.setflags(write=False)

    @property
    def n_elements(self):
        return self.vertices.shape[0]

    @property
    def n_dofs(self):
        """Total degrees of freedom: three per element."""
        return 3 * self.n_elements

    def degenerate_indices(self):
        """Indices of facets failing the scale-relative area threshold."""
        spans = self.vertices.max(axis=1) - self.vertices.min(axis=1)
        diag2 = np.einsum("ij,ij->i", spans, spans)
        return np.flatnonzero(self.areas <= DEGENERACY_RATIO * diag2)

    def closure_residual(self):
        """Vector sum of area-weighted normals; ~0 for a closed surface."""
        return self.areas @ self.normals


@dataclass
class ValidationReport:
    """Findings of :func:`validate`; carries issues instead of raising."""

    n_elements: int
    degenerate_indices: np.ndarray
    closure_residual: np.ndarray  # (3,), mm^2-weighted normal sum
    min_area: float
    max_area: float
    total_area: float

    @property
    def closure_residual_norm(self):
        return float(np.linalg.norm(self.closure_residual))

    @property
    def is_closed(self):
        """Necessary (not sufficient) closed-surface condition."""
        return self.closure_residual_norm <= 1e-10 * self.total_area

    @property
    def ok(self):
        return len(self.degenerate_indices) == 0

    def __str__(self):
        lines = [
            f"elements:          {self.n_elements}",
            f"degenerate:        {len(self.degenerate_indices)}"
            + (f" {list(self.degenerate_indices)}" if len(self.degenerate_indices) else ""),
            f"closure residual:  {self.closure_residual_norm:.3e}"
            f" ({'closed' if self.is_closed else 'open or leaky'})",
            f"area min/max/sum:  {self.min_area:.6g} / {self.max_area:.6g} / {self.total_area:.6g}",
        ]
        return "\n".join(lines)


def validate(mesh: SurfaceMesh) -> ValidationReport:
    """Check a mesh for BEM use: degenerate facets, closure, area spread."""
    return ValidationReport(
        n_elements=mesh.n_elements,
        degenerate_indices=mesh.degenerate_indices(),
        closure_residual=mesh.closure_residual(),
        min_area=float(mesh.areas.min()),
        max_area=float(mesh.areas.max()),
        total_area=float(mesh.areas.sum()),
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# Outward normal and in-plane axes per box face, chosen so that
# axis_p x axis_q equals the outward normal (CCW winding seen from outside).
_BOX_FACES = (
    # (fixed axis, fixed at max side?, in-plane axis p, in-plane axis q)
    (0, False, 2, 1),
    (0, True, 1, 2),
    (1, False, 0, 2),
    (1, True, 2, 0),
    (2, False, 1, 0),
    (2, True, 0, 1),
)


def generate_box(lengths, divisions) -> SurfaceMesh:
    """Closed box surface; each face gridded and each grid square split
    into four triangles meeting at the square's centre.

    ``lengths``/``divisions`` are per axis (x, y, z). Face (a, b) with
    divisions (ka, kb) contributes 4*ka*kb triangles; all normals point
    outward. The element order is deterministic: faces in -x, +x, -y, +y,
    -z, +z order, grid rows in axis-p-major order, four triangles per
    square fanned counterclockwise.
    """
    lengths = tuple(float(s) for s in lengths)
    divisions = tuple(int(k) for k in divisions)
    if any(s <= 0 for s in lengths):
        raise ValueError("box side lengths must be positive")
    if any(k < 1 for k in divisions):
        raise ValueError("divisions per edge must be >= 1")

    tris = []
    for axis, at_max, ax_p, ax_q in _BOX_FACES:
        kp, kq = divisions[ax_p], divisions[ax_q]
        hp, hq = lengths[ax_p] / kp, lengths[ax_q] / kq
        w = lengths[axis] if at_max else 0.0

        def point(p, q, axis=axis, ax_p=ax_p, ax_q=ax_q, w=w):
            out = np.empty(3)
            out[axis] = w
            out[ax_p] = p
            out[ax_q] = q
            return out

        for ip in range(kp):
            for iq in range(kq):
                p0, q0 = ip * hp, iq * hq
                c00 = point(p0, q0)
                c10 = point(p0 + hp, q0)
                c11 = point(p0 + hp, q0 + hq)
                c01 = point(p0, q0 + hq)
                centre = point(p0 + 0.5 * hp, q0 + 0.5 * hq)
                tris.append((c00, c10, centre))
                tris.append((c10, c11, centre))
                tris.append((c11, c01, centre))
                tris.append((c01, c00, centre))

    return SurfaceMesh(np.array(tris))


def generate_cube(side, k) -> SurfaceMesh:
    """Cube of the given side length with k x k squares per face.

    Yields 24*k^2 equal-area triangles; k=2 gives the 96-element,
    288-DOF benchmark body with the classic 16 elements per face. A
    2-triangle square split cannot produce that count, so each square
    is fanned into 4 triangles at its centre.
    """
    if side <= 0:
        raise ValueError("cube side must be positive")
    if k < 1:
        raise ValueError("subdivisions per edge must be >= 1")
    return generate_box((side, side, side), (k, k, k))


# ---------------------------------------------------------------------------
# STL I/O
# ---------------------------------------------------------------------------

_STL_FACET = np.dtype(
    [("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")]
)

_ASCII_FACET_RE = re.compile(
    rb"facet(?:\s+normal\s+\S+\s+\S+\s+\S+)?\s+outer\s+loop\s+"
    rb"vertex\s+(\S+)\s+(\S+)\s+(\S+)\s+"
    rb"vertex\s+(\S+)\s+(\S+)\s+(\S+)\s+"
    rb"vertex\s+(\S+)\s+(\S+)\s+(\S+)\s+"
    rb"endloop\s+endfacet",
)


def _parse_ascii_stl(data):
    tris = []
    pos = 0
    while True:
        nxt = data.find(b"facet", pos)
        if nxt < 0:
            break
        m = _ASCII_FACET_RE.match(data, nxt)
        if m is None:
            raise StlParseError("malformed ASCII facet record", nxt)
        try:
            vals = [float(g) for g in m.groups()]
        except ValueError:
            raise StlParseError("non-numeric vertex coordinate", nxt) from None
        if not np.isfinite(vals).all():
            raise StlParseError("non-finite vertex coordinate", nxt)
        tris.append(np.array(vals).reshape(3, 3))
        pos = m.end()
    return tris


def _parse_binary_stl(data):
    if len(data) < 84:
        raise StlParseError("binary STL shorter than 84-byte header", len(data))
    (count,) = struct.unpack_from("<I", data, 80)
    expected = 84 + 50 * count
    if len(data) < expected:
        raise StlParseError(
            f"facet count says {count} but data ends early", len(data)
        )
    records = np.frombuffer(data, dtype=_STL_FACET, count=count, offset=84)
    verts = records["vertices"].astype(float)
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=(1, 2)))
    if len(bad):
        raise StlParseError("non-finite vertex coordinate", 84 + 50 * int(bad[0]))
    return verts


def load_stl(data: bytes) -> SurfaceMesh:
    """Parse ASCII or binary STL bytes into a mesh.

    File normals are ignored; normals are recomputed from the vertex
    winding (files in the wild carry junk normals). Raises
    ``StlParseError`` with a byte offset on malformed input, including a
    non-finite vertex coordinate (the offset of its facet), and
    ``EmptyMeshError`` on zero facets.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("load_stl expects bytes")
    data = bytes(data)
    if len(data) == 0:
        raise StlParseError("empty input", 0)

    # "solid" alone does not prove ASCII: binary exporters reuse it in the
    # 80-byte header. Require an ASCII facet keyword early on as well.
    looks_ascii = data.lstrip()[:5] == b"solid" and b"facet" in data[:1024]
    if looks_ascii:
        tris = _parse_ascii_stl(data)
        if not tris:
            raise EmptyMeshError("ASCII STL contains no facets")
        return SurfaceMesh(np.array(tris))

    verts = _parse_binary_stl(data)
    if len(verts) == 0:
        raise EmptyMeshError("binary STL contains no facets")
    return SurfaceMesh(verts)


def write_stl(mesh: SurfaceMesh, binary=True, name=b"tribem") -> bytes:
    """Serialise a mesh to STL bytes (binary by default).

    Binary STL stores 32-bit floats, so a round trip preserves geometry
    to single precision only.
    """
    if binary:
        out = bytearray(84 + 50 * mesh.n_elements)
        header = name[:80].ljust(80, b"\0") if isinstance(name, bytes) else b"\0" * 80
        out[:80] = header
        struct.pack_into("<I", out, 80, mesh.n_elements)
        records = np.zeros(mesh.n_elements, dtype=_STL_FACET)
        records["normal"] = mesh.normals.astype("<f4")
        records["vertices"] = mesh.vertices.astype("<f4")
        out[84:] = records.tobytes()
        return bytes(out)

    buf = io.StringIO()
    label = name.decode("ascii", "replace") if isinstance(name, bytes) else str(name)
    buf.write(f"solid {label}\n")
    for i in range(mesh.n_elements):
        n = mesh.normals[i]
        buf.write(f"  facet normal {n[0]:.9e} {n[1]:.9e} {n[2]:.9e}\n")
        buf.write("    outer loop\n")
        for v in mesh.vertices[i]:
            buf.write(f"      vertex {v[0]:.9e} {v[1]:.9e} {v[2]:.9e}\n")
        buf.write("    endloop\n")
        buf.write("  endfacet\n")
    buf.write(f"endsolid {label}\n")
    return buf.getvalue().encode("ascii")
