"""Conforming triangulations of planar chart domains.

Meshes are immutable value objects: vertex coordinates, counterclockwise
triangles, and tagged boundary edges. Generators cover the two chart domains
used throughout (unit square, unit disk); `refine_uniform` performs red
refinement; `validate` audits the conformity invariants; `save_mesh` and
`load_mesh` round-trip the RWMESH 1 text format.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Mesh",
    "MeshFormatError",
    "generate_unit_square",
    "generate_disk",
    "refine_uniform",
    "validate",
    "save_mesh",
    "load_mesh",
    "triangle_areas",
    "edge_incidence",
]


class MeshFormatError(ValueError):
    """Raised when an RWMESH file is malformed."""


class Mesh:
    """Triangulation of a planar domain with tagged boundary edges.

    Parameters
    ----------
    vertices : (nv, 2) float array
        Chart coordinates.
    triangles : (nt, 3) int array
        Vertex index triples, counterclockwise.
    boundary_edges : (nb, 3) int array
        Rows (i, j, tag); (i, j) is a directed boundary edge, tag a small
        nonnegative integer labeling its boundary segment.
    level : int
        Refinement depth, >= 0.

    All arrays are copied and frozen; Mesh values are safe to share
    read-only across threads.
    """

    def __init__(self, vertices, triangles, boundary_edges, level=0):
        self.vertices = np.array(vertices, dtype=float)
        self.triangles = np.array(triangles, dtype=np.int64)
        self.boundary_edges = np.array(boundary_edges, dtype=np.int64)
        # empty inputs arrive as 1-D; give them their proper column count
        if self.triangles.size == 0:
            self.triangles = self.triangles.reshape(0, 3)
        if self.boundary_edges.size == 0:
            self.boundary_edges = self.boundary_edges.reshape(0, 3)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be an (nt, 3) array")
        if self.boundary_edges.ndim != 2 or self.boundary_edges.shape[1] != 3:
            raise ValueError("boundary_edges must be an (nb, 3) array")
        self.level = int(level)
        if self.level < 0:
            raise ValueError("level must be >= 0")
        for a in (self.vertices, self.triangles, self.boundary_edges):
            a.flags.writeable = False

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def __repr__(self):
        return "Mesh({} vertices, {} triangles, {} boundary edges, level {})".format(
            self.num_vertices, self.num_triangles, self.boundary_edges.shape[0], self.level
        )


def triangle_areas(m: Mesh) -> np.ndarray:
    """Signed areas of all triangles (positive for counterclockwise)."""
    p = m.vertices[m.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _mirrored_grid(n: int) -> np.ndarray:
    # i/n and 1 - i/n are not always equal bitwise; building the upper half
    # by mirroring makes the grid exactly symmetric about 1/2.
    x = np.empty(n + 1)
    for i in range(n + 1):
        x[i] = i / n if i <= n - i else 1.0 - (n - i) / n
    return x


def generate_unit_square(n: int) -> Mesh:
    """Structured triangulation of [0,1]^2 with 2*n^2 triangles.

    Each of the n^2 grid cells is split along a diagonal whose direction
    alternates with (i+j) parity, so the mesh is invariant under the
    reflections x -> 1-x and y -> 1-y whenever n is even. Boundary tags:
    0 bottom, 1 right, 2 top, 3 left.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coords = _mirrored_grid(n)
    xv, yv = np.meshgrid(coords, coords)
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(ix, iy):
        return iy * (n + 1) + ix

    triangles = []
    for iy in range(n):
        for ix in range(n):
            a = vid(ix, iy)
            b = vid(ix + 1, iy)
            c = vid(ix + 1, iy + 1)
            d = vid(ix, iy + 1)
            if (ix + iy) % 2 == 0:
                triangles.append((a, b, c))
                triangles.append((a, c, d))
            else:
                triangles.append((a, b, d))
                triangles.append((b, c, d))

    boundary = []
    for ix in range(n):
        boundary.append((vid(ix, 0), vid(ix + 1, 0), 0))
    for iy in range(n):
        boundary.append((vid(n, iy), vid(n, iy + 1), 1))
    for ix in range(n, 0, -1):
        boundary.append((vid(ix, n), vid(ix - 1, n), 2))
    for iy in range(n, 0, -1):
        boundary.append((vid(0, iy), vid(0, iy - 1), 3))

    return Mesh(vertices, triangles, boundary, level=0)


def generate_disk(rings: int) -> Mesh:
    """Concentric-ring triangulation of the unit disk, center at a vertex.

    Ring j holds 6*j vertices at radius j/rings; sectors are strip-triangulated
    between consecutive rings. 6*rings^2 triangles total, single boundary
    tag 0. Keeping the center as a vertex means radially singular coefficient
    fields are never sampled at the tip: quadrature points are interior to
    cells.
    """
    if rings < 1:
        raise ValueError("rings must be >= 1")
    verts = [(0.0, 0.0)]
    ring_start = [0]  # index of first vertex of ring j (ring 0 = center)
    for j in range(1, rings + 1):
        ring_start.append(len(verts))
        r = j / rings
        mj = 6 * j
        ang = 2.0 * np.pi * np.arange(mj) / mj
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
    vertices = np.array(verts)

    def ring_vertex(j, i):
        # i taken modulo the ring size so sector ends wrap around
        return ring_start[j] + (i % (6 * j))

    triangles = []
    for i in range(6):
        triangles.append((0, ring_vertex(1, i), ring_vertex(1, i + 1)))
    for j in range(2, rings + 1):
        for s in range(6):
            # outer row: j+1 vertices (inclusive), inner row: j vertices
            out0, inn0 = s * j, s * (j - 1)
            io = ii = 0
            while io < j or ii < j - 1:
                adv_out = io < j and (
                    ii >= j - 1 or (io + 1) * (j - 1) <= (ii + 1) * j
                )
                if adv_out:
                    triangles.append((
                        ring_vertex(j, out0 + io),
                        ring_vertex(j, out0 + io + 1),
                        ring_vertex(j - 1, inn0 + ii),
                    ))
                    io += 1
                else:
                    triangles.append((
                        ring_vertex(j, out0 + io),
                        ring_vertex(j - 1, inn0 + ii + 1),
                        ring_vertex(j - 1, inn0 + ii),
                    ))
                    ii += 1

    mb = 6 * rings
    boundary = [
        (ring_vertex(rings, i), ring_vertex(rings, i + 1), 0) for i in range(mb)
    ]
    return Mesh(vertices, triangles, boundary, level=0)


def refine_uniform(m: Mesh) -> Mesh:
    """Red refinement: each triangle into 4 congruent children.

    Edge midpoints become new vertices (deduplicated across neighbors),
    boundary edges split in two inheriting their tag, level increments.
    """
    verts = list(map(tuple, m.vertices))
    midpoint = {}

    def mid(i, j):
        key = (i, j) if i < j else (j, i)
        idx = midpoint.get(key)
        if idx is None:
            idx = len(verts)
            p = 0.5 * (m.vertices[i] + m.vertices[j])
            verts.append((p[0], p[1]))
            midpoint[key] = idx
        return idx

    triangles = []
    for a, b, c in m.triangles:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        triangles.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])

    boundary = []
    for i, j, tag in m.boundary_edges:
        k = mid(i, j)
        boundary.append((i, k, tag))
        boundary.append((k, j, tag))

    return Mesh(np.array(verts), triangles, boundary, level=m.level + 1)


def edge_incidence(m: Mesh):
    """Map undirected edge (i, j) with i < j -> list of incident triangle indices."""
    inc = {}
    for t, (a, b, c) in enumerate(m.triangles):
        for i, j in ((a, b), (b, c), (c, a)):
            key = (i, j) if i < j else (j, i)
            inc.setdefault(key, []).append(t)
    return inc


def validate(m: Mesh) -> list:
    """Audit all Mesh invariants; returns a list of violations (empty = valid)."""
    report = []
    nv = m.num_vertices

    if m.triangles.size and (m.triangles.min() < 0 or m.triangles.max() >= nv):
        report.append("triangle vertex index out of range")
        return report
    if m.boundary_edges.size and (
        m.boundary_edges[:, :2].min() < 0 or m.boundary_edges[:, :2].max() >= nv
    ):
        report.append("boundary edge vertex index out of range")
        return report
    if not np.isfinite(m.vertices).all():
        report.append("non-finite vertex coordinate")

    areas = triangle_areas(m)
    for i in np.nonzero(areas <= 0.0)[0]:
        report.append("negative area at index {}".format(i))

    inc = edge_incidence(m)
    listed = {}
    for i, j, _tag in m.boundary_edges:
        key = (i, j) if i < j else (j, i)
        listed[key] = listed.get(key, 0) + 1

    for key, tris in inc.items():
        count = len(tris)
        if count > 2:
            report.append("edge {} shared by {} triangles".format(key, count))
        elif count == 2 and key in listed:
            report.append("interior edge {} listed as boundary".format(key))
        elif count == 1 and key not in listed:
            report.append("boundary edge {} not registered".format(key))
    for key, n in listed.items():
        if key not in inc:
            report.append("registered boundary edge {} not in triangulation".format(key))
        elif n > 1:
            report.append("boundary edge {} registered {} times".format(key, n))

    # hanging nodes: a vertex sitting strictly inside another triangle's edge
    once = [key for key, tris in inc.items() if len(tris) == 1]
    used = np.unique(m.triangles)
    pts = m.vertices[used]
    for i, j in once:
        a = m.vertices[i]
        ab = m.vertices[j] - a
        lab2 = float(ab @ ab)
        if lab2 == 0.0:
            continue
        ap = pts - a
        s = (ap[:, 0] * ab[0] + ap[:, 1] * ab[1]) / lab2
        cross = ab[0] * ap[:, 1] - ab[1] * ap[:, 0]
        hit = ((s > 1e-12) & (s < 1.0 - 1e-12)
               & (np.abs(cross) <= 1e-12 * np.sqrt(lab2))
               & (used != i) & (used != j))
        for v in used[hit]:
            report.append("nonconforming edge ({}, {}): vertex {} on it".format(i, j, v))
    return report


def save_mesh(m: Mesh, path) -> None:
    """Write the RWMESH 1 text format (UTF-8, line-oriented)."""
    lines = ["RWMESH 1"]
    lines.append("VERTICES {}".format(m.num_vertices))
    for x, y in m.vertices:
        lines.append("{} {}".format(repr(float(x)), repr(float(y))))
    lines.append("TRIANGLES {}".format(m.num_triangles))
    for a, b, c in m.triangles:
        lines.append("{} {} {}".format(a, b, c))
    lines.append("BOUNDARY {}".format(m.boundary_edges.shape[0]))
    for i, j, tag in m.boundary_edges:
        lines.append("{} {} {}".format(i, j, tag))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> Mesh:
    """Read the RWMESH 1 text format; `#` lines are comments."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    lines = [ln.strip() for ln in raw if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or lines[0].split() != ["RWMESH", "1"]:
        raise MeshFormatError("missing RWMESH 1 header")
    pos = 1

    def section(name, width, conv):
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError("missing {} section".format(name))
        head = lines[pos].split()
        if len(head) != 2 or head[0] != name:
            raise MeshFormatError("malformed section header {!r}".format(lines[pos]))
        try:
            count = int(head[1])
        except ValueError:
            raise MeshFormatError("bad count in {} header".format(name)) from None
        if count < 0 or pos + 1 + count > len(lines):
            raise MeshFormatError("{} section truncated".format(name))
        rows = []
        for ln in lines[pos + 1 : pos + 1 + count]:
            parts = ln.split()
            if len(parts) != width:
                raise MeshFormatError("bad {} row {!r}".format(name, ln))
            try:
                rows.append([conv(p) for p in parts])
            except ValueError:
                raise MeshFormatError("bad {} row {!r}".format(name, ln)) from None
        pos += 1 + count
        return rows

    vrows = section("VERTICES", 2, float)
    trows = section("TRIANGLES", 3, int)
    brows = section("BOUNDARY", 3, int)
    if pos != len(lines):
        raise MeshFormatError("trailing content after BOUNDARY section")

    vertices = np.array(vrows, dtype=float).reshape(len(vrows), 2)
    if not np.isfinite(vertices).all():
        raise MeshFormatError("non-finite vertex coordinate")
    nv = len(vrows)
    for rows, what in ((trows, "triangle"), (brows, "boundary")):
        for row in rows:
            for idx in row[:3] if what == "triangle" else row[:2]:
                if idx < 0 or idx >= nv:
                    raise MeshFormatError("{} index {} out of range".format(what, idx))
    triangles = np.array(trows, dtype=np.int64).reshape(len(trows), 3)
    boundary = np.array(brows, dtype=np.int64).reshape(len(brows), 3)
    return Mesh(vertices, triangles, boundary, level=0)
