"""Conforming triangulations of planar chart domains.

Meshes are immutable value objects: vertex coordinates, counterclockwise
triangles, and tagged boundary edges. Generators cover the two chart domains
used throughout (unit square, unit disk); `refine_uniform` performs red
refinement; `validate` audits the conformity invariants; `save_mesh` and
`load_mesh` round-trip the RWMESH 1 text format.

Everything works on whole arrays: no Python loop runs over vertices,
triangles or edges. Edges come from one sort of the keys min * nv + max
(`_undirected_edges`), numbered in the order they are first met, as a
dictionary filled triangle by triangle would number them; refinement is
bit-identical to that algorithm. Hanging nodes are sought only among the
vertices in an edge's x-range. RWMESH sections are written by one
%-format and read by one `np.loadtxt` each.
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

    All arrays are copied and frozen; Mesh values are safe to share
    read-only across threads.
    """

    def __init__(self, vertices, triangles, boundary_edges):
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
        for a in (self.vertices, self.triangles, self.boundary_edges):
            a.flags.writeable = False

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def __repr__(self):
        return "Mesh({} vertices, {} triangles, {} boundary edges)".format(
            self.num_vertices, self.num_triangles, self.boundary_edges.shape[0]
        )


def triangle_areas(m: Mesh) -> np.ndarray:
    """Signed areas of all triangles (positive for counterclockwise)."""
    return corner_areas(m.vertices[m.triangles])


def corner_areas(p) -> np.ndarray:
    """Signed areas of the triangles with (nt, 3, 2) corner coordinates p."""
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _mirrored_grid(n: int) -> np.ndarray:
    # i/n and 1 - i/n are not always equal bitwise; building the upper half
    # by mirroring makes the grid exactly symmetric about 1/2.
    i = np.arange(n + 1)
    return np.where(i <= n - i, i / n, 1.0 - (n - i) / n)


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

    # cells row by row; corners a b c d counterclockwise from (ix, iy)
    iy, ix = np.divmod(np.arange(n * n), n)
    a = iy * (n + 1) + ix
    b, c, d = a + 1, a + n + 2, a + n + 1
    even = ((ix + iy) % 2 == 0)[:, None]
    triangles = np.where(even, np.column_stack([a, b, c, a, c, d]),
                         np.column_stack([a, b, d, b, c, d])).reshape(-1, 3)

    # counterclockwise walk from the origin, one side (tag) per n steps
    k = np.arange(n)
    walk = np.concatenate([k, n + k * (n + 1), (n + 1) ** 2 - 1 - k,
                           (n - k) * (n + 1)])
    boundary = np.column_stack([walk, np.roll(walk, -1), np.repeat(np.arange(4), n)])
    return Mesh(vertices, triangles, boundary)


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

    def ring_vertex(j, i):
        # ring j follows the center and the 3 j (j - 1) vertices of rings
        # 1..j-1; i taken modulo the ring size so sector ends wrap around
        return 1 + 3 * j * (j - 1) + i % (6 * j)

    ring = np.repeat(np.arange(1, rings + 1), 6 * np.arange(1, rings + 1))
    step = np.arange(1, len(ring) + 1) - ring_vertex(ring, 0)  # place in ring
    ang = 2.0 * np.pi * step / (6 * ring)
    r = ring / rings
    vertices = np.vstack([[0.0, 0.0],
                          np.column_stack([r * np.cos(ang), r * np.sin(ang)])])

    six = np.arange(6)
    tris = [np.column_stack([np.zeros(6, dtype=np.int64), ring_vertex(1, six),
                             ring_vertex(1, six + 1)])]
    for j in range(2, rings + 1):
        # each sector's strip: j outer steps and j - 1 inner steps, merged by
        # (io+1)(j-1) against (ii+1)j, the outer step first on ties
        keys = np.concatenate([np.arange(1, j + 1) * (j - 1), np.arange(1, j) * j])
        outer = np.argsort(keys, kind="stable") < j
        io = np.cumsum(outer) - outer  # steps of each kind taken before
        ii = np.cumsum(~outer) - ~outer
        io = six[:, None] * j + io  # (sector, step)
        ii = six[:, None] * (j - 1) + ii
        tri = np.stack([ring_vertex(j, io),
                        np.where(outer, ring_vertex(j, io + 1),
                                 ring_vertex(j - 1, ii + 1)),
                        ring_vertex(j - 1, ii)], axis=-1)
        tris.append(tri.reshape(-1, 3))

    i = np.arange(6 * rings)
    boundary = np.column_stack([ring_vertex(rings, i), ring_vertex(rings, i + 1),
                                np.zeros_like(i)])
    return Mesh(vertices, np.concatenate(tris), boundary)


def _undirected_edges(pairs, nv):
    """Distinct undirected edges of the (k, 2) vertex pairs, in the order
    the rows first meet them.

    Returns (edges, which, counts): the (ne, 2) edges with i <= j, each
    row's edge number and how many rows name each edge. One sort of the
    keys i * nv + j does the work.
    """
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    _, first, inverse, counts = np.unique(lo * nv + hi, return_index=True,
                                          return_inverse=True, return_counts=True)
    order = np.argsort(first)  # sorted-key rank -> first-met rank
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    return np.column_stack([lo[first], hi[first]]), rank[inverse], counts[order]


def _triangle_edges(triangles):
    """(3 nt, 2) directed edges ab, bc, ca of each triangle in turn."""
    return np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=2).reshape(-1, 2)


def refine_uniform(m: Mesh) -> Mesh:
    """Red refinement: each triangle into 4 congruent children.

    Edge midpoints become new vertices (deduplicated across neighbors),
    numbered in the order the edges are first met: ab, bc, ca of each
    triangle in turn, then the boundary edges. Boundary edges split in two
    inheriting their tag.
    """
    nv, nt = m.num_vertices, m.num_triangles
    pairs = np.concatenate([_triangle_edges(m.triangles), m.boundary_edges[:, :2]])
    edges, which, _ = _undirected_edges(pairs, nv)
    # ends added as a + b: a sum over axis 1 starts from +0.0, losing -0.0
    ends = m.vertices[edges]
    vertices = np.concatenate([m.vertices, 0.5 * (ends[:, 0] + ends[:, 1])])
    mid = nv + which

    a, b, c = m.triangles.T
    ab, bc, ca = mid[: 3 * nt].reshape(nt, 3).T
    triangles = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)

    i, j, tag = m.boundary_edges.T
    k = mid[3 * nt :]
    boundary = np.stack([i, k, tag, k, j, tag], axis=1)
    return Mesh(vertices, triangles.reshape(-1, 3), boundary.reshape(-1, 3))


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

    edges, _, counts = _undirected_edges(_triangle_edges(m.triangles), nv)
    listed, _, times = _undirected_edges(m.boundary_edges[:, :2], nv)
    edge_keys = edges[:, 0] * nv + edges[:, 1]
    listed_keys = listed[:, 0] * nv + listed[:, 1]
    is_listed = np.isin(edge_keys, listed_keys)
    bad = (counts > 2) | ((counts == 2) & is_listed) | ((counts == 1) & ~is_listed)
    for (i, j), count in zip(edges[bad].tolist(), counts[bad].tolist()):
        if count > 2:
            report.append("edge {} shared by {} triangles".format((i, j), count))
        elif count == 2:
            report.append("interior edge {} listed as boundary".format((i, j)))
        else:
            report.append("boundary edge {} not registered".format((i, j)))
    absent = ~np.isin(listed_keys, edge_keys)
    bad = absent | (times > 1)
    for (i, j), gone, n in zip(listed[bad].tolist(), absent[bad].tolist(),
                               times[bad].tolist()):
        if gone:
            report.append("registered boundary edge {} not in triangulation"
                          .format((i, j)))
        else:
            report.append("boundary edge {} registered {} times".format((i, j), n))

    # hanging nodes: a vertex of some triangle strictly inside an edge that
    # only one triangle uses. An edge's candidates are the vertices whose x
    # lies in its x-range, widened by a slack far above roundoff: one
    # bisection each way into the vertices sorted by x.
    once = edges[counts == 1]
    a, b = m.vertices[once[:, 0]], m.vertices[once[:, 1]]
    ab = b - a
    lab2 = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
    used = np.unique(m.triangles)
    pts = m.vertices[used]
    by_x = np.argsort(pts[:, 0], kind="stable")
    slack = 1e-9 * (1.0 + np.abs(pts[np.isfinite(pts)]).max(initial=0.0))
    start = np.searchsorted(pts[by_x, 0], np.minimum(a[:, 0], b[:, 0]) - slack)
    stop = np.searchsorted(pts[by_x, 0], np.maximum(a[:, 0], b[:, 0]) + slack, "right")
    n = np.maximum(stop - start, 0)
    e = np.repeat(np.arange(len(once)), n)
    v = by_x[np.repeat(start - (np.cumsum(n) - n), n) + np.arange(n.sum())]
    ap = pts[v] - a[e]
    dot = ap[:, 0] * ab[e, 0] + ap[:, 1] * ab[e, 1]  # s |ab|^2, s in (0, 1)
    cross = ab[e, 0] * ap[:, 1] - ab[e, 1] * ap[:, 0]
    v = used[v]
    hit = ((dot > 1e-12 * lab2[e]) & (dot < (1.0 - 1e-12) * lab2[e])
           & (np.abs(cross) <= 1e-12 * np.sqrt(lab2[e]))
           & (v != once[e, 0]) & (v != once[e, 1]))
    e, v = e[hit], v[hit]
    order = np.lexsort((v, e))
    for (i, j), k in zip(once[e[order]].tolist(), v[order].tolist()):
        report.append("nonconforming edge ({}, {}): vertex {} on it".format(i, j, k))
    return report


def save_mesh(m: Mesh, path) -> None:
    """Write the RWMESH 1 text format (UTF-8, line-oriented).

    Floats are written as `repr` writes them, so loading gives back the
    same bits.
    """
    text = ["RWMESH 1\n"]
    for name, a, field in (("VERTICES", m.vertices, "%r"),
                           ("TRIANGLES", m.triangles, "%d"),
                           ("BOUNDARY", m.boundary_edges, "%d")):
        row = " ".join([field] * a.shape[1]) + "\n"
        text.append("%s %d\n" % (name, len(a)))
        text.append((row * len(a)) % tuple(a.ravel().tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(text))


def _parse_rows(rows, width, dtype):
    """The rows as one (len(rows), width) array, or None if any is bad."""
    if not rows:
        return np.empty((0, width), dtype=dtype)
    try:
        values = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape[1] == width else None


def load_mesh(path) -> Mesh:
    """Read the RWMESH 1 text format; `#` lines are comments."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    lines = [ln for ln in map(str.strip, raw) if ln and not ln.startswith("#")]
    if not lines or lines[0].split() != ["RWMESH", "1"]:
        raise MeshFormatError("missing RWMESH 1 header")
    pos = 1

    def section(name, width, dtype):
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
        rows = lines[pos + 1 : pos + 1 + count]
        values = _parse_rows(rows, width, dtype)
        if values is None:
            bad = next(ln for ln in rows if _parse_rows([ln], width, dtype) is None)
            raise MeshFormatError("bad {} row {!r}".format(name, bad))
        pos += 1 + count
        return values

    vertices = section("VERTICES", 2, float)
    triangles = section("TRIANGLES", 3, np.int64)
    boundary = section("BOUNDARY", 3, np.int64)
    if pos != len(lines):
        raise MeshFormatError("trailing content after BOUNDARY section")

    if not np.isfinite(vertices).all():
        raise MeshFormatError("non-finite vertex coordinate")
    nv = len(vertices)
    for idx, what in ((triangles, "triangle"), (boundary[:, :2], "boundary")):
        out = ((idx < 0) | (idx >= nv)).ravel()
        if out.any():
            raise MeshFormatError("{} index {} out of range".format(
                what, idx.ravel()[out.argmax()]))
    return Mesh(vertices, triangles, boundary)
