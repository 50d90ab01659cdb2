import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughweyl.mesh import (
    Mesh,
    MeshFormatError,
    generate_disk,
    generate_unit_square,
    load_mesh,
    refine_uniform,
    save_mesh,
    triangle_areas,
    validate,
)


def count_edges(m):
    # independent edge enumeration: undirected vertex pairs over all triangles
    edges = set()
    for a, b, c in m.triangles:
        for i, j in ((a, b), (b, c), (c, a)):
            edges.add((min(i, j), max(i, j)))
    return len(edges)


class TestUnitSquare:
    def test_smallest_mesh_counts(self):
        m = generate_unit_square(1)
        assert m.num_vertices == 4
        assert m.num_triangles == 2
        assert m.boundary_edges.shape[0] == 4

    def test_n2_counts(self):
        m = generate_unit_square(2)
        assert m.num_vertices == 9
        assert m.num_triangles == 8
        assert m.boundary_edges.shape[0] == 8

    def test_euler_characteristic_n4(self):
        m = generate_unit_square(4)
        V, T, E = m.num_vertices, m.num_triangles, count_edges(m)
        assert V - E + T == 1

    def test_total_area_is_one(self):
        m = generate_unit_square(7)
        assert triangle_areas(m).sum() == pytest.approx(1.0, abs=1e-14)

    def test_boundary_edge_count_is_4n(self):
        for n in (1, 3, 8):
            assert generate_unit_square(n).boundary_edges.shape[0] == 4 * n

    def test_boundary_tags_cover_four_sides(self):
        m = generate_unit_square(3)
        assert set(m.boundary_edges[:, 2]) == {0, 1, 2, 3}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_unit_square(0)

    def test_mirror_symmetric_for_even_n(self):
        # reflection x -> 1-x maps the vertex set onto itself (coordinates
        # agree to 1 ulp) and the triangle set onto itself exactly, for even n
        for n in (2, 6):
            m = generate_unit_square(n)
            reflected = np.column_stack([1.0 - m.vertices[:, 0], m.vertices[:, 1]])
            d = np.abs(reflected[:, None, :] - m.vertices[None, :, :]).max(axis=2)
            perm = d.argmin(axis=1)
            assert d[np.arange(len(perm)), perm].max() < 1e-15
            assert len(set(perm)) == len(perm)
            tris = {tuple(sorted(t)) for t in m.triangles}
            tris_reflected = {
                tuple(sorted(perm[v] for v in t)) for t in m.triangles
            }
            assert tris == tris_reflected


class TestDisk:
    def test_single_ring_is_fan(self):
        m = generate_disk(1)
        assert m.num_vertices == 7
        assert m.num_triangles == 6
        assert all(0 in t for t in m.triangles)

    def test_counts(self):
        for r in (2, 3, 5):
            m = generate_disk(r)
            assert m.num_vertices == 1 + 3 * r * (r + 1)
            assert m.num_triangles == 6 * r * r
            assert m.boundary_edges.shape[0] == 6 * r

    def test_area_below_pi_and_matches_polygon(self):
        # total mesh area equals the inscribed 6r-gon area 0.5*m*sin(2*pi/m)
        for r in (2, 8):
            m = generate_disk(r)
            sides = 6 * r
            oracle = 0.5 * sides * np.sin(2 * np.pi / sides)
            assert triangle_areas(m).sum() == pytest.approx(oracle, rel=1e-12)
            assert triangle_areas(m).sum() < np.pi

    def test_area_within_one_percent_of_pi_at_8_rings(self):
        area = triangle_areas(generate_disk(8)).sum()
        assert abs(area - np.pi) / np.pi < 0.01

    def test_area_converges_to_pi(self):
        errs = [abs(triangle_areas(generate_disk(r)).sum() - np.pi) for r in (2, 4, 8)]
        assert errs[0] > errs[1] > errs[2]

    def test_center_is_vertex(self):
        m = generate_disk(3)
        assert np.all(m.vertices[0] == 0.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_disk(0)


class TestRefine:
    def test_two_triangle_square_becomes_eight(self):
        m = refine_uniform(generate_unit_square(1))
        assert m.num_triangles == 8

    def test_refine_twice_gives_32(self):
        m = refine_uniform(refine_uniform(generate_unit_square(1)))
        assert m.num_triangles == 32

    def test_child_areas_quarter_parent(self):
        m = generate_disk(2)
        r = refine_uniform(m)
        parent = triangle_areas(m)
        child = triangle_areas(r).reshape(-1, 4)
        assert np.allclose(child, parent[:, None] / 4.0, rtol=1e-12)

    def test_area_preserved(self):
        for m in (generate_unit_square(3), generate_disk(3)):
            r = refine_uniform(m)
            assert abs(triangle_areas(r).sum() - triangle_areas(m).sum()) < 1e-12

    def test_boundary_tags_inherited(self):
        m = generate_unit_square(2)
        r = refine_uniform(m)
        assert r.boundary_edges.shape[0] == 2 * m.boundary_edges.shape[0]
        assert set(r.boundary_edges[:, 2]) == set(m.boundary_edges[:, 2])


def refine_reference(m):
    # red refinement one edge at a time: midpoints numbered in the order a
    # dictionary first meets them (ab, bc, ca of each triangle, then the
    # boundary edges)
    verts = [tuple(p) for p in m.vertices.tolist()]
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = len(verts)
            p = 0.5 * (m.vertices[i] + m.vertices[j])
            verts.append((p[0], p[1]))
        return midpoint[key]

    triangles = []
    for a, b, c in m.triangles.tolist():
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        triangles += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    boundary = []
    for i, j, tag in m.boundary_edges.tolist():
        k = mid(i, j)
        boundary += [(i, k, tag), (k, j, tag)]
    return Mesh(np.array(verts).reshape(-1, 2), triangles, boundary)


def assert_same_mesh(got, want):
    # bitwise, so that -0.0 against 0.0 would count as a difference
    for name in ("vertices", "triangles", "boundary_edges"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def shuffled_meshes(draw):
    """A generated mesh with its triangles in random order and orientation
    and random extra boundary rows, or a random index soup (possibly with no
    triangles at all) over random vertices."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=4))
        m = generate_unit_square(n) if draw(st.booleans()) else generate_disk(n)
        tris = m.triangles.tolist()
        order = draw(st.permutations(range(len(tris))))
        tris = [tris[t] for t in order]
        for t, tri in enumerate(tris):
            turn = draw(st.integers(min_value=0, max_value=5))
            tri = tri[turn % 3:] + tri[:turn % 3]
            tris[t] = tri[::-1] if turn >= 3 else tri
        vertices, nv = m.vertices, m.num_vertices
        boundary = m.boundary_edges.tolist()
    else:
        nv = draw(st.integers(min_value=1, max_value=9))
        coord = st.floats(min_value=-4, max_value=4, allow_nan=False,
                          allow_infinity=False)
        vertices = draw(st.lists(st.tuples(coord, coord), min_size=nv,
                                 max_size=nv))
        idx = st.integers(min_value=0, max_value=nv - 1)
        tris = draw(st.lists(st.tuples(idx, idx, idx), max_size=6))
        boundary = []
    idx = st.integers(min_value=0, max_value=nv - 1)
    extra = draw(st.lists(st.tuples(idx, idx, st.integers(0, 5)), max_size=5))
    boundary = boundary + extra
    at = draw(st.integers(min_value=0, max_value=len(boundary)))
    boundary = boundary[at:] + boundary[:at]
    return Mesh(vertices, tris, boundary)


class TestRefineAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_meshes())
    def test_index_for_index(self, m):
        assert_same_mesh(refine_uniform(m), refine_reference(m))

    def test_no_triangles(self):
        m = Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)], [],
                 [(0, 1, 0), (1, 2, 4)])
        got = refine_uniform(m)
        assert_same_mesh(got, refine_reference(m))
        assert got.num_triangles == 0 and got.num_vertices == 5

    def test_negative_zero_midpoint_keeps_sign(self):
        # a midpoint summed from +0.0 would turn two -0.0 coordinates into +0.0
        m = Mesh([(-0.0, -0.0)], [], [(0, 0, 0)])
        got = refine_uniform(m)
        assert_same_mesh(got, refine_reference(m))
        assert np.signbit(got.vertices[1]).all()

    def test_twice_on_generated_meshes(self):
        for m in (generate_unit_square(5), generate_disk(4)):
            once = refine_uniform(m)
            assert_same_mesh(once, refine_reference(m))
            assert_same_mesh(refine_uniform(once), refine_reference(once))


# sha256 of the save_mesh bytes, recorded from the per-element implementation
# the vectorized generators and refinement replaced:
# (generator, size, refinement passes) -> digest
MESH_DIGESTS = {
    ("square", 1, 0): "51c5dbaca1bb2a42f9694ad156d0d0e4638a7d4a5fd40dffdc05a72da522e9cd",
    ("square", 1, 1): "53e92c3279c190f4f5de3d3ae1c1bfbae8c3926fa5dd6e212c0b9a133017b9e2",
    ("square", 1, 2): "6e213e09132aa9b15428855fdc6a75fd6fb77c9e3fa59dc6b11d19a3c255a68d",
    ("square", 2, 0): "c318093d2e175958dd924378e7f19bd831b01b2a520ef5544c7dc9525eb5dd84",
    ("square", 2, 1): "5a49e99e0154f82fda4c0f1c08d189a50252585b8ff6ddd75abda174108bbba5",
    ("square", 2, 2): "7ad1a64613666a548d60a1a121fbc533b8237c5af4de1f5804bb4230d01746ef",
    ("square", 3, 0): "e74ee1f528ada6dd78c94cbc85ce2fdf2b8614551a268a5351da69e842d0716c",
    ("square", 3, 1): "a39be45c5232eb4c8791cbf01ce66cfbb17570cd9bdc910763a34eaae2ef8933",
    ("square", 3, 2): "a49bbe12a9c5bc275c11b06c9c11e6c7deef43ed5aa3f9a9811b1eaf05fa2327",
    ("square", 8, 0): "4975353437b00105a8acfaa8a53d866b1f468c91ae07587b7d50bdbadf4aeaf9",
    ("square", 8, 1): "6ca0b67d4636edfbc08b4c93d1b935bda47958748e7f6b9c07df446b7def57bc",
    ("square", 8, 2): "5509b00463f0abf3db5870a7501423884b4f2eab7e9825c7ca9d41b6260968f7",
    ("disk", 1, 0): "a74da6b933de6f9137c71e06fb1f42e4747de62f56c628e27bd9d9fbd3a5d2e9",
    ("disk", 1, 1): "6aa6894907c2a9e9f67ff828de2ca096ea618b75c17e8150efbf1c8db5f6a53f",
    ("disk", 1, 2): "1e56f8d4c4ef4b26afead24a62cc09091461339f35550854152dd74cfa4ef163",
    ("disk", 2, 0): "4225b41c816874a27a5159857d41f414174d51799c71561ea4e7f8f5def8ac48",
    ("disk", 2, 1): "bbed55be9cc762a72ec7382e0c08c6a05db240062afd2c448c286accfdf751ba",
    ("disk", 2, 2): "48a3114fa88be51c2908f7ca78dbe4890854ceea004beaffa5808ea06918470d",
    ("disk", 3, 0): "14036646082e6cd1156cbe1f1a279dae80ae10af3acbd733a1650c73d777d65d",
    ("disk", 3, 1): "2ea6363e43e838690a7c4b081ae609f7aeda510e7ca02fdc024dc6646417f702",
    ("disk", 3, 2): "abf75ca664cdd04a35bc591e74867ac445e1c9fca2e42162ba7fb8540fcaa403",
    ("disk", 7, 0): "88616438f31e549f6eef01533810a7413dc9e167b4be7b2578bd9fccfe2b4173",
    ("disk", 7, 1): "971fb4b43e5b6208e3977e65e7a132c3b2c0cadeeac5ba1c5eeb276779664980",
    ("disk", 7, 2): "0027a245dece14c272994eae0125e3b1fa9e05b7e02d977a0f48bb336b5f3503",
}


@pytest.mark.parametrize("kind, size, passes", sorted(MESH_DIGESTS))
def test_mesh_bytes_pinned(tmp_path, kind, size, passes):
    m = {"square": generate_unit_square, "disk": generate_disk}[kind](size)
    for _ in range(passes):
        m = refine_uniform(m)
    path = tmp_path / "m.rwmesh"
    save_mesh(m, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == MESH_DIGESTS[kind, size, passes]


class TestValidate:
    @pytest.mark.parametrize("n", range(1, 33, 5))
    def test_square_meshes_valid(self, n):
        assert validate(generate_unit_square(n)) == []

    @pytest.mark.parametrize("r", range(1, 33, 5))
    def test_disk_meshes_valid(self, r):
        assert validate(generate_disk(r)) == []

    def test_refined_meshes_valid(self):
        assert validate(refine_uniform(generate_disk(2))) == []
        assert validate(refine_uniform(generate_unit_square(3))) == []

    def test_flipped_triangle_reported(self):
        m = generate_unit_square(2)
        tris = np.array(m.triangles)
        tris[3] = tris[3][::-1]
        bad = Mesh(m.vertices, tris, m.boundary_edges)
        assert any("negative area at index 3" in v for v in validate(bad))

    def test_hanging_node_reported(self):
        # lower-right half of the square is split at the diagonal midpoint,
        # upper-left half is not: vertex 4 hangs on edge (0, 2)
        vertices = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        triangles = [(0, 1, 4), (4, 1, 2), (0, 2, 3)]
        boundary = [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 0, 3)]
        bad = Mesh(vertices, triangles, boundary)
        assert any("nonconforming edge" in v for v in validate(bad))

    def test_unregistered_boundary_edge_reported(self):
        m = generate_unit_square(1)
        bad = Mesh(m.vertices, m.triangles, m.boundary_edges[:-1])
        assert any("not registered" in v for v in validate(bad))


    def test_every_violation_in_order(self):
        # square n = 2 (vertices 0-8) plus a third triangle on edge (0, 4)
        # through vertex 9, triangle 5 flipped, bottom edge (0, 1) dropped,
        # edge (2, 5) listed twice, and two rows naming no triangle edge
        m = generate_unit_square(2)
        tris = m.triangles.tolist() + [[0, 9, 4]]
        tris[5] = tris[5][::-1]
        rows = m.boundary_edges.tolist()
        bad = Mesh(np.vstack([m.vertices, [[0.9, 0.2]], [[0.5, 1.0]]]), tris,
                   rows[1:] + [rows[2], [0, 8, 6], [4, 0, 5]])
        assert validate(bad) == [
            "negative area at index 5",
            "boundary edge (0, 1) not registered",
            "edge (0, 4) shared by 3 triangles",
            "boundary edge (0, 9) not registered",
            "boundary edge (4, 9) not registered",
            "boundary edge (2, 5) registered 2 times",
            "registered boundary edge (0, 8) not in triangulation",
        ]

    def test_hanging_node_message(self):
        # vertex 4 splits the bottom edge of the lower cell only
        vertices = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0), (0.5, -1)]
        triangles = [(0, 1, 2), (0, 2, 3), (0, 5, 4), (4, 5, 1)]
        boundary = [(1, 2, 1), (2, 3, 2), (3, 0, 3), (0, 5, 0), (5, 1, 0)]
        assert validate(Mesh(vertices, triangles, boundary)) == [
            "boundary edge (0, 1) not registered",
            "boundary edge (0, 4) not registered",
            "boundary edge (1, 4) not registered",
            "nonconforming edge (0, 1): vertex 4 on it",
        ]

    def test_hanging_node_one_ulp_off_a_vertical_edge(self):
        # vertex 4 sits one ulp right of the vertical edge (1, 2), outside
        # its x-range, yet within the 1e-12 tolerance of lying on it
        vertices = [(0, 0), (1, 0), (1, 1), (0, 1),
                    (np.nextafter(1.0, 2.0), 0.5), (2, 0.5)]
        triangles = [(0, 1, 2), (0, 2, 3), (1, 5, 4), (4, 5, 2)]
        boundary = [(0, 1, 0), (1, 5, 1), (5, 2, 1), (2, 3, 2), (3, 0, 3)]
        assert validate(Mesh(vertices, triangles, boundary))[-1] == (
            "nonconforming edge (1, 2): vertex 4 on it")

    def test_interior_edge_listed_as_boundary(self):
        m = generate_unit_square(2)
        bad = Mesh(m.vertices, m.triangles,
                   m.boundary_edges.tolist() + [[4, 0, 5]])
        assert validate(bad) == ["interior edge (0, 4) listed as boundary"]

    def test_unused_vertex_on_boundary_is_not_hanging(self):
        # only vertices of some triangle can hang
        m = generate_unit_square(1)
        extra = Mesh(np.vstack([m.vertices, [[0.5, 0.0]]]), m.triangles,
                     m.boundary_edges)
        assert validate(extra) == []


# the sections of a one-triangle RWMESH file, for the error contract
_V = "VERTICES 3\n0 0\n1 0\n0 1\n"
_T = "TRIANGLES 1\n0 1 2\n"
_B = "BOUNDARY 3\n0 1 0\n1 2 0\n2 0 0\n"


class TestMeshIO:
    def test_round_trip_bit_identical(self, tmp_path):
        m = generate_disk(3)
        path = tmp_path / "disk.rwmesh"
        save_mesh(m, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.triangles, m.triangles)
        assert np.array_equal(back.boundary_edges, m.boundary_edges)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "m.rwmesh"
        path.write_text(
            "# a comment\nRWMESH 1\nVERTICES 3\n0 0\n1 0\n# interior comment\n0 1\n"
            "TRIANGLES 1\n0 1 2\nBOUNDARY 3\n0 1 0\n1 2 0\n2 0 0\n"
        )
        m = load_mesh(path)
        assert m.num_triangles == 1

    def test_index_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "m.rwmesh"
        path.write_text(
            "RWMESH 1\nVERTICES 3\n0 0\n1 0\n0 1\nTRIANGLES 1\n0 1 3\nBOUNDARY 0\n"
        )
        with pytest.raises(MeshFormatError, match="out of range"):
            load_mesh(path)

    def test_nan_coordinate_rejected(self, tmp_path):
        path = tmp_path / "m.rwmesh"
        path.write_text(
            "RWMESH 1\nVERTICES 3\n0 0\nnan 0\n0 1\nTRIANGLES 1\n0 1 2\nBOUNDARY 0\n"
        )
        with pytest.raises(MeshFormatError, match="non-finite"):
            load_mesh(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "m.rwmesh"
        path.write_text("RWMESH 1\nPOINTS 3\n0 0\n1 0\n0 1\n")
        with pytest.raises(MeshFormatError, match="section header"):
            load_mesh(path)

    def test_missing_magic_rejected(self, tmp_path):
        path = tmp_path / "m.rwmesh"
        path.write_text("VERTICES 0\nTRIANGLES 0\nBOUNDARY 0\n")
        with pytest.raises(MeshFormatError, match="header"):
            load_mesh(path)

    @pytest.mark.parametrize("text, message", [
        (_V.replace("1 0\n", "1 0 0\n", 1) + _T + _B,
         "bad VERTICES row '1 0 0'"),
        (_V + "TRIANGLES 1\n0 1\n" + _B, "bad TRIANGLES row '0 1'"),
        (_V + _T + _B.replace("1 2 0", "1 2"), "bad BOUNDARY row '1 2'"),
        (_V.replace("1 0\n", "1 x\n", 1) + _T + _B, "bad VERTICES row '1 x'"),
        (_V + "TRIANGLES 1\n0 1 2.0\n" + _B, "bad TRIANGLES row '0 1 2.0'"),
        (_V + _T + _B.replace("1 2 0", "1 2 a"), "bad BOUNDARY row '1 2 a'"),
        # the first bad row is named, whether its width or a token is wrong
        (_V.replace("1 0\n0 1", "1 x\n0 1 2") + _T + _B,
         "bad VERTICES row '1 x'"),
        (_V.replace("1 0\n0 1", "1 x 3\n0 y") + _T + _B,
         "bad VERTICES row '1 x 3'"),
        (_V.replace("3", "three", 1) + _T + _B, "bad count in VERTICES header"),
        (_V + "TRIANGLES 1.0\n0 1 2\n" + _B, "bad count in TRIANGLES header"),
        (_V + "TRIANGLES -1\n" + _B, "TRIANGLES section truncated"),
        (_V + _T + _B.replace("3", "4", 1), "BOUNDARY section truncated"),
        ("VERTICES 30\n0 0\n" + _T + _B, "VERTICES section truncated"),
        (_V + _T, "missing BOUNDARY section"),
        (_V.replace("3", "3 x", 1) + _T + _B,
         "malformed section header 'VERTICES 3 x'"),
        (_V + _T + _B + "0 1 0\n", "trailing content after BOUNDARY section"),
        (_V + _T + _B + "VERTICES 0\n",
         "trailing content after BOUNDARY section"),
        (_V + _T + _B.replace("1 2 0", "1 3 0"), "boundary index 3 out of range"),
        (_V + _T + _B.replace("2 0 0", "-1 0 0"),
         "boundary index -1 out of range"),
        (_V + "TRIANGLES 2\n0 1 2\n0 5 -2\nBOUNDARY 1\n7 1 0\n",
         "triangle index 5 out of range"),
        (_V + "TRIANGLES 1\n0 -1 2\n" + _B, "triangle index -1 out of range"),
        (_V.replace("1 0\n", "inf 0\n", 1) + _T + _B,
         "non-finite vertex coordinate"),
    ])
    def test_error_contract(self, tmp_path, text, message):
        path = tmp_path / "m.rwmesh"
        path.write_text("RWMESH 1\n" + text)
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert str(err.value) == message

    def test_tag_column_not_range_checked(self, tmp_path):
        path = tmp_path / "m.rwmesh"
        path.write_text("RWMESH 1\n" + _V + _T + "BOUNDARY 1\n0 1 9\n")
        assert load_mesh(path).boundary_edges.tolist() == [[0, 1, 9]]

    def test_empty_sections(self, tmp_path):
        path = tmp_path / "m.rwmesh"
        path.write_text("RWMESH 1\nVERTICES 0\nTRIANGLES 0\nBOUNDARY 0\n")
        m = load_mesh(path)
        assert m.vertices.shape == (0, 2) and m.num_triangles == 0
        assert m.boundary_edges.shape == (0, 3)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_round_trip_random_meshes(self, tmp_path_factory, data):
        nv = data.draw(st.integers(min_value=3, max_value=12))
        coord = st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        )
        vertices = data.draw(
            st.lists(st.tuples(coord, coord), min_size=nv, max_size=nv)
        )
        nt = data.draw(st.integers(min_value=1, max_value=8))
        idx = st.integers(min_value=0, max_value=nv - 1)
        triangles = data.draw(
            st.lists(st.tuples(idx, idx, idx), min_size=nt, max_size=nt)
        )
        boundary = data.draw(
            st.lists(
                st.tuples(idx, idx, st.integers(min_value=0, max_value=7)),
                min_size=0,
                max_size=6,
            )
        )
        m = Mesh(vertices, triangles, boundary)
        path = tmp_path_factory.mktemp("rt") / "m.rwmesh"
        save_mesh(m, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.triangles, m.triangles)
        assert np.array_equal(back.boundary_edges, m.boundary_edges)
