"""Assembly oracles: hand-integrated element matrices, stencil values,
conformal scaling, pullback equality, the COO-summed reference assembly,
peak memory, and the discrete Poincare constant."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh, null_space

from roughweyl import (
    BoundarySpec,
    ComparabilityError,
    Mesh,
    MetricField,
    Pencil,
    SingularPointError,
    WeightField,
    assemble,
    constant_weight,
    checkerboard_metric,
    cone_metric,
    euclidean_metric,
    expression_weight,
    generate_disk,
    generate_unit_square,
    graph_cone_metric,
    halves_weight,
    piecewise_metric,
    poincare_constant,
    pullback_metric,
    refine_uniform,
    sample_metric,
    triangle_quadrature,
    weyl_target,
)
from roughweyl import fields
from roughweyl.assembly import _PAIRS, _Pattern
from roughweyl.mesh import MeshFormatError, triangle_areas

# hand integration on the reference triangle (0,0),(1,0),(0,1):
# grad phi = (-1,-1), (1,0), (0,1); area 1/2
ELEMENT_K = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
ELEMENT_M = (0.5 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])

PI2 = np.pi ** 2


def reference_triangle():
    return Mesh(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        [(0, 1, 2)],
        [(0, 1, 0), (1, 2, 0), (2, 0, 0)],
    )


SHEAR = np.array([[1.0, 0.5], [0.0, 1.0]])
SHEAR_HI = 0.25 + np.sqrt(0.25 ** 2 + 1.0)  # largest singular value
REFERENCE_METRICS = {
    "euclidean": euclidean_metric,
    "checkerboard": lambda: checkerboard_metric(1.0, 2.0, 4),
    "cone": graph_cone_metric,
    "shear": lambda: pullback_metric(
        euclidean_metric(), lambda pts: pts @ SHEAR.T,
        lambda pts: np.broadcast_to(SHEAR, (len(pts), 2, 2)),
        jac_bounds=(1.0 / SHEAR_HI, SHEAR_HI)),
}
REFERENCE_WEIGHTS = {
    "one": lambda: constant_weight(1.0),
    "halves": lambda: halves_weight(1.0, -1.0),
    "expr": lambda: expression_weight("x - y + 0.2"),
}


def scaled_identity_metric(c):
    ok = lambda pts: np.ones(len(pts), dtype=bool)
    return piecewise_metric([(ok, c * np.eye(2))])


class TestBoundarySpec:
    def test_mixed_empty_is_neumann(self):
        assert BoundarySpec("mixed", ()).kind == "neumann"

    def test_mixed_all_tags_resolves_to_dirichlet(self):
        m = generate_unit_square(2)
        spec = BoundarySpec.mixed({0, 1, 2, 3}).resolve(m)
        assert spec.kind == "dirichlet"
        assert spec == BoundarySpec.dirichlet()

    def test_mixed_partial_stays_mixed(self):
        m = generate_unit_square(2)
        spec = BoundarySpec.mixed({0, 1}).resolve(m)
        assert spec.kind == "mixed"
        assert spec.dirichlet_tags == frozenset({0, 1})

    def test_dirichlet_vertices_bottom_edge(self):
        m = generate_unit_square(4)
        verts = BoundarySpec.mixed({0}).dirichlet_vertices(m)
        assert len(verts) == 5
        assert np.all(m.vertices[verts][:, 1] == 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec("robin")


class TestElementMatrices:
    def test_reference_stiffness(self):
        p = assemble(reference_triangle(), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.neumann())
        np.testing.assert_allclose(p.K.toarray(), ELEMENT_K, atol=1e-15)

    def test_reference_mass(self):
        p = assemble(reference_triangle(), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.neumann())
        np.testing.assert_allclose(p.Mm.toarray(), ELEMENT_M, atol=1e-15)

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_stiffness_exact_at_every_order(self, order):
        # integrand is constant per cell, so all rules agree exactly
        p = assemble(reference_triangle(), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.neumann(), quad_order=order)
        np.testing.assert_allclose(p.K.toarray(), ELEMENT_K, atol=1e-15)

    def test_five_point_stencil_center_value(self):
        m = generate_unit_square(2)
        p = assemble(m, euclidean_metric(), constant_weight(1.0),
                     BoundarySpec.dirichlet())
        assert p.n_free == 1
        np.testing.assert_allclose(m.vertices[p.free_dofs[0]], [0.5, 0.5])
        np.testing.assert_allclose(p.Kf.toarray(), [[4.0]], rtol=1e-14)

    def test_weighted_mass_equals_mass_for_unit_weight(self):
        p = assemble(generate_unit_square(4), checkerboard_metric(1.0, 3.0),
                     constant_weight(1.0), BoundarySpec.neumann())
        assert (p.R != p.Mm).nnz == 0

    def test_mass_spd_on_free_dofs(self):
        for bc in (BoundarySpec.dirichlet(), BoundarySpec.neumann()):
            p = assemble(generate_unit_square(4), euclidean_metric(),
                         constant_weight(1.0), bc)
            assert np.linalg.eigvalsh(p.Mmf.toarray()).min() > 0

    def test_stiffness_definiteness(self):
        m = generate_unit_square(4)
        p = assemble(m, euclidean_metric(), constant_weight(1.0),
                     BoundarySpec.dirichlet())
        assert np.linalg.eigvalsh(p.Kf.toarray()).min() > 0
        full = np.linalg.eigvalsh(p.K.toarray())
        assert full.min() >= -1e-12

    def test_symmetry_exact(self):
        p = assemble(generate_unit_square(5), checkerboard_metric(1.0, 4.0),
                     halves_weight(1.0, -2.0), BoundarySpec.neumann())
        for A in (p.K, p.Mm, p.R):
            assert (A != A.T).nnz == 0

    def test_anisotropic_element_closed_form(self):
        # one skew triangle, constant G with off-diagonal terms, rho = -2:
        # K_e = |T| sqrt(det G) B^T G^{-1} B with B the 2 x 3 matrix of
        # gradients, M_e = |T| sqrt(det G) (J + I) / 12 with J all ones,
        # R_e = -2 M_e
        G = np.array([[2.0, 0.6], [0.6, 1.0]])
        corners = np.array([[0.1, 0.2], [1.3, 0.4], [0.5, 1.1]])
        tri = Mesh(corners, [(0, 1, 2)], [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
        metric = MetricField(lambda pts: np.broadcast_to(G, (len(pts), 2, 2)),
                             0.8, 1.6)
        p = assemble(tri, metric, constant_weight(-2.0), BoundarySpec.neumann())
        A = np.vstack([np.ones(3), corners.T])  # rows 1, x, y at the corners
        B = np.linalg.inv(A)[:, 1:].T  # (2, 3): column i is grad phi_i
        area = 0.5 * np.linalg.det(A)
        vol = area * np.sqrt(np.linalg.det(G))
        K_e = vol * B.T @ np.linalg.inv(G) @ B
        M_e = vol * (np.ones((3, 3)) + np.eye(3)) / 12.0
        np.testing.assert_allclose(p.K.toarray(), K_e, rtol=0, atol=1e-14)
        np.testing.assert_allclose(p.Mm.toarray(), M_e, rtol=0, atol=1e-14)
        np.testing.assert_allclose(p.R.toarray(), -2.0 * M_e, rtol=0, atol=1e-14)

    def test_exact_stiffness_zeros_dropped(self):
        # the right-angle corners of the structured square give stiffness
        # entries that cancel to exactly 0.0; symmetrizing drops them
        p = assemble(generate_unit_square(8), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.dirichlet())
        assert (p.K.nnz, p.Mm.nnz, p.R.nnz) == (369, 497, 497)


class TestInvariants:
    def test_conformal_scaling(self):
        m = generate_unit_square(4)
        w = expression_weight("1 + x*y")
        base = assemble(m, euclidean_metric(), w, BoundarySpec.neumann())
        scaled = assemble(m, scaled_identity_metric(4.0), w, BoundarySpec.neumann())
        np.testing.assert_allclose(scaled.K.toarray(), base.K.toarray(),
                                   atol=1e-12)
        np.testing.assert_allclose(scaled.Mm.toarray(), 4.0 * base.Mm.toarray(),
                                   atol=1e-12)
        np.testing.assert_allclose(scaled.R.toarray(), 4.0 * base.R.toarray(),
                                   atol=1e-12)

    @given(c=st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=20, deadline=None)
    def test_conformal_scaling_any_constant(self, c):
        m = generate_unit_square(2)
        w = constant_weight(1.0)
        base = assemble(m, euclidean_metric(), w, BoundarySpec.neumann())
        scaled = assemble(m, scaled_identity_metric(c), w, BoundarySpec.neumann())
        np.testing.assert_allclose(scaled.K.toarray(), base.K.toarray(),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(scaled.Mm.toarray(), c * base.Mm.toarray(),
                                   rtol=1e-12)

    # tau = 1 on a pencil without Dirichlet vertices rests on K 1 = 0
    @pytest.mark.parametrize("domain", ["square", "disk"])
    @pytest.mark.parametrize("metric", sorted(REFERENCE_METRICS))
    def test_neumann_row_sums_vanish(self, domain, metric):
        m = generate_disk(6) if domain == "disk" else generate_unit_square(6)
        p = assemble(m, REFERENCE_METRICS[metric](), constant_weight(1.0),
                     BoundarySpec.neumann())
        assert p.tau == 1
        ones = np.ones(p.n_vertices)
        scale = max(1.0, abs(p.K).max())
        assert np.abs(p.K @ ones).max() <= 1e-10 * scale

    def test_weighted_mass_linear_in_weight(self):
        m = generate_unit_square(4)
        g = euclidean_metric()
        bc = BoundarySpec.dirichlet()
        r1 = assemble(m, g, halves_weight(1.0, -1.0), bc).R
        r2 = assemble(m, g, constant_weight(2.0), bc).R
        r12 = assemble(m, g, halves_weight(3.0, 1.0), bc).R
        diff = np.abs((r12 - (r1 + r2)).toarray()).max()
        assert diff <= 1e-12

    def test_pullback_pencil_equality(self):
        # shear (x, y) -> (x + y/2, y); piecewise-linear on the mesh
        m = generate_unit_square(4)
        J = np.array([[1.0, 0.5], [0.0, 1.0]])
        s_hi = 0.25 + np.sqrt(0.25 ** 2 + 1.0)
        phi = lambda pts: pts @ J.T
        g_pull = pullback_metric(euclidean_metric(), phi,
                                 lambda pts: np.broadcast_to(
                                     J, (len(pts), 2, 2)),
                                 jac_bounds=(1.0 / s_hi, s_hi))
        w_image = expression_weight("1 + x*y")
        w_pull = WeightField(lambda pts: 1.0 + (
                                 pts[:, 0] + 0.5 * pts[:, 1]) * pts[:, 1])
        m_image = Mesh(phi(m.vertices), m.triangles, m.boundary_edges)
        bc = BoundarySpec.dirichlet()
        a = assemble(m, g_pull, w_pull, bc)
        b = assemble(m_image, euclidean_metric(), w_image, bc)
        for A, B in ((a.K, b.K), (a.Mm, b.Mm), (a.R, b.R)):
            assert np.abs((A - B).toarray()).max() <= 1e-10

    def test_assembly_bit_reproducible(self):
        m = generate_unit_square(6)
        args = (m, checkerboard_metric(1.0, 5.0), halves_weight(2.0, -1.0),
                BoundarySpec.neumann())
        a, b = assemble(*args), assemble(*args)
        for A, B in ((a.K, b.K), (a.Mm, b.Mm), (a.R, b.R)):
            A, B = A.tocsr(), B.tocsr()
            A.sort_indices()
            B.sort_indices()
            assert np.array_equal(A.data, B.data)
            assert np.array_equal(A.indices, B.indices)


class TestConstraintData:
    def test_tau_by_boundary_kind(self):
        m = generate_unit_square(3)
        g, w = euclidean_metric(), constant_weight(1.0)
        assert assemble(m, g, w, BoundarySpec.neumann()).tau == 1
        assert assemble(m, g, w, BoundarySpec.dirichlet()).tau == 0
        assert assemble(m, g, w, BoundarySpec.mixed({2})).tau == 0

    @pytest.mark.parametrize("mesh, tags, message", [
        (lambda: generate_unit_square(3), {9},
         r"tags \[9\] are not on the mesh, whose tags are \[0, 1, 2, 3\]"),
        (lambda: generate_unit_square(3), {1, 9}, r"tags \[9\] are not"),
        (lambda: generate_disk(4), {1, 7},
         r"tags \[1, 7\] are not on the mesh, whose tags are \[0\]"),
    ], ids=["square-9", "square-1,9", "disk-1,7"])
    def test_mixed_with_absent_tag_is_refused(self, mesh, tags, message):
        # a tag the mesh lacks would constrain no vertex: refused, not
        # solved as the Neumann problem it silently became
        with pytest.raises(ValueError, match=message):
            assemble(mesh(), euclidean_metric(), constant_weight(1.0),
                     BoundarySpec.mixed(tags))

    def test_constraint_vector_sums_to_weight_integral(self):
        # sum_i r_i = integral rho d mu by partition of unity
        m = generate_unit_square(4)
        p = assemble(m, euclidean_metric(), halves_weight(3.0, 1.0),
                     BoundarySpec.neumann())
        np.testing.assert_allclose(p.r.sum(), 2.0, rtol=1e-12)

    def test_zero_mean_tolerated_without_flag(self):
        p = assemble(generate_unit_square(4), euclidean_metric(),
                     halves_weight(1.0, -1.0), BoundarySpec.dirichlet())
        assert abs(p.r.sum()) <= 1e-12
        assert p.masses == pytest.approx((0.5, 0.5), rel=1e-12)


class TestAssembleErrors:
    def test_singular_point_inside_cell(self):
        g = MetricField(lambda pts: np.broadcast_to(np.eye(2), (len(pts), 2, 2)),
                        1.0, 1.0, singular_points=[(1.0 / 3.0, 1.0 / 3.0)])
        with pytest.raises(SingularPointError):
            assemble(reference_triangle(), g, constant_weight(1.0),
                     BoundarySpec.neumann(), quad_order=1)

    def test_singular_vertex_never_sampled(self):
        # cone tip sits on the center vertex; quadrature stays interior
        p = assemble(generate_disk(3), graph_cone_metric(),
                     constant_weight(1.0), BoundarySpec.dirichlet())
        assert p.n_free > 0

    def test_comparability_violation(self):
        lying = MetricField(lambda pts: np.broadcast_to(
                                4.0 * np.eye(2), (len(pts), 2, 2)), 1.0, 1.0)
        with pytest.raises(ComparabilityError):
            assemble(generate_unit_square(2), lying, constant_weight(1.0),
                     BoundarySpec.neumann())

    def test_bad_quadrature_order(self):
        with pytest.raises(ValueError):
            assemble(generate_unit_square(2), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.neumann(), quad_order=3)


def dense_poincare(p):
    """The dense oracle of `poincare_constant`: 1 / the top eigenvalue of
    scipy's `eigh` on (Mm, K), restricted to an orthonormal basis of
    {r . v = 0} from scipy's `null_space` when tau = 1."""
    Mm, K = p.Mmf.toarray(), p.Kf.toarray()
    if p.tau:
        Q = null_space(p.r_free[None])
        Mm, K = Q.T @ Mm @ Q, Q.T @ K @ Q
    return 1.0 / eigh(Mm, K, eigvals_only=True)[-1]


class TestPoincareConstant:
    def test_neumann_limit_first_nonzero_eigenvalue(self):
        g, w = euclidean_metric(), constant_weight(1.0)
        errs = []
        for n in (8, 16, 32):
            p = assemble(generate_unit_square(n), g, w, BoundarySpec.neumann())
            errs.append(poincare_constant(p) / PI2 - 1.0)
        assert abs(errs[-1]) < 1e-3
        for a, b in zip(errs, errs[1:]):
            assert 3.7 < a / b < 4.3

    def test_dirichlet_limit(self):
        g, w = euclidean_metric(), constant_weight(1.0)
        errs = []
        for n in (8, 16, 32):
            p = assemble(generate_unit_square(n), g, w, BoundarySpec.dirichlet())
            errs.append(poincare_constant(p) / (2.0 * PI2) - 1.0)
        assert abs(errs[-1]) < 3e-3
        for a, b in zip(errs, errs[1:]):
            assert 3.7 < a / b < 4.3

    def test_conformal_quarter(self):
        m = generate_unit_square(8)
        w = constant_weight(1.0)
        bc = BoundarySpec.dirichlet()
        mu1 = poincare_constant(assemble(m, euclidean_metric(), w, bc))
        mu4 = poincare_constant(assemble(m, scaled_identity_metric(4.0), w, bc))
        np.testing.assert_allclose(mu4, mu1 / 4.0, rtol=1e-12)

    @pytest.mark.parametrize("bc", [BoundarySpec.neumann(), BoundarySpec.dirichlet()])
    def test_sparse_path_matches_dense(self, bc):
        p = assemble(generate_unit_square(16), euclidean_metric(),
                     constant_weight(1.0), bc)
        assert p.tau == (bc.kind == "neumann")
        np.testing.assert_allclose(poincare_constant(p), dense_poincare(p),
                                   rtol=1e-10)


class TestSparsePoincareConstant:
    """The Lanczos value against the dense oracle on a sign-changing
    Neumann weight."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("metric", ["euclidean", "checkerboard"])
    def test_halves_neumann_matches_dense(self, metric, n):
        g = (euclidean_metric() if metric == "euclidean"
             else checkerboard_metric(1.0, 2.0, 4))
        p = assemble(generate_unit_square(n), g, halves_weight(1.0, -0.5),
                     BoundarySpec.neumann())
        assert p.tau == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sparse_val = poincare_constant(p)
        np.testing.assert_allclose(sparse_val, dense_poincare(p), rtol=1e-10)


def assemble_reference(m, g, w, quad_order=2):
    """K, Mm and R from the same element kernels as `assemble`, summed by
    one COO -> CSR conversion per form and symmetrized as (A + A^T) / 2."""
    bary, wq = triangle_quadrature(quad_order)
    corners = m.vertices[m.triangles]
    areas = triangle_areas(m)
    edges = np.roll(corners, -2, axis=1) - np.roll(corners, -1, axis=1)
    grads = edges[:, :, ::-1] * [-1.0, 1.0] / (2.0 * areas)[:, None, None]
    points = (bary @ corners).reshape(-1, 2)
    G, sqrtdet, measure = sample_metric(g, points, areas, wq)
    nt, nq, nv = m.num_triangles, len(wq), m.num_vertices
    adj = G.reshape(nt, nq, 4)[:, :, [3, 1, 2, 0]] * [1.0, -1.0, -1.0, 1.0]
    coeff = ((wq / sqrtdet.reshape(nt, nq))[:, None, :] @ adj).reshape(nt, 2, 2)
    Ke = grads @ coeff @ grads.transpose(0, 2, 1) * areas[:, None, None]
    phi2 = (bary[:, :, None] * bary[:, None, :]).reshape(nq, 9)
    mu = measure.reshape(nt, nq)
    rows = np.repeat(m.triangles, 3, axis=1).ravel()
    cols = np.tile(m.triangles, (1, 3)).ravel()

    def build(data):
        A = sparse.coo_matrix((data.ravel(), (rows, cols)),
                              shape=(nv, nv)).tocsr()
        A = ((A + A.T) * 0.5).tocsr()
        A.sort_indices()
        return A

    rho = w.values(points).reshape(nt, nq)
    return build(Ke), build(mu @ phi2), build((mu * rho) @ phi2)


@st.composite
def reference_cases(draw):
    """A refined or plain square or disk with its triangles in random order
    and random rotation, optionally with one vertex that no triangle uses,
    and a metric and weight."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = generate_unit_square(n) if draw(st.booleans()) else generate_disk(n)
    if draw(st.booleans()):
        m = refine_uniform(m)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tris = m.triangles[rng.permutation(m.num_triangles)]
    turn = rng.integers(0, 3, size=len(tris))[:, None]
    tris = np.take_along_axis(tris, (np.arange(3) + turn) % 3, axis=1)
    vertices, boundary = m.vertices, m.boundary_edges
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=m.num_vertices))
        vertices = np.insert(vertices, k, [0.3, 2.0], axis=0)
        tris = tris + (tris >= k)
        boundary = np.column_stack([boundary[:, :2] + (boundary[:, :2] >= k),
                                    boundary[:, 2]])
    m = Mesh(vertices, tris, boundary)
    g = REFERENCE_METRICS[draw(st.sampled_from(sorted(REFERENCE_METRICS)))]()
    w = REFERENCE_WEIGHTS[draw(st.sampled_from(sorted(REFERENCE_WEIGHTS)))]()
    return m, g, w


class TestAgainstCooReference:
    """The shared-pattern assembly against `assemble_reference`.

    Off-diagonal sums have at most two terms, so they do not depend on the
    summation order; diagonal sums have up to eight, which `assemble` adds
    in element order and the COO path in the order of its sorted
    duplicates. Entries therefore agree to a few ulps of the matrix's
    largest entry. K and Mm have identical patterns, since their diagonals
    never cancel. R may not: where rho changes sign a diagonal sum can
    cancel to exactly 0 in one order and to about 1e-17 in the other (the
    graph-cone L4 square with halves:1,-1 stores 1872 entries of R against
    the reference's 1874). That is roundoff, not a defect, and the entries
    concerned lie within the same tolerance.
    """

    @staticmethod
    def assert_matches(p, m, g, w):
        for name, A, B in zip(("K", "Mm", "R"), (p.K, p.Mm, p.R),
                              assemble_reference(m, g, w)):
            assert A.format == "csr" and A.has_canonical_format
            assert (A != A.T).nnz == 0
            tol = 4.0 * np.finfo(float).eps * abs(B).max()
            assert np.abs((A - B).toarray()).max() <= tol, name
            if name != "R":
                np.testing.assert_array_equal(A.indptr, B.indptr)
                np.testing.assert_array_equal(A.indices, B.indices)

    @given(case=reference_cases())
    @settings(max_examples=40, deadline=None)
    def test_random_meshes(self, case):
        m, g, w = case
        self.assert_matches(assemble(m, g, w, BoundarySpec.neumann()), m, g, w)

    @pytest.mark.parametrize("metric", sorted(REFERENCE_METRICS))
    def test_l4_square_halves(self, metric):
        m = refine_uniform(generate_unit_square(8))
        g, w = REFERENCE_METRICS[metric](), halves_weight(1.0, -1.0)
        self.assert_matches(assemble(m, g, w, BoundarySpec.dirichlet()), m, g, w)

    def test_single_cells_under_constant_metrics(self):
        # the edge-vector stiffness e_i . H e_j / (4 |cell|) of `assemble`
        # against the gradient form of `assemble_reference`, one random
        # cell at a time: acute, obtuse and nearly degenerate. Both forms
        # round to about cond(G) ulps of the largest entry, so the random
        # SPD metric keeps its condition number within 4.
        rng = np.random.default_rng(11)
        w = WeightField(lambda pts: np.ones(len(pts)))
        eps = np.finfo(float).eps
        for t in range(150):
            P = rng.standard_normal((3, 2)) * 10.0 ** rng.uniform(-3, 3)
            if t % 3:  # apex at relative height 0.05 or 1e-7 over a base
                base = P[1] - P[0]
                height = (0.05 if t % 3 == 1 else 1e-7) * np.linalg.norm(base)
                P[2] = (P[0] + rng.uniform(-0.5, 1.5) * base
                        + height * rng.standard_normal(2))
            m = Mesh(P, [(0, 1, 2)], [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
            if triangle_areas(m)[0] < 0.0:
                m = Mesh(P, [(0, 2, 1)], [(0, 2, 0), (2, 1, 0), (1, 0, 0)])
            turn = rng.uniform(0.0, np.pi)
            rot = np.array([[np.cos(turn), -np.sin(turn)],
                            [np.sin(turn), np.cos(turn)]])
            lam = rng.uniform(0.5, 2.0, 2) * 10.0 ** rng.uniform(-2, 2)
            G = (rot * lam) @ rot.T
            G[1, 0] = G[0, 1]
            g = MetricField(lambda pts, G=G: np.broadcast_to(G, (len(pts), 2, 2)),
                            0.99 * np.sqrt(lam.min()), 1.01 * np.sqrt(lam.max()))
            K = assemble(m, g, w, BoundarySpec.neumann()).K.toarray()
            want = assemble_reference(m, g, w)[0].toarray()
            assert np.abs(K - want).max() <= 4.0 * eps * np.abs(want).max(), t

    def test_unused_vertex_has_empty_rows(self):
        m = generate_unit_square(3)
        m = Mesh(np.vstack([m.vertices, [[0.5, 2.0]]]), m.triangles,
                 m.boundary_edges)
        p = assemble(m, euclidean_metric(), constant_weight(1.0),
                     BoundarySpec.neumann())
        last = m.num_vertices - 1
        for A in (p.K, p.Mm, p.R):
            assert A.shape == (m.num_vertices,) * 2
            assert A.indptr[last] == A.indptr[last + 1] == A.nnz

    def test_any_element_matrices(self):
        # the pattern's scatter alone, on random upper entries, against the
        # COO sum of the symmetric element matrices they define
        m = refine_uniform(generate_disk(3))
        rng = np.random.default_rng(5)
        m = Mesh(m.vertices, m.triangles[rng.permutation(m.num_triangles)],
                 m.boundary_edges)
        upper = rng.standard_normal((m.num_triangles, len(_PAIRS)))
        # scattered as `assemble` does, in blocks of 1, 7, 92 and the rest
        pattern = _Pattern(m.triangles, m.num_vertices)
        sums = np.zeros(m.num_vertices + pattern.ne)
        starts = [0, 1, 8, 100, m.num_triangles]
        for cells in map(slice, starts[:-1], starts[1:]):
            np.add.at(sums, pattern.slots(cells), upper[cells].ravel())
        A = pattern.form(sums)
        elements = np.empty((m.num_triangles, 3, 3))
        for p, (i, j) in enumerate(_PAIRS):
            elements[:, i, j] = elements[:, j, i] = upper[:, p]
        rows = np.repeat(m.triangles, 3, axis=1).ravel()
        cols = np.tile(m.triangles, (1, 3)).ravel()
        B = sparse.coo_matrix((elements.ravel(), (rows, cols)),
                              shape=A.shape).tocsr()
        assert A.has_canonical_format and (A != A.T).nnz == 0
        tol = 4.0 * np.finfo(float).eps * abs(B).max()
        assert np.abs((A - B).toarray()).max() <= tol

    def test_edges_numbered_in_key_order(self):
        # edge {i < j} is entry nv + e, e the rank of its key i * nv + j
        # among the distinct keys, as np.unique numbers them
        m = refine_uniform(generate_disk(3))
        rng = np.random.default_rng(7)
        tris = m.triangles[rng.permutation(m.num_triangles)]
        nv = m.num_vertices
        a, b = tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]
        keys, edge = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                               return_inverse=True)
        pattern = _Pattern(tris, nv)
        assert pattern.ne == len(keys)
        np.testing.assert_array_equal(pattern.edges,
                                      nv + edge.reshape(tris.shape))
        assert pattern.take.dtype == np.int32

    def test_exact_stiffness_zeros_dropped_as_in_reference(self):
        m = generate_unit_square(8)
        g, w = euclidean_metric(), constant_weight(1.0)
        p = assemble(m, g, w, BoundarySpec.dirichlet())
        self.assert_matches(p, m, g, w)
        assert p.K.nnz == 369 < p.Mm.nnz == 497


def kept_bytes(p):
    """The bytes of the arrays a pencil keeps: K, Mm, R, r and free_dofs."""
    kept = sum(a.nbytes for A in (p.K, p.Mm, p.R)
               for a in (A.data, A.indices, A.indptr))
    return kept + p.r.nbytes + p.free_dofs.nbytes


def test_peak_memory_within_four_times_the_pencil(traced_peak):
    # the per-point metric samples and each form's element entries die as
    # soon as they are used, so the traced peak of one L6 assemble stays a
    # small multiple (about 3.0) of the bytes the pencil keeps
    m = refine_uniform(generate_unit_square(32))
    g, w = checkerboard_metric(1.0, 2.0, 4), halves_weight(1.0, -1.0)
    bc = BoundarySpec.dirichlet()
    kept = kept_bytes(assemble(m, g, w, bc))
    peak = traced_peak(lambda: assemble(m, g, w, bc))
    assert peak <= 4.0 * kept, (peak, kept)


def weyl_target_peak_per_point(domain, n, traced_peak):
    """The traced peak of one weyl_target of the `expr` weight on the
    refined size-n shear square or graph-cone disk, in floats per
    quadrature point."""
    if domain == "cone-disk":
        m, g = refine_uniform(generate_disk(n)), cone_metric(np.pi / 2)
    else:
        m = refine_uniform(generate_unit_square(n))
        g = REFERENCE_METRICS["shear"]()
    w = REFERENCE_WEIGHTS["expr"]()
    points = m.num_triangles * len(triangle_quadrature(2)[1])
    return traced_peak(lambda: weyl_target(m, g, w)) / (8 * points)


@pytest.mark.parametrize("domain", ["shear-square", "cone-disk"])
def test_weyl_target_peak_memory_within_twelve_samples_per_point(
        domain, traced_peak):
    # the corners die before the metric is sampled and G as soon as
    # `sample_metric` returns, so the traced peak of one L6 weyl_target
    # stays within 12 floats per quadrature point. An L6 mesh is two
    # blocks, so the peak (about 7.8 on the shear square, 3.5 on the cone
    # disk) falls while a block is sampled: its points (2 floats per point
    # of the block), G (4) and the metric's temporaries, the shear
    # pullback's more than the cone's
    per_point = weyl_target_peak_per_point(domain, 32, traced_peak)
    assert per_point <= 12, per_point


def test_l7_assemble_peak_memory_within_one_and_three_quarter_pencils(
        traced_peak):
    # the fields are sampled, and the element entries formed and scattered,
    # one block of cells at a time, so the traced peak of one L7 assemble
    # stays within 1.75 (about 1.53) times the bytes the pencil keeps. The
    # peak falls in the scatter of a block, next to the pattern, the three
    # sums and the per-cell integrals; forming R, whose halves weight
    # leaves exact zeros to drop, comes close behind
    m = refine_uniform(generate_unit_square(64))
    g, w = checkerboard_metric(1.0, 2.0, 4), halves_weight(1.0, -1.0)
    bc = BoundarySpec.dirichlet()
    kept = kept_bytes(assemble(m, g, w, bc))
    peak = traced_peak(lambda: assemble(m, g, w, bc))
    assert peak <= 1.75 * kept, peak / kept


@pytest.mark.parametrize("domain", ["shear-square", "cone-disk"])
def test_l7_weyl_target_peak_memory_within_six_samples_per_point(
        domain, traced_peak):
    # one L7 weyl_target keeps, for the whole mesh, only three integrals
    # per cell (1 float per quadrature point) and the cell areas (1/3);
    # the metric and weight are sampled one block of cells at a time
    per_point = weyl_target_peak_per_point(domain, 64, traced_peak)
    assert per_point <= 6, per_point


@pytest.mark.parametrize("domain", ["shear-square", "cone-disk"])
def test_l7_weyl_target_peak_memory_within_three_and_a_half_floats_per_point(
        domain, traced_peak):
    # the sign masses and the volume are summed from per-cell integrals,
    # so no per-point array of the whole mesh is formed: the peak (about
    # 3.0 floats per point on the shear square, 1.9 on the cone disk) is
    # the per-cell integrals (1), the cell areas (1/3) and one block's
    # sample
    per_point = weyl_target_peak_per_point(domain, 64, traced_peak)
    assert per_point <= 3.5, per_point


def test_l7_pattern_peak_memory_within_six_edge_arrays(traced_peak):
    # the edges are numbered by one argsort of their keys and a running
    # count of where the sorted keys change, and the CSR positions are
    # sorted as one key array of their own, so the traced peak of
    # numbering the pattern of the L7 square stays within 6 (about 4.2)
    # times the bytes of its (nt, 3) edge numbering
    m = refine_uniform(generate_unit_square(64))
    edges = _Pattern(m.triangles, m.num_vertices).edges.nbytes
    peak = traced_peak(lambda: _Pattern(m.triangles, m.num_vertices))
    assert peak <= 6 * edges, peak / edges


BLOCK_MESHES = {
    "l7-square": lambda: refine_uniform(generate_unit_square(64)),
    "disk-64": lambda: generate_disk(64),
}
BLOCK_CASES = {
    "shear-expr-dirichlet": ("shear", "expr", "dirichlet"),
    "checkerboard-halves-neumann": ("checkerboard", "halves", "neumann"),
    "cone-one-dirichlet": ("cone", "one", "dirichlet"),
}


def blocked_sample(m, case, block, monkeypatch):
    """The arrays of the pencil and the Weyl constants of `case` on m,
    sampled in blocks of `block` cells."""
    metric, weight, kind = BLOCK_CASES[case]
    g, w = REFERENCE_METRICS[metric](), REFERENCE_WEIGHTS[weight]()
    monkeypatch.setattr(fields, "_BLOCK", block)
    p = assemble(m, g, w, BoundarySpec(kind))
    t = weyl_target(m, g, w)
    out = {"r": p.r, "integrals": np.array([p.vol, *p.masses]),
           "constants": np.array([t.c_plus, t.c_minus, t.vol])}
    for name in ("K", "Mm", "R"):
        A = getattr(p, name)
        out.update({name + ".data": A.data, name + ".indices": A.indices,
                    name + ".indptr": A.indptr})
    return out


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestBlocks:
    """`assemble` and `weyl_target` against one whole-mesh block.

    `np.add.at` adds the element entries of each pattern entry in element
    order, block after block, as one whole-mesh sum would, and every other
    per-point or per-cell value is computed elementwise.
    """

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("mesh", sorted(BLOCK_MESHES))
    def test_blocks_keep_every_bit(self, mesh, case, monkeypatch):
        m = BLOCK_MESHES[mesh]()
        assert m.num_triangles >= 6 * fields._BLOCK
        blocked = blocked_sample(m, case, fields._BLOCK, monkeypatch)
        whole = blocked_sample(m, case, m.num_triangles, monkeypatch)
        for name in whole:
            assert same_bits(blocked[name], whole[name]), name

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("mesh", sorted(BLOCK_MESHES))
    def test_short_blocks_round_only_the_mass_products(self, mesh, case,
                                                       monkeypatch):
        # the products mu @ phi2 of 7 rows can take another BLAS kernel
        # than a whole-mesh one, and round the mass entries of their cells
        # differently; the stiffness, the sample and the constants cannot
        m = BLOCK_MESHES[mesh]()
        short = blocked_sample(m, case, 7, monkeypatch)
        whole = blocked_sample(m, case, m.num_triangles, monkeypatch)
        for name in ("K.data", "K.indices", "K.indptr", "integrals",
                     "constants"):
            assert same_bits(short[name], whole[name]), name
        for name in ("Mm.data", "R.data", "r"):
            a, b = short[name], whole[name]
            assert a.shape == b.shape, name  # equal nnz
            tol = 4.0 * np.finfo(float).eps * np.abs(b).max()
            assert np.abs(a - b).max() <= tol, name

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("mesh", sorted(BLOCK_MESHES))
    def test_integrals_match_a_whole_mesh_sample(self, mesh, case):
        # the per-cell integrals summed once against per-point arrays of
        # the whole mesh, sampled in one batch and summed pairwise
        m = BLOCK_MESHES[mesh]()
        metric, weight, kind = BLOCK_CASES[case]
        g, w = REFERENCE_METRICS[metric](), REFERENCE_WEIGHTS[weight]()
        bary, wq = triangle_quadrature(2)
        points = (bary @ m.vertices[m.triangles]).reshape(-1, 2)
        measure = sample_metric(g, points, triangle_areas(m), wq)[2]
        rho = w.values(points)
        mass = np.abs(rho) * measure
        want = [np.sum(measure), np.sum(mass[rho > 0.0]),
                np.sum(mass[rho < 0.0])]
        p = assemble(m, g, w, BoundarySpec(kind))
        t = weyl_target(m, g, w)
        four_pi = 4.0 * np.pi
        for got in ([p.vol, *p.masses],
                    [t.vol, four_pi * t.c_plus, four_pi * t.c_minus]):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestChecksAcrossBlocks:
    """Every cell is checked before any field is evaluated, and the audit
    reaches every point of every block."""

    @staticmethod
    def two_blocks():
        m = generate_unit_square(64)
        assert m.num_triangles == 2 * fields._BLOCK
        return m

    @staticmethod
    def calls():
        return [lambda m, g, w: assemble(m, g, w, BoundarySpec.dirichlet()),
                weyl_target]

    def test_clockwise_cell_of_the_last_block_refused_first(self):
        m = self.two_blocks()
        tris = m.triangles.copy()
        tris[-1] = tris[-1, ::-1]
        m = Mesh(m.vertices, tris, m.boundary_edges)
        points = []

        def identity(pts):
            points.append(len(pts))
            return np.broadcast_to(np.eye(2), (len(pts), 2, 2))

        g, w = MetricField(identity, 1.0, 1.0), constant_weight(1.0)
        for call in self.calls():
            with pytest.raises(MeshFormatError,
                               match="nonpositive triangle areas"):
                call(m, g, w)
        assert points == []

    def test_metric_leaving_its_bounds_in_the_last_block_refused(self):
        m = self.two_blocks()
        corners = m.vertices[m.triangles[-1]]
        edges = np.column_stack([corners[1] - corners[0],
                                 corners[2] - corners[0]])
        points = []

        def bulging(pts):
            # 4 I inside the last cell, I everywhere else
            points.append(len(pts))
            b = np.linalg.solve(edges, (pts - corners[0]).T)
            inside = (b > 0.0).all(axis=0) & (b.sum(axis=0) < 1.0)
            G = np.zeros((len(pts), 2, 2))
            G[:, 0, 0] = G[:, 1, 1] = np.where(inside, 4.0, 1.0)
            return G

        g, w = MetricField(bulging, 1.0, 1.0), constant_weight(1.0)
        for call in self.calls():
            points.clear()
            with pytest.raises(ComparabilityError, match="leave declared"):
                call(m, g, w)
            assert points == [3 * fields._BLOCK] * 2  # the first block passed


class TestRestriction:
    def test_all_free_pencil_keeps_its_matrices(self):
        p = assemble(generate_unit_square(4), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.neumann())
        assert p.Kf is p.K and p.Mmf is p.Mm and p.Rf is p.R

    def test_dirichlet_pencil_restricts(self):
        p = assemble(generate_unit_square(4), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.dirichlet())
        idx = p.free_dofs
        np.testing.assert_array_equal(p.Kf.toarray(),
                                      p.K.toarray()[np.ix_(idx, idx)])

    def test_permuted_free_dofs_still_restrict(self):
        p = assemble(generate_unit_square(3), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.neumann())
        idx = np.roll(np.arange(p.n_vertices), 1)
        q = Pencil(p.K, p.Mm, p.R, idx, p.r, p.tau, p.vol, p.masses)
        want = p.K.toarray()[np.ix_(idx, idx)]
        assert not np.array_equal(want, p.K.toarray())
        np.testing.assert_array_equal(q.Kf.toarray(), want)
