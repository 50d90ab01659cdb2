"""Assembly oracles: hand-integrated element matrices, stencil values,
conformal scaling, pullback equality, the COO-summed reference assembly,
peak memory, and the discrete Poincare constant."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh

from roughweyl import (
    BoundarySpec,
    ComparabilityError,
    Mesh,
    MetricField,
    ModelingError,
    Pencil,
    Quadrature,
    SingularPointError,
    WeightField,
    assemble,
    constant_weight,
    checkerboard_metric,
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
    triangle_quadrature,
)
from roughweyl.assembly import _Householder, _Pattern
from roughweyl.mesh import triangle_areas

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

    def test_neumann_row_sums_vanish(self):
        m = generate_disk(6)
        for g in (euclidean_metric(), graph_cone_metric()):
            p = assemble(m, g, constant_weight(1.0), BoundarySpec.neumann())
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
                                 pts[:, 0] + 0.5 * pts[:, 1]) * pts[:, 1],
                             beta=2.0)
        m_image = Mesh(phi(m.vertices), m.triangles, m.boundary_edges,
                       level=m.level)
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

    def test_tau_mixed_with_absent_tag_is_neumann_like(self):
        # tags {9} never appear on the square, so no vertex is constrained
        m = generate_unit_square(3)
        p = assemble(m, euclidean_metric(), constant_weight(1.0),
                     BoundarySpec.mixed({9}))
        assert p.n_free == p.n_vertices
        assert p.tau == 1

    def test_constraint_vector_sums_to_weight_integral(self):
        # sum_i r_i = integral rho d mu by partition of unity
        m = generate_unit_square(4)
        p = assemble(m, euclidean_metric(), halves_weight(3.0, 1.0),
                     BoundarySpec.neumann())
        np.testing.assert_allclose(p.r.sum(), 2.0, rtol=1e-12)

    def test_zero_mean_rejected_when_required(self):
        w = WeightField(lambda pts: np.where(pts[:, 0] < 0.5, 1.0, -1.0),
                        beta=2.0, nonzero_mean_required=True)
        with pytest.raises(ModelingError):
            assemble(generate_unit_square(4), euclidean_metric(), w,
                     BoundarySpec.neumann())

    def test_zero_mean_tolerated_without_flag(self):
        p = assemble(generate_unit_square(4), euclidean_metric(),
                     halves_weight(1.0, -1.0), BoundarySpec.dirichlet())
        assert abs(p.r.sum()) <= 1e-12
        assert p.rho_range == (-1.0, 1.0)


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
    scipy's `eigh` on (Mm, K), reduced to {r . v = 0} when tau = 1."""
    Mm, K = p.Mmf.toarray(), p.Kf.toarray()
    if p.tau:
        H = _Householder(p.r_free)
        Mm, K = H.reduce(Mm), H.reduce(K)
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


class TestHouseholderReduction:
    """The rank-two update against the explicit basis Q of the hyperplane."""

    @staticmethod
    def assert_matches(H, A):
        Q = H.basis()
        ref = Q.T @ A @ Q
        red = H.reduce(A)
        np.testing.assert_allclose(red, ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())
        np.testing.assert_array_equal(red, red.T)

    @pytest.mark.parametrize("last", [2.0, -0.5, 0.0])
    def test_random_symmetric_matrix(self, last):
        rng = np.random.default_rng(3)
        n = 9
        r = rng.standard_normal(n)
        r[-1] = last
        B = rng.standard_normal((n, n))
        H = _Householder(r)
        self.assert_matches(H, B + B.T)
        Q = H.basis()
        V = rng.standard_normal((n, 3))
        Y = rng.standard_normal((n - 1, 3))
        np.testing.assert_allclose(H.restrict(V), Q.T @ V, atol=1e-12)
        np.testing.assert_allclose(H.restrict(V[:, 0]), Q.T @ V[:, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(H.extend(Y), Q @ Y, atol=1e-12)
        np.testing.assert_allclose(H.extend(Y[:, 0]), Q @ Y[:, 0],
                                   atol=1e-12)
        assert np.abs(r @ H.extend(Y)).max() < 1e-12 * np.abs(r).sum()

    def test_neumann_pencil_forms(self):
        p = assemble(generate_unit_square(8), euclidean_metric(),
                     halves_weight(1.0, -0.5), BoundarySpec.neumann())
        H = _Householder(p.r_free)
        for A in (p.Kf, p.Mmf, p.Rf):
            self.assert_matches(H, A.toarray())

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocked_update_equals_the_outer_product_form(self, order):
        # 150 rows: two full 64-row blocks and a partial one
        rng = np.random.default_rng(5)
        n = 150
        B = rng.standard_normal((n, n))
        A = np.array(B + B.T, order=order)
        H = _Householder(rng.standard_normal(n))
        u = H.u
        Au = A @ u
        w = 2.0 * Au - (2.0 * float(u @ Au)) * u
        U = np.outer(u, w)
        U += U.T
        want = (A - U)[:-1, :-1]
        red = H.reduce(A)
        np.testing.assert_array_equal(red, want)
        np.testing.assert_array_equal(red, red.T)
        assert red.flags.f_contiguous

    def test_reduce_makes_no_square_temporary(self):
        # the traced peak is the returned (n-1) block; the update itself
        # allocates row blocks of O(64 n)
        rng = np.random.default_rng(6)
        n = 400
        B = rng.standard_normal((n, n))
        A = np.asfortranarray(B + B.T)
        H = _Householder(rng.standard_normal(n))
        tracemalloc.start()
        try:
            H.reduce(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * A.nbytes, peak / A.nbytes


def assemble_reference(m, g, w, quad_order=2):
    """K, Mm and R from the same element kernels as `assemble`, summed by
    one COO -> CSR conversion per form and symmetrized as (A + A^T) / 2."""
    bary, wq = triangle_quadrature(quad_order)
    corners = m.vertices[m.triangles]
    areas = triangle_areas(m)
    edges = np.roll(corners, -2, axis=1) - np.roll(corners, -1, axis=1)
    grads = edges[:, :, ::-1] * [-1.0, 1.0] / (2.0 * areas)[:, None, None]
    q = Quadrature(m, g, w, quad_order)
    nt, nq, nv = m.num_triangles, len(wq), m.num_vertices
    adj = q.G.reshape(nt, nq, 4)[:, :, [3, 1, 2, 0]] * [1.0, -1.0, -1.0, 1.0]
    coeff = ((wq / q.sqrtdet.reshape(nt, nq))[:, None, :] @ adj).reshape(nt, 2, 2)
    Ke = grads @ coeff @ grads.transpose(0, 2, 1) * areas[:, None, None]
    phi2 = (bary[:, :, None] * bary[:, None, :]).reshape(nq, 9)
    mu = q.measure.reshape(nt, nq)
    rows = np.repeat(m.triangles, 3, axis=1).ravel()
    cols = np.tile(m.triangles, (1, 3)).ravel()

    def build(data):
        A = sparse.coo_matrix((data.ravel(), (rows, cols)),
                              shape=(nv, nv)).tocsr()
        A = ((A + A.T) * 0.5).tocsr()
        A.sort_indices()
        return A

    return build(Ke), build(mu @ phi2), build((mu * q.rho.reshape(nt, nq)) @ phi2)


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
    m = Mesh(vertices, tris, boundary, level=m.level)
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
        # the pattern's scatter alone, on element matrices that are not
        # symmetric, against the COO sum of the same elements
        m = refine_uniform(generate_disk(3))
        rng = np.random.default_rng(5)
        m = Mesh(m.vertices, m.triangles[rng.permutation(m.num_triangles)],
                 m.boundary_edges)
        elements = rng.standard_normal((m.num_triangles, 3, 3))
        A = _Pattern(m.triangles, m.num_vertices).form(elements)
        rows = np.repeat(m.triangles, 3, axis=1).ravel()
        cols = np.tile(m.triangles, (1, 3)).ravel()
        B = sparse.coo_matrix((elements.ravel(), (rows, cols)),
                              shape=A.shape).tocsr()
        B = (B + B.T) * 0.5
        assert A.has_canonical_format and (A != A.T).nnz == 0
        tol = 4.0 * np.finfo(float).eps * abs(B).max()
        assert np.abs((A - B).toarray()).max() <= tol

    def test_exact_stiffness_zeros_dropped_as_in_reference(self):
        m = generate_unit_square(8)
        g, w = euclidean_metric(), constant_weight(1.0)
        p = assemble(m, g, w, BoundarySpec.dirichlet())
        self.assert_matches(p, m, g, w)
        assert p.K.nnz == 369 < p.Mm.nnz == 497


def test_peak_memory_within_four_times_the_pencil():
    # the per-point metric samples and each form's element arrays die as
    # soon as they are used, so the traced peak of one L6 assemble stays a
    # small multiple (about 2.4) of the bytes the pencil keeps
    m = refine_uniform(generate_unit_square(32))
    g, w = checkerboard_metric(1.0, 2.0, 4), halves_weight(1.0, -1.0)
    bc = BoundarySpec.dirichlet()
    assemble(generate_unit_square(2), g, w, bc)
    tracemalloc.start()
    try:
        p = assemble(m, g, w, bc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for A in (p.K, p.Mm, p.R)
               for a in (A.data, A.indices, A.indptr))
    kept += p.r.nbytes + p.free_dofs.nbytes + p.quad.measure.nbytes
    kept += p.quad.rho.nbytes
    assert peak <= 4.0 * kept, (peak, kept)


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
        q = Pencil(p.K, p.Mm, p.R, idx, p.r, p.tau, p.mesh, p.bc,
                   p.quad_order, p.rho_range)
        want = p.K.toarray()[np.ix_(idx, idx)]
        assert not np.array_equal(want, p.K.toarray())
        np.testing.assert_array_equal(q.Kf.toarray(), want)
