"""Assembly oracles: hand-integrated element matrices, stencil values,
conformal scaling, pullback equality, and the discrete Poincare constant."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughweyl import (
    BoundarySpec,
    ComparabilityError,
    Mesh,
    MetricField,
    ModelingError,
    SingularPointError,
    WeightField,
    assemble,
    constant_weight,
    checkerboard_metric,
    dump_matrix,
    euclidean_metric,
    expression_weight,
    generate_disk,
    generate_unit_square,
    graph_cone_metric,
    halves_weight,
    piecewise_metric,
    poincare_constant,
    pullback_metric,
)
from roughweyl.assembly import _Householder

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
        dense = poincare_constant(p)
        sparse_val = poincare_constant(p, dense_limit=10)
        np.testing.assert_allclose(sparse_val, dense, rtol=1e-10)


class TestSparsePoincareConstant:
    """The Lanczos value above the dense limit against the dense oracle on
    a sign-changing Neumann weight."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("metric", ["euclidean", "checkerboard"])
    def test_halves_neumann_matches_dense(self, metric, n):
        g = (euclidean_metric() if metric == "euclidean"
             else checkerboard_metric(1.0, 2.0, 4))
        p = assemble(generate_unit_square(n), g, halves_weight(1.0, -0.5),
                     BoundarySpec.neumann())
        assert p.tau == 1
        dense = poincare_constant(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sparse_val = poincare_constant(p, dense_limit=0)
        np.testing.assert_allclose(sparse_val, dense, rtol=1e-10)


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


def test_dump_matrix_round_trip(tmp_path):
    p = assemble(generate_unit_square(2), euclidean_metric(),
                 constant_weight(1.0), BoundarySpec.neumann())
    path = tmp_path / "K.txt"
    dump_matrix(p.K, path)
    A = np.zeros((p.n_vertices, p.n_vertices))
    for line in path.read_text().splitlines():
        i, j, v = line.split()
        A[int(i), int(j)] = float(v)
    np.testing.assert_array_equal(A, p.K.toarray())
