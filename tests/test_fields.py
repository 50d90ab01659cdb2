import numpy as np
import pytest

from roughweyl.fields import (
    ComparabilityError,
    ExpressionError,
    MetricField,
    SingularPointError,
    WeightField,
    _cell_blocks,
    checkerboard_metric,
    checkerboard_weight,
    comparability_audit,
    cone_metric,
    constant_weight,
    euclidean_metric,
    expression_weight,
    graph_cone_metric,
    halves_weight,
    lipschitz_graph_metric,
    piecewise_metric,
    pullback_metric,
    sample_metric,
    triangle_quadrature,
)
from roughweyl.mesh import Mesh, generate_disk, generate_unit_square, triangle_areas
from roughweyl.weyl import weyl_target

REFERENCE = Mesh(
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    [(0, 1, 2)],
    [(0, 1, 0), (1, 2, 0), (2, 0, 0)],
)


def sample_points():
    rng = np.random.default_rng(7)
    return rng.uniform(0.05, 0.95, size=(40, 2))


class TestEuclidean:
    def test_identity_everywhere(self):
        g = euclidean_metric()
        pts = sample_points()
        assert np.allclose(g.matrices(pts), np.eye(2), atol=0)
        assert np.allclose(g.eval(np.array([[0.3, 0.7]])), np.eye(2), atol=0)

    def test_unit_determinant(self):
        G = euclidean_metric().matrices(sample_points())
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] ** 2
        assert np.all(det == 1.0)

    def test_audit_passes_with_unit_constants(self):
        g = euclidean_metric()
        assert g.c_lo == g.c_hi == 1.0
        comparability_audit(g, sample_points())


class TestLipschitzGraph:
    def test_zero_gradient_is_euclidean(self):
        g = lipschitz_graph_metric(lambda pts: np.zeros_like(pts), 0.0)
        assert np.allclose(g.matrices(sample_points()), np.eye(2), atol=0)

    def test_cone_function_det_two(self):
        g = graph_cone_metric()
        pts = sample_points() - 0.5
        G = g.matrices(pts)
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] ** 2
        assert np.allclose(det, 2.0, atol=1e-12)
        assert g.c_hi == pytest.approx(np.sqrt(2.0))

    def test_linear_function_constant_metric(self):
        g = lipschitz_graph_metric(
            lambda pts: np.tile([1.0, 0.0], (len(pts), 1)), 1.0)
        assert np.allclose(g.matrices(sample_points()),
                           np.array([[2.0, 0.0], [0.0, 1.0]]), atol=0)

    def test_origin_is_singular_for_cone_graph(self):
        with pytest.raises(SingularPointError):
            graph_cone_metric().matrices(np.array([[0.0, 0.0]]))

    def test_non_finite_gradient_rejected(self):
        g = lipschitz_graph_metric(
            lambda pts: np.tile([np.inf, 0.0], (len(pts), 1)), 1.0)
        with pytest.raises(ValueError, match="gradient"):
            g.matrices(np.array([[0.5, 0.5]]))


    def test_entries_are_identity_plus_outer_product(self):
        v = np.random.default_rng(3).standard_normal((200, 2))
        G = lipschitz_graph_metric(lambda pts: v, 10.0).matrices(
            np.zeros((200, 2)))
        np.testing.assert_array_equal(G, np.eye(2) + v[:, :, None] * v[:, None, :])
        np.testing.assert_array_equal(G[:, 0, 1], G[:, 1, 0])


class TestCone:
    def test_flat_cone_is_euclidean(self):
        g = cone_metric(np.pi)
        assert np.allclose(g.matrices(sample_points()), np.eye(2), atol=1e-15)

    def test_right_angle_cone_eigenvalues(self):
        g = cone_metric(np.pi / 2)
        x = np.array([[0.6, 0.0], [0.0, 0.3], [0.4, 0.4]])
        G = g.matrices(x)
        for Gi, xi in zip(G, x):
            r = xi / np.hypot(*xi)
            t = np.array([-r[1], r[0]])
            assert r @ Gi @ r == pytest.approx(2.0, abs=1e-12)
            assert t @ Gi @ t == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, np.pi / 2, 2.5, np.pi])
    def test_entries_match_the_projector_form(self, alpha):
        # I + (c2 - 1) x x^T / |x|^2 entry by entry: symmetric bit for bit
        # and within 4 eps (of the largest eigenvalue c2) of c2 P_r + P_t
        x = np.random.default_rng(1).uniform(-1.0, 1.0, (2000, 2))
        x[:50, 1] = 0.0
        x[50:100, 0] = 1e-9
        G = cone_metric(alpha).matrices(x)
        c2 = 1.0 / np.sin(alpha / 2.0) ** 2
        pr = x[:, :, None] * x[:, None, :] / (x ** 2).sum(axis=1)[:, None, None]
        want = c2 * pr + (np.eye(2) - pr)
        np.testing.assert_array_equal(G[:, 0, 1], G[:, 1, 0])
        eps = np.finfo(float).eps
        assert np.abs(G - want).max() <= 4 * eps * c2

    def test_volume_of_right_angle_cone_disk(self):
        # sqrt(det G) = csc(alpha/2) is constant, so the mesh volume is
        # csc(alpha/2) times the inscribed polygon area, tending to sqrt(2)*pi
        m = generate_disk(8)
        vol = weyl_target(m, cone_metric(np.pi / 2), constant_weight(1.0)).vol
        sides = 6 * 8
        oracle = np.sqrt(2.0) * 0.5 * sides * np.sin(2 * np.pi / sides)
        assert vol == pytest.approx(oracle, rel=1e-12)
        assert abs(vol - np.sqrt(2.0) * np.pi) / (np.sqrt(2.0) * np.pi) < 0.01

    def test_tip_evaluation_rejected(self):
        with pytest.raises(SingularPointError):
            cone_metric(np.pi / 2).matrices(np.array([[0.0, 0.0]]))

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cone_metric(0.0)
        with pytest.raises(ValueError):
            cone_metric(3.5)


class TestPiecewise:
    def test_single_region_identity(self):
        g = piecewise_metric([(lambda p: np.ones(len(p), bool), np.eye(2))])
        assert np.allclose(g.matrices(sample_points()), np.eye(2), atol=0)

    def test_left_right_halves_det_jump(self):
        g = piecewise_metric([
            (lambda p: p[:, 0] < 0.5, np.eye(2)),
            (lambda p: p[:, 0] >= 0.5, 4.0 * np.eye(2)),
        ])
        G = g.matrices(np.array([[0.25, 0.5], [0.75, 0.5]]))
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] ** 2
        assert det[0] == 1.0 and det[1] == 16.0

    def test_checkerboard_audit_passes(self):
        g = checkerboard_metric(1.0, 2.0, cells=2)
        assert g.c_hi == pytest.approx(np.sqrt(2.0))
        comparability_audit(g, sample_points())

    def test_unmatched_point_rejected(self):
        g = piecewise_metric([(lambda p: p[:, 0] < 0.0, np.eye(2))])
        with pytest.raises(ValueError, match="no region"):
            g.matrices(np.array([[0.5, 0.5]]))

    def test_non_spd_region_rejected(self):
        with pytest.raises(ValueError):
            piecewise_metric([(lambda p: np.ones(len(p), bool), -np.eye(2))])

    @pytest.mark.parametrize("s", [1.0, 1e6, 1e8])
    def test_rotated_region_accepted_in_any_units(self, s):
        # its roundoff asymmetry is 4.4e-11 at s = 1e6 and 3.7e-9 at 1e8
        c, sn = np.cos(0.1), np.sin(0.1)
        R = np.array([[c, -sn], [sn, c]])
        mat = R @ np.diag([s, 2.0 * s]) @ R.T
        g = piecewise_metric([(lambda p: np.ones(len(p), bool), mat)])
        comparability_audit(g, sample_points())

    def test_asymmetric_region_rejected(self):
        mat = np.array([[1e6, 1.0], [0.0, 1e6]])
        with pytest.raises(ValueError, match="symmetric"):
            piecewise_metric([(lambda p: np.ones(len(p), bool), mat)])


class TestPullback:
    def test_identity_map(self):
        base = checkerboard_metric(1.0, 3.0)
        g = pullback_metric(base, lambda pts: pts, lambda pts: np.broadcast_to(np.eye(2), (len(pts), 2, 2)))
        pts = sample_points()
        assert np.allclose(g.matrices(pts), base.matrices(pts), atol=0)

    def test_linear_scaling(self):
        g = pullback_metric(euclidean_metric(), lambda pts: 2.0 * pts,
                            lambda pts: np.broadcast_to(2.0 * np.eye(2), (len(pts), 2, 2)), jac_bounds=(2.0, 2.0))
        assert np.allclose(g.matrices(sample_points()), 4.0 * np.eye(2), atol=0)
        comparability_audit(g, sample_points())

    def test_singular_jacobian_rejected(self):
        g = pullback_metric(euclidean_metric(), lambda pts: pts,
                            lambda pts: np.zeros((len(pts), 2, 2)))
        with pytest.raises(ComparabilityError, match="[Ss]ingular"):
            g.matrices(np.array([[0.5, 0.5]]))

    def test_empty_batch(self):
        g = pullback_metric(euclidean_metric(), lambda pts: pts,
                            lambda pts: np.broadcast_to(np.eye(2), (len(pts), 2, 2)))
        assert g.matrices(np.empty((0, 2))).shape == (0, 2, 2)

    @staticmethod
    def random_pullback(Gb, n=300, seed=4):
        """The pullback of the per-point base matrices Gb by random
        Jacobians J, and J."""
        J = np.random.default_rng(seed).standard_normal((n, 2, 2))
        base = MetricField(lambda pts: Gb, 1.0, 1.0)
        return pullback_metric(base, lambda pts: pts, lambda pts: J), J

    def test_entries_are_the_congruence(self):
        A = np.random.default_rng(5).standard_normal((300, 2, 2))
        Gb = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(2)
        g, J = self.random_pullback(Gb)
        G = g.matrices(np.zeros((300, 2)))
        want = J.transpose(0, 2, 1) @ Gb @ J
        tol = 8 * np.finfo(float).eps * np.abs(J).max(axis=(1, 2)) ** 2 \
            * np.abs(Gb).max(axis=(1, 2))
        assert (np.abs(G - want).max(axis=(1, 2)) <= tol).all()
        np.testing.assert_array_equal(G[:, 0, 1], G[:, 1, 0])

    def test_asymmetric_base_stays_asymmetric(self):
        Gb = np.broadcast_to([[2.0, 0.25], [0.5, 1.0]], (300, 2, 2))
        g, J = self.random_pullback(Gb)
        G = g.matrices(np.zeros((300, 2)))
        np.testing.assert_allclose(G, J.transpose(0, 2, 1) @ Gb @ J,
                                   rtol=0, atol=1e-12 * np.abs(G).max())
        with pytest.raises(ComparabilityError, match="asymmetry"):
            comparability_audit(g, np.zeros((300, 2)))


class TestWeights:
    def test_constant(self):
        w = constant_weight(2.5)
        assert np.all(w.values(sample_points()) == 2.5)

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            constant_weight(0.0)

    def test_halves(self):
        w = halves_weight(1.0, -1.0)
        vals = w.values(np.array([[0.25, 0.9], [0.75, 0.1]]))
        assert vals[0] == 1.0 and vals[1] == -1.0

    def test_checkerboard(self):
        w = checkerboard_weight(1.0, -1.0, cells=2)
        vals = w.values(np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75]]))
        assert list(vals) == [1.0, -1.0, 1.0]

    @pytest.mark.parametrize("make", [checkerboard_metric,
                                      checkerboard_weight])
    @pytest.mark.parametrize("cells", [0, -1])
    def test_checkerboard_needs_a_cell(self, make, cells):
        # cells = 0 would give the constant field a, cells < 0 a mirror image
        with pytest.raises(ValueError, match="cells must be >= 1"):
            make(1.0, 2.0, cells=cells)


class TestExpressionWeight:
    def test_polynomial(self):
        w = expression_weight("x^2 + 3*y - 0.5")
        pts = sample_points()
        expect = pts[:, 0] ** 2 + 3 * pts[:, 1] - 0.5
        assert np.allclose(w.values(pts), expect, rtol=1e-15)

    def test_precedence_and_right_associative_power(self):
        w = expression_weight("2 + 3 * 4 ^ 2")
        assert w.values(np.zeros((1, 2)))[0] == 50.0
        w = expression_weight("2 ^ 3 ^ 2")
        assert w.values(np.zeros((1, 2)))[0] == 512.0

    def test_unary_minus(self):
        w = expression_weight("-x * -2")
        assert w.values(np.array([[3.0, 0.0]]))[0] == 6.0

    def test_functions_and_norm(self):
        w = expression_weight("abs(sin(pi * x)) + sqrt(y) + hypot(x, y)")
        pts = sample_points()
        expect = (np.abs(np.sin(np.pi * pts[:, 0])) + np.sqrt(pts[:, 1]) +
                  np.hypot(pts[:, 0], pts[:, 1]))
        assert np.allclose(w.values(pts), expect, rtol=1e-15)

    def test_bars_mean_abs(self):
        w = expression_weight("|x - y|")
        assert w.values(np.array([[0.2, 0.9]]))[0] == pytest.approx(0.7)

    @pytest.mark.parametrize("bad", ["2 +", "foo(2)", "(x", "x ** y", "1..2", "sin()"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ExpressionError):
            expression_weight(bad)

    def test_arity_checked(self):
        with pytest.raises(ExpressionError, match="argument"):
            expression_weight("hypot(x)")


class TestQuadrature:
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_weights_sum_to_one_points_interior(self, order):
        bary, w = triangle_quadrature(order)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert bary.min() > 0.0 and bary.max() < 1.0
        assert np.allclose(bary.sum(axis=1), 1.0, atol=1e-15)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            triangle_quadrature(3)

    @pytest.mark.parametrize("order,degree", [(1, 1), (2, 2), (4, 4)])
    def test_exact_on_reference_monomials(self, order, degree):
        # oracle: integral of x^p y^q over the reference triangle is
        # p! q! / (p + q + 2)!
        from math import factorial

        bary, wq = triangle_quadrature(order)
        ((_, _, areas, pts),) = _cell_blocks(REFERENCE, bary)
        measure = sample_metric(euclidean_metric(), pts, areas, wq)[2]
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                val = np.sum(pts[:, 0] ** p * pts[:, 1] ** q * measure)
                oracle = factorial(p) * factorial(q) / factorial(p + q + 2)
                assert val == pytest.approx(oracle, rel=1e-14), (p, q)


class TestMeasureIntegral:
    """Integrals against the induced measure sqrt(det G) dx, read off the
    audited sample as `weyl_target`'s volume and side constants."""

    def test_unit_square_euclidean_is_one(self):
        m = generate_unit_square(4)
        vol = weyl_target(m, euclidean_metric(), constant_weight(1.0)).vol
        assert vol == pytest.approx(1.0, abs=1e-14)

    def test_graph_cone_volume(self):
        m = generate_disk(8)
        vol = weyl_target(m, graph_cone_metric(), constant_weight(1.0)).vol
        oracle = np.sqrt(2.0) * triangle_areas(m).sum()
        assert vol == pytest.approx(oracle, rel=1e-12)
        assert abs(vol - np.sqrt(2.0) * np.pi) < 0.01 * np.sqrt(2.0) * np.pi

    def test_checkerboard_color_areas(self):
        m = generate_unit_square(8)
        w = checkerboard_weight(1.0, -1.0, cells=2)
        t = weyl_target(m, euclidean_metric(), w)
        plus = 4.0 * np.pi * t.c_plus
        absval = 4.0 * np.pi * (t.c_plus + t.c_minus)
        assert plus == pytest.approx(0.5, abs=1e-14)
        assert absval == pytest.approx(1.0, abs=1e-14)

    def test_singular_point_never_sampled_on_disk(self):
        # the cone tip is a mesh vertex and quadrature points are interior
        m = generate_disk(2)
        for order in (1, 2, 4):
            weyl_target(m, graph_cone_metric(), constant_weight(1.0), order)

    def test_audits_declared_bounds(self):
        g = MetricField(lambda pts: np.broadcast_to(3.0 * np.eye(2), (len(pts), 2, 2)), 1.0, 1.0)
        with pytest.raises(ComparabilityError, match="eigenvalues"):
            weyl_target(generate_unit_square(2), g, constant_weight(1.0))


class TestBatchContract:
    """Every field callable answers a whole (m, 2) batch in one call; one
    written for a single point returns the wrong shape and is refused."""

    @pytest.mark.parametrize("sample", [
        lambda pts: MetricField(lambda p: np.eye(2), 1.0, 1.0).matrices(pts),
        lambda pts: WeightField(lambda p: p[0]).values(pts),
        lambda pts: piecewise_metric([(lambda p: p[0] < 0.5, np.eye(2)),
                                      (lambda p: p[0] >= 0.5, np.eye(2))]
                                     ).matrices(pts),
    ], ids=["metric", "weight", "predicate"])
    def test_single_point_callable_rejected(self, sample):
        with pytest.raises(ValueError, match="shape"):
            sample(sample_points())


class TestAudit:
    def test_wrong_declared_bounds_caught(self):
        g = MetricField(lambda pts: np.broadcast_to(3.0 * np.eye(2), (len(pts), 2, 2)), 1.0, 1.0)
        with pytest.raises(ComparabilityError, match="eigenvalues"):
            comparability_audit(g, sample_points())

    def test_asymmetric_metric_caught(self):
        mat = np.array([[1.0, 0.5], [0.2, 1.0]])
        g = MetricField(lambda pts: np.broadcast_to(mat, (len(pts), 2, 2)), 0.5, 2.0)
        with pytest.raises(ComparabilityError, match="asymmetry"):
            comparability_audit(g, sample_points())

    @pytest.mark.parametrize("s", [1.0, 1e4, 1e6])
    def test_rotated_metric_passes_in_any_units(self, s):
        # R diag(s, 2s) R^T is symmetric up to roundoff of its own size:
        # 2.7e-12 at s = 1e4, 1.2e-10 at s = 1e6
        def rotated(pts):
            c, sn = np.cos(np.pi * pts[:, 0]), np.sin(np.pi * pts[:, 0])
            R = np.stack([np.stack([c, -sn], -1), np.stack([sn, c], -1)], -2)
            return R @ np.diag([s, 2.0 * s]) @ np.swapaxes(R, 1, 2)

        g = MetricField(rotated, np.sqrt(s), np.sqrt(2.0 * s))
        comparability_audit(g, sample_points())

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e6])
    def test_metric_ten_times_its_bounds_caught_in_any_units(self, s):
        g = MetricField(lambda pts: np.broadcast_to(
            10.0 * s * np.eye(2), (len(pts), 2, 2)), np.sqrt(s), np.sqrt(s))
        with pytest.raises(ComparabilityError, match="eigenvalues"):
            comparability_audit(g, sample_points())

    def test_deterministic_evaluation(self):
        g = checkerboard_metric(1.0, 2.0)
        pts = sample_points()
        assert np.array_equal(g.matrices(pts), g.matrices(pts))
