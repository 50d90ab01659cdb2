import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughweyl.fields import (
    ComparabilityError,
    ExpressionError,
    MetricField,
    SingularPointError,
    WeightField,
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
    measure_integral,
    piecewise_metric,
    pullback_metric,
    quadrature_points,
    triangle_quadrature,
)
from roughweyl.mesh import Mesh, generate_disk, generate_unit_square, triangle_areas

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
        assert np.allclose(g.eval(np.array([0.3, 0.7])), np.eye(2), atol=0)

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
        g = lipschitz_graph_metric(lambda x: np.zeros(2), 0.0)
        assert np.allclose(g.matrices(sample_points()), np.eye(2), atol=0)

    def test_cone_function_det_two(self):
        g = graph_cone_metric()
        pts = sample_points() - 0.5
        G = g.matrices(pts)
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] ** 2
        assert np.allclose(det, 2.0, atol=1e-12)
        assert g.c_hi == pytest.approx(np.sqrt(2.0))

    def test_linear_function_constant_metric(self):
        g = lipschitz_graph_metric(lambda x: np.array([1.0, 0.0]), 1.0)
        assert np.allclose(g.matrices(sample_points()),
                           np.array([[2.0, 0.0], [0.0, 1.0]]), atol=0)

    def test_origin_is_singular_for_cone_graph(self):
        with pytest.raises(SingularPointError):
            graph_cone_metric().matrices(np.array([[0.0, 0.0]]))

    def test_non_finite_gradient_rejected(self):
        g = lipschitz_graph_metric(lambda x: np.array([np.inf, 0.0]), 1.0)
        with pytest.raises(ValueError, match="gradient"):
            g.matrices(np.array([[0.5, 0.5]]))


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

    def test_volume_of_right_angle_cone_disk(self):
        # sqrt(det G) = csc(alpha/2) is constant, so the mesh volume is
        # csc(alpha/2) times the inscribed polygon area, tending to sqrt(2)*pi
        m = generate_disk(8)
        vol = measure_integral(m, cone_metric(np.pi / 2), 1.0)
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
        g = piecewise_metric([(lambda p: np.ones(len(np.atleast_2d(p)), bool), np.eye(2))])
        assert np.allclose(g.matrices(sample_points()), np.eye(2), atol=0)

    def test_left_right_halves_det_jump(self):
        g = piecewise_metric([
            (lambda p: np.atleast_2d(p)[:, 0] < 0.5, np.eye(2)),
            (lambda p: np.atleast_2d(p)[:, 0] >= 0.5, 4.0 * np.eye(2)),
        ])
        G = g.matrices(np.array([[0.25, 0.5], [0.75, 0.5]]))
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] ** 2
        assert det[0] == 1.0 and det[1] == 16.0

    def test_checkerboard_audit_passes(self):
        g = checkerboard_metric(1.0, 2.0, cells=2)
        assert g.c_hi == pytest.approx(np.sqrt(2.0))
        comparability_audit(g, sample_points())

    def test_unmatched_point_rejected(self):
        g = piecewise_metric([(lambda p: np.atleast_2d(p)[:, 0] < 0.0, np.eye(2))])
        with pytest.raises(ValueError, match="no region"):
            g.matrices(np.array([[0.5, 0.5]]))

    def test_non_spd_region_rejected(self):
        with pytest.raises(ValueError):
            piecewise_metric([(lambda p: True, -np.eye(2))])


class TestPullback:
    def test_identity_map(self):
        base = checkerboard_metric(1.0, 3.0)
        g = pullback_metric(base, lambda x: x, lambda x: np.eye(2))
        pts = sample_points()
        assert np.allclose(g.matrices(pts), base.matrices(pts), atol=0)

    def test_linear_scaling(self):
        g = pullback_metric(euclidean_metric(), lambda x: 2.0 * x,
                            lambda x: 2.0 * np.eye(2), jac_bounds=(2.0, 2.0))
        assert np.allclose(g.matrices(sample_points()), 4.0 * np.eye(2), atol=0)
        comparability_audit(g, sample_points())

    def test_singular_jacobian_rejected(self):
        g = pullback_metric(euclidean_metric(), lambda x: x,
                            lambda x: np.zeros((2, 2)))
        with pytest.raises(ValueError, match="[Ss]ingular"):
            g.matrices(np.array([[0.5, 0.5]]))


class TestWeights:
    def test_constant(self):
        w = constant_weight(2.5)
        assert np.all(w.values(sample_points()) == 2.5)
        assert w.nonzero_mean_required

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

    def test_beta_must_exceed_one(self):
        with pytest.raises(ValueError):
            WeightField(lambda x: 1.0, beta=1.0)


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

        g = euclidean_metric()
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                val = measure_integral(
                    REFERENCE, g, lambda pts: pts[:, 0] ** p * pts[:, 1] ** q, order
                )
                oracle = factorial(p) * factorial(q) / factorial(p + q + 2)
                assert val == pytest.approx(oracle, rel=1e-14), (p, q)


class TestMeasureIntegral:
    def test_unit_square_euclidean_is_one(self):
        m = generate_unit_square(4)
        assert measure_integral(m, euclidean_metric(), 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_graph_cone_volume(self):
        m = generate_disk(8)
        vol = measure_integral(m, graph_cone_metric(), 1.0)
        oracle = np.sqrt(2.0) * triangle_areas(m).sum()
        assert vol == pytest.approx(oracle, rel=1e-12)
        assert abs(vol - np.sqrt(2.0) * np.pi) < 0.01 * np.sqrt(2.0) * np.pi

    def test_checkerboard_color_areas(self):
        m = generate_unit_square(8)
        w = checkerboard_weight(1.0, -1.0, cells=2)
        g = euclidean_metric()
        plus = measure_integral(m, g, lambda pts: (w.values(pts) > 0).astype(float))
        absval = measure_integral(m, g, lambda pts: np.abs(w.values(pts)))
        assert plus == pytest.approx(0.5, abs=1e-14)
        assert absval == pytest.approx(1.0, abs=1e-14)

    def test_singular_point_never_sampled_on_disk(self):
        # the cone tip is a mesh vertex and quadrature points are interior
        m = generate_disk(2)
        for order in (1, 2, 4):
            measure_integral(m, graph_cone_metric(), 1.0, order)

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    def test_linear_in_integrand(self, a, b):
        m = generate_unit_square(3)
        g = checkerboard_metric(1.0, 2.0)
        f1 = lambda pts: np.sin(pts[:, 0])
        f2 = lambda pts: pts[:, 1] ** 2
        combined = measure_integral(m, g, lambda pts: a * f1(pts) + b * f2(pts))
        parts = a * measure_integral(m, g, f1) + b * measure_integral(m, g, f2)
        assert combined == pytest.approx(parts, abs=1e-12)

    def test_audits_declared_bounds(self):
        g = MetricField(lambda x: 3.0 * np.eye(2), 1.0, 1.0,
                        eval_batch=lambda pts: np.broadcast_to(3.0 * np.eye(2), (len(pts), 2, 2)))
        with pytest.raises(ComparabilityError, match="eigenvalues"):
            measure_integral(generate_unit_square(2), g, 1.0)

    def test_monotone_in_integrand(self):
        m = generate_disk(3)
        g = graph_cone_metric()
        lo = measure_integral(m, g, lambda pts: pts[:, 0])
        hi = measure_integral(m, g, lambda pts: pts[:, 0] + 0.25)
        assert lo < hi


class TestAudit:
    def test_wrong_declared_bounds_caught(self):
        g = MetricField(lambda x: 3.0 * np.eye(2), 1.0, 1.0,
                        eval_batch=lambda pts: np.broadcast_to(3.0 * np.eye(2), (len(pts), 2, 2)))
        with pytest.raises(ComparabilityError, match="eigenvalues"):
            comparability_audit(g, sample_points())

    def test_asymmetric_metric_caught(self):
        mat = np.array([[1.0, 0.5], [0.2, 1.0]])
        g = MetricField(lambda x: mat, 0.5, 2.0,
                        eval_batch=lambda pts: np.broadcast_to(mat, (len(pts), 2, 2)))
        with pytest.raises(ComparabilityError, match="asymmetry"):
            comparability_audit(g, sample_points())

    def test_deterministic_evaluation(self):
        g = checkerboard_metric(1.0, 2.0)
        pts = sample_points()
        assert np.array_equal(g.matrices(pts), g.matrices(pts))
