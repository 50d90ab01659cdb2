"""Rough metric tensors and weight functions as measurable coefficient fields.

A field is known only through its samples, so every field callable takes
one (m, 2) array of chart points and answers for all of them at once: a
metric (m, 2, 2), a weight or integrand (m,), a gradient or map image
(m, 2), a Jacobian (m, 2, 2) and a region predicate (m,) booleans. The
callable runs once per batch; a result of any other shape raises
ValueError, and a non-finite sample raises ComparabilityError.

A MetricField is such a map x -> SPD 2x2 matrix together with
caller-declared comparability constants c_lo <= c_hi: at every point actually
sampled, the eigenvalues of G(x) must lie in [c_lo^2, c_hi^2]. "Almost
everywhere" semantics become "at quadrature points"; the built-in triangle
rules place every point strictly inside its cell, so declared singular points
(cone tips at mesh vertices) are never evaluated.

WeightField is the scalar analogue for the sign-changing density rho.
Construction helpers cover the identity metric, metrics of Lipschitz graphs
G = I + grad_f grad_f^T, radially scaled cone metrics, piecewise-constant
regions, and pullbacks J^T G(phi(x)) J. `Quadrature` is the one audited sample
of the fields at the quadrature points; `measure_integral` integrates over it
against the induced area measure sqrt(det G) dx.
"""

from __future__ import annotations

import copy

import numpy as np

from .mesh import triangle_areas

__all__ = [
    "MetricField",
    "WeightField",
    "ComparabilityError",
    "SingularPointError",
    "euclidean_metric",
    "lipschitz_graph_metric",
    "graph_cone_metric",
    "cone_metric",
    "piecewise_metric",
    "checkerboard_metric",
    "pullback_metric",
    "constant_weight",
    "halves_weight",
    "checkerboard_weight",
    "expression_weight",
    "triangle_quadrature",
    "quadrature_points",
    "Quadrature",
    "measure_integral",
    "sym_eigvals_2x2",
    "comparability_audit",
]


class ComparabilityError(ValueError):
    """A sampled field value violated a field hypothesis: a metric outside
    its declared eigenvalue bounds, or a non-finite metric, weight,
    gradient, map, Jacobian or integrand sample."""


class SingularPointError(ValueError):
    """A quadrature point hit a declared singular point of a field."""


def _sample(f, points, shape, what):
    """Call f once on the (m, 2) batch `points`; its result must have shape
    (m,) + shape and be finite."""
    out = np.asarray(f(points), dtype=float)
    if out.shape != (len(points),) + shape:
        raise ValueError("{} evaluation returned shape {}, expected {}".format(
            what, out.shape, (len(points),) + shape))
    if not np.isfinite(out).all():
        raise ComparabilityError("non-finite {} sample".format(what))
    return out


class MetricField:
    """Measurable map x -> symmetric positive-definite 2x2 matrix.

    Parameters
    ----------
    eval : callable
        Vectorized evaluation, (m, 2) points -> (m, 2, 2) matrices. Must be
        pure (same x, same G).
    c_lo, c_hi : float
        Declared comparability constants: eig(G(x)) in [c_lo^2, c_hi^2]
        at every sampled point. Audited, not inferred.
    singular_points : sequence of 2-D points
        Chart points where eval is undefined.
    """

    def __init__(self, eval, c_lo, c_hi, singular_points=()):
        self.eval = eval
        self.c_lo = float(c_lo)
        self.c_hi = float(c_hi)
        if not (0.0 < self.c_lo <= self.c_hi):
            raise ValueError("need 0 < c_lo <= c_hi")
        self.singular_points = np.array(singular_points, dtype=float).reshape(-1, 2)

    def matrices(self, points):
        """Evaluate at an (m, 2) array of points; returns (m, 2, 2)."""
        points = np.asarray(points, dtype=float)
        self._check_singular(points)
        return _sample(self.eval, points, (2, 2), "metric")

    def _check_singular(self, points):
        if self.singular_points.size == 0:
            return
        for s in self.singular_points:
            d2 = ((points - s) ** 2).sum(axis=1)
            if d2.size and d2.min() < 1e-28:
                raise SingularPointError(
                    "evaluation at declared singular point {}".format(tuple(s))
                )


class WeightField:
    """Measurable real map x -> rho(x) with declared integrability exponent.

    `eval` is vectorized, (m, 2) points -> (m,) values. `beta` must exceed
    n/2 = 1 (declared metadata, not certified); `nonzero_mean_required`
    mirrors the hypothesis that the weight does not integrate to zero,
    enforced against the assembled quadrature value.
    """

    def __init__(self, eval, beta=2.0, nonzero_mean_required=False):
        self.eval = eval
        self.beta = float(beta)
        if not self.beta > 1.0:
            raise ValueError("beta must exceed n/2 = 1")
        self.nonzero_mean_required = bool(nonzero_mean_required)

    def values(self, points):
        """Evaluate at an (m, 2) array of points; returns (m,)."""
        return _sample(self.eval, np.asarray(points, dtype=float), (), "weight")


# ---------------------------------------------------------------------------
# metric constructors


def euclidean_metric() -> MetricField:
    """Identity metric; the chart background everything is compared against."""
    eye = np.eye(2)
    return MetricField(lambda points: np.broadcast_to(eye, (len(points), 2, 2)),
                       1.0, 1.0)


def lipschitz_graph_metric(grad_f, lipschitz_bound,
                           singular_points=()) -> MetricField:
    """Metric induced on the graph of f: G(x) = I + grad_f(x) grad_f(x)^T.

    `grad_f` maps (m, 2) points to their (m, 2) gradients. The caller
    declares the Lipschitz bound L of f; then c_lo = 1 and
    c_hi = sqrt(1 + L^2), and det G = 1 + |grad_f|^2.
    """
    L = float(lipschitz_bound)

    def batch(points):
        v = _sample(grad_f, points, (2,), "gradient")
        return np.eye(2) + v[:, :, None] * v[:, None, :]

    return MetricField(batch, 1.0, np.sqrt(1.0 + L * L),
                       singular_points=singular_points)


def graph_cone_metric() -> MetricField:
    """Graph metric of the cone function f(x) = 1 - |x| on the unit disk.

    |grad f| = 1 away from the tip, so det G = 2 a.e.; the origin is the
    declared singular point.
    """

    def grad(points):
        r = np.hypot(points[:, 0], points[:, 1])
        return -points / r[:, None]

    return lipschitz_graph_metric(grad, 1.0, singular_points=[(0.0, 0.0)])


def cone_metric(alpha: float) -> MetricField:
    """Cone of opening angle alpha: csc^2(alpha/2) radially, 1 tangentially.

    In Cartesian chart coordinates G(x) = csc^2(a/2) P_r(x) + P_t(x) with
    P_r, P_t the radial and tangential projectors at x. Flat exactly when
    alpha = pi. The tip (origin) is singular.
    """
    alpha = float(alpha)
    if not (0.0 < alpha <= np.pi):
        raise ValueError("alpha must lie in (0, pi]")
    c2 = 1.0 / np.sin(alpha / 2.0) ** 2

    def batch(points):
        r2 = (points ** 2).sum(axis=1)
        pr = points[:, :, None] * points[:, None, :] / r2[:, None, None]
        return c2 * pr + (np.eye(2) - pr)

    return MetricField(batch, 1.0, np.sqrt(c2), singular_points=[(0.0, 0.0)])


def piecewise_metric(regions) -> MetricField:
    """First-match piecewise-constant metric.

    `regions` is a list of (predicate, SPD 2x2 matrix); each predicate maps
    (m, 2) points to (m,) booleans, and together they should partition the
    chart up to null sets. Comparability constants come from the extreme
    eigenvalues across all region matrices.
    """
    mats = []
    for _pred, mat in regions:
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (2, 2) or abs(mat[0, 1] - mat[1, 0]) > 1e-12:
            raise ValueError("region matrix must be symmetric 2x2")
        ev = np.linalg.eigvalsh(mat)
        if ev[0] <= 0:
            raise ValueError("region matrix must be positive definite")
        mats.append(mat)
    eigs = np.concatenate([np.linalg.eigvalsh(m) for m in mats])

    def batch(points):
        out = np.empty((len(points), 2, 2))
        remaining = np.ones(len(points), dtype=bool)
        for (pred, _), mat in zip(regions, mats):
            mask = _sample(pred, points, (), "region predicate").astype(bool)
            hit = remaining & mask
            out[hit] = mat
            remaining &= ~hit
        if remaining.any():
            p = points[np.nonzero(remaining)[0][0]]
            raise ValueError("point {} matches no region".format(tuple(p)))
        return out

    return MetricField(batch, np.sqrt(eigs.min()), np.sqrt(eigs.max()))


def checkerboard_metric(a=1.0, b=2.0, cells=2) -> MetricField:
    """Checkerboard of a*I and b*I on a cells x cells grid over [0,1]^2."""

    def even(points):
        ix = np.floor(points[:, 0] * cells).astype(int)
        iy = np.floor(points[:, 1] * cells).astype(int)
        return (ix + iy) % 2 == 0

    def odd(points):
        return ~even(points)

    return piecewise_metric([(even, a * np.eye(2)), (odd, b * np.eye(2))])


def pullback_metric(base: MetricField, phi, jacobian,
                    jac_bounds=(1.0, 1.0)) -> MetricField:
    """Pullback G'(x) = J(x)^T G_base(phi(x)) J(x).

    `phi` maps (m, 2) points to their (m, 2) images and `jacobian` to the
    (m, 2, 2) Jacobians there. `jac_bounds` declares the (min, max)
    singular values of J over the chart; the comparability constants become
    base constants scaled by them, and the assembly-time audit catches wrong
    declarations. Singular Jacobian samples are rejected.
    """
    s_lo, s_hi = float(jac_bounds[0]), float(jac_bounds[1])

    def batch(points):
        J = _sample(jacobian, points, (2, 2), "Jacobian")
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        if np.abs(det).min() < 1e-14:
            raise ValueError("singular Jacobian sample")
        Gb = base.matrices(_sample(phi, points, (2,), "map"))
        return np.einsum("mji,mjk,mkl->mil", J, Gb, J)

    return MetricField(batch, base.c_lo * s_lo, base.c_hi * s_hi)


# ---------------------------------------------------------------------------
# weight constructors


def constant_weight(v: float) -> WeightField:
    v = float(v)
    if v == 0.0:
        raise ValueError("constant weight must be nonzero")
    return WeightField(lambda points: np.full(len(points), v),
                       nonzero_mean_required=True)


def halves_weight(v_plus: float, v_minus: float) -> WeightField:
    """v_plus on the left half {x < 1/2} of the unit square, v_minus right."""
    v_plus, v_minus = float(v_plus), float(v_minus)
    return WeightField(
        lambda points: np.where(points[:, 0] < 0.5, v_plus, v_minus))


def checkerboard_weight(v_a: float, v_b: float, cells=2) -> WeightField:
    """v_a / v_b alternating on a cells x cells checkerboard over [0,1]^2."""
    v_a, v_b = float(v_a), float(v_b)

    def batch(points):
        ix = np.floor(points[:, 0] * cells).astype(int)
        iy = np.floor(points[:, 1] * cells).astype(int)
        return np.where((ix + iy) % 2 == 0, v_a, v_b)

    return WeightField(batch)


# minimal arithmetic-expression interpreter over x, y ------------------------
#
# grammar:  expr   := term (('+'|'-') term)*
#           term   := factor (('*'|'/') factor)*
#           factor := ('-'|'+') factor | power
#           power  := atom ('^' factor)?          (right-associative)
#           atom   := number | 'x' | 'y' | 'pi' | func '(' expr {',' expr} ')'
#                     | '(' expr ')' | '|' expr '|'
# functions: abs, sin, cos, sqrt, hypot

_FUNCS = {
    "abs": (1, np.abs),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "sqrt": (1, np.sqrt),
    "hypot": (2, np.hypot),
}


class ExpressionError(ValueError):
    """Raised for malformed weight expressions."""


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^(),|":
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE" or
                                     (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                tokens.append(float(text[i:j]))
            except ValueError:
                raise ExpressionError("bad number {!r}".format(text[i:j])) from None
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ExpressionError("unexpected character {!r}".format(ch))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ExpressionError(
                "expected {!r}, found {!r}".format(expected, tok)
            )
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = (np.add if op == "+" else np.subtract, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = (np.multiply if op == "*" else np.divide, node, rhs)
        return node

    def factor(self):
        if self.peek() in ("+", "-"):
            op = self.take()
            node = self.factor()
            return node if op == "+" else (np.negative, node)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return (np.power, base, self.factor())
        return base

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        if isinstance(tok, float):
            return self.take()
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok == "|":
            self.take()
            node = self.expr()
            self.take("|")
            return (np.abs, node)
        if tok in ("x", "y", "pi"):
            return self.take()
        if tok in _FUNCS:
            name = self.take()
            arity, fn = _FUNCS[name]
            self.take("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.take()
                args.append(self.expr())
            self.take(")")
            if len(args) != arity:
                raise ExpressionError(
                    "{} takes {} argument(s), got {}".format(name, arity, len(args))
                )
            return (fn,) + tuple(args)
        raise ExpressionError("unknown token {!r}".format(tok))


def _eval_node(node, x, y):
    if isinstance(node, float):
        return node
    if node == "x":
        return x
    if node == "y":
        return y
    if node == "pi":
        return np.pi
    fn, *args = node
    return fn(*(_eval_node(a, x, y) for a in args))


def expression_weight(text: str, beta=2.0) -> WeightField:
    """Weight from an arithmetic expression over x and y.

    Operators +, -, *, /, ^ (right-associative), functions abs, sin, cos,
    sqrt, hypot, the constant pi, and |...| for absolute value.
    """
    parser = _Parser(_tokenize(text))
    tree = parser.expr()
    if parser.peek() is not None:
        raise ExpressionError("trailing tokens after expression")

    def batch(points):
        with np.errstate(all="ignore"):
            out = _eval_node(tree, points[:, 0], points[:, 1])
        return np.broadcast_to(np.asarray(out, dtype=float), (len(points),))

    return WeightField(batch, beta=beta)


# ---------------------------------------------------------------------------
# quadrature and the induced measure

# symmetric rules with strictly interior points: order 1 (centroid), order 2
# (3-point), order 4 (6-point, two orbits)
_QUAD = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    2: (
        np.array([
            [2 / 3, 1 / 6, 1 / 6],
            [1 / 6, 2 / 3, 1 / 6],
            [1 / 6, 1 / 6, 2 / 3],
        ]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
    ),
    4: (
        np.array([
            [0.816847572980459, 0.091576213509771, 0.091576213509771],
            [0.091576213509771, 0.816847572980459, 0.091576213509771],
            [0.091576213509771, 0.091576213509771, 0.816847572980459],
            [0.108103018168070, 0.445948490915965, 0.445948490915965],
            [0.445948490915965, 0.108103018168070, 0.445948490915965],
            [0.445948490915965, 0.445948490915965, 0.108103018168070],
        ]),
        np.array([
            0.109951743655322, 0.109951743655322, 0.109951743655322,
            0.223381589678011, 0.223381589678011, 0.223381589678011,
        ]),
    ),
}


def triangle_quadrature(order: int):
    """Barycentric points and weights (summing to 1) for order in {1, 2, 4}."""
    if order not in _QUAD:
        raise ValueError("quad_order must be one of {1, 2, 4}")
    bary, w = _QUAD[order]
    return bary.copy(), w.copy()


def quadrature_points(m, order: int):
    """Physical quadrature points per cell: (nt, q, 2) array."""
    bary, _ = triangle_quadrature(order)
    corners = m.vertices[m.triangles]  # (nt, 3, 2)
    return np.einsum("qi,tid->tqd", bary, corners)


def sym_eigvals_2x2(G):
    """Eigenvalues (ascending) of symmetric (m, 2, 2) matrices, closed form."""
    a, b, c = G[:, 0, 0], G[:, 0, 1], G[:, 1, 1]
    mean = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
    return np.stack([mean - rad, mean + rad], axis=1)


# slack on the declared eigenvalue bounds, for roundoff in the samples
_AUDIT_TOL = 1e-9


def comparability_audit(g: MetricField, points):
    """Assert symmetry and declared eigenvalue bounds, up to _AUDIT_TOL, at
    the given points.

    Returns the evaluated (m, 2, 2) matrices so callers do not evaluate twice.
    """
    G = g.matrices(points)
    asym = np.abs(G[:, 0, 1] - G[:, 1, 0]).max() if len(G) else 0.0
    if asym > 1e-12:
        raise ComparabilityError("metric asymmetry {:.3e} exceeds 1e-12".format(asym))
    ev = sym_eigvals_2x2(G)
    lo, hi = g.c_lo ** 2, g.c_hi ** 2
    if len(ev) and (ev[:, 0].min() < lo - _AUDIT_TOL
                    or ev[:, 1].max() > hi + _AUDIT_TOL):
        raise ComparabilityError(
            "metric eigenvalues [{:.6g}, {:.6g}] leave declared [{:.6g}, {:.6g}]".format(
                ev[:, 0].min(), ev[:, 1].max(), lo, hi
            )
        )
    return G


class Quadrature:
    """The metric, evaluated and audited once, and optionally the weight at
    the quadrature points of a mesh. Flat per-point arrays: `points`, `G`,
    `sqrtdet`, `measure` = w_q sqrt(det G) |cell|, and `rho` (None without
    a weight).
    """

    def __init__(self, m, g: MetricField, w: WeightField = None, order: int = 2):
        _, wq = triangle_quadrature(order)
        self.order = int(order)
        self.points = quadrature_points(m, order).reshape(-1, 2)
        self.G = G = comparability_audit(g, self.points)
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
        if det.size and det.min() <= 0.0:
            raise ComparabilityError("nonpositive det G sampled")
        self.sqrtdet = np.sqrt(det)
        areas = np.repeat(triangle_areas(m), len(wq))
        self.measure = np.tile(wq, m.num_triangles) * self.sqrtdet * areas
        self.rho = None if w is None else w.values(self.points)

    def compact(self):
        """A copy holding only `order`, `measure` and `rho`, the data later
        integrals read; `points`, `G` and `sqrtdet` become None."""
        out = copy.copy(self)
        out.points = out.G = out.sqrtdet = None
        return out


def measure_integral(m, g: MetricField, f, quad_order: int = 2) -> float:
    """Integral of f against the induced measure sqrt(det G) dx.

    `f` is a number or a callable mapping (m, 2) points to (m,) values.
    Cellwise quadrature over one audited `Quadrature` sample: the sum over
    cells and points of w * f(x) * sqrt(det G(x)) * |cell|.
    """
    q = Quadrature(m, g, order=quad_order)
    if np.isscalar(f):
        c = float(f)
        f = lambda points: np.full(len(points), c)
    return float(np.sum(_sample(f, q.points, (), "integrand") * q.measure))
