"""Rough metric tensors and weight functions as measurable coefficient fields.

A field is known only through its samples, so every field callable takes
one (m, 2) array of chart points and answers for all of them at once: a
metric (m, 2, 2), a weight (m,), a gradient or map image (m, 2), a
Jacobian (m, 2, 2) and a region predicate (m,) booleans. The callable
runs once per batch; a result of any other shape raises ValueError, and
a non-finite sample raises ComparabilityError.

A MetricField is such a map x -> SPD 2x2 matrix together with
caller-declared comparability constants c_lo <= c_hi: at every point actually
sampled, the eigenvalues of G(x) must lie in [c_lo^2, c_hi^2]. "Almost
everywhere" semantics become "at quadrature points"; the built-in triangle
rules place every point strictly inside its cell, so declared singular points
(cone tips at mesh vertices) are never evaluated.

WeightField is the scalar analogue for the sign-changing density rho.
Construction helpers cover the identity metric, metrics of Lipschitz graphs
G = I + grad_f grad_f^T, radially scaled cone metrics, piecewise-constant
regions, and pullbacks J^T G(phi(x)) J. A problem's fields are sampled
block by block: `_cell_blocks` checks every cell of a mesh and then places
the quadrature points of at most `_BLOCK` cells at a time, and
`sample_metric` is the one audited sample of the metric at a block's
points, with the induced area measure sqrt(det G) dx of every point. A
field callable therefore runs once per block of cells, and no per-point
array of the whole mesh is held while the fields are evaluated. What the
Weyl law needs of a sample, Vol(M, g) and the weight's mass on each sign,
is kept per cell (`_cell_integrands`) and summed once over the mesh.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshFormatError, corner_areas

__all__ = [
    "MetricField",
    "WeightField",
    "ComparabilityError",
    "SingularPointError",
    "ExpressionError",
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
    "sample_metric",
    "sym_eigvals_2x2",
    "comparability_audit",
]


class ComparabilityError(ValueError):
    """A sampled field value violated a field hypothesis: a metric outside
    its declared eigenvalue bounds, or a non-finite metric, weight,
    gradient, map or Jacobian sample."""


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
    """Measurable real map x -> rho(x).

    `eval` is vectorized, (m, 2) points -> (m,) values. The model assumes
    rho in L^beta for some beta > n/2 = 1, a hypothesis that is not checked.
    """

    def __init__(self, eval):
        self.eval = eval

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
        out = np.empty((len(v), 2, 2))
        np.multiply(v[:, 0], v[:, 1], out=out[:, 0, 1])
        out[:, 1, 0] = out[:, 0, 1]
        for i in range(2):
            np.multiply(v[:, i], v[:, i], out=out[:, i, i])
            out[:, i, i] += 1.0
        return out

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
    P_r, P_t the radial and tangential projectors at x, formed entry by
    entry as I + (csc^2(a/2) - 1) x x^T / |x|^2. Flat exactly when
    alpha = pi. The tip (origin) is singular.
    """
    alpha = float(alpha)
    if not (0.0 < alpha <= np.pi):
        raise ValueError("alpha must lie in (0, pi]")
    c2 = 1.0 / np.sin(alpha / 2.0) ** 2

    def batch(points):
        x, y = points[:, 0], points[:, 1]
        s = x * x
        s += y * y
        np.divide(c2 - 1.0, s, out=s)  # (c2 - 1) / |x|^2
        G = np.empty((len(points), 2, 2))
        sx = s * x
        np.multiply(sx, x, out=G[:, 0, 0])
        np.multiply(sx, y, out=G[:, 0, 1])
        G[:, 1, 0] = G[:, 0, 1]
        s *= y
        np.multiply(s, y, out=G[:, 1, 1])
        G[:, 0, 0] += 1.0
        G[:, 1, 1] += 1.0
        return G

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
        if mat.shape != (2, 2) or abs(mat[0, 1] - mat[1, 0]) > 1e-12 * abs(mat).max():
            raise ValueError("region matrix must be symmetric 2x2")
        ev = np.linalg.eigvalsh(mat)
        if ev[0] <= 0:
            raise ValueError("region matrix must be positive definite")
        mats.append(mat)
    eigs = np.concatenate([np.linalg.eigvalsh(m) for m in mats])
    mats = np.array(mats)

    def batch(points):
        which = np.zeros(len(points), dtype=np.intp)  # the first region hit
        remaining = np.ones(len(points), dtype=bool)
        for k, (pred, _) in enumerate(regions):
            mask = _sample(pred, points, (), "region predicate").astype(bool)
            hit = remaining & mask
            which[hit] = k
            remaining &= ~hit
        if remaining.any():
            p = points[np.nonzero(remaining)[0][0]]
            raise ValueError("point {} matches no region".format(tuple(p)))
        return np.take(mats, which, axis=0)

    return MetricField(batch, np.sqrt(eigs.min()), np.sqrt(eigs.max()))


def _even_cell(points, cells):
    """(m,) booleans: whether each point lies in a cell (ix, iy) of the
    cells x cells grid over [0,1]^2 with ix + iy even."""
    ix = np.floor(points[:, 0] * cells).astype(int)
    iy = np.floor(points[:, 1] * cells).astype(int)
    return (ix + iy) % 2 == 0


def checkerboard_metric(a=1.0, b=2.0, cells=2) -> MetricField:
    """Checkerboard of a*I and b*I on a cells x cells grid over [0,1]^2.
    Regions match first-hit, so the odd cells are whatever the even
    predicate leaves."""
    if cells < 1:
        raise ValueError("cells must be >= 1")

    def even(points):
        return _even_cell(points, cells)

    def rest(points):
        return np.ones(len(points), dtype=bool)

    return piecewise_metric([(even, a * np.eye(2)), (rest, b * np.eye(2))])


def pullback_metric(base: MetricField, phi, jacobian,
                    jac_bounds=(1.0, 1.0)) -> MetricField:
    """Pullback G'(x) = J(x)^T G_base(phi(x)) J(x).

    `phi` maps (m, 2) points to their (m, 2) images and `jacobian` to the
    (m, 2, 2) Jacobians there. `jac_bounds` declares the (min, max)
    singular values of J over the chart; the comparability constants become
    base constants scaled by them, and the assembly-time audit catches wrong
    declarations. A singular Jacobian sample raises ComparabilityError.
    """
    s_lo, s_hi = float(jac_bounds[0]), float(jac_bounds[1])

    def batch(points):
        J = _sample(jacobian, points, (2, 2), "Jacobian")
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        if det.size and np.abs(det).min() < 1e-14:
            raise ComparabilityError("singular Jacobian sample")
        del det
        return _congruence(J, base.matrices(_sample(phi, points, (2,), "map")))

    return MetricField(batch, base.c_lo * s_lo, base.c_hi * s_hi)


def _congruence(J, G):
    """J^T G J of (m, 2, 2) batches, entry by entry, from the upper triangle
    of G: exactly symmetric wherever G is. Where the lower triangle of G
    differs, its remainder (G_10 - G_01) J^T e_1 e_0^T J is added, so an
    asymmetric G stays visible to the audit."""
    out = np.empty(J.shape)
    a, b, c = G[:, 0, 0], G[:, 0, 1], G[:, 1, 1]
    for k in range(2):
        x, y = J[:, 0, k], J[:, 1, k]  # column k of J, and G times it
        gx = a * x
        gx += b * y
        gy = b * x
        gy += c * y
        np.multiply(x, gx, out=out[:, k, k])
        out[:, k, k] += y * gy
    # gx, gy hold G times column 1 of J; entry 01 is its product with column 0
    np.multiply(J[:, 0, 0], gx, out=out[:, 0, 1])
    out[:, 0, 1] += J[:, 1, 0] * gy
    out[:, 1, 0] = out[:, 0, 1]
    lower = G[:, 1, 0]
    if (lower != b).any():
        out += (lower - b)[:, None, None] * J[:, 1, :, None] * J[:, 0, None, :]
    return out


# ---------------------------------------------------------------------------
# weight constructors


def constant_weight(v: float) -> WeightField:
    v = float(v)
    if v == 0.0:
        raise ValueError("constant weight must be nonzero")
    return WeightField(lambda points: np.full(len(points), v))


def halves_weight(v_plus: float, v_minus: float) -> WeightField:
    """v_plus on the left half {x < 1/2} of the unit square, v_minus right."""
    v_plus, v_minus = float(v_plus), float(v_minus)
    return WeightField(
        lambda points: np.where(points[:, 0] < 0.5, v_plus, v_minus))


def checkerboard_weight(v_a: float, v_b: float, cells=2) -> WeightField:
    """v_a / v_b alternating on a cells x cells checkerboard over [0,1]^2."""
    if cells < 1:
        raise ValueError("cells must be >= 1")
    v_a, v_b = float(v_a), float(v_b)

    def batch(points):
        return np.where(_even_cell(points, cells), v_a, v_b)

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


def expression_weight(text: str) -> WeightField:
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

    return WeightField(batch)


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


def sym_eigvals_2x2(G):
    """Eigenvalues (ascending) of symmetric (m, 2, 2) matrices, closed form."""
    a, b, c = G[:, 0, 0], G[:, 0, 1], G[:, 1, 1]
    mean = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
    out = np.empty((len(G), 2))
    np.subtract(mean, rad, out=out[:, 0])
    np.add(mean, rad, out=out[:, 1])
    return out


# relative slack on the declared eigenvalue bounds, for sample roundoff
_AUDIT_TOL = 1e-9


def comparability_audit(g: MetricField, points):
    """Assert symmetry, to 1e-12 of the largest |G| entry, and the declared
    eigenvalue bounds, to _AUDIT_TOL of each, at the given points.

    Returns the evaluated (m, 2, 2) matrices so callers do not evaluate twice.
    """
    G = g.matrices(points)
    asym = np.abs(G[:, 0, 1] - G[:, 1, 0]).max(initial=0.0)
    if asym > 1e-12 * np.abs(G).max(initial=0.0):
        raise ComparabilityError("metric asymmetry {:.3e} exceeds 1e-12 of "
                                 "its largest entry".format(asym))
    ev = sym_eigvals_2x2(G)
    lo, hi = g.c_lo ** 2, g.c_hi ** 2
    if len(ev) and (ev[:, 0].min() < lo * (1.0 - _AUDIT_TOL)
                    or ev[:, 1].max() > hi * (1.0 + _AUDIT_TOL)):
        raise ComparabilityError(
            "metric eigenvalues [{:.6g}, {:.6g}] leave declared [{:.6g}, {:.6g}]".format(
                ev[:, 0].min(), ev[:, 1].max(), lo, hi
            )
        )
    return G


# cells per block of a field sample: the temporaries of one block stay
# near 2 MB in `assemble`, so they do not grow with the mesh
_BLOCK = 4096


def _cell_blocks(m, bary):
    """The quadrature geometry of mesh m, one block of at most `_BLOCK`
    cells at a time: per block the `slice` of its cells, their (b, 3, 2)
    `corners` and `areas`, and the flat (b * nq, 2) `points` at the nq
    barycentric rows of `bary`, cell by cell. Checks every cell before it
    returns, so a mesh with no cells, or with a clockwise or degenerate
    cell (area <= 0) anywhere, is refused before any field is evaluated.
    """
    nt = m.num_triangles
    if nt == 0:
        raise ValueError("mesh has no triangles")
    blocks = [slice(start, min(start + _BLOCK, nt))
              for start in range(0, nt, _BLOCK)]
    areas = np.empty(nt)
    for cells in blocks:
        areas[cells] = corner_areas(m.vertices.take(m.triangles[cells], 0))
    if areas.min() <= 0.0:
        raise MeshFormatError("mesh has nonpositive triangle areas")

    def block(cells):
        corners = m.vertices.take(m.triangles[cells], 0)
        return cells, corners, areas[cells], (bary @ corners).reshape(-1, 2)

    return map(block, blocks)


def sample_metric(g: MetricField, points, areas, wq):
    """The one audited sample of g at the quadrature `points` of cells with
    the given `areas` and rule weights `wq`: flat per point, the matrices
    `G`, `sqrtdet` = sqrt(det G) and `measure` = w_q sqrt(det G) |cell|.
    Runs `comparability_audit` and refuses a nonpositive det G.
    """
    G = comparability_audit(g, points)
    det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
    if det.size and det.min() <= 0.0:
        raise ComparabilityError("nonpositive det G sampled")
    sqrtdet = np.sqrt(det, out=det)
    measure = (sqrtdet.reshape(-1, len(wq)) * wq * areas[:, None]).ravel()
    return G, sqrtdet, measure


def _cell_integrands(mu, rho, out):
    """Write into the (3, b) `out` the integrals over each of b cells of
    1, rho^+ and rho^- against the induced measure, from the (b, nq)
    per-point measure `mu` = w_q sqrt(det G) |cell| and weight samples
    `rho`: per cell, the sums in point order of mu, of |rho| mu where
    rho > 0 and of |rho| mu where rho < 0.

    Each cell's sums read only its own points, so one `np.sum` of each
    row of the whole mesh's (3, nt) array gives Vol(M, g) and the two
    sign masses, with the same bits whatever the blocks were.
    """
    mass = np.abs(rho) * mu
    for row, part in zip(out, (mu, np.where(rho > 0.0, mass, 0.0),
                               np.where(rho < 0.0, mass, 0.0))):
        row[:] = part[:, 0]
        for q in range(1, part.shape[1]):
            row += part[:, q]
