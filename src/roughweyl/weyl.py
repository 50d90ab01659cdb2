"""Counting functions, Weyl constants, and asymptotic fits.

The dimension n is carried through the constant and the exponents, but only
n = 2 is executable on the triangle meshes here; the generic expressions are
unit-tested by substituting n = 2. Eigenvalue windows default to the middle
third band [N/3, 2N/3]: low k is preasymptotic and the top of the computed
range is polluted by discretization (P1 elements overestimate high
eigenvalues).
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.special import gamma

from .assembly import _DENSE_LIMIT, assemble
from .fields import Quadrature
from .spectral import Spectrum, solve_weighted

__all__ = [
    "WeylTarget",
    "FitResult",
    "weyl_constant_factor",
    "counting",
    "weyl_constants",
    "weyl_target",
    "fit_limit",
    "convergence_study",
    "write_spectrum_csv",
]


def weyl_constant_factor(n: int = 2) -> float:
    """(omega_n / (2 pi)^n)^(2/n) with omega_n the unit-ball volume."""
    omega = np.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)
    return float((omega / (2.0 * np.pi) ** n) ** (2.0 / n))


class WeylTarget:
    """Limits of lambda_k^± k^(2/n) plus the metric volume.

    c_plus and c_minus are (omega_n/(2 pi)^n)^(2/n) times
    (integral of |rho|^(n/2) over M^±)^(2/n); a side with no quadrature mass
    has constant exactly zero.
    """

    def __init__(self, c_plus, c_minus, vol, meta=None):
        if c_plus < 0.0 or c_minus < 0.0:
            raise ValueError("Weyl constants must be nonnegative")
        self.c_plus = float(c_plus)
        self.c_minus = float(c_minus)
        self.vol = float(vol)
        self.meta = dict(meta or {})

    def constant(self, sign):
        if sign == 1:
            return self.c_plus
        if sign == -1:
            return self.c_minus
        raise ValueError("sign must be +1 or -1")

    def __repr__(self):
        return "WeylTarget(c_plus={!r}, c_minus={!r}, vol={!r})".format(
            self.c_plus, self.c_minus, self.vol)


class FitResult:
    """Tail-average estimates of the Weyl limit plus the counting regression.

    `sides` maps "plus"/"minus" to a dict with the window average of
    lambda_k k^(2/n), the relative deviation against a WeylTarget when one
    was supplied, and the two-parameter regression N(Lambda) ~ a Lambda +
    b sqrt(Lambda) in the inverse variable Lambda = 1/lambda. The raw
    single-constant ratio mean(N/Lambda) is kept alongside the regression:
    only the leading coefficient carries meaning, the sqrt term just absorbs
    the boundary correction visible at desk-scale Lambda.
    An empty eigenvalue family is marked with the string "empty side".
    """

    def __init__(self, window, sides, meta=None):
        self.window = (int(window[0]), int(window[1]))
        self.sides = sides
        self.meta = dict(meta or {})

    def _side(self, sign):
        d = self.sides["plus" if sign == 1 else "minus"]
        if d == "empty side":
            raise ValueError("empty side: no eigenvalues of that sign")
        return d

    def estimate(self, sign=1):
        return self._side(sign)["estimate"]

    def deviation(self, sign=1):
        return self._side(sign)["rel_dev"]

    def fit(self, sign=1):
        d = self._side(sign)
        return d["slope"], d["intercept"]

    def raw_ratio(self, sign=1):
        return self._side(sign)["raw_ratio"]

    def __repr__(self):
        return "FitResult(window={!r}, sides={!r})".format(
            self.window, self.sides)


def counting(s: Spectrum, lam: float, sign=1) -> int:
    """#{lambda_j^sign > lam}, multiplicities counted, strict inequality.

    Values of lam below the smallest computed eigenvalue of that sign raise:
    the spectrum is truncated there and the count would be a silent lower
    bound, not the counting function.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    vals = s.values(sign)
    if len(vals) == 0:
        raise ValueError("no eigenvalues of the requested sign were computed")
    if lam < vals[-1]:
        raise ValueError(
            "lam = {!r} lies below the computed range (smallest {!r}); "
            "compute more eigenvalues".format(float(lam), float(vals[-1])))
    return int(np.count_nonzero(vals > lam))


def weyl_constants(q: Quadrature, n: int = 2) -> WeylTarget:
    """Weyl constants c_± = factor(n) * (integral_{M^±} |rho|^(n/2))^(2/n)
    and vol = Vol(M, g) from one audited quadrature sample `q` with weight.

    M^± is realized as the set of quadrature points where ±rho > 0, so a
    constant is zero exactly when its side carries no quadrature mass.
    """
    if n != 2:
        raise NotImplementedError("only n = 2 is executable on these meshes")
    factor = weyl_constant_factor(n)
    half_pow = np.abs(q.rho) ** (n / 2.0)
    int_plus = float(np.sum(half_pow * q.measure * (q.rho > 0.0)))
    int_minus = float(np.sum(half_pow * q.measure * (q.rho < 0.0)))
    vol = float(np.sum(q.measure))
    meta = {
        "quad_order": q.order,
        "n": int(n),
        "points": int(len(q.measure)),
    }
    return WeylTarget(factor * int_plus ** (2.0 / n),
                      factor * int_minus ** (2.0 / n), vol, meta)


def weyl_target(m, g, w, quad_order: int = 2, n: int = 2) -> WeylTarget:
    """`weyl_constants` of a fresh quadrature sample of (m, g, w)."""
    return weyl_constants(Quadrature(m, g, w, quad_order), n)


def _two_parameter_fit(lam, ks):
    """Least squares N(Lambda) ~ a Lambda + b sqrt(Lambda) over the window,
    with N(Lambda_k) the global count of Lambda_j = 1/lambda_j at or below
    Lambda_k (ties land on the last index of their group); also the raw mean
    of N/Lambda."""
    Lam_all = 1.0 / lam
    Lam = Lam_all[ks - 1]
    N = np.searchsorted(Lam_all, Lam, side="right").astype(float)
    A = np.column_stack([Lam, np.sqrt(Lam)])
    coef, *_ = np.linalg.lstsq(A, N, rcond=None)
    return float(coef[0]), float(coef[1]), float(np.mean(N / Lam))


def fit_limit(s: Spectrum, window=None, target: WeylTarget = None,
              n: int = 2) -> FitResult:
    """Estimate lim lambda_k^± k^(2/n) by a tail average over a k-window.

    The window is a pair [k_lo, k_hi] of 1-based ranks, defaulting to the
    middle third of the shortest nonempty family. Requires k_lo >= 10 and at
    least 20 samples; k_hi beyond the computed range is an error rather than
    a silent clip.
    """
    counts = [len(v) for v in (s.pos, s.neg) if len(v)]
    if not counts:
        raise ValueError("spectrum has no eigenvalues to fit")
    if window is None:
        N = min(counts)
        window = (max(10, N // 3), (2 * N) // 3)
    k_lo, k_hi = int(window[0]), int(window[1])
    if k_lo < 10:
        raise ValueError("window must start at k_lo >= 10")
    if k_hi - k_lo + 1 < 20:
        raise ValueError("window holds fewer than 20 samples")

    sides = {}
    for label, sign in (("plus", 1), ("minus", -1)):
        vals = s.values(sign)
        if len(vals) == 0:
            sides[label] = "empty side"
            continue
        if k_hi > len(vals):
            raise ValueError(
                "window end {} exceeds the {} available {} eigenvalues"
                .format(k_hi, len(vals), label))
        ks = np.arange(k_lo, k_hi + 1)
        estimate = float(np.mean(vals[ks - 1] * ks ** (2.0 / n)))
        rel_dev = None
        if target is not None:
            c = target.constant(sign)
            rel_dev = (abs(estimate - c) / c) if c > 0.0 else None
        slope, intercept, raw = _two_parameter_fit(vals, ks)
        sides[label] = {
            "estimate": estimate,
            "rel_dev": rel_dev,
            "slope": slope,
            "intercept": intercept,
            "raw_ratio": raw,
        }
    return FitResult((k_lo, k_hi), sides, {"n": int(n)})


def convergence_study(make_problem, levels, window=None, k_each=120,
                      quad_order: int = 2, dense_limit: int = _DENSE_LIMIT,
                      seed: int = 0, csv_path=None):
    """Per-level Weyl-limit deviations for a refinement family.

    `make_problem(level)` returns (mesh, metric, weight, bc); each level is
    assembled, solved for k_each eigenvalues per sign at t = 0, and fitted
    against its own quadrature target. Returns a list of row dicts and
    optionally writes them as CSV; deviations are expected to decrease with
    level but this is reported, not asserted.
    """
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError("a convergence study needs at least 2 levels")
    rows = []
    for level in levels:
        m, g, w, bc = make_problem(level)
        p = assemble(m, g, w, bc, quad_order)
        s = solve_weighted(p, 0.0, k_each=k_each, dense_limit=dense_limit,
                           seed=seed)
        fit = fit_limit(s, window, target=weyl_constants(p.quad))
        row = {"level": int(level), "free_dofs": int(p.n_free)}
        for label, sign in (("plus", 1), ("minus", -1)):
            side = fit.sides[label]
            empty = side == "empty side"
            row["estimate_{}".format(label)] = (
                None if empty else side["estimate"])
            row["rel_dev_{}".format(label)] = (
                None if empty else side["rel_dev"])
        rows.append(row)
    if csv_path is not None:
        fields = ["level", "free_dofs", "estimate_plus", "estimate_minus",
                  "rel_dev_plus", "rel_dev_minus"]
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for row in rows:
                writer.writerow(["" if row[f] is None
                                 else _num(row[f]) for f in fields])
    return rows


def _num(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_spectrum_csv(s: Spectrum, target: WeylTarget, path, n: int = 2):
    """Eigenvalues against their Weyl targets, one row per rank.

    Columns: k, lambda_plus, lambda_minus, k_pow_lambda_plus,
    k_pow_lambda_minus, target_plus, target_minus, rel_dev_plus,
    rel_dev_minus. A side shorter than the other leaves blanks; a zero
    target leaves the deviation blank. Floats are written with repr so
    reruns are byte-identical.
    """
    pos, neg = s.pos, s.neg
    rows = max(len(pos), len(neg))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "k", "lambda_plus", "lambda_minus", "k_pow_lambda_plus",
            "k_pow_lambda_minus", "target_plus", "target_minus",
            "rel_dev_plus", "rel_dev_minus",
        ])
        for i in range(rows):
            k = i + 1
            row = [str(k)]
            scaled = {}
            for vals in (pos, neg):
                if i < len(vals):
                    row.append(repr(float(vals[i])))
                else:
                    row.append("")
            for vals, label in ((pos, "plus"), (neg, "minus")):
                if i < len(vals):
                    scaled[label] = float(vals[i]) * k ** (2.0 / n)
                    row.append(repr(scaled[label]))
                else:
                    row.append("")
            row.append(repr(target.c_plus))
            row.append(repr(target.c_minus))
            for label, c in (("plus", target.c_plus),
                             ("minus", target.c_minus)):
                if label in scaled and c > 0.0:
                    row.append(repr(abs(scaled[label] - c) / c))
                else:
                    row.append("")
            writer.writerow(row)
