"""Counting functions, Weyl constants, and asymptotic fits.

The dimension is n = 2 throughout, since every mesh here triangulates a
2-D domain: the Weyl scaling lambda_k k^(2/n) is lambda_k k, and each
constant is 1/(4 pi) times an integral of |rho|. Only
`weyl_constant_factor(n)` keeps the generic formula, whose value at n = 2
is that 1/(4 pi). Eigenvalue windows default to the middle third band
[N/3, 2N/3]: low k is preasymptotic and the top of the computed range is
polluted by discretization (P1 elements overestimate high eigenvalues).
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .assembly import _DENSE_LIMIT, assemble
from .fields import Quadrature
from .spectral import Spectrum, solve_weighted

__all__ = [
    "WeylTarget",
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
    omega = np.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return float((omega / (2.0 * np.pi) ** n) ** (2.0 / n))


class WeylTarget:
    """Limits of lambda_k^± k plus the metric volume.

    c_plus and c_minus are 1/(4 pi) times the integral of |rho| over M^±;
    a side with no quadrature mass has constant exactly zero.
    """

    def __init__(self, c_plus, c_minus, vol):
        if c_plus < 0.0 or c_minus < 0.0:
            raise ValueError("Weyl constants must be nonnegative")
        self.c_plus = float(c_plus)
        self.c_minus = float(c_minus)
        self.vol = float(vol)

    def constant(self, sign):
        if sign == 1:
            return self.c_plus
        if sign == -1:
            return self.c_minus
        raise ValueError("sign must be +1 or -1")

    def __repr__(self):
        return "WeylTarget(c_plus={!r}, c_minus={!r}, vol={!r})".format(
            self.c_plus, self.c_minus, self.vol)


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


def weyl_constants(q: Quadrature) -> WeylTarget:
    """Weyl constants c_± = factor(2) * integral_{M^±} |rho| and
    vol = Vol(M, g) from one audited quadrature sample `q` with weight.

    M^± is realized as the set of quadrature points where ±rho > 0, so a
    constant is zero exactly when its side carries no quadrature mass.
    """
    factor = weyl_constant_factor(2)
    mass = np.abs(q.rho) * q.measure
    int_plus = float(np.sum(mass * (q.rho > 0.0)))
    int_minus = float(np.sum(mass * (q.rho < 0.0)))
    vol = float(np.sum(q.measure))
    return WeylTarget(factor * int_plus, factor * int_minus, vol)


def weyl_target(m, g, w, quad_order: int = 2) -> WeylTarget:
    """`weyl_constants` of a fresh quadrature sample of (m, g, w)."""
    return weyl_constants(Quadrature(m, g, w, quad_order).compact())


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


def fit_limit(s: Spectrum, window=None, target: WeylTarget = None) -> dict:
    """Estimate lim lambda_k^± k by a tail average over a k-window.

    The window is a pair [k_lo, k_hi] of 1-based ranks, defaulting to the
    middle third of the shortest nonempty family. Requires k_lo >= 10 and at
    least 20 samples; k_hi beyond the computed range is an error rather than
    a silent clip.

    Returns {"window": [k_lo, k_hi], "sides": {"plus": ..., "minus": ...}},
    as `summary.json` stores it. An empty family's side is "empty side";
    any other holds "estimate", the window average of lambda_k k; "rel_dev",
    its relative deviation from the target (None without one, or where the
    target constant is 0); "slope" a and "intercept" b of the regression
    N(Lambda) ~ a Lambda + b sqrt(Lambda) in Lambda = 1/lambda, where only
    a carries meaning and b absorbs the boundary term; and "raw_ratio",
    the single-constant mean(N/Lambda).
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
        estimate = float(np.mean(vals[ks - 1] * ks))
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
    return {"window": [k_lo, k_hi], "sides": sides}


def convergence_study(make_problem, levels, window=None, t: float = 0.0,
                      k_each=120, quad_order: int = 2,
                      dense_limit: int = _DENSE_LIMIT, seed: int = 0,
                      csv_path=None):
    """Per-level Weyl-limit deviations for a refinement family.

    `make_problem(level)` returns (mesh, metric, weight, bc); each level is
    assembled, solved for k_each eigenvalues per sign at t, and fitted
    against its own quadrature target. Returns (rows, p, s): the row dicts
    in level order, and the pencil and spectrum of the finest level (the
    first one, if the largest level repeats). Optionally writes the rows as
    CSV. Deviations are expected to decrease with level, but this is
    reported, not asserted.
    """
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError("a convergence study needs at least 2 levels")
    rows = []
    finest = None
    for level in levels:
        m, g, w, bc = make_problem(level)
        p = assemble(m, g, w, bc, quad_order)
        s = solve_weighted(p, t, k_each=k_each, dense_limit=dense_limit,
                           seed=seed, vectors=False)
        rows.append(_convergence_row(level, p, s, window))
        if finest is None or level > finest[0]:
            finest = (level, p, s)
    if csv_path is not None:
        _write_convergence_csv(rows, csv_path)
    return rows, finest[1], finest[2]


def _convergence_row(level, p, s, window):
    """One level's row: the fit of s against the target of p's own sample."""
    sides = fit_limit(s, window, target=weyl_constants(p.quad))["sides"]
    row = {"level": int(level), "free_dofs": int(p.n_free)}
    for label in ("plus", "minus"):
        side = sides[label]
        empty = side == "empty side"
        row["estimate_{}".format(label)] = None if empty else side["estimate"]
        row["rel_dev_{}".format(label)] = None if empty else side["rel_dev"]
    return row


def _write_convergence_csv(rows, path):
    fields = ["level", "free_dofs", "estimate_plus", "estimate_minus",
              "rel_dev_plus", "rel_dev_minus"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow(["" if row[f] is None else _num(row[f])
                             for f in fields])


def _num(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_spectrum_csv(s: Spectrum, target: WeylTarget, path):
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
                    scaled[label] = float(vals[i]) * k
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
