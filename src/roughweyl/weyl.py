"""Counting functions, Weyl constants, and asymptotic fits.

The dimension is n = 2 throughout, since every mesh here triangulates a
2-D domain: the Weyl scaling lambda_k k^(2/n) is lambda_k k, and each
constant is 1/(4 pi) times an integral of |rho|: 1/(4 pi) is the value
at n = 2 of the generic factor (omega_n / (2 pi)^n)^(2/n), omega_n the
unit-ball volume. Eigenvalue windows default to the middle third band
[N/3, 2N/3]: low k is preasymptotic and the top of the computed range is
polluted by discretization (P1 elements overestimate high eigenvalues).
"""

from __future__ import annotations

import csv

import numpy as np

from .assembly import assemble
from .fields import (_cell_blocks, _cell_integrands, sample_metric,
                     triangle_quadrature)
from .spectral import Spectrum, solve_weighted

__all__ = [
    "FitError",
    "WeylTarget",
    "counting",
    "weyl_constants",
    "weyl_target",
    "fit_limit",
    "convergence_study",
    "write_spectrum_csv",
]


class FitError(ValueError):
    """A spectrum cannot be fitted: it is empty, or it holds too few
    eigenvalues for the fit window."""


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


def weyl_constants(vol, masses) -> WeylTarget:
    """Weyl constants c_± = 1/(4 pi) * integral_{M^±} |rho| and
    vol = Vol(M, g) from the integrals of one audited quadrature sample:
    `vol` and the sign `masses` (integral of rho over M^+, integral of
    |rho| over M^-), as a pencil keeps them.

    M^± is realized as the set of quadrature points where ±rho > 0, so a
    constant is zero exactly when its side carries no quadrature mass.
    """
    factor = 1.0 / (4.0 * np.pi)
    int_plus, int_minus = masses
    return WeylTarget(factor * int_plus, factor * int_minus, vol)


def weyl_target(m, g, w, quad_order: int = 2) -> WeylTarget:
    """`weyl_constants` of a fresh quadrature sample of (m, g, w), the
    same per-cell integrals that `assemble` sums for its pencil."""
    bary, wq = triangle_quadrature(quad_order)
    nq = len(wq)
    integrands = np.empty((3, m.num_triangles))
    for cells, _, areas, points in _cell_blocks(m, bary):
        mu = sample_metric(g, points, areas, wq)[2].reshape(-1, nq)
        _cell_integrands(mu, w.values(points).reshape(-1, nq),
                         integrands[:, cells])
    vol, plus, minus = (float(np.sum(row)) for row in integrands)
    return weyl_constants(vol, (plus, minus))


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
    least 20 samples (`_check_window`; ValueError for a given window); k_hi
    beyond the computed range is an error rather than a silent clip. The
    spectrum is at fault, and FitError raised, when it is empty, when the
    default window of a short family holds fewer than 20 samples and when
    k_hi exceeds the values computed on a side.

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
        raise FitError("spectrum has no eigenvalues to fit")
    if window is None:
        N = min(counts)
        k_lo, k_hi = max(10, N // 3), (2 * N) // 3
        if k_hi - k_lo + 1 < 20:
            raise FitError(
                "the default window [{}, {}] of {} eigenvalues holds fewer "
                "than 20 samples; compute more".format(k_lo, k_hi, N))
    else:
        k_lo, k_hi = _check_window(window)

    sides = {}
    for label, sign in (("plus", 1), ("minus", -1)):
        vals = s.values(sign)
        if len(vals) == 0:
            sides[label] = "empty side"
            continue
        if k_hi > len(vals):
            raise FitError(
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


def _check_window(window):
    """The fit window (k_lo, k_hi) as ints; ValueError unless k_lo >= 10
    and it holds at least 20 samples."""
    k_lo, k_hi = int(window[0]), int(window[1])
    if k_lo < 10:
        raise ValueError("window must start at k_lo >= 10")
    if k_hi - k_lo + 1 < 20:
        raise ValueError("window holds fewer than 20 samples")
    return k_lo, k_hi


def convergence_study(make_problem, levels, window=None, t: float = 0.0,
                      k_each=120, quad_order: int = 2,
                      mode: str = "auto", csv_path=None):
    """Per-level Weyl-limit deviations for a refinement family.

    `make_problem(level)` returns (mesh, metric, weight, bc); each level is
    assembled, solved by `mode` for k_each eigenvalues per sign at t, and
    fitted against its own quadrature target. Returns (rows, p, s): the
    row dicts in level order, and the pencil and spectrum of the finest
    level (the first one, if the largest level repeats). Optionally writes
    the rows as CSV. Deviations are expected to decrease with level, but
    this is reported, not asserted.
    """
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError("a convergence study needs at least 2 levels")
    rows = []
    finest = None
    for level in levels:
        m, g, w, bc = make_problem(level)
        p = assemble(m, g, w, bc, quad_order)
        s = solve_weighted(p, t, k_each=k_each, mode=mode, vectors=False)
        rows.append(_convergence_row(level, p, s, window))
        if finest is None or level > finest[0]:
            finest = (level, p, s)
    if csv_path is not None:
        _write_convergence_csv(rows, csv_path)
    return rows, finest[1], finest[2]


def _convergence_row(level, p, s, window):
    """One level's row: the fit of s against the target of p's own sample."""
    sides = fit_limit(s, window, weyl_constants(p.vol, p.masses))["sides"]
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
