"""Checkers for the variational principles and the bracketing/sandwich bounds.

Every checker is report-only: it returns a JSON-ready dict with margins
and a `passed` flag instead of raising on violation, so callers can
collect results across checks. Margins are signed so that anything at or
above -tolerance passes. The discrete inequalities hold exactly up to
roundoff, so the tolerance is 1e-9 relative: each margin between two
values is compared with 1e-9 times the larger of their magnitudes
(`_fails`), since the spectrum scales with the weight.

Each trial draws Gaussian columns from a seeded generator, takes the
extremum of the Rayleigh quotient R/E_t over the subspace they define and
records its signed margin against lambda_k; one summary per family keeps
the worst margin, the violation count, the attainment gap and whether
that gap is within tolerance ("attained"). The max-min extremum over
V = span(X) is an extreme eigenvalue of the k x k projected pencil
(X^T R X, X^T Kt X), which depends on V alone, not on the basis X. For
constrained spectra (tau = 1, t = 0) the checkers run on the grounded
pencil that the solve builds (`spectral._dense_forms`), on the n - 1
free DOFs left when free vertex 0 is grounded, with the eigenvectors in
the same coordinates. Its mass form is positive definite, so projected
pencils stay nonsingular, and its spectrum is the constrained one, so
every principle and its attainment hold as stated.

The Courant checker works in Cholesky standard form: with Kt = L L^T
factored once, C = L^{-1} R L^{-T} carries the pencil, and the extremum
over a sampled subspace is one extreme eigenvalue of C with the excluded
directions deflated past the end of its spectrum.

`check_bracketing` cuts the mesh into cells of whole triangles. A cell's
interface is the set of vertices it shares with other cells, and every
cell's pencil goes through the same `spectral._signed_ends` dispatch as
the global one.

`check_sandwich` and `check_bracketing` take the reference spectrum they
check as their first argument, as the other checkers do; it must be of
the checked pencil, at the checked t and deep enough for the check, or
the checker raises ValueError.

Every checker that densifies a form refuses, with SolverError, a pencil
above the dense path's cap of `spectral._DENSE_LIMIT` rows, or one whose
mass form fails the factor step's verdict, as the dense solve does.
`check_inertia` densifies nothing and reads eigenvalues only: it compares
the computed counting function with exact Sylvester-inertia counts
(`spectral.count_inertia`) at probes in the gaps of the spectrum.
"""

from __future__ import annotations

import json

import numpy as np

from .assembly import BoundarySpec, assemble, poincare_constant
from .mesh import Mesh
from .spectral import (
    Spectrum,
    _dense_forms,
    _shifted,
    _signed_ends,
    count_inertia,
    solve_weighted,
)
from .weyl import counting

__all__ = [
    "check_poincare_minmax",
    "check_rayleigh",
    "check_courant",
    "check_inertia",
    "check_bracketing",
    "check_sandwich",
    "save_report",
]

TOLERANCE = 1e-9


def _dense_operators(s: Spectrum, p, k):
    """Dense (Kt, R) of the checked pencil as the dense solve builds them
    (`spectral._shifted`, then `spectral._dense_forms`), and (label,
    lambda_k, eigenvectors, sign) for each side with k values; a
    constrained spectrum's eigenvectors v are grounded with the forms, as
    u = v[1:] - v[0]. The exactly symmetric forms come as their
    transposes, in the C order the checkers' products are written for. A
    spectrum whose meta["constrained"] is not what the pencil at its t
    poses raises ValueError; then a pencil above the dense cap raises
    SolverError before anything is densified, then a spectrum without
    eigenvectors ValueError."""
    t = float(s.meta.get("t", 0.0))
    Kt, rf = _shifted(p, t)
    if bool(s.meta.get("constrained")) != (rf is not None):
        raise ValueError("supplied spectrum has constrained = {}, the pencil "
                         "at t = {} poses constrained = {}".format(
                             bool(s.meta.get("constrained")), t,
                             rf is not None))
    R, Kt = _dense_forms(p.Rf, Kt, rf)
    items = []
    for label, vals, vecs, sign in (("plus", s.pos, s.vec_pos, +1),
                                    ("minus", s.neg, s.vec_neg, -1)):
        if len(vals) and vecs is None:
            raise ValueError("spectrum carries no eigenvectors; solve with "
                             "vectors=True")
        if len(vals) < k or vecs.shape[1] < k:
            continue
        if rf is not None:
            vecs = vecs[1:] - vecs[0]
        items.append((label, float(vals[k - 1]), vecs, sign))
    return Kt.T, R.T, items


def _check_supplied(s: Spectrum, t, n_free, need):
    """Reject a reference spectrum that is not of the checked pencil at t,
    or that a smaller k_each cut short of `need` values on a side."""
    if s.meta.get("t") != float(t):
        raise ValueError("supplied spectrum has t = {}, the check needs "
                         "t = {}".format(s.meta.get("t"), float(t)))
    if s.meta.get("n_free") != n_free:
        raise ValueError("supplied spectrum has {} free DOFs, the pencil "
                         "{}".format(s.meta.get("n_free"), n_free))
    for sign in (1, -1):
        have = len(s.values(sign))
        if have < need and have >= s.meta.get("k_each", 0):
            raise ValueError("supplied spectrum holds {} eigenvalues of sign "
                             "{:+d}, the check needs {}".format(have, sign,
                                                              need))


def _require_positive(**counts):
    """Reject a depth or trial count below 1, which would leave a check
    comparing nothing and passing."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError("{} must be >= 1, got {}".format(name, value))


def _fails(margin, a, b):
    """Whether margin, between the values a and b, lies below -tolerance:
    below -`TOLERANCE` times max(|a|, |b|). Elementwise on arrays."""
    return margin < -TOLERANCE * np.maximum(np.abs(a), np.abs(b))


def _side(lam_k, extrema, attained, bound):
    """One family's summary: the worst of its trial margins, how many of
    them fail, and how far the attaining subspace's extremum lies from
    lambda_k. `bound` is +1 where lambda_k bounds the trial extrema from
    above and -1 where from below."""
    extrema = np.asarray(extrema)
    margins = bound * (lam_k - extrema)
    gap = abs(attained - lam_k)
    return {
        "worst_margin": float(margins.min()),
        "violations": int(_fails(margins, lam_k, extrema).sum()),
        "attainment_gap": float(gap),
        "attained": not _fails(-gap, lam_k, attained),
    }


def _finish(name, k, trials, seed, sides):
    passed = bool(sides) and all(
        d["violations"] == 0 and d["attained"] for d in sides.values()
    )
    return {
        "check": name,
        "k": int(k),
        "trials": int(trials),
        "seed": int(seed),
        "tolerance": TOLERANCE,
        "sides": sides,
        "passed": passed,
    }
def check_poincare_minmax(s: Spectrum, p, k: int, trials: int = 100,
                          seed: int = 0) -> dict:
    """Max-min principle: every k-dim subspace V has min_V ratio <= lambda_k^+
    and max_V ratio >= -lambda_k^- where those families have k members.

    V is the span of k Gaussian columns X, and the extremum over it is the
    bottom (top) eigenvalue of the projected pencil (X^T R X, X^T Kt X).
    Attainment: V spanned by the first k eigenvectors of the matching sign
    gives equality.
    """
    from scipy.linalg import eigh

    _require_positive(k=k, trials=trials)
    Kt, R, items = _dense_operators(s, p, k)
    rng = np.random.default_rng(seed)
    n = Kt.shape[0]

    def extremum(X, sign):
        ritz = eigh(X.T @ R @ X, X.T @ Kt @ X, eigvals_only=True)
        return (sign * ritz).min()

    sides = {}
    for label, lam_k, vecs, sign in items:
        extrema = [extremum(rng.standard_normal((n, k)), sign)
                   for _ in range(trials)]
        sides[label] = _side(lam_k, extrema, extremum(vecs[:, :k], sign), 1)
    return _finish("poincare_minmax", k, trials, seed, sides)


def check_rayleigh(s: Spectrum, p, k: int, trials: int = 100,
                   seed: int = 0) -> dict:
    """Rayleigh bound: vectors E_t-orthogonal to the first k-1 eigenvectors
    satisfy ratio <= lambda_k^+ (ratio >= -lambda_k^- against the negative
    family). The k-th eigenvector itself attains equality; k = 1 means an
    empty orthogonality set and bounds the whole space.
    """
    _require_positive(k=k, trials=trials)
    Kt, R, items = _dense_operators(s, p, k)
    rng = np.random.default_rng(seed)

    def ratio(u):
        return float(u @ R @ u) / float(u @ Kt @ u)

    sides = {}
    for label, lam_k, vecs, sign in items:
        Phi = vecs[:, : k - 1]
        KPhi = Kt @ Phi
        extrema = []
        for _ in range(trials):
            u = rng.standard_normal(Kt.shape[0])
            # two Gram-Schmidt passes; the basis is E_t-orthonormal
            u = u - Phi @ (KPhi.T @ u)
            u = u - Phi @ (KPhi.T @ u)
            extrema.append(sign * ratio(u))
        sides[label] = _side(lam_k, extrema, sign * ratio(vecs[:, k - 1]), 1)
    return _finish("rayleigh", k, trials, seed, sides)


def check_courant(s: Spectrum, p, k: int, trials: int = 100,
                  seed: int = 0) -> dict:
    """Min-max principle: every subspace L of codimension k-1 satisfies
    max_L ratio >= lambda_k^+ and min_L ratio <= -lambda_k^-.

    A sampled subspace is the E_t-orthogonal complement of k-1 Gaussian
    columns Y. The extremum over it is computed in Cholesky standard form:
    with Kt = L L^T factored once per call and z = L^T v, the pencil is
    C z = lambda z for C = L^{-1} R L^{-T}, and the subspace is the
    Euclidean complement of the thin-QR frame Q of L^T Y. Moving the Q
    directions to -+alpha, past a Gershgorin bound of C,

        A = C - C Q Q^T - Q Q^T C + Q (Q^T C Q -+ alpha I) Q^T,

    leaves the extremum as the top (bottom) eigenvalue of A, the only one
    computed. k = 1 bounds the whole space. The complement of the first
    k-1 eigenvectors attains equality.
    """
    from scipy.linalg import cholesky, eigh, qr, solve_triangular

    _require_positive(k=k, trials=trials)
    Kt, R, items = _dense_operators(s, p, k)
    rng = np.random.default_rng(seed)
    n = Kt.shape[0]
    L = cholesky(Kt, lower=True)
    C = solve_triangular(L, solve_triangular(L, R, lower=True).T, lower=True)
    C = 0.5 * (C + C.T)
    alpha = 2.0 * float(np.abs(C).sum(axis=1).max())

    def extremum_over_complement(Y, sign):
        A = C
        if Y.shape[1]:
            Q, _ = qr(L.T @ Y, mode="economic")
            CQ = C @ Q
            D = Q.T @ CQ - sign * alpha * np.eye(Q.shape[1])
            A = C - (CQ @ Q.T + Q @ CQ.T) + Q @ D @ Q.T
        i = n - 1 if sign == 1 else 0
        return sign * eigh(A, eigvals_only=True, subset_by_index=[i, i])[0]

    sides = {}
    for label, lam_k, vecs, sign in items:
        extrema = [extremum_over_complement(rng.standard_normal((n, k - 1)),
                                            sign)
                   for _ in range(trials)]
        sides[label] = _side(lam_k, extrema,
                             extremum_over_complement(vecs[:, : k - 1], sign),
                             -1)
    return _finish("courant", k, trials, seed, sides)


def check_inertia(s: Spectrum, p) -> dict:
    """Inertia certificate: the computed spectrum against exact counts.

    For each sign a probe sits in the middle of every gap between
    consecutive groups of `Spectrum.groups`, where the true spectrum has
    no eigenvalue if none was missed. At each probe the number of computed
    values above it (`weyl.counting`) must equal `spectral.count_inertia`,
    one sparse factorization of R -+ s Kt at the spectrum's t. This is the
    check that sees a spectrum with an eigenpair missing from inside its
    computed range; a list cut short at its small end is not a fault, and
    passes. Eigenvalues only, and no form is densified. Each mismatch is
    reported as {"s", "computed", "inertia"}; a spectrum with no gap on
    either side checks nothing and fails.
    """
    t = float(s.meta.get("t", 0.0))
    _check_supplied(s, t, p.n_free, 0)
    sides = {}
    for label, sign in (("plus", 1), ("minus", -1)):
        groups = s.groups(sign)
        probes = [0.5 * (a + b) for (a, _), (b, _) in zip(groups, groups[1:])]
        if not probes:
            continue
        mismatches = []
        for probe in probes:
            computed = counting(s, probe, sign)
            exact = count_inertia(p, probe, sign, t)
            if computed != exact:
                mismatches.append({"s": probe, "computed": computed,
                                   "inertia": exact})
        sides[label] = {"probes": len(probes), "mismatches": mismatches}
    return {
        "check": "inertia_consistent",
        "t": t,
        "sides": sides,
        "passed": bool(sides) and not any(d["mismatches"]
                                          for d in sides.values()),
    }


def _partition_cells(m: Mesh, partition):
    nt = m.num_triangles
    seen = np.zeros(nt, dtype=bool)
    cells = []
    for cell in partition:
        idx = np.asarray(sorted(cell), dtype=np.int64)
        if idx.size == 0:
            raise ValueError("empty partition cell")
        if idx.min() < 0 or idx.max() >= nt:
            raise ValueError("triangle index out of range in partition")
        if (np.diff(idx) == 0).any():
            raise ValueError("partition cell repeats a triangle")
        if seen[idx].any():
            raise ValueError("partition cells overlap")
        seen[idx] = True
        cells.append(idx)
    if not seen.all():
        raise ValueError("partition does not cover the mesh")
    return cells


def check_bracketing(s: Spectrum, m: Mesh, partition, g, w, bc: BoundarySpec,
                     k_max: int = 50, quad_order: int = 2,
                     mode: str = "auto") -> dict:
    """Dirichlet-Neumann bracketing of the t-regularized problem.

    `s` is the global spectrum at t = s.meta["t"] > 0, with at least k_max
    values per sign where the pencil has them.

    The partition is a list of triangle-index sets covering the mesh once;
    anything overlapping, out of range, or not covering is rejected.
    Subdomain matrices are element sums over each cell, so the discrete
    spaces nest exactly and nu_k <= lambda_k(W, t) <= eta_k holds per sign
    up to roundoff. Comparisons run over the common prefix of each pair of
    sequences up to k_max. A cell's interface is the set of its vertices
    that a triangle outside it also touches. Each cell is assembled alone
    with natural conditions; its eta problem frees every vertex off the
    global Dirichlet set, and its nu problem also pins the interface to
    zero. Each is solved by `mode`, as `solve_weighted` solves, for its
    top k_max values per sign (the merged top k_max lie among them).

    The report holds, under "plus" and "minus", the descending lists
    "nu", "lam" and "eta", each cut at k_max. nu comes from the cells'
    problems with Dirichlet interfaces, whose spaces embed in the global
    one by extension with zero, so it may be shorter; eta comes from the
    interface-free problems, whose direct sum contains the global space.
    `zip(nu, lam, eta)` gives the comparable rows (nu_k, lambda_k, eta_k).
    "violations" lists {sign, side, k, margin} for each margin that fails
    the relative tolerance (`_fails`), the dirichlet side (lambda_k - nu_k)
    before the neumann side (eta_k - lambda_k) per sign, and "passed" is
    True when there are none.
    """
    _require_positive(k_max=k_max)
    t = float(s.meta.get("t", 0.0))
    if t <= 0.0:
        raise ValueError("bracketing needs t > 0")
    cells = _partition_cells(m, partition)
    bc = bc.resolve(m)
    dirichlet = bc.dirichlet_vertices(m)
    _check_supplied(s, t, m.num_vertices - len(dirichlet), k_max)

    nu = {"plus": [], "minus": []}
    eta = {"plus": [], "minus": []}
    for cell in cells:
        sub = Mesh(m.vertices, m.triangles[cell], ())
        part = assemble(sub, g, w, BoundarySpec.neumann(), quad_order)
        used = np.unique(m.triangles[cell])
        interface = np.intersect1d(used, np.delete(m.triangles, cell, axis=0))
        masses = part.masses
        for target, blocked in (
            (nu, np.union1d(dirichlet, interface)),
            (eta, dirichlet),
        ):
            free = np.setdiff1d(used, blocked)
            if free.size == 0:
                continue
            K, Mm, R = (A[free][:, free] for A in (part.K, part.Mm, part.R))
            pos, neg = _signed_ends(R, K + t * Mm, None, masses, k_max,
                                    mode, False)[:2]
            target["plus"].extend(pos)
            target["minus"].extend(neg)

    violations = []
    report = {
        "check": "bracketing",
        "violations": violations,
        "t": float(t),
        "k_max": int(k_max),
        "parts": len(cells),
        "bc": bc.kind,
        "tolerance": TOLERANCE,
    }
    for label, sign in (("plus", 1), ("minus", -1)):
        lam = s.values(sign)[:k_max]
        nus = np.sort(np.asarray(nu[label], dtype=float))[::-1][:k_max]
        etas = np.sort(np.asarray(eta[label], dtype=float))[::-1][:k_max]
        for side, lower, upper in (("dirichlet", nus, lam),
                                   ("neumann", lam, etas)):
            n = min(len(lower), len(upper))
            margins = upper[:n] - lower[:n]
            for j in np.flatnonzero(_fails(margins, upper[:n], lower[:n])):
                violations.append({"sign": label, "side": side,
                                   "k": int(j) + 1,
                                   "margin": float(margins[j])})
        report[label] = {"nu": nus.tolist(), "lam": lam.tolist(),
                         "eta": etas.tolist()}
    report["passed"] = not violations
    return report


def check_sandwich(s0: Spectrum, p, t_list=(0.5, 0.1, 0.02),
                   k_max: int = 100, mode: str = "auto") -> dict:
    """Sandwich bounds around the t = 0 eigenvalues s0 of p.

    With C the discrete Poincare constant and tau the constraint
    codimension, lambda_{k+tau}(W, t) <= lambda_k(W) <= (1-t)^{-1} *
    lambda_k(W, C*t) per sign. On a tau = 1 pencil the report also records
    whether the index shift was necessary, meaning the unshifted first
    regularized eigenvalue exceeds the reference (near-constant vectors are
    cheap for E_t but excluded from the constrained problem). The pinch gap
    between the two bounds is monitored, not asserted; it closes as t -> 0.
    `s0` must hold at least k_max + tau values per sign where the pencil
    has them. The regularized spectra are solved by `mode`, eigenvalues
    only.
    """
    _require_positive(k_max=k_max)
    for t in t_list:
        if not 0.0 < t < 1.0:
            raise ValueError("sandwich t values must lie in (0, 1)")
    tau = p.tau
    _check_supplied(s0, 0.0, p.n_free, k_max + tau)
    C = poincare_constant(p)
    per_t = []
    all_ok = True
    shift_flags = []
    for t in t_list:
        st = solve_weighted(p, t, k_each=k_max + tau, mode=mode,
                            vectors=False)
        sct = solve_weighted(p, C * t, k_each=k_max + tau, mode=mode,
                             vectors=False)
        sides = {}
        t_shift = []
        for label, sign in (("plus", 1), ("minus", -1)):
            ref = s0.values(sign)
            low = st.values(sign)
            up = sct.values(sign)
            n_lo = min(k_max, len(ref), max(0, len(low) - tau))
            n_up = min(k_max, len(ref), len(up))
            if n_lo == 0 and n_up == 0:
                continue
            worst = []
            for hi, lo in ((ref[:n_lo], low[tau:tau + n_lo]),
                           (up[:n_up] / (1.0 - t), ref[:n_up])):
                margins = hi - lo
                worst.append(float(margins.min()) if len(margins) else None)
                all_ok &= not _fails(margins, hi, lo).any()
            lower_worst, upper_worst = worst
            n_gap = min(n_lo, n_up)
            pinch = (float(np.mean(up[:n_gap] / (1.0 - t)
                                   - low[tau:tau + n_gap]))
                     if n_gap else None)
            entry = {
                "checked_lower": int(n_lo),
                "checked_upper": int(n_up),
                "lower_worst": lower_worst,
                "upper_worst": upper_worst,
                "pinch_gap": pinch,
            }
            if tau == 1 and len(low) and len(ref):
                necessary = bool(_fails(ref[0] - low[0], ref[0], low[0]))
                entry["shift_necessary"] = necessary
                t_shift.append(necessary)
            sides[label] = entry
        if tau == 1:
            shift_flags.append(any(t_shift))
        per_t.append({"t": float(t), "Ct": float(C * t), "sides": sides})
    report = {
        "check": "sandwich",
        "k_max": int(k_max),
        "tau": int(tau),
        "poincare_constant": float(C),
        "tolerance": TOLERANCE,
        "per_t": per_t,
        "passed": bool(all_ok),
    }
    if tau == 1:
        report["tau_shift_necessary"] = bool(shift_flags and all(shift_flags))
    return report


def save_report(report, path):
    """Deterministic JSON dump (sorted keys, no timestamps). numpy arrays
    and scalars are written as lists and numbers."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True,
                  default=lambda o: o.tolist())
        fh.write("\n")
