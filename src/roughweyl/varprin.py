"""Checkers for the variational principles and the bracketing/sandwich bounds.

Every checker is report-only: it returns a JSON-ready dict with margins
and a `passed` flag instead of raising on violation, so callers can
collect results across checks. Margins are signed so that anything at or
above -tolerance passes; the tolerance is absolute, 1e-9, because the
discrete inequalities hold exactly up to roundoff.

Subspace trials draw Gaussian coefficient vectors from a seeded generator
and orthonormalize in the E_t inner product, which makes the sampled
subspaces rotation-invariant and the reports reproducible. For constrained
spectra (tau = 1, t = 0) all operators are first reduced onto an
orthonormal basis of the constraint subspace, a rank-two Householder
update, so the samplers never leave it and projected pencils stay
nonsingular.

The Courant checker works in Cholesky standard form: with Kt = L L^T
factored once, C = L^{-1} R L^{-T} carries the pencil, and the extremum
over a sampled subspace is one extreme eigenvalue of C with the excluded
directions deflated past the end of its spectrum.

`check_bracketing` cuts the mesh into cells of whole triangles. A cell's
interface is the set of vertices it shares with other cells, and every
cell's pencil goes through the same `spectral._signed_ends` dispatch as
the global one.

`check_sandwich` and `check_bracketing` solve their reference spectra
themselves unless the caller passes one it has already computed (`s0`,
`s_global`); a supplied spectrum must be of the same pencil at the same t
and deep enough for the check, or the checker raises ValueError.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import LinAlgError, cholesky, eigh, qr, solve_triangular

from .assembly import (
    _DENSE_LIMIT,
    BoundarySpec,
    _Householder,
    assemble,
    poincare_constant,
)
from .mesh import Mesh
from .spectral import (
    Spectrum,
    _signed_ends,
    project_constraint,
    solve_weighted,
)

__all__ = [
    "check_poincare_minmax",
    "check_rayleigh",
    "check_courant",
    "check_bracketing",
    "check_sandwich",
    "save_report",
]

TOLERANCE = 1e-9
_MAX_RESAMPLE = 50


def _reduced_operators(s: Spectrum, p):
    """Dense (Kt, R, vec_pos, vec_neg), reduced to the constraint subspace
    when the spectrum was computed there. A spectrum solved without
    eigenvectors is rejected: the variational checks need them."""
    for vals, vecs in ((s.pos, s.vec_pos), (s.neg, s.vec_neg)):
        if len(vals) and vecs is None:
            raise ValueError("spectrum carries no eigenvectors; solve with "
                             "vectors=True")
    t = float(s.meta.get("t", 0.0))
    Kt = p.Kf.toarray()
    if t > 0.0:
        Kt = Kt + t * p.Mmf.toarray()
    R = p.Rf.toarray()
    vp, vn = s.vec_pos, s.vec_neg
    if s.meta.get("constrained"):
        H = _Householder(project_constraint(p))
        Kt = H.reduce(Kt)
        R = H.reduce(R)
        vp = H.restrict(vp) if vp is not None else None
        vn = H.restrict(vn) if vn is not None else None
    return Kt, R, vp, vn


def _signed_items(s: Spectrum, vp, vn, k):
    """Yield (label, lambda_k, eigenvectors, sign) for sides with k values."""
    out = []
    for label, vals, vecs, sign in (
        ("plus", s.pos, vp, +1),
        ("minus", s.neg, vn, -1),
    ):
        if len(vals) < k or vecs.shape[1] < k:
            continue
        out.append((label, float(vals[k - 1]), vecs, sign))
    return out


def _orthonormal_sample(rng, n, k, Kt):
    """Gaussian k-frame, E_t-orthonormalized; None when degenerate."""
    X = rng.standard_normal((n, k))
    G = X.T @ Kt @ X
    try:
        L = cholesky(G, lower=True)
    except LinAlgError:
        return None
    return X @ solve_triangular(L, np.eye(k), lower=True).T


def _check_supplied(s: Spectrum, t, n_free, need):
    """Reject a precomputed spectrum that is not of the checked pencil at
    t, or that a smaller k_each cut short of `need` values on a side."""
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


def _finish(name, k, trials, seed, sides):
    passed = bool(sides) and all(
        d["violations"] == 0 and d["attainment_gap"] <= TOLERANCE
        for d in sides.values()
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

    The extremum over V is an eigenvalue of the projected k x k pencil; with
    an E_t-orthonormal basis X the pencil is just (X^T R X, I). Attainment:
    V spanned by the first k eigenvectors of the matching sign gives
    equality. Degenerate draws are resampled and counted.
    """
    _require_positive(k=k, trials=trials)
    Kt, R, vp, vn = _reduced_operators(s, p)
    rng = np.random.default_rng(seed)
    sides = {}
    for label, lam_k, vecs, sign in _signed_items(s, vp, vn, k):
        worst = np.inf
        violations = 0
        resamples = 0
        done = 0
        while done < trials and resamples < _MAX_RESAMPLE:
            X = _orthonormal_sample(rng, Kt.shape[0], k, Kt)
            if X is None:
                resamples += 1
                continue
            done += 1
            ritz = np.linalg.eigvalsh(X.T @ R @ X)
            extremum = ritz[0] if sign == 1 else ritz[-1]
            margin = lam_k - sign * extremum
            worst = min(worst, margin)
            if margin < -TOLERANCE:
                violations += 1
        E = vecs[:, :k]
        ritz = np.linalg.eigvalsh(E.T @ R @ E)
        attained = sign * (ritz[0] if sign == 1 else ritz[-1])
        sides[label] = {
            "worst_margin": float(worst),
            "violations": violations,
            "resamples": resamples,
            "attainment_gap": float(abs(attained - lam_k)),
        }
    return _finish("poincare_minmax", k, trials, seed, sides)


def check_rayleigh(s: Spectrum, p, k: int, trials: int = 100,
                   seed: int = 0) -> dict:
    """Rayleigh bound: vectors E_t-orthogonal to the first k-1 eigenvectors
    satisfy ratio <= lambda_k^+ (ratio >= -lambda_k^- against the negative
    family). The k-th eigenvector itself attains equality; k = 1 means an
    empty orthogonality set and bounds the whole space.
    """
    _require_positive(k=k, trials=trials)
    Kt, R, vp, vn = _reduced_operators(s, p)
    rng = np.random.default_rng(seed)
    sides = {}
    for label, lam_k, vecs, sign in _signed_items(s, vp, vn, k):
        Phi = vecs[:, : k - 1]
        KPhi = Kt @ Phi
        worst = np.inf
        violations = 0
        for _ in range(trials):
            u = rng.standard_normal(Kt.shape[0])
            # two Gram-Schmidt passes; the basis is E_t-orthonormal
            u = u - Phi @ (KPhi.T @ u)
            u = u - Phi @ (KPhi.T @ u)
            ratio = float(u @ R @ u) / float(u @ Kt @ u)
            margin = lam_k - sign * ratio
            worst = min(worst, margin)
            if margin < -TOLERANCE:
                violations += 1
        uk = vecs[:, k - 1]
        attained = sign * float(uk @ R @ uk) / float(uk @ Kt @ uk)
        sides[label] = {
            "worst_margin": float(worst),
            "violations": violations,
            "attainment_gap": float(abs(attained - lam_k)),
        }
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
    _require_positive(k=k, trials=trials)
    Kt, R, vp, vn = _reduced_operators(s, p)
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
    for label, lam_k, vecs, sign in _signed_items(s, vp, vn, k):
        worst = np.inf
        violations = 0
        for _ in range(trials):
            Y = rng.standard_normal((n, k - 1))
            extremum = extremum_over_complement(Y, sign)
            margin = extremum - lam_k
            worst = min(worst, margin)
            if margin < -TOLERANCE:
                violations += 1
        attained = extremum_over_complement(vecs[:, : k - 1], sign)
        sides[label] = {
            "worst_margin": float(worst),
            "violations": violations,
            "attainment_gap": float(abs(attained - lam_k)),
        }
    return _finish("courant", k, trials, seed, sides)


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


def check_bracketing(m: Mesh, partition, g, w, bc: BoundarySpec, t: float,
                     k_max: int = 50, quad_order: int = 2,
                     dense_limit: int = _DENSE_LIMIT, seed: int = 0,
                     s_global: Spectrum | None = None) -> dict:
    """Dirichlet-Neumann bracketing of the t-regularized problem.

    The partition is a list of triangle-index sets covering the mesh once;
    anything overlapping, out of range, or not covering is rejected.
    Subdomain matrices are element sums over each cell, so the discrete
    spaces nest exactly and nu_k <= lambda_k(W, t) <= eta_k holds per sign
    up to roundoff. Comparisons run over the common prefix of each pair of
    sequences up to k_max. A cell's interface is the set of its vertices
    that a triangle outside it also touches. Each cell is assembled alone
    with natural conditions; its eta problem frees every vertex off the
    global Dirichlet set, and its nu problem also pins the interface to
    zero. Each is solved like the global pencil, for its top k_max values
    per sign (the merged top k_max lie among them).
    `s_global`, when given, is the global spectrum at t with at least
    k_max values per sign where the pencil has them; otherwise the
    checker assembles and solves the global pencil itself, eigenvalues
    only.

    The report holds, under "plus" and "minus", the descending lists
    "nu", "lam" and "eta", each cut at k_max. nu comes from the cells'
    problems with Dirichlet interfaces, whose spaces embed in the global
    one by extension with zero, so it may be shorter; eta comes from the
    interface-free problems, whose direct sum contains the global space.
    `zip(nu, lam, eta)` gives the comparable rows (nu_k, lambda_k, eta_k).
    "violations" lists {sign, side, k, margin} for each margin below
    -tolerance, the dirichlet side (lambda_k - nu_k) before the neumann
    side (eta_k - lambda_k) per sign, and "passed" is True when there
    are none.
    """
    _require_positive(k_max=k_max)
    if t <= 0.0:
        raise ValueError("bracketing needs t > 0")
    cells = _partition_cells(m, partition)
    bc = bc.resolve(m)
    dirichlet = bc.dirichlet_vertices(m)

    if s_global is None:
        s_global = solve_weighted(assemble(m, g, w, bc, quad_order), t,
                                  k_each=k_max, dense_limit=dense_limit,
                                  seed=seed, vectors=False)
    else:
        _check_supplied(s_global, t, m.num_vertices - len(dirichlet), k_max)

    nu = {"plus": [], "minus": []}
    eta = {"plus": [], "minus": []}
    for cell in cells:
        sub = Mesh(m.vertices, m.triangles[cell], (), level=m.level)
        part = assemble(sub, g, w, BoundarySpec.neumann(), quad_order)
        used = np.unique(m.triangles[cell])
        interface = np.intersect1d(used, np.delete(m.triangles, cell, axis=0))
        for target, blocked in (
            (nu, np.union1d(dirichlet, interface)),
            (eta, dirichlet),
        ):
            free = np.setdiff1d(used, blocked)
            if free.size == 0:
                continue
            K, Mm, R = (A[free][:, free] for A in (part.K, part.Mm, part.R))
            pos, neg, _, _ = _signed_ends(R, K + t * Mm, None, part.rho_range,
                                          k_max, dense_limit, seed, False)
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
        "seed": int(seed),
    }
    for label, sign in (("plus", 1), ("minus", -1)):
        lam = s_global.values(sign)[:k_max]
        nus = np.sort(np.asarray(nu[label], dtype=float))[::-1][:k_max]
        etas = np.sort(np.asarray(eta[label], dtype=float))[::-1][:k_max]
        for side, lower, upper in (("dirichlet", nus, lam),
                                   ("neumann", lam, etas)):
            n = min(len(lower), len(upper))
            margins = upper[:n] - lower[:n]
            for j in np.flatnonzero(margins < -TOLERANCE):
                violations.append({"sign": label, "side": side,
                                   "k": int(j) + 1,
                                   "margin": float(margins[j])})
        report[label] = {"nu": nus.tolist(), "lam": lam.tolist(),
                         "eta": etas.tolist()}
    report["passed"] = not violations
    return report


def check_sandwich(p, t_list=(0.5, 0.1, 0.02), k_max: int = 100,
                   dense_limit: int = _DENSE_LIMIT, seed: int = 0,
                   s0: Spectrum | None = None) -> dict:
    """Sandwich bounds around the t = 0 eigenvalues.

    With C the discrete Poincare constant and tau the constraint
    codimension, lambda_{k+tau}(W, t) <= lambda_k(W) <= (1-t)^{-1} *
    lambda_k(W, C*t) per sign. On a tau = 1 pencil the report also records
    whether the index shift was necessary, meaning the unshifted first
    regularized eigenvalue exceeds the reference (near-constant vectors are
    cheap for E_t but excluded from the constrained problem). The pinch gap
    between the two bounds is monitored, not asserted; it closes as t -> 0.
    `s0`, when given, is the t = 0 spectrum of p with at least k_max + tau
    values per sign where the pencil has them; otherwise the checker
    solves it itself. Every spectrum solved here is eigenvalues only, as
    the CLI solves the one it supplies, so the two reports agree.
    """
    _require_positive(k_max=k_max)
    for t in t_list:
        if not 0.0 < t < 1.0:
            raise ValueError("sandwich t values must lie in (0, 1)")
    tau = p.tau
    if s0 is None:
        s0 = solve_weighted(p, 0.0, k_each=k_max + tau,
                            dense_limit=dense_limit, seed=seed,
                            vectors=False)
    else:
        _check_supplied(s0, 0.0, p.n_free, k_max + tau)
    C = poincare_constant(p, dense_limit=dense_limit, seed=seed)
    per_t = []
    all_ok = True
    shift_flags = []
    for t in t_list:
        st = solve_weighted(p, t, k_each=k_max + tau,
                            dense_limit=dense_limit, seed=seed, vectors=False)
        sct = solve_weighted(p, C * t, k_each=k_max + tau,
                             dense_limit=dense_limit, seed=seed,
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
            lower_worst = (float((ref[:n_lo] - low[tau:tau + n_lo]).min())
                           if n_lo else None)
            upper_worst = (float((up[:n_up] / (1.0 - t) - ref[:n_up]).min())
                           if n_up else None)
            for worst in (lower_worst, upper_worst):
                if worst is not None and worst < -TOLERANCE:
                    all_ok = False
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
                necessary = bool(low[0] > ref[0] + TOLERANCE)
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
