"""Checkers for the variational principles and the bracketing/sandwich bounds.

Every checker is report-only: it returns a dict (or BracketReport) with
margins and a `passed` flag instead of raising on violation, so callers can
collect results across checks. Margins are signed so that anything at or
above -tolerance passes; the tolerance is absolute, 1e-9, because the
discrete inequalities hold exactly up to roundoff.

Subspace trials draw Gaussian coefficient vectors from a seeded generator
and orthonormalize in the E_t inner product, which makes the sampled
subspaces rotation-invariant and the reports reproducible. For constrained
spectra (tau = 1, t = 0) all operators are first reduced onto an
orthonormal basis of the constraint subspace, so the samplers never leave
it and projected pencils stay nonsingular.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import LinAlgError, cholesky, eigh, qr, solve_triangular

from .assembly import _DENSE_LIMIT, BoundarySpec, assemble, poincare_constant
from .mesh import Mesh, edge_incidence
from .spectral import Spectrum, project_constraint, solve_weighted

__all__ = [
    "BracketReport",
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
    when the spectrum was computed there."""
    t = float(s.meta.get("t", 0.0))
    Kt = p.Kf.toarray()
    if t > 0.0:
        Kt = Kt + t * p.Mmf.toarray()
    R = p.Rf.toarray()
    vp, vn = s.vec_pos, s.vec_neg
    if s.meta.get("constrained"):
        Q = project_constraint(p).basis()
        Kt = Q.T @ Kt @ Q
        R = Q.T @ R @ Q
        vp = Q.T @ vp if vp is not None else None
        vn = Q.T @ vn if vn is not None else None
    return Kt, R, vp, vn


def _signed_items(s: Spectrum, vp, vn, k):
    """Yield (label, lambda_k, eigenvectors, sign) for sides with k values."""
    out = []
    for label, vals, vecs, sign in (
        ("plus", s.pos, vp, +1),
        ("minus", s.neg, vn, -1),
    ):
        if len(vals) < k or vecs is None or vecs.shape[1] < k:
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

    A sampled L is the E_t-orthogonal complement of k-1 Gaussian vectors;
    the extremum over L comes from the projected pencil on an orthonormal
    basis of L. The complement of the first k-1 eigenvectors attains
    equality.
    """
    Kt, R, vp, vn = _reduced_operators(s, p)
    rng = np.random.default_rng(seed)
    n = Kt.shape[0]

    def extremum_over_complement(Y, sign):
        # columns of B span {v : Y^T Kt v = 0}
        Q, _ = qr(Kt @ Y, mode="full")
        B = Q[:, Y.shape[1]:]
        vals = eigh(B.T @ R @ B, B.T @ Kt @ B, eigvals_only=True)
        return sign * (vals[-1] if sign == 1 else vals[0])

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


class BracketReport:
    """Merged subdomain sequences against the global t-regularized spectrum.

    For each sign, `triples(sign)` returns rows (nu_k, lambda_k, eta_k) over
    the comparable index range. The nu sequence comes from subdomain
    problems with Dirichlet interfaces, whose spaces embed in the global one
    by extension with zero, so it may be shorter; eta comes from
    interface-free subdomain problems whose direct sum contains the global
    space. Violations are (sign, side, k, margin) entries with margin below
    -tolerance.
    """

    def __init__(self, data, violations, meta):
        self.data = data
        self.violations = list(violations)
        self.meta = dict(meta)

    @property
    def passed(self):
        return not self.violations

    def triples(self, sign):
        d = self.data["plus" if sign == 1 else "minus"]
        n = min(len(d["nu"]), len(d["lam"]), len(d["eta"]))
        return np.column_stack([d["nu"][:n], d["lam"][:n], d["eta"][:n]])

    def to_dict(self):
        out = {
            "check": "bracketing",
            "passed": self.passed,
            "violations": [
                {"sign": sgn, "side": side, "k": int(k), "margin": float(mg)}
                for sgn, side, k, mg in self.violations
            ],
        }
        out.update(self.meta)
        for label, d in self.data.items():
            out[label] = {key: [float(v) for v in arr]
                          for key, arr in d.items()}
        return out


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
        if seen[idx].any():
            raise ValueError("partition cells overlap")
        seen[idx] = True
        cells.append(idx)
    if not seen.all():
        raise ValueError("partition does not cover the mesh")
    return cells


def _subdomain_edges(m: Mesh, cell, incidence, boundary_tags, interface_tag):
    """Boundary edges of one cell: outer edges keep their global tags,
    interface edges get the fresh tag. Returns (edges, interface vertices)."""
    in_cell = np.zeros(m.num_triangles, dtype=bool)
    in_cell[cell] = True
    edges = []
    interface_verts = set()
    for ti in cell:
        a, b, c = m.triangles[ti]
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            tris = incidence[key]
            if len(tris) == 1:
                edges.append((u, v, boundary_tags.get(key, 0)))
            elif not all(in_cell[t] for t in tris):
                edges.append((u, v, interface_tag))
                interface_verts.update((int(u), int(v)))
    return edges, interface_verts


def check_bracketing(m: Mesh, partition, g, w, bc: BoundarySpec, t: float,
                     k_max: int = 50, quad_order: int = 2,
                     dense_limit: int = _DENSE_LIMIT, seed: int = 0) -> BracketReport:
    """Dirichlet-Neumann bracketing of the t-regularized problem.

    The partition is a list of triangle-index sets covering the mesh once;
    anything overlapping, out of range, or not covering is rejected.
    Subdomain matrices are element sums over each cell, so the discrete
    spaces nest exactly and nu_k <= lambda_k(W, t) <= eta_k holds per sign
    up to roundoff. Comparisons run over the common prefix of each pair of
    sequences up to k_max.
    """
    if t <= 0.0:
        raise ValueError("bracketing needs t > 0")
    cells = _partition_cells(m, partition)
    bc = bc.resolve(m)
    incidence = edge_incidence(m)
    boundary_tags = {
        (min(int(e[0]), int(e[1])), max(int(e[0]), int(e[1]))): int(e[2])
        for e in m.boundary_edges
    }
    interface_tag = (int(m.boundary_edges[:, 2].max()) + 1
                     if len(m.boundary_edges) else 0)
    dirichlet_global = set(bc.dirichlet_vertices(m).tolist())

    p_global = assemble(m, g, w, bc, quad_order)
    s_global = solve_weighted(p_global, t, k_each=k_max,
                              dense_limit=dense_limit, seed=seed)

    nu = {"plus": [], "minus": []}
    eta = {"plus": [], "minus": []}
    for cell in cells:
        sub_edges, interface = _subdomain_edges(m, cell, incidence,
                                                boundary_tags, interface_tag)
        sub = Mesh(m.vertices, m.triangles[cell], sub_edges, level=m.level)
        part = assemble(sub, g, w, BoundarySpec.neumann(), quad_order)
        used = np.unique(m.triangles[cell])
        for target, blocked in (
            (nu, dirichlet_global | interface),
            (eta, dirichlet_global),
        ):
            free = np.array([v for v in used if int(v) not in blocked],
                            dtype=np.int64)
            if free.size == 0:
                continue
            K = part.K[free][:, free].toarray()
            Mm = part.Mm[free][:, free].toarray()
            R = part.R[free][:, free].toarray()
            vals = eigh(R, K + t * Mm, eigvals_only=True)
            scale = max(1.0, float(np.abs(vals).max()))
            target["plus"].extend(vals[vals > 1e-12 * scale])
            target["minus"].extend(-vals[vals < -1e-12 * scale])

    data = {}
    violations = []
    for label, sign in (("plus", 1), ("minus", -1)):
        lam = s_global.values(sign)
        nus = np.sort(np.asarray(nu[label], dtype=float))[::-1]
        etas = np.sort(np.asarray(eta[label], dtype=float))[::-1]
        for j in range(min(k_max, len(lam), len(nus))):
            margin = float(lam[j] - nus[j])
            if margin < -TOLERANCE:
                violations.append((label, "dirichlet", j + 1, margin))
        for j in range(min(k_max, len(lam), len(etas))):
            margin = float(etas[j] - lam[j])
            if margin < -TOLERANCE:
                violations.append((label, "neumann", j + 1, margin))
        data[label] = {
            "nu": nus[:k_max],
            "lam": lam[:k_max],
            "eta": etas[:k_max],
        }
    meta = {
        "t": float(t),
        "k_max": int(k_max),
        "parts": len(cells),
        "bc": bc.kind,
        "tolerance": TOLERANCE,
        "seed": int(seed),
    }
    return BracketReport(data, violations, meta)


def check_sandwich(p, t_list=(0.5, 0.1, 0.02), k_max: int = 100,
                   dense_limit: int = _DENSE_LIMIT, seed: int = 0) -> dict:
    """Sandwich bounds around the t = 0 eigenvalues.

    With C the discrete Poincare constant and tau the constraint
    codimension, lambda_{k+tau}(W, t) <= lambda_k(W) <= (1-t)^{-1} *
    lambda_k(W, C*t) per sign. On a tau = 1 pencil the report also records
    whether the index shift was necessary, meaning the unshifted first
    regularized eigenvalue exceeds the reference (near-constant vectors are
    cheap for E_t but excluded from the constrained problem). The pinch gap
    between the two bounds is monitored, not asserted; it closes as t -> 0.
    """
    for t in t_list:
        if not 0.0 < t < 1.0:
            raise ValueError("sandwich t values must lie in (0, 1)")
    C = poincare_constant(p, dense_limit=dense_limit, seed=seed)
    tau = p.tau
    s0 = solve_weighted(p, 0.0, k_each=k_max + tau, dense_limit=dense_limit,
                        seed=seed)
    per_t = []
    all_ok = True
    shift_flags = []
    for t in t_list:
        st = solve_weighted(p, t, k_each=k_max + tau,
                            dense_limit=dense_limit, seed=seed)
        sct = solve_weighted(p, C * t, k_each=k_max + tau,
                             dense_limit=dense_limit, seed=seed)
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


def _jsonable(obj):
    if isinstance(obj, BracketReport):
        return _jsonable(obj.to_dict())
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def save_report(report, path):
    """Deterministic JSON dump (sorted keys, no timestamps)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
