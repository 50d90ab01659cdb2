"""Generalized eigensolvers for the weighted, regularized, and classical problems.

The weighted problem is R v = lambda (K + t Mm) v: eigenvalues split by sign
into descending lists lambda_k^+ and lambda_k^- (stored as magnitudes). For
t = 0 on a pure-Neumann pencil the form K alone is only semidefinite and the
solve is restricted to the coercivity subspace {v : r . v = 0}; the restriction
is a rank-one projection, so the dimension drops by exactly one.

Two code paths. Dense (free DOFs <= the dense limit `assembly._DENSE_LIMIT`):
Cholesky-based reduction of the pencil and a full symmetric eigensolve, which
doubles as the trusted oracle.
Sparse: Lanczos with the coercive form inverted once (shift-invert at the
origin of the Laplace variable), run at both spectral ends; the constrained
case either shift-inverts the equivalent pencil K u = (1/lambda) R u (rho of
one sign) or runs projected Lanczos through a bordered factorization (rho of
both signs).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from .assembly import _DENSE_LIMIT, ModelingError, Pencil, _householder_basis

__all__ = [
    "Spectrum",
    "SolverError",
    "ConstraintProjector",
    "solve_weighted",
    "solve_laplace",
    "project_constraint",
    "extend_by_zero",
]

_MULT_TOL = 1e-8  # relative clustering width for multiplicity reporting


class SolverError(RuntimeError):
    """An eigensolve failed (non-coercive form or non-convergence)."""


class Spectrum:
    """Signed eigenvalue lists of one weighted problem.

    pos holds lambda_1^+ >= lambda_2^+ >= ... > 0; neg holds the magnitudes
    of the negative eigenvalues, again descending, so neg[k-1] = |lambda_k^-|.
    Eigenvector columns (free-DOF coefficients) align with the lists and are
    E_t-orthonormal. meta records the problem descriptor.
    """

    def __init__(self, pos, neg, vec_pos=None, vec_neg=None, meta=None):
        self.pos = np.asarray(pos, dtype=float)
        self.neg = np.asarray(neg, dtype=float)
        if np.any(np.diff(self.pos) > 0) or np.any(np.diff(self.neg) > 0):
            raise ValueError("eigenvalue lists must be descending")
        if (self.pos < 0).any() or (self.neg < 0).any():
            raise ValueError("lists store magnitudes, all entries positive")
        self.vec_pos = vec_pos
        self.vec_neg = vec_neg
        self.meta = dict(meta or {})

    def values(self, sign):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return self.pos if sign == 1 else self.neg

    def groups(self, sign=1):
        """Cluster a list into (value, multiplicity) pairs.

        Eigenvalues within 1e-8 * max(1, |value|) of the running cluster
        head count as one eigenvalue; discretization splits the exact
        multiplicities of symmetric domains by about that much.
        """
        vals = self.values(sign)
        out = []
        i = 0
        while i < len(vals):
            head = vals[i]
            j = i + 1
            while j < len(vals) and abs(vals[j] - head) <= _MULT_TOL * max(1.0, abs(head)):
                j += 1
            out.append((float(vals[i:j].mean()), j - i))
            i = j
        return out

    def __repr__(self):
        return "Spectrum({} positive, {} negative, meta={})".format(
            len(self.pos), len(self.neg), self.meta
        )


class ConstraintProjector:
    """The working subspace {v : r . v = 0} as a rank-one projector.

    For tau = 0 the projector is the identity and dim == ambient_dim. The
    orthogonal projection P v = v - r (r.v)/(r.r) is applied inside
    matrix-vector products; `basis()` gives an explicit orthonormal basis
    (a Householder frame) for dense reductions.
    """

    def __init__(self, ambient_dim, r=None):
        self.ambient_dim = int(ambient_dim)
        if r is None:
            self.r = None
            self.dim = self.ambient_dim
        else:
            r = np.asarray(r, dtype=float)
            nrm = float(np.linalg.norm(r))
            if nrm <= 0.0:
                raise ModelingError("constraint vector r vanishes")
            self.r = r
            self._rr = nrm * nrm
            self.dim = self.ambient_dim - 1

    @property
    def is_identity(self):
        return self.r is None

    def apply(self, v):
        if self.r is None:
            return v
        return v - self.r * (self.r @ v / self._rr)

    def basis(self):
        """Orthonormal (ambient_dim, dim) basis of the working space."""
        if self.r is None:
            return np.eye(self.ambient_dim)
        return _householder_basis(self.r)

    def __repr__(self):
        kind = "identity" if self.r is None else "rank-one"
        return "ConstraintProjector({}, dim={})".format(kind, self.dim)


def project_constraint(p: Pencil) -> ConstraintProjector:
    """Working-space description for the t = 0 solve.

    Only a pure-Neumann pencil (tau = 1) carries a constraint; there the
    model requires both r != 0 and a nonvanishing weight integral
    r . 1 = integral rho d mu (otherwise constants stay in the subspace
    while carrying zero energy, and the eigenproblem degenerates).
    """
    if p.tau == 0:
        return ConstraintProjector(p.n_free)
    rf = p.r_free
    scale = max(1.0, float(np.abs(rf).sum()))
    if np.linalg.norm(rf) <= 1e-14 * scale:
        raise ModelingError("constraint vector r vanishes")
    if abs(float(rf.sum())) <= 1e-10 * scale:
        raise ModelingError(
            "weight integral vanishes: integral rho d mu = 0 leaves constants "
            "energy-free in the working space"
        )
    return ConstraintProjector(p.n_free, rf)


def extend_by_zero(p: Pencil, V):
    """Embed free-DOF coefficient columns into the full vertex space."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[0] != p.n_free:
        V = V.T
    out = np.zeros((p.n_vertices, V.shape[1]))
    out[p.free_dofs] = V
    return out


def _split_signed(w, V, k_each):
    """Split ascending (w, columns) into descending signed lists."""
    scale = max(1.0, float(np.abs(w).max()) if len(w) else 1.0)
    ztol = 1e-12 * scale
    ipos = np.nonzero(w > ztol)[0][::-1][:k_each]
    ineg = np.nonzero(w < -ztol)[0][:k_each]
    pos, neg = w[ipos], -w[ineg]
    vp = V[:, ipos] if V is not None else None
    vn = V[:, ineg] if V is not None else None
    return pos, neg, vp, vn


def _seeded_start(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


def _dense_weighted(p, t, k_each, proj):
    Kt = p.Kf.toarray()
    if t > 0.0:
        Kt += t * p.Mmf.toarray()
    R = p.Rf.toarray()
    Q = None
    if proj is not None and not proj.is_identity:
        Q = proj.basis()
        Kt = Q.T @ Kt @ Q
        R = Q.T @ R @ Q
    try:
        w, V = eigh(R, Kt)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "coercive form is not positive definite; supply t > 0 or a "
            "constraint ({})".format(exc)
        ) from exc
    if Q is not None:
        V = Q @ V
    return _split_signed(w, V, k_each)


def _sparse_unconstrained(p, t, k_each, seed):
    from scipy.sparse.linalg import eigsh, splu

    Kt = (p.Kf + t * p.Mmf).tocsc() if t > 0.0 else p.Kf.tocsc()
    R = p.Rf.tocsr()
    nf = p.n_free
    try:
        lu = splu(Kt)
    except RuntimeError as exc:
        raise SolverError(
            "coercive form could not be factorized; supply t > 0 or a "
            "constraint ({})".format(exc)
        ) from exc
    Minv = LinearOperator((nf, nf), matvec=lu.solve, dtype=float)
    v0 = _seeded_start(nf, seed)
    k = min(k_each, nf - 2)
    rho_lo, rho_hi = p.rho_range

    def run(which):
        try:
            return eigsh(R, k=k, M=Kt, Minv=Minv, which=which, v0=v0)
        except ArpackNoConvergence as exc:
            raise SolverError("Lanczos did not converge ({})".format(exc)) from exc

    pos = neg = np.empty(0)
    vp = vn = None
    if rho_hi > 0.0:
        w, V = run("LA")
        pos, _, vp, _ = _split_signed(w, V, k_each)
    if rho_lo < 0.0:
        w, V = run("SA")
        _, neg, _, vn = _split_signed(w, V, k_each)
    return pos, neg, vp, vn


def _constraint_shift(p, V):
    """Restore r . v = 0 by subtracting constants, then E_0-normalize.

    Nonzero eigenpairs of the constrained problem are in bijection with the
    nonzero-Lambda pairs of the unconstrained pencil K u = Lambda R u via
    v = u - (r.u / r.1) 1; the shift leaves K v and the eigenvalue intact.
    """
    ones = np.ones(p.n_free)
    rf = p.r_free
    V = V - np.outer(ones, (rf @ V) / float(rf @ ones))
    nrm = np.sqrt(np.einsum("ij,ij->j", V, p.Kf @ V))
    return V / nrm


def _sparse_constrained_semidefinite(p, k_each, seed, sign):
    """tau = 1, t = 0, rho single-signed: shift-invert on K u = Lambda R u.

    With M = sign * R positive semidefinite, ARPACK's shift-invert mode at
    sigma < 0 returns the Lambdas nearest sigma, which is the ascending
    order from the zero mode upward; the zero mode is dropped and the rest
    maps to lambda = 1 / Lambda.
    """
    from scipy.sparse.linalg import eigsh

    Kf = p.Kf.tocsc()
    M = (sign * p.Rf).tocsc()
    nf = p.n_free
    # any negative shift is algebraically valid; convergence only needs
    # the scale of the first nonzero mode, so a Rayleigh quotient of a
    # linear probe (gradient 1, orthogonal to the constraint) suffices
    coords = p.mesh.vertices[p.free_dofs]
    rf = p.r_free
    probe = coords[:, 0] - (rf @ coords[:, 0]) / float(rf.sum())
    mass = probe @ (p.Mmf @ probe)
    if mass <= 1e-14 * abs(probe @ probe):
        probe = coords[:, 1] - (rf @ coords[:, 1]) / float(rf.sum())
        mass = probe @ (p.Mmf @ probe)
    mu = float(probe @ (Kf @ probe) / mass)
    rho_bound = max(abs(p.rho_range[0]), abs(p.rho_range[1]))
    sigma = -0.5 * mu / rho_bound
    k = min(k_each + 1, nf - 2)
    try:
        w, V = eigsh(Kf, k=k, M=M, sigma=sigma, which="LM", mode="normal",
                     v0=_seeded_start(nf, seed))
    except ArpackNoConvergence as exc:
        raise SolverError("Lanczos did not converge ({})".format(exc)) from exc
    keep = w > abs(sigma) * 1e-8  # drop the constant zero mode
    w, V = w[keep], V[:, keep]
    lam = np.sort(1.0 / w)[::-1][:k_each]
    order = np.argsort(-1.0 / w)[:k_each]
    return lam, _constraint_shift(p, V[:, order])


def _sparse_constrained_indefinite(p, k_each, seed):
    """tau = 1, t = 0, sign-changing rho: projected Lanczos at both ends.

    The working pencil is (P R P, P K P + gamma r r^T) with P the rank-one
    projector onto {r . v = 0}: on the subspace it restricts to the
    constrained problem, and the complementary direction becomes a spurious
    zero eigenvalue that neither spectral end sees. The SPD right-hand form
    is inverted through the bordered factorization of [[K, r], [r^T, 0]],
    which is nonsingular because r . 1 != 0 while K only annihilates
    constants.
    """
    from scipy.sparse.linalg import eigsh, splu

    Kf = p.Kf.tocsc()
    R = p.Rf.tocsr()
    nf = p.n_free
    rf = p.r_free
    rr = float(rf @ rf)
    gamma = (float(Kf.diagonal().mean()) or 1.0) / rr

    def project(v):
        return v - rf * (rf @ v / rr)

    bordered = sparse.bmat(
        [[Kf, rf.reshape(-1, 1)], [rf.reshape(1, -1), None]], format="csc"
    )
    try:
        lu = splu(bordered)
    except RuntimeError as exc:
        raise SolverError("bordered factorization failed ({})".format(exc)) from exc

    rhs = np.zeros(nf + 1)

    def minv(y):
        # block-diagonal inverse: restricted K^{-1} on the subspace plus the
        # gamma r r^T complement
        yp = project(y)
        rhs[:nf] = yp
        x = lu.solve(rhs)[:nf]
        return project(x) + rf * (rf @ y) / (gamma * rr * rr)

    A = LinearOperator((nf, nf), matvec=lambda v: project(R @ project(v)),
                       dtype=float)
    M = LinearOperator((nf, nf), matvec=lambda v: project(Kf @ project(v))
                       + gamma * rf * (rf @ v), dtype=float)
    Minv = LinearOperator((nf, nf), matvec=minv, dtype=float)
    v0 = project(_seeded_start(nf, seed))
    k = min(k_each, nf - 2)

    def run(which):
        try:
            return eigsh(A, k=k, M=M, Minv=Minv, which=which, v0=v0)
        except ArpackNoConvergence as exc:
            raise SolverError("Lanczos did not converge ({})".format(exc)) from exc

    rho_lo, rho_hi = p.rho_range
    pos = neg = np.empty(0)
    vp = vn = None
    if rho_hi > 0.0:
        w, V = run("LA")
        pos, _, vp, _ = _split_signed(w, V, k_each)
    if rho_lo < 0.0:
        w, V = run("SA")
        _, neg, _, vn = _split_signed(w, V, k_each)
    return pos, neg, vp, vn


def _sparse_constrained(p, k_each, seed):
    rho_lo, rho_hi = p.rho_range
    if rho_lo >= 0.0:
        pos, vp = _sparse_constrained_semidefinite(p, k_each, seed, +1)
        return pos, np.empty(0), vp, None
    if rho_hi <= 0.0:
        neg, vn = _sparse_constrained_semidefinite(p, k_each, seed, -1)
        return np.empty(0), neg, None, vn
    return _sparse_constrained_indefinite(p, k_each, seed)


def solve_weighted(p: Pencil, t: float = 0.0, k_each: int = 6,
                   dense_limit: int = _DENSE_LIMIT, seed: int = 0) -> Spectrum:
    """Solve R v = lambda (K + t Mm) v, k_each eigenvalues per sign.

    t = 0 requires a coercive K on the working space: either eliminated
    Dirichlet DOFs or, on a pure-Neumann pencil, the constraint {r . v = 0}
    which the solver applies itself. Results carry E_t-orthonormal
    eigenvectors over the free DOFs.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if p.n_free == 0:
        raise SolverError("no free DOFs")
    constrained = p.tau == 1 and t == 0.0
    proj = project_constraint(p) if constrained else None
    method = "dense"
    if p.n_free <= dense_limit:
        pos, neg, vp, vn = _dense_weighted(p, t, k_each, proj)
    elif constrained:
        method = "sparse-projected"
        pos, neg, vp, vn = _sparse_constrained(p, k_each, seed)
    else:
        method = "sparse-lanczos"
        pos, neg, vp, vn = _sparse_unconstrained(p, t, k_each, seed)
    meta = {
        "t": float(t),
        "bc": p.bc.kind,
        "level": p.mesh.level,
        "method": method,
        "seed": int(seed),
        "n_free": p.n_free,
        "constrained": constrained,
    }
    return Spectrum(pos, neg, vp, vn, meta)


def solve_laplace(p: Pencil, count: int = 6, dense_limit: int = _DENSE_LIMIT,
                  seed: int = 0, return_vectors: bool = False):
    """Smallest `count` eigenvalues of K v = Lambda Mm v, ascending.

    A pure-Neumann pencil contributes its zero mode (constant eigenvector)
    as Lambda_1 = 0.
    """
    nf = p.n_free
    if nf == 0:
        raise SolverError("no free DOFs")
    count = min(int(count), nf)
    if nf <= dense_limit:
        w, V = eigh(p.Kf.toarray(), p.Mmf.toarray(),
                    subset_by_index=[0, count - 1])
    else:
        from scipy.sparse.linalg import eigsh

        if count > nf - 2:
            raise SolverError("sparse path cannot return the full spectrum")
        try:
            w, V = eigsh(p.Kf.tocsc(), k=count, M=p.Mmf.tocsc(), sigma=-1.0,
                         which="LM", mode="normal",
                         v0=_seeded_start(nf, seed))
        except ArpackNoConvergence as exc:
            raise SolverError("Lanczos did not converge ({})".format(exc)) from exc
        order = np.argsort(w)
        w, V = w[order], V[:, order]
    if return_vectors:
        return w, V
    return w
