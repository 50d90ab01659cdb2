"""Generalized eigensolvers for the weighted and regularized problems.

The weighted problem is R v = lambda (K + t Mm) v: eigenvalues split by sign
into descending lists lambda_k^+ and lambda_k^- (stored as magnitudes). For
t = 0 on a pure-Neumann pencil the form K alone is only semidefinite and the
solve is restricted to the coercivity subspace {v : r . v = 0}; the restriction
is a rank-one projection, so the dimension drops by exactly one.

Every eigensolve goes through one dispatcher, `_signed_ends(A, M, rf, ...)`:
the signed lists of a pencil (A, M), on {rf . v = 0} when rf is given. Its
callers: `solve_weighted` (R, K + t Mm), `assembly.poincare_constant`
(Mm, K; Lanczos wherever it reaches) and `varprin.check_bracketing` (each
subdomain's pencil).

Two code paths. Dense (rows <= the dense limit `assembly._DENSE_LIMIT`, or
<= k_each + 1, which Lanczos cannot reach): Cholesky-based reduction of the
pencil and a full symmetric eigensolve, which doubles as the trusted oracle.
The forms are densified in Fortran order, so LAPACK takes them without a
copy and overwrites them. Eigenvalues alone come from `dsygv`, which asks
for its optimal workspace and so tridiagonalizes on the blocked path
(`dsygvd` gets the minimal one from scipy and runs unblocked); eigenpairs
take divide and conquer (`dsygvd`), whose eigenvector pass is much faster.
Sparse: one Lanczos driver, `_sparse_weighted`, over a pencil (A, M) with
M SPD and inverted once: (R, K + t Mm), or in the constrained case the
oblique pencil (Pi^T R Pi, K + gamma r r^T), where Pi projects onto
{r . v = 0} along the constants and M is inverted through K with one vertex
grounded. For rho of both signs one Krylov space serves both families:
ARPACK's "BE" mode takes k_each eigenvalues from each spectral end in a
single run. Every SPD form that is inverted is factored by `_spd_inverse`:
sparse LU in symmetric mode, minimum-degree ordering on A + A^T, no
pivoting, and a check that the pivots stayed on the diagonal and bounded
away from zero.

Eigenvectors are optional (`solve_weighted(..., vectors=False)`): the
dense path then skips the eigenvector back-substitution and the sparse
path ARPACK's Ritz-vector pass, which dominates a Lanczos run at large
k_each. Only the variational checkers read eigenvectors.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from .assembly import _DENSE_LIMIT, ModelingError, Pencil, _Householder

__all__ = [
    "Spectrum",
    "SolverError",
    "solve_weighted",
    "project_constraint",
]

_MULT_TOL = 1e-8  # relative clustering width for multiplicity reporting
# smallest pivot of an SPD factorization, relative to the largest: SPD
# forms on the problem ladder give 0.25-0.31, a singular K about 5e-14
_PIVOT_TOL = 1e-10


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


def project_constraint(p: Pencil):
    """The constraint vector of the t = 0 solve, or None without one.

    Only a pure-Neumann pencil (tau = 1) carries a constraint, the working
    subspace {v : r . v = 0}; there the model requires both r != 0 and a
    nonvanishing weight integral r . 1 = integral rho d mu (otherwise
    constants stay in the subspace while carrying zero energy, and the
    eigenproblem degenerates). Returns the checked free-DOF r.
    """
    if p.tau == 0:
        return None
    rf = p.r_free
    scale = max(1.0, float(np.abs(rf).sum()))
    if np.linalg.norm(rf) <= 1e-14 * scale:
        raise ModelingError("constraint vector r vanishes")
    if abs(float(rf.sum())) <= 1e-10 * scale:
        raise ModelingError(
            "weight integral vanishes: integral rho d mu = 0 leaves constants "
            "energy-free in the working space"
        )
    return rf


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


def _dense_weighted(A, M, rf, k_each, vectors):
    """Signed lists of A v = lambda M v by a full dense eigensolve, on
    {rf . v = 0} when a constraint vector is given. LAPACK overwrites the
    Fortran-ordered dense forms in place (drivers: module docstring)."""
    H = None if rf is None else _Householder(rf)
    # one form at a time, so that at most one unreduced copy is alive
    M = M.toarray(order="F")
    if H is not None:
        M = H.reduce(M)
    A = A.toarray(order="F")
    if H is not None:
        A = H.reduce(A)
    try:
        if vectors:
            w, V = eigh(A, M, overwrite_a=True, overwrite_b=True)
        else:
            w, V = eigh(A, M, eigvals_only=True, driver="gv",
                        overwrite_a=True, overwrite_b=True), None
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "coercive form is not positive definite; supply t > 0 or a "
            "constraint ({})".format(exc)
        ) from exc
    if H is not None and vectors:
        V = H.extend(V)
    return _split_signed(w, V, k_each)


def _spd_inverse(A):
    """A^{-1} as an operator, from a symmetric-mode sparse LU of SPD A.

    A minimum-degree ordering of A + A^T with no pivoting keeps the
    factorization symmetric (perm_r == perm_c, U's diagonal the D of an
    LDL^T). A matrix that is singular or indefinite shows a row swap or a
    pivot that is negative or tiny against the largest one.
    """
    from scipy.sparse.linalg import splu

    failed = ("coercive form could not be factorized; supply t > 0 or a "
              "constraint ({})")
    try:
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(failed.format(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(failed.format("off-diagonal pivot"))
    piv = lu.U.diagonal()
    ratio = piv.min() / np.abs(piv).max()
    if ratio <= _PIVOT_TOL:
        raise SolverError(failed.format("min/max pivot {:.3g}".format(ratio)))
    return LinearOperator(A.shape, matvec=lu.solve, dtype=float)


def _lanczos_ends(A, M, Minv, v0, rho_range, k_each, vectors):
    """Signed lists of A v = lambda M v from Lanczos at the spectral ends.

    A sign-changing weight needs k_each eigenvalues at each end, which one
    "BE" run takes from a single Krylov space. When 2 k_each exceeds what
    ARPACK can return (n - 2), each end gets its own run of k_each instead,
    so that no eigenvalue near zero is dropped; `_signed_ends` sends a
    pencil here only when k_each <= n - 2. Without `vectors`, ARPACK
    skips its Ritz-vector pass and the columns come back as None.
    """
    from scipy.sparse.linalg import eigsh

    n = len(v0)

    def run(which, k):
        try:
            if vectors:
                return eigsh(A, k=k, M=M, Minv=Minv, which=which, v0=v0)
            w = eigsh(A, k=k, M=M, Minv=Minv, which=which, v0=v0,
                      return_eigenvectors=False)
            return np.sort(w), None
        except ArpackNoConvergence as exc:
            raise SolverError("Lanczos did not converge ({})".format(exc)) from exc

    rho_lo, rho_hi = rho_range
    if rho_lo < 0.0 < rho_hi and 2 * k_each <= n - 2:
        w, V = run("BE", 2 * k_each)
        return _split_signed(w, V, k_each)
    pos = neg = np.empty(0)
    vp = vn = None
    if rho_hi > 0.0:
        w, V = run("LA", k_each)
        pos, _, vp, _ = _split_signed(w, V, k_each)
    if rho_lo < 0.0:
        w, V = run("SA", k_each)
        _, neg, _, vn = _split_signed(w, V, k_each)
    return pos, neg, vp, vn


def _sparse_weighted(R, K, rf, rho_range, k_each, seed, vectors):
    """Signed lists of R v = lambda K v by Lanczos at the spectral ends.

    `rho_range` bounds the sign of R, which picks the ends to run. Without
    a constraint vector (rf None), K must be SPD and the pencil is (R, K).
    With one, K is semidefinite with K 1 = 0 and the problem lives on
    S = {rf . v = 0}: the pencil is the oblique (Pi^T R Pi, K + gamma rf rf^T),
    where Pi = I - 1 rf^T / (rf . 1) projects onto S along the constants.
    Since K 1 = 0, S and span(1) are orthogonal in both forms: on S the
    pencil is the constrained problem, on span(1) it has the one
    eigenvalue 0, which Lanczos at the ends never reaches and
    `_split_signed` drops. Pi^T R Pi is applied as written; the shorter
    R - rf rf^T / (rf . 1) needs rf = R 1, which holds for assembled R but
    not for a hand-built pencil or for Mm in R's place.
    """
    nf = K.shape[0]
    v0 = _seeded_start(nf, seed)
    K = K.tocsr()
    R = R.tocsr()
    if rf is None:
        return _lanczos_ends(R, K, _spd_inverse(K), v0, rho_range, k_each,
                             vectors)
    r1 = float(rf.sum())
    gamma = (float(K.diagonal().mean()) or 1.0) / float(rf @ rf)
    # K with free vertex 0 grounded is SPD; x_0 = 0 fixes the constant
    grounded = _spd_inverse(K[1:, 1:])

    # ARPACK calls these closures thousands of times. A BLAS ddot (rf @ v)
    # in each, on OpenBLAS's default 2 threads, made a level-7 `halves`
    # solve 5x slower on 2 cores (10.7 s against 2.1 s), so the dot
    # products run in einsum's own loop.
    def rdot(v):
        return np.einsum("i,i->", rf, v)

    def pi(v):
        return v - rdot(v) / r1

    def minv(y):
        # M x = y splits into K x_S = y - r (1.y)/(r.1) on S and
        # gamma (r.1)^2 c = 1.y on the constants
        s = y.sum()
        x = np.zeros(nf)
        x[1:] = grounded.matvec(y[1:] - rf[1:] * (s / r1))
        return pi(x) + s / (gamma * r1 * r1)

    def a(v):
        w = R @ pi(v)
        return w - rf * (w.sum() / r1)

    A = LinearOperator((nf, nf), matvec=a, dtype=float)
    M = LinearOperator((nf, nf), matvec=lambda v: K @ v + gamma * rdot(v) * rf,
                       dtype=float)
    Minv = LinearOperator((nf, nf), matvec=minv, dtype=float)
    return _lanczos_ends(A, M, Minv, pi(v0), rho_range, k_each, vectors)


def _goes_dense(n, k_each, dense_limit):
    """Whether `_signed_ends` solves an n-row pencil densely: up to
    `dense_limit` rows, and wherever Lanczos, which returns at most n - 2
    values per end, cannot reach k_each."""
    return n <= max(dense_limit, k_each + 1)


def _signed_ends(A, M, rf, rho_range, k_each, dense_limit, seed, vectors):
    """Signed lists (pos, neg, vec_pos, vec_neg) of A v = lambda M v.

    The one entry point of every eigensolve: the dense solve where
    `_goes_dense` says so, Lanczos at the spectral ends otherwise. M is
    SPD, or, with a constraint vector rf, semidefinite with M 1 = 0 and
    the problem posed on {rf . v = 0}. `rho_range` bounds the sign of A.
    A pencil with no rows, as left by Dirichlet conditions on every
    vertex, raises SolverError.
    """
    if M.shape[0] == 0:
        raise SolverError("no free DOFs")
    if _goes_dense(M.shape[0], k_each, dense_limit):
        return _dense_weighted(A, M, rf, k_each, vectors)
    return _sparse_weighted(A, M, rf, rho_range, k_each, seed, vectors)


def solve_weighted(p: Pencil, t: float = 0.0, k_each: int = 6,
                   dense_limit: int = _DENSE_LIMIT, seed: int = 0,
                   vectors: bool = True) -> Spectrum:
    """Solve R v = lambda (K + t Mm) v, k_each eigenvalues per sign.

    t = 0 requires a coercive K on the working space: either eliminated
    Dirichlet DOFs or, on a pure-Neumann pencil, the constraint {r . v = 0}
    which the solver applies itself. With `vectors` (the default) results
    carry E_t-orthonormal eigenvectors over the free DOFs; with
    vectors=False `vec_pos` and `vec_neg` are None and the solve skips
    their computation, so callers that read only eigenvalues should pass
    it. The eigenvalues agree either way to roundoff. With rho = 1 and
    t = 0 the positive list inverts the Laplace eigenvalues, Lambda_k =
    1 / lambda_k^+ (on a pure-Neumann pencil, those above the zero mode).
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    rf = project_constraint(p) if t == 0.0 else None
    constrained = rf is not None
    Kt = p.Kf + t * p.Mmf if t > 0.0 else p.Kf
    pos, neg, vp, vn = _signed_ends(p.Rf, Kt, rf, p.rho_range, k_each,
                                    dense_limit, seed, vectors)
    method = "dense"
    if not _goes_dense(p.n_free, k_each, dense_limit):
        method = "sparse-projected" if constrained else "sparse-lanczos"
    meta = {
        "t": float(t),
        "bc": p.bc.kind,
        "level": p.mesh.level,
        "method": method,
        "seed": int(seed),
        "n_free": p.n_free,
        "k_each": int(k_each),
        "constrained": constrained,
    }
    return Spectrum(pos, neg, vp, vn, meta)

