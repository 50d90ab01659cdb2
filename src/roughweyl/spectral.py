"""Generalized eigensolvers for the weighted and regularized problems.

The weighted problem is R v = lambda (K + t Mm) v: eigenvalues split by sign
into descending lists lambda_k^+ and lambda_k^- (stored as magnitudes). For
t = 0 on a pure-Neumann pencil the form K alone is only semidefinite and the
solve is restricted to the coercivity subspace {v : r . v = 0}, posed one
way on every path: the grounded pencil of `_ground`, on the n - 1
coordinates left when free vertex 0 is grounded. Its mass form is K with
that vertex removed, SPD, and its spectrum is the constrained one, with no
extra eigenvalue; `_unground` maps its eigenvectors back into the subspace.

Every eigensolve goes through one dispatcher, `_signed_ends(A, M, rf, ...)`:
the signed lists of a pencil (A, M), on {rf . v = 0} when rf is given. Its
callers: `solve_weighted` (R, K + t Mm), `assembly.poincare_constant`
(Mm, K; Lanczos wherever it reaches) and `varprin.check_bracketing` (each
subdomain's pencil).

Two code paths, chosen per solve by `_goes_dense` from the caller's
`mode`, which takes the values of the CLI's `[solver] mode`. Lanczos
returns at most n - 2 values per end of an n-row pencil, so a pencil of
<= k_each + 1 rows is always solved densely. Otherwise "dense" and
"sparse" force their path, and "auto" follows a cost rule: a dense solve
costs about n^3 whatever k_each, and a Lanczos run grows with n, with
k_each and with the imbalance of the two signs: its cost grows roughly as
sqrt(c_max / c_min), where c_± are the weight's masses on each sign
(`Pencil.masses`, the integrals of |rho| over {±rho > 0}, which the pencil
keeps from its assembly; the ratio counts as 1 on a single-sign pencil).
So under "auto" an n-row pencil goes to Lanczos when

    n^2 > C k_each sqrt(c_max / c_min),   C = `_CROSSOVER` = 1.4e4,

and always above `_DENSE_LIMIT` = 3000 rows, the memory cap of the dense
path. A pencil above the cap that "dense" or the reach rule would send
dense raises SolverError before any form is densified. C was fitted on a
grid of 100 eigenvalues-only solves of the Dirichlet unit square on 2
cores: n = 529, 961, 1521, 2116 and 2916; k_each = 30, 60, 100 and 200;
weights `const:1`, `halves:1,-1`, `halves:1,-0.25`, `halves:1,-0.1` and
`expr:x - 0.9` (c_max / c_min = 1, 1, 4, 10 and 81). Break-even fell at
n^2 / (k_each sqrt(c_max / c_min)) = 0.9e4 to 1.2e4 for n <= 1521 and
1.34e4 to 1.42e4 above. C = 1.4e4 gives the least total time over the
grid, 37.3 s, within 0.1 s of the per-solve best (a fixed 3000-row limit:
75.5 s).

Dense: Cholesky-based reduction of the pencil and a full symmetric
eigensolve, which doubles as the trusted oracle.
The forms are densified in Fortran order, so LAPACK takes them without a
copy and overwrites them; the grounded rank-two term is applied in place.
Eigenvalues alone come from `dsygv`, which asks for its optimal workspace
and so tridiagonalizes on the blocked path (`dsygvd` gets the minimal one
from scipy and runs unblocked); eigenpairs take divide and conquer
(`dsygvd`), whose eigenvector pass is much faster.
Sparse: one Lanczos driver, `_sparse_weighted`, over a pencil (A, M) with
M sparse, SPD and factored once: (R, K + t Mm), or the grounded pencil,
whose A applies its rank-two term in an operator.
For rho of both signs one Krylov space serves both families: ARPACK's
"BE" mode takes k_each eigenvalues from each spectral end in a single
run. Lanczos always starts from one fixed vector.
A run that asks for k eigenvalues keeps a basis of
ncv = min(n, max(20, 2k + 1), k + max(k // 2, 20)) Lanczos vectors, an
n x ncv array and the largest thing a sparse solve holds. That is scipy's
default 2k + 1 up to k = 19 and about 1.5 k from k = 40 on: a quarter
less basis, 129 to 97 MB at L7 with k = 500, and faster there (the 2k of
the ARPACK Users' Guide is a rule of thumb for convergence, not a
requirement). Where ncv is a large share of n, a run restarts more often
and takes up to about a fifth longer.

Factor step and verdict: every SPD form that is inverted is factored once
by `_symmetric_factor` (sparse LU in symmetric mode, minimum-degree
ordering on A + A^T, no pivoting, and a check that the pivots stayed on
the diagonal). `_spd_verdict` reads the pivots and refuses a factor whose
smallest pivot is not positive and at least `_PIVOT_TOL` times the
largest. Reading them makes scipy build CSC copies of L and U, 8 MB at
L7, and keep them on the factor, so the Lanczos driver reads the verdict
after its Krylov run, once ARPACK has freed its basis; the copies are
never alive beside it. A singular form must still fail before minutes of
Lanczos: `_spd_guard` solves once with the start vector and reads the
verdict first when that solve grows by more than 1 / `_PIVOT_TOL`. Every
ARPACK failure is judged by the verdict, then raised as SolverError. No
spectrum is returned from a factor that has not passed.

Counting: `count_inertia(p, s, sign, t)` is N±(s), the number of
eigenvalues of a sign above s in magnitude, from the pivot signs of one
throwaway factor of R -+ s Kt (Sylvester's law of inertia); on the t = 0
pure-Neumann pencil, of R -+ s K bordered by r, border last.

Eigenvectors are optional (`solve_weighted(..., vectors=False)`): the
dense path then skips the eigenvector back-substitution and the sparse
path ARPACK's Ritz-vector pass, which dominates a Lanczos run at large
k_each. Only the variational checkers read eigenvectors.

scipy's solvers (`scipy.linalg`, `scipy.sparse.linalg`: LAPACK, ARPACK and
SuperLU) are imported inside the functions that call them, so a process
that only builds pencils never loads them.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .assembly import ModelingError, Pencil

__all__ = [
    "Spectrum",
    "SolverError",
    "solve_weighted",
    "project_constraint",
    "count_inertia",
]

MODES = ("auto", "dense", "sparse")  # the `mode` of every solve
_DENSE_LIMIT = 3000  # free-DOF cap of a dense solve: nothing larger is densified
_CROSSOVER = 1.4e4  # C of the cost rule n^2 > C k_each sqrt(c_max / c_min)
_MULT_TOL = 1e-8  # relative clustering width for multiplicity reporting
# smallest pivot of an SPD factorization, relative to the largest: SPD
# forms on the problem ladder give 0.25-0.31, a singular K about 5e-14
_PIVOT_TOL = 1e-10
_NOT_SPD = ("coercive form could not be factorized; supply t > 0 or a "
            "constraint ({})")


class SolverError(RuntimeError):
    """An eigensolve failed (non-coercive form or non-convergence)."""


class Spectrum:
    """Signed eigenvalue lists of one weighted problem.

    pos holds lambda_1^+ >= lambda_2^+ >= ... > 0; neg holds the magnitudes
    of the negative eigenvalues, again descending, so neg[k-1] = |lambda_k^-|.
    Eigenvector columns (free-DOF coefficients) align with the lists and are
    E_t-orthonormal. meta holds t, method, n_free, k_each and constrained.
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

        Eigenvalues within 1e-8 * |value| of the running cluster head
        count as one eigenvalue; discretization splits the exact
        multiplicities of symmetric domains by about that much.
        """
        vals = self.values(sign)
        out = []
        i = 0
        while i < len(vals):
            head = vals[i]
            j = i + 1
            while j < len(vals) and abs(vals[j] - head) <= _MULT_TOL * abs(head):
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
    scale = float(np.abs(rf).sum())
    if np.linalg.norm(rf) <= 1e-14 * scale:
        raise ModelingError("constraint vector r vanishes")
    if abs(float(rf.sum())) <= 1e-10 * scale:
        raise ModelingError(
            "weight integral vanishes: integral rho d mu = 0 leaves constants "
            "energy-free in the working space"
        )
    return rf


def _split_signed(w, V, k_each):
    """Split ascending (w, columns) into descending signed lists. Values
    within 1e-12 of the largest |w| count as zero, a relative cut, since
    scaling the weight scales the spectrum."""
    ztol = 1e-12 * float(np.abs(w).max()) if len(w) else 0.0
    ipos = np.nonzero(w > ztol)[0][::-1][:k_each]
    ineg = np.nonzero(w < -ztol)[0][:k_each]
    pos, neg = w[ipos], -w[ineg]
    vp = V[:, ipos] if V is not None else None
    vn = V[:, ineg] if V is not None else None
    return pos, neg, vp, vn


def _refuse_dense(n):
    """Raise SolverError for a dense form of n rows above `_DENSE_LIMIT`."""
    if n > _DENSE_LIMIT:
        raise SolverError("{} rows would be densified, above the {}-row cap "
                          "of the dense path".format(n, _DENSE_LIMIT))


def _ground(A, M, rf):
    """The grounded pencil (A', M', w', r') of (A, M) on S = {rf . v = 0}.

    Pi = I - 1 rf^T / r1, r1 = rf . 1, projects onto S along the constants
    and maps {v_0 = 0} one to one onto S, so v = Pi [0; u] poses the
    problem on the n - 1 coordinates u. With a = A 1,

        Pi^T A Pi = A - w rf^T - rf w^T,   w = (a - (1 . a) / (2 r1) rf) / r1,

    and M 1 = 0 gives Pi^T M Pi = M. So the pencil is (A' - w' r'^T -
    r' w'^T, M') with the primes dropping row and column 0: A' = A[1:, 1:],
    M' = M[1:, 1:], w' = w[1:] and r' = rf[1:]. M' is SPD and its spectrum
    is the constrained one. a comes from A itself, so the term stays exact
    for a hand-built rf != A 1 and for Mm in R's place.
    """
    r1 = float(rf.sum())
    a = A @ np.ones(len(rf))
    w = (a - (a.sum() / (2.0 * r1)) * rf) / r1
    return A[1:, 1:], M[1:, 1:], w[1:], rf[1:]


def _unground(U, rf):
    """Eigenvector columns v = Pi [0; u] of grounded columns u (`_ground`):
    they lie in {rf . v = 0}, and v^T M v = u^T M' u keeps them
    M-orthonormal."""
    return np.vstack([np.zeros((1, U.shape[1])), U]) - (rf[1:] @ U) / rf.sum()


def _subtract_symmetric(B, u, w):
    """B -= u w^T + w u^T, in place on a dense square B.

    The update is subtracted 64 rows at a time, so no n x n temporary is
    made; entry (i, j) loses u_i w_j + w_i u_j, the same sum as at (j, i),
    so a symmetric B stays exactly symmetric. A Fortran-ordered B is
    updated through its transpose, whose rows are contiguous.
    """
    rows = B.T if B.flags.f_contiguous else B
    for i in range(0, len(u), 64):
        j = i + 64
        rows[i:j] -= u[i:j, None] * w + w[i:j, None] * u


def _dense_forms(A, M, rf):
    """Dense Fortran-ordered (A, M), or with a constraint vector the
    grounded pencil of `_ground`, its rank-two term subtracted from A in
    place. A pencil above `_DENSE_LIMIT` rows is refused before anything
    is densified."""
    if rf is not None:
        A, M, w, r = _ground(A, M, rf)
    _refuse_dense(M.shape[0])
    A, M = A.toarray(order="F"), M.toarray(order="F")
    if rf is not None:
        _subtract_symmetric(A, w, r)
    return A, M


def _dense_weighted(A, M, rf, k_each, vectors):
    """Signed lists of A v = lambda M v by a full dense eigensolve of
    `_dense_forms`, on {rf . v = 0} when a constraint vector is given, in
    grounded coordinates. LAPACK overwrites the dense forms in place
    (drivers: module docstring)."""
    from scipy.linalg import eigh

    A, M = _dense_forms(A, M, rf)
    try:
        if vectors:
            w, V = eigh(A, M, overwrite_a=True, overwrite_b=True)
        else:
            w, V = eigh(A, M, eigvals_only=True, driver="gv",
                        overwrite_a=True, overwrite_b=True), None
    except np.linalg.LinAlgError as exc:
        raise SolverError(_NOT_SPD.format(exc)) from exc
    return _split_signed(w, V, k_each)


def _symmetric_factor(A, failed):
    """The factor step: a symmetric-mode sparse LU of symmetric A.

    A minimum-degree ordering of A + A^T with no pivoting keeps the
    factorization symmetric: perm_r == perm_c, and U's diagonal is the D of
    an LDL^T, whose signs are A's inertia. A zero pivot forces a row swap,
    which the perm check turns into SolverError, as it does a factorization
    SuperLU refuses; `failed` formats the message. Nothing here reads
    `lu.U`: that builds CSC copies of L and U, which scipy then caches on
    `lu` for as long as it lives.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(failed.format(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(failed.format("off-diagonal pivot"))
    return lu


def _spd_verdict(lu):
    """The pivot read: SolverError unless every pivot of `lu` is positive
    and at least `_PIVOT_TOL` times the largest one. It builds the L and U
    copies, so the Lanczos driver reads it after its Krylov run."""
    piv = lu.U.diagonal()
    ratio = piv.min() / np.abs(piv).max()
    if ratio <= _PIVOT_TOL:
        raise SolverError(_NOT_SPD.format("min/max pivot {:.3g}".format(ratio)))


def _spd_guard(lu, A, v):
    """Read the verdict on the factor `lu` of A now, before any Krylov work,
    if one solve shows A near singular.

    A form that passes the verdict amplifies v by at most about
    max diag(A) / min pivot, so growth = |A^{-1} v|_inf max diag(A) / |v|_inf
    stays below 1 / `_PIVOT_TOL`: 5 to 435 on the Dirichlet and grounded
    Neumann squares of 20 to 128 cells a side and the cone disk, 1e7 to
    1e8 for Neumann at t = 1e-6. A singular form gives 3e14 and up, and
    Lanczos on its inverse can run for minutes before it fails.
    """
    growth = (np.abs(lu.solve(v)).max() * np.abs(A.diagonal()).max()
              / np.abs(v).max())
    if not growth <= 1.0 / _PIVOT_TOL:
        _spd_verdict(lu)


def _lanczos_ends(A, M, Minv, v0, masses, k_each, vectors):
    """Signed lists of A v = lambda M v from Lanczos at the spectral ends.

    A sign-changing weight needs k_each eigenvalues at each end, which one
    "BE" run takes from a single Krylov space. When 2 k_each exceeds what
    ARPACK can return (n - 2), each end gets its own run of k_each instead,
    so that no eigenvalue near zero is dropped; `_signed_ends` sends an
    n-row pencil here only when k_each < n, within ARPACK's reach. Without
    `vectors`, ARPACK skips its Ritz-vector pass and the columns come back
    as None; with them, a sign whose end does not run gets (n, 0) columns,
    as on the dense path. Every ARPACK failure, non-convergence or another,
    raises SolverError.

    A run of k eigenvalues keeps min(n, max(20, 2k + 1), k + max(k // 2,
    20)) basis vectors: scipy's default up to k = 19, so small solves and
    the Poincare constant are unchanged, and k + k // 2 from k = 40 on,
    a quarter less basis (module docstring).
    """
    from scipy.sparse.linalg import ArpackError, eigsh

    n = len(v0)

    def run(which, k):
        ncv = min(n, max(20, 2 * k + 1), k + max(k // 2, 20))
        try:
            if vectors:
                return eigsh(A, k=k, M=M, Minv=Minv, which=which, v0=v0,
                             ncv=ncv)
            w = eigsh(A, k=k, M=M, Minv=Minv, which=which, v0=v0, ncv=ncv,
                      return_eigenvectors=False)
            return np.sort(w), None
        except ArpackError as exc:
            raise SolverError("Lanczos failed ({})".format(exc)) from exc

    plus, minus = masses[0] > 0.0, masses[1] > 0.0
    if plus and minus and 2 * k_each <= n - 2:
        w, V = run("BE", 2 * k_each)
        return _split_signed(w, V, k_each)
    pos = neg = np.empty(0)
    vp = vn = np.empty((n, 0)) if vectors else None
    if plus:
        w, V = run("LA", k_each)
        pos, _, vp, _ = _split_signed(w, V, k_each)
    if minus:
        w, V = run("SA", k_each)
        _, neg, _, vn = _split_signed(w, V, k_each)
    return pos, neg, vp, vn


def _sparse_weighted(R, K, rf, masses, k_each, vectors):
    """Signed lists of R v = lambda K v by Lanczos at the spectral ends.

    `masses`, the weight's mass on each sign, picks the ends to run. Without
    a constraint vector (rf None), K must be SPD and the pencil is (R, K).
    With one, K is semidefinite with K 1 = 0 and the pencil is the grounded
    one of `_ground`, in grounded coordinates: its A applies R' and the
    rank-two term, its M is K'.

    M is factored once and judged by `_spd_verdict` after the Krylov run,
    when ARPACK has freed its basis; `_spd_guard` judges it first where one
    solve shows it near singular, and an ARPACK failure is judged before it
    is raised.
    """
    from scipy.sparse.linalg import LinearOperator

    v0 = np.random.default_rng(0).standard_normal(K.shape[0])
    A = R = R.tocsr()
    M = K.tocsr()
    if rf is not None:
        R, M, w, r = _ground(R, M, rf)
        v0 = v0[1:]

        # ARPACK calls this thousands of times. A BLAS ddot (r @ v) in it,
        # on OpenBLAS's default 2 threads, made a level-7 `halves` solve 5x
        # slower on 2 cores (10.7 s against 2.1 s), so the dot products run
        # in einsum's own loop.
        def a(v):
            return (R @ v - w * np.einsum("i,i->", r, v)
                    - r * np.einsum("i,i->", w, v))

        A = LinearOperator(M.shape, matvec=a, dtype=float)
    lu = _symmetric_factor(M, _NOT_SPD)
    _spd_guard(lu, M, v0)
    Minv = LinearOperator(M.shape, matvec=lu.solve, dtype=float)
    try:
        ends = _lanczos_ends(A, M, Minv, v0, masses, k_each, vectors)
    except SolverError:
        _spd_verdict(lu)
        raise
    _spd_verdict(lu)
    return ends


def _goes_dense(n, k_each, masses, mode):
    """Whether `_signed_ends` solves an n-row pencil densely (rule: module
    docstring). Always where Lanczos cannot reach k_each; else as `mode`
    forces, or under "auto" by the cost rule on the sign `masses`, up to
    `_DENSE_LIMIT` rows."""
    if mode not in MODES:
        raise ValueError("mode must be one of {}, got {!r}".format(
            ", ".join(MODES), mode))
    if n <= k_each + 1 or mode == "dense":
        return True
    if mode == "sparse" or n > _DENSE_LIMIT:
        return False
    lo, hi = sorted(masses)
    balance = hi / lo if lo > 0.0 else 1.0
    return n * n <= _CROSSOVER * k_each * np.sqrt(balance)


def _signed_ends(A, M, rf, masses, k_each, mode, vectors):
    """Signed lists and path (pos, neg, vec_pos, vec_neg, method) of
    A v = lambda M v.

    The one entry point of every eigensolve: the dense solve where
    `_goes_dense` says so, Lanczos at the spectral ends otherwise; method
    is "dense", "sparse-lanczos" or, with a constraint, "sparse-projected".
    M is SPD, or, with a constraint vector rf, semidefinite with M 1 = 0
    and the problem posed on {rf . v = 0}. `masses` (m_plus, m_minus) are
    A's weight masses on each sign; a sign's end runs only where its mass
    is positive. A pencil with no rows, as left by Dirichlet conditions on
    every vertex, raises SolverError, as does one above `_DENSE_LIMIT` rows
    that would go dense.
    """
    if M.shape[0] == 0:
        raise SolverError("no free DOFs")
    if _goes_dense(M.shape[0], k_each, masses, mode):
        pos, neg, vp, vn = _dense_weighted(A, M, rf, k_each, vectors)
        method = "dense"
    else:
        pos, neg, vp, vn = _sparse_weighted(A, M, rf, masses, k_each, vectors)
        method = "sparse-lanczos" if rf is None else "sparse-projected"
    if rf is not None:  # eigenvectors, if asked for, back to free DOFs
        vp, vn = (V if V is None else _unground(V, rf) for V in (vp, vn))
    return pos, neg, vp, vn, method


def _shifted(p, t):
    """(Kt, rf) of the problem at shift t: K + t Mm and no constraint for
    t > 0; K and `project_constraint`'s vector at t = 0. Any t outside
    [0, inf) raises ValueError: a NaN would take neither branch and pose
    the unshifted problem without its constraint."""
    if not 0.0 <= t < np.inf:
        raise ValueError("t must be >= 0 and finite, got {!r}".format(t))
    if t > 0.0:
        return p.Kf + t * p.Mmf, None
    return p.Kf, project_constraint(p)


def solve_weighted(p: Pencil, t: float = 0.0, k_each: int = 6,
                   mode: str = "auto", vectors: bool = True) -> Spectrum:
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
    `mode` "auto" picks the path by the cost rule, "dense" and "sparse"
    force theirs (module docstring); any other value raises ValueError, as
    do a t outside [0, inf) and k_each < 1.
    """
    if k_each < 1:
        raise ValueError("k_each must be >= 1, got {}".format(k_each))
    Kt, rf = _shifted(p, t)
    pos, neg, vp, vn, method = _signed_ends(p.Rf, Kt, rf, p.masses, k_each,
                                            mode, vectors)
    meta = {
        "t": float(t),
        "method": method,
        "n_free": p.n_free,
        "k_each": int(k_each),
        "constrained": rf is not None,
    }
    return Spectrum(pos, neg, vp, vn, meta)


def count_inertia(p: Pencil, s: float, sign: int, t: float = 0.0) -> int:
    """N±(s) of R v = lambda (K + t Mm) v by Sylvester's law of inertia.

    N+(s) = #{lambda_k^+ > s} is the number of positive pivots of
    R - s Kt, and N-(s) = #{lambda_k^- > s} (magnitudes) the number of
    negative pivots of R + s Kt, read from one throwaway symmetric factor
    (`_symmetric_factor`); no eigenvalue is computed. On the t = 0
    pure-Neumann pencil the count is on {r . v = 0}: the factor is of the
    bordered [[R -+ s K, r], [r^T, 0]], whose inertia is the constrained
    one plus (1, 1). The border comes last, and minimum degree, meeting a
    full row, also eliminates it last, after its zero diagonal has filled.
    It is not the grounded pencil the solves use (`_ground`): that form's
    rank-two term would need a border of two rows to stay sparse, where
    the constraint itself needs one.
    A factor that needs an off-diagonal pivot, as at s on an eigenvalue,
    raises SolverError; a t outside [0, inf) raises ValueError.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not s > 0.0:
        raise ValueError("s must be positive")
    Kt, rf = _shifted(p, t)
    A = p.Rf - (sign * s) * Kt
    if rf is not None:
        A = sparse.bmat([[A, rf[:, None]], [rf[None, :], None]])
    lu = _symmetric_factor(A, "inertia count at s = {:.6g} needs pivoting "
                              "({{}})".format(s))
    count = int(np.count_nonzero(sign * lu.U.diagonal() > 0.0))
    return count - (rf is not None)
