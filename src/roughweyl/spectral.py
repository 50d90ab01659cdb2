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
`mode`, which takes the values of the CLI's `[solver] mode`. The reach
rule: a pencil of <= k_each + 1 rows is always solved densely, since a
request for nearly every value of a pencil is dense work (above the cap
below, it is refused). Otherwise "dense" and "sparse" force their path,
and "auto" follows a cost rule: a dense solve costs about n^3 whatever
k_each, and a Lanczos run grows with n, with k_each and with the
imbalance of the two signs: its cost grows roughly as sqrt(c_max /
c_min), where c_± are the weight's masses on each sign (`Pencil.masses`,
the integrals of |rho| over {±rho > 0}, which the pencil keeps from its
assembly; the ratio counts as 1 on a single-sign pencil).
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
75.5 s). That fit timed scipy's ARPACK as the Lanczos run; C has not been
re-fitted for `_krylov_schur`, which replaced it.

Dense: Cholesky-based reduction of the pencil and a full symmetric
eigensolve, which doubles as the trusted oracle, once the mass form has
passed the factor step and verdict that Lanczos uses: one rule judges the
coercivity of every solve. The forms are densified in Fortran order, so
LAPACK takes them without a copy and overwrites them; the grounded
rank-two term is applied in place.
Eigenvalues alone come from `dsygv`, which asks for its optimal workspace
and so tridiagonalizes on the blocked path (`dsygvd` gets the minimal one
from scipy and runs unblocked); eigenpairs take divide and conquer
(`dsygvd`), whose eigenvector pass is much faster.
Sparse: one Lanczos driver, `_sparse_weighted`, over a pencil (A, M) with
M sparse, SPD and factored once: (R, K + t Mm), or the grounded pencil,
whose A applies its rank-two term in a closure.
Every sparse solve is one Lanczos run, or none for a weight with no mass
on either sign. For rho of both signs one Krylov space serves both
families: a "BE" run takes k_each eigenvalues from each spectral end, or
all n when 2 k_each >= n. A single-sign rho runs at its one end. Lanczos
always starts from one fixed vector.
A run that asks for k eigenvalues keeps a basis of
ncv = min(n, max(20, 2k + 1), k + max(k // 2, 20)) Lanczos vectors, an
(ncv + 1) x n array and the largest thing a sparse solve holds. That is
2k + 1 up to k = 19 and about 1.5 k from k = 40 on: a quarter less basis
than 2k + 1, 129 to 97 MB at L7 with k = 500 (the 2k of the ARPACK Users'
Guide is a rule of thumb for convergence, not a requirement).

The run, `_krylov_schur`, is the thick-restart (Krylov-Schur) Lanczos
method of G. W. Stewart (SIAM J. Matrix Anal. Appl. 23, 2001) and K. Wu
and H. Simon (ibid. 22, 2000), in the M-inner product on M^-1 A. It calls
`lu.solve`, the CSR products and the grounded closure directly, and its
level-2 and level-3 BLAS are scipy's own (`scipy.linalg.blas`): numpy
links a second OpenBLAS, whose idle threads spin against scipy's on 2
cores (with numpy's products an L6 `k_each = 200` solve took 1.07 to
1.21 s, with scipy's 0.60 s, the run otherwise the same).
- Start: M^-1 A v0, v0 standard normal from `default_rng(0)`, so the
  basis lies in the range of the operator.
- Step: v_j+1 from M^-1 A v_j, orthogonalized against the whole basis by
  classical Gram-Schmidt, with a second pass, and a third, while a pass
  leaves the residual below 0.717 of its M-norm before (DGKS). On these
  pencils the second pass runs on nearly every step. A residual that the
  third pass still cuts so is zero: the space is invariant, and the
  basis goes on from a random vector in the range of the operator,
  orthogonal to it. A basis of all n rows ends with a zero residual.
- Projection: the basis gives the ncv x ncv matrix kept compact as its
  diagonal, the coupling of consecutive Lanczos steps and the arrow that
  couples the kept Ritz vectors to the next one. Each restart forms it
  once as an ncv x ncv array and eigensolves it in place by LAPACK's
  divide and conquer, `dsyevd`: the eigenvectors Y overwrite it. On the
  projected matrices of these runs it is 4 to 10 times faster than
  `dsyevr` or `dsyev`.
- Stop: every wanted Ritz value theta_i has |beta y_ncv,i| <= 1e-12
  |theta_i| + 1e-14 max |theta|, beta the residual norm. Each value's
  error is then under 1e-12 relative, and the absolute floor lets the
  unresolved near-zero tail of an unbalanced weight end the run.
- Restart: keep the p = k + (ncv - k) // 2 Ritz pairs at the wanted ends.
  The basis becomes their Ritz vectors, V[:p] <- Y^T V[:ncv], in place:
  one `dgemm` per block of `_ROTATE_COLS` columns of V, into a buffer.
  The residual becomes vector p. After `_MAX_RESTARTS` restarts the run
  fails.
- Memory: besides the basis, the ncv x ncv array, `dsyevd`'s 2 ncv^2
  workspace while it runs, and the restart's two buffers of ncv and p
  rows by `_ROTATE_COLS` columns. Eigenvectors, the Ritz vectors
  V[:ncv]^T Y of the wanted values, are formed in the basis itself, by
  the restart's product, only when they are asked for.

Counting: `count_inertia(p, s, sign, t)` is N±(s), the number of
eigenvalues of a sign above s in magnitude, from the pivot signs of one
throwaway factor of R -+ s Kt (Sylvester's law of inertia); on the t = 0
pure-Neumann pencil, of R -+ s K bordered by r, border last.

Eigenvectors are optional (`solve_weighted(..., vectors=False)`): the
dense path then skips the eigenvector back-substitution and the sparse
path the Ritz-vector product. Only the variational checkers read
eigenvectors.

scipy's solvers (`scipy.linalg`, `scipy.sparse.linalg`: BLAS, LAPACK and
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
# C of the cost rule n^2 > C k_each sqrt(c_max / c_min), fitted with ARPACK
# as the Lanczos run and not re-fitted for `_krylov_schur`
_CROSSOVER = 1.4e4
_MULT_TOL = 1e-8  # relative clustering width for multiplicity reporting
# smallest pivot of an SPD factorization, relative to the largest: SPD
# forms on the problem ladder give 0.25-0.31, a singular K about 5e-14
_PIVOT_TOL = 1e-10
_MAX_RESTARTS = 1000  # restarts of one Lanczos run before it fails
_ROTATE_COLS = 256  # column block of a restart's basis product
_NOT_SPD = ("coercive form could not be factorized: it is singular or nearly "
            "so; supply a larger t or a constraint ({})")


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
    place. A pencil above `_DENSE_LIMIT` rows, or whose M fails the
    factor step's verdict, is refused before anything is densified."""
    if rf is not None:
        A, M, w, r = _ground(A, M, rf)
    if M.shape[0] > _DENSE_LIMIT:
        raise SolverError("{} rows would be densified, above the {}-row cap "
                          "of the dense path".format(M.shape[0], _DENSE_LIMIT))
    _spd_verdict(_symmetric_factor(M, _NOT_SPD))
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
    """The one coercivity verdict, on the mass form of every solve, dense
    or Lanczos: SolverError unless every pivot of `lu` is positive and at
    least `_PIVOT_TOL` times the largest one. It builds the L and U copies,
    so the Lanczos driver reads it after its Krylov run."""
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
    1e8 for Neumann at t = 1e-6. A singular form gives 3e14 and up. On
    singular pencils of 1250 to 16641 rows (lying pure-Neumann squares at
    k_each = 100 and in `poincare_constant`, grounded two-square meshes at
    k_each = 10) the guard refuses the form in 0.002 to 0.04 s, while
    `_krylov_schur` on its inverse reached the same SolverError after 0.02
    to 2.8 s, 2 to 220 times as long (2 cores).
    """
    growth = (np.abs(lu.solve(v)).max() * np.abs(A.diagonal()).max()
              / np.abs(v).max())
    if not growth <= 1.0 / _PIVOT_TOL:
        _spd_verdict(lu)


def _rotate(V, parts):
    """V[:q] <- Q^T V[:m] in place, where Q is the m x q matrix whose
    columns are those of the Fortran-ordered blocks `parts`, side by side:
    row i becomes the combination of the first m rows that column i of Q
    holds.

    The product runs over `_ROTATE_COLS` columns of V at a time, one
    `dgemm` per part into a buffer, so nothing the size of the basis is
    allocated."""
    from scipy.linalg.blas import dgemm

    m, n = parts[0].shape[0], V.shape[1]
    q = sum(P.shape[1] for P in parts)
    width = min(_ROTATE_COLS, n)
    block, out = np.empty((m, width)), np.empty((width, q), order="F")
    for c in range(0, n, width):
        if c + width > n:  # the last, narrower block
            width = n - c
            block, out = np.empty((m, width)), np.empty((width, q), order="F")
        block[...] = V[:m, c:c + width]
        at = 0
        for P in parts:
            if P.shape[1]:  # out^T = Q^T block, written into out in place
                dgemm(1.0, block.T, P, c=out[:, at:at + P.shape[1]],
                      overwrite_c=1)
            at += P.shape[1]
        V[:q, c:c + width] = out.T


def _krylov_schur(a, M, lu, v0, *, which, k, ncv, vectors):
    """k eigenvalues of A v = lambda M v, ascending, at the ends `which`
    names: "LA" the largest, "SA" the smallest, "BE" k // 2 from the low
    end and the rest from the high end. With `vectors`, their n x k
    M-orthonormal Ritz vectors as columns; else None.

    Lanczos in the M-inner product on M^-1 A (module docstring): `a`
    applies A, `lu` solves with M and the sparse M gives M-norms. Every
    failure, no convergence within `_MAX_RESTARTS` restarts included,
    raises np.linalg.LinAlgError.
    """
    from scipy.linalg.blas import dgemv
    from scipy.linalg.lapack import dsyevd

    n, m = len(v0), ncv
    V = np.empty((m + 1, n))  # the basis, one M-orthonormal vector a row
    T = np.empty((m, m), order="F")  # the projected matrix, per restart
    d = np.empty(m)  # its diagonal
    e = np.empty(m)  # e[j] couples steps j and j + 1; e[m - 1] the residual
    arrow = np.empty(0)  # couples the kept Ritz vectors to the next one
    rng = np.random.default_rng(0)

    def dot(x, y):  # einsum's own loop, not a threaded BLAS ddot
        return float(np.einsum("i,i->", x, y))

    def orthogonalize(r, j, Mr, norm):
        """r M-orthogonal to V[:j] in place, by classical Gram-Schmidt
        from M r and |r|_M, with a second and a third pass while a pass
        leaves r below 0.717 of its M-norm before (DGKS). Returns r's
        M-norm, 0 where the third pass falls as far again (r is then in
        the span of the basis), and the sum of its coefficients on
        V[j - 1]."""
        total = 0.0
        for _ in range(3):
            c = dgemv(1.0, V[:j].T, Mr, trans=1)
            dgemv(-1.0, V[:j].T, c, beta=1.0, y=r, overwrite_y=1)
            total += c[j - 1]
            Mr = M @ r
            new = np.sqrt(abs(dot(r, Mr)))
            if new > 0.717 * norm:
                return new, total
            norm = new
        return 0.0, total

    def start(x, j):
        """V[j] from x: M^-1 A x, in the range of the operator, made
        M-orthogonal to V[:j]."""
        r = lu.solve(a(x))
        Mr = M @ r
        norm = np.sqrt(abs(dot(r, Mr)))
        if j:
            norm, _ = orthogonalize(r, j, Mr, norm)
        if not norm > 0.0:
            return False
        np.divide(r, norm, out=V[j])
        return True

    def ends(count):
        low = {"LA": 0, "SA": count}.get(which, count // 2)
        return low, count - low

    def at_ends(Y, count):
        """The columns of Y at the wanted ends, the low and the high."""
        low, high = ends(count)
        return Y[:, :low], Y[:, m - high:]

    if not start(v0, 0):
        raise np.linalg.LinAlgError("start vector in the null space of A")
    p = restarts = 0
    while True:
        for j in range(p, m):
            u = a(V[j])
            w = lu.solve(u)
            # M w = A v_j, so u gives |w|_M and the first pass
            beta, d[j] = orthogonalize(w, j + 1, u, np.sqrt(abs(dot(w, u))))
            if not np.isfinite(beta):
                raise np.linalg.LinAlgError("non-finite Lanczos residual")
            e[j] = beta if j + 1 < n else 0.0  # all n rows leave no residual
            if e[j] > 0.0:
                np.divide(w, beta, out=V[j + 1])
            elif j + 1 < m and not any(start(rng.standard_normal(n), j + 1)
                                       for _ in range(3)):
                raise np.linalg.LinAlgError("Krylov basis cannot be extended")
        T.fill(0.0)
        i = np.arange(m)
        T[i, i] = d
        T[:p, p] = arrow
        T[i[p:m - 1], i[p + 1:]] = e[p:m - 1]
        theta, Y, info = dsyevd(T, overwrite_a=1)  # Y takes T's memory
        if info:
            raise np.linalg.LinAlgError("dsyevd failed (info {})".format(info))
        low, high = ends(k)
        want = np.r_[0:low, m - high:m]
        estimate = np.abs(e[m - 1] * Y[m - 1, want])
        floor = 1e-14 * max(abs(theta[0]), abs(theta[-1]))
        if np.all(estimate <= 1e-12 * np.abs(theta[want]) + floor):
            break
        if restarts == _MAX_RESTARTS:
            raise np.linalg.LinAlgError(
                "no convergence after {} restarts".format(restarts))
        restarts += 1
        p = k + (m - k) // 2
        low, high = ends(p)
        parts = at_ends(Y, p)
        _rotate(V, parts)
        V[p] = V[m]
        d[:p] = np.r_[theta[:low], theta[m - high:]]
        arrow = e[m - 1] * np.r_[parts[0][m - 1], parts[1][m - 1]]
    if not vectors:
        return theta[want], None
    _rotate(V, at_ends(Y, k))
    return theta[want], V[:k].T


def _sparse_weighted(R, K, rf, masses, k_each, vectors):
    """Signed lists of R v = lambda K v by one Lanczos run.

    `masses`, the weight's mass on each sign, picks the run: for both signs
    one "BE" run of min(2 k_each, n) values, k_each from each end or all n;
    for one sign an "LA" or "SA" run of k_each (R is then semidefinite, and
    `_split_signed` drops its roundoff zeros); for neither no run. Without
    `vectors` the columns come back as None; with them, an empty family
    gets (n, 0) columns, as on the dense path.

    Without a constraint vector (rf None), K must be SPD and the pencil is
    (R, K). With one, K is semidefinite with K 1 = 0 and the pencil is the
    grounded one of `_ground`, in grounded coordinates: its A applies R'
    and the rank-two term, its M is K'.

    M is factored once and judged by `_spd_verdict` after the Krylov run,
    when its basis is freed; `_spd_guard` judges it first where one solve
    shows it near singular, and a failed run is judged before it is
    raised as SolverError.
    """
    v0 = np.random.default_rng(0).standard_normal(K.shape[0])
    R = R.tocsr()
    M = K.tocsr()
    a = R.dot
    if rf is not None:
        R, M, w, r = _ground(R, M, rf)
        v0 = v0[1:]

        # Lanczos calls this thousands of times. A BLAS ddot (r @ v) in it,
        # on OpenBLAS's default 2 threads, made a level-7 `halves` solve 5x
        # slower on 2 cores (10.7 s against 2.1 s), so the dot products run
        # in einsum's own loop.
        def a(v):
            return (R @ v - w * np.einsum("i,i->", r, v)
                    - r * np.einsum("i,i->", w, v))

    n = len(v0)
    plus, minus = masses[0] > 0.0, masses[1] > 0.0
    lu = _symmetric_factor(M, _NOT_SPD)
    _spd_guard(lu, M, v0)
    theta, V = np.empty(0), (np.empty((n, 0)) if vectors else None)
    if plus or minus:
        which, k = (("BE", min(2 * k_each, n)) if plus and minus
                    else ("LA" if plus else "SA", k_each))
        ncv = min(n, max(20, 2 * k + 1), k + max(k // 2, 20))
        try:
            theta, V = _krylov_schur(a, M, lu, v0, which=which, k=k,
                                     ncv=ncv, vectors=vectors)
        except np.linalg.LinAlgError as exc:
            _spd_verdict(lu)
            raise SolverError("Lanczos failed ({})".format(exc)) from exc
    _spd_verdict(lu)
    return _split_signed(theta, V, k_each)


def _goes_dense(n, k_each, masses, mode):
    """Whether `_signed_ends` solves an n-row pencil densely (rule: module
    docstring). Always where k_each asks for nearly every value (n <=
    k_each + 1), which is dense work; else as `mode` forces, or under
    "auto" by the cost rule on the sign `masses`, up to `_DENSE_LIMIT`
    rows. Above that cap a dense solve is refused, not chosen."""
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
