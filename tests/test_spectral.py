"""Eigensolver oracles: separation-of-variables targets on the unit square,
sign bookkeeping, the Z(rho) constraint, and dense/sparse path agreement."""

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, null_space

from roughweyl import (
    BoundarySpec,
    Mesh,
    ModelingError,
    SolverError,
    Spectrum,
    WeightField,
    assemble,
    check_bracketing,
    check_sandwich,
    constant_weight,
    convergence_study,
    euclidean_metric,
    expression_weight,
    generate_disk,
    generate_unit_square,
    graph_cone_metric,
    halves_weight,
    poincare_constant,
    project_constraint,
    solve_weighted,
)
from roughweyl.spectral import MODES, _dense_forms, _subtract_symmetric

# Tests parametrized over the forced paths keep the ids of the integer row
# limits that forced them before `mode` did: "3000" is mode="dense", "50"
# and "0" are mode="sparse", on pencils of 121 to 289 rows.
FORCED = ["dense", "sparse"]

PI2 = np.pi ** 2
# separation of variables on [0,1]^2: Lambda = pi^2 (j^2 + k^2)
DIRICHLET_TARGETS = PI2 * np.array([2.0, 5.0, 5.0, 8.0, 10.0, 10.0])


def square_pencil(n, w=None, bc=None):
    return assemble(generate_unit_square(n), euclidean_metric(),
                    w or constant_weight(1.0), bc or BoundarySpec.dirichlet())


class TestLaplaceSpectrum:
    """The Laplace eigenvalues are the rho = 1 case of the weighted problem:
    Lambda_k = 1/lambda_k^+ at t = 0 and 1/lambda_k^+ - t at t > 0."""

    def test_dirichlet_targets(self):
        s = solve_weighted(square_pencil(32), 0.0, 6, vectors=False)
        rel = np.abs(1.0 / s.pos / DIRICHLET_TARGETS - 1.0)
        assert rel.max() < 0.012

    def test_dirichlet_convergence_rate(self):
        # O(h^2) on the simple eigenvalues 2 pi^2 and 8 pi^2
        simple = [0, 3]
        errs = np.array([
            1.0 / solve_weighted(square_pencil(n), 0.0, 4,
                                 vectors=False).pos[simple]
            / DIRICHLET_TARGETS[simple] - 1.0
            for n in (8, 16, 32)])
        ratios = errs[:-1] / errs[1:]
        assert np.all((3.5 < ratios) & (ratios < 4.5))

    def test_neumann_zero_mode_at_positive_t(self):
        # the constants carry no energy and R = Mm, so they take 1/t
        t = 0.5
        s = solve_weighted(square_pencil(16, bc=BoundarySpec.neumann()), t, 3)
        assert not s.meta["constrained"]
        assert s.pos[0] == pytest.approx(1.0 / t, rel=1e-10)
        const = s.vec_pos[:, 0]
        assert const.std() / abs(const.mean()) < 1e-8
        np.testing.assert_allclose(1.0 / s.pos[1] - t, PI2, rtol=5e-3)

    @pytest.mark.parametrize("bc", [BoundarySpec.dirichlet(),
                                    BoundarySpec.neumann()],
                             ids=["dirichlet", "neumann"])
    def test_sparse_matches_dense_at_unit_shift(self, bc):
        # the pencil (Mm, K + Mm), zero mode included on the Neumann square
        p = square_pencil(16, bc=bc)
        dense = solve_weighted(p, 1.0, 10, mode="dense", vectors=False)
        sparse = solve_weighted(p, 1.0, 10, mode="sparse", vectors=False)
        assert sparse.meta["method"] == "sparse-lanczos"
        np.testing.assert_allclose(sparse.pos, dense.pos, rtol=1e-9)

    @pytest.mark.parametrize("mode", FORCED, ids=["3000", "50"])
    @pytest.mark.parametrize("bc", [BoundarySpec.dirichlet(),
                                    BoundarySpec.neumann()],
                             ids=["dirichlet", "neumann"])
    def test_eigenpairs_at_unit_shift(self, bc, mode):
        # Mm V = (K + Mm) V diag(lambda), (K + Mm)-orthonormal columns
        p = square_pencil(16, bc=bc)
        s = solve_weighted(p, 1.0, 8, mode=mode)
        assert (s.meta["method"] == "dense") == (mode == "dense")
        V, lam = s.vec_pos, s.pos
        Kt = p.Kf + p.Mmf
        np.testing.assert_allclose(V.T @ (Kt @ V), np.eye(8), atol=1e-10)
        residual = p.Mmf @ V - (Kt @ V) * lam
        assert np.abs(residual).max() < 1e-10 * lam.max()


class TestSolveWeighted:
    def test_first_eigenvalue_limit(self):
        # lambda_1^+ -> 1/(2 pi^2) ~ 0.050660
        errs = []
        for n in (8, 16, 32):
            s = solve_weighted(square_pencil(n), 0.0, 3)
            errs.append(abs(s.pos[0] * 2.0 * PI2 - 1.0))
        assert errs[-1] < 2.5e-3
        for a, b in zip(errs, errs[1:]):
            assert 3.5 < a / b < 4.5

    def test_negated_weight_swaps_signs(self):
        a = solve_weighted(square_pencil(12, halves_weight(2.0, -1.0)), 0.0, 8)
        b = solve_weighted(square_pencil(12, halves_weight(-2.0, 1.0)), 0.0, 8)
        np.testing.assert_allclose(a.pos, b.neg, rtol=1e-12)
        np.testing.assert_allclose(a.neg, b.pos, rtol=1e-12)

    def test_mirror_symmetric_weight_pairs_spectra(self):
        s = solve_weighted(square_pencil(16, halves_weight(1.0, -1.0)), 0.0, 10)
        np.testing.assert_allclose(s.pos, s.neg, rtol=1e-9)

    def test_monotone_in_t(self):
        p = square_pencil(12, halves_weight(2.0, -1.0))
        prev = solve_weighted(p, 0.0, 8)
        for t in (0.02, 0.5, 1.0):
            cur = solve_weighted(p, t, 8)
            assert np.all(cur.pos <= prev.pos * (1.0 + 1e-12))
            assert np.all(cur.neg <= prev.neg * (1.0 + 1e-12))
            prev = cur

    def test_sparse_matches_dense_indefinite(self):
        p = square_pencil(16, halves_weight(2.0, -1.0))
        d = solve_weighted(p, 0.0, 8, mode="dense")
        s = solve_weighted(p, 0.0, 8, mode="sparse")
        assert s.meta["method"] == "sparse-lanczos"
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-7)
        np.testing.assert_allclose(s.neg, d.neg, rtol=1e-7)

    def test_sparse_matches_dense_regularized(self):
        p = square_pencil(16, halves_weight(1.0, -1.0), BoundarySpec.neumann())
        d = solve_weighted(p, 0.5, 6, mode="dense")
        s = solve_weighted(p, 0.5, 6, mode="sparse")
        assert s.meta["method"] == "sparse-lanczos"
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-7)
        np.testing.assert_allclose(s.neg, d.neg, rtol=1e-7)

    def test_sparse_determinism(self):
        p = square_pencil(16, halves_weight(2.0, -1.0))
        a = solve_weighted(p, 0.0, 6, mode="sparse")
        b = solve_weighted(p, 0.0, 6, mode="sparse")
        assert np.array_equal(a.pos, b.pos)
        assert np.array_equal(a.neg, b.neg)

    def test_element_order_invariance(self):
        m = generate_unit_square(10)
        rng = np.random.default_rng(3)
        perm = rng.permutation(m.num_triangles)
        m2 = Mesh(m.vertices, m.triangles[perm], m.boundary_edges)
        w = halves_weight(2.0, -1.0)
        a = solve_weighted(assemble(m, euclidean_metric(), w,
                                    BoundarySpec.dirichlet()), 0.0, 8)
        b = solve_weighted(assemble(m2, euclidean_metric(), w,
                                    BoundarySpec.dirichlet()), 0.0, 8)
        np.testing.assert_allclose(a.pos, b.pos, rtol=1e-10)
        np.testing.assert_allclose(a.neg, b.neg, rtol=1e-10)

    @pytest.mark.parametrize("mode", FORCED, ids=["3000", "50"])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_eigenvector_orthonormality(self, t, mode):
        p = square_pencil(12, halves_weight(2.0, -1.0))
        s = solve_weighted(p, t, 6, mode=mode)
        assert (s.meta["method"] == "dense") == (mode == "dense")
        Kt = p.Kf.toarray() + t * p.Mmf.toarray()
        V = np.hstack([s.vec_pos, s.vec_neg])
        gram = V.T @ Kt @ V
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8

    def test_weighted_orthogonality_across_distinct_eigenvalues(self):
        p = square_pencil(12, halves_weight(2.0, -1.0))
        s = solve_weighted(p, 0.0, 6)
        lams = np.concatenate([s.pos, -s.neg])
        V = np.hstack([s.vec_pos, s.vec_neg])
        gram = V.T @ p.Rf.toarray() @ V
        distinct = np.abs(lams[:, None] - lams[None, :]) > 1e-8 * np.maximum(
            1.0, np.abs(lams)[:, None])
        assert np.abs(gram[distinct]).max() < 1e-8

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            solve_weighted(square_pencil(4), -0.1, 2)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_t_rejected(self, t):
        # a NaN would pose the unshifted problem without its constraint
        from roughweyl import count_inertia

        p = square_pencil(4, bc=BoundarySpec.neumann())
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            solve_weighted(p, t, 2)
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            count_inertia(p, 1.0, 1, t)

    @pytest.mark.parametrize("k_each", [0, -1])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("size, n_free", [(8, 49), (2, 1)],
                             ids=["L3", "one_row"])
    def test_k_each_below_one_rejected(self, size, n_free, mode, k_each):
        # a typed error on every path, not the Lanczos run's own complaint
        # on the L3 square or an empty spectrum on the 1-row pencil
        p = square_pencil(size)
        assert p.n_free == n_free
        with pytest.raises(ValueError, match="k_each must be >= 1"):
            solve_weighted(p, 0.0, k_each, mode=mode)

    @pytest.mark.parametrize("solve", [
        lambda p: solve_weighted(p, 0.0, 1),
        lambda p: poincare_constant(p),
    ], ids=["solve_weighted", "poincare_constant"])
    def test_no_free_dofs(self, solve):
        # every vertex of the size-1 square is on the Dirichlet boundary
        p = square_pencil(1)
        assert p.n_free == 0
        with pytest.raises(SolverError, match="no free DOFs"):
            solve(p)

    def test_non_coercive_without_constraint(self):
        # a pencil that claims tau = 0 while K is only semidefinite must
        # surface the Cholesky failure, not return garbage
        from roughweyl import Pencil

        p = square_pencil(6, bc=BoundarySpec.neumann())
        lying = Pencil(p.K, p.Mm, p.R, p.free_dofs, p.r, 0, p.vol,
                       p.masses)
        with pytest.raises(SolverError):
            solve_weighted(lying, 0.0, 2)

    @pytest.mark.parametrize("w", [constant_weight(1.0),
                                   halves_weight(1.0, -1.0)])
    def test_non_coercive_without_constraint_sparse(self, w):
        # the symmetric factorization must see the singular K, not invert
        # it into eigenvalues of about 1e15
        from roughweyl import Pencil

        p = square_pencil(20, w, BoundarySpec.neumann())
        lying = Pencil(p.K, p.Mm, p.R, p.free_dofs, p.r, 0, p.vol,
                       p.masses)
        with pytest.raises(SolverError, match="could not be factorized"):
            solve_weighted(lying, 0.0, 2, mode="sparse")


def two_squares(n):
    """Two disjoint unit squares side by side: one mesh, two components."""
    a = generate_unit_square(n)
    nv = a.num_vertices
    return Mesh(np.vstack([a.vertices, a.vertices + [2.0, 0.0]]),
                np.vstack([a.triangles, a.triangles + nv]),
                np.vstack([a.boundary_edges,
                           a.boundary_edges + [nv, nv, 0]]))


class TestFactorVerdict:
    """Every factor a Lanczos solve inverts is judged before its spectrum
    is returned: after the Krylov run, or before it where one solve shows
    the form near singular, so a singular form never reaches Lanczos."""

    @pytest.fixture
    def no_lanczos(self, monkeypatch):
        from roughweyl import spectral

        def fail(*args, **kwargs):
            raise AssertionError("Lanczos run on a singular form")

        monkeypatch.setattr(spectral, "_krylov_schur", fail)

    @staticmethod
    def lying(n):
        # a pure-Neumann pencil that claims tau = 0, so K is inverted as is
        from roughweyl import Pencil

        p = square_pencil(n, bc=BoundarySpec.neumann())
        return Pencil(p.K, p.Mm, p.R, p.free_dofs, p.r, 0, p.vol, p.masses)

    SINGULAR = {
        "lying_neumann": lambda: solve_weighted(
            TestFactorVerdict.lying(64), 0.0, 100, mode="sparse"),
        # grounding one vertex leaves the other square's constants free
        "two_squares_grounded": lambda: solve_weighted(
            assemble(two_squares(24), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.neumann()),
            0.0, 10, mode="sparse"),
        "poincare_lying": lambda: poincare_constant(TestFactorVerdict.lying(64)),
    }

    @pytest.mark.parametrize("case", sorted(SINGULAR))
    def test_singular_form_never_reaches_arpack(self, case, no_lanczos):
        with pytest.raises(SolverError, match="could not be factorized"):
            self.SINGULAR[case]()

    @pytest.mark.parametrize("bc", [BoundarySpec.dirichlet(),
                                    BoundarySpec.neumann()],
                             ids=["dirichlet", "neumann"])
    def test_arpack_error_is_a_solver_error(self, bc, monkeypatch):
        # any failure of the Lanczos run, here one of LAPACK's, is one
        from roughweyl import spectral

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("dsyevd failed (info 1)")

        monkeypatch.setattr(spectral, "_krylov_schur", fail)
        p = square_pencil(12, halves_weight(1.0, -0.5), bc)
        with pytest.raises(SolverError, match="Lanczos failed"):
            solve_weighted(p, 0.0, 8, mode="sparse")

    def test_arpack_failure_on_a_singular_form_reports_the_form(
            self, monkeypatch):
        # a form that slips past the guard (switched off here) is still
        # judged before a failed Lanczos run is raised
        from roughweyl import spectral

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence after 1000 restarts")

        monkeypatch.setattr(spectral, "_spd_guard", lambda lu, A, v: None)
        monkeypatch.setattr(spectral, "_krylov_schur", fail)
        with pytest.raises(SolverError, match="could not be factorized"):
            solve_weighted(self.lying(64), 0.0, 10, mode="sparse")

    def test_zero_pivot_is_refused_not_swapped(self):
        # without pivoting the factor of [[0, 1], [1, 0]] meets a zero
        # diagonal; SuperLU swaps rows, and the factor step refuses that
        from roughweyl.spectral import _NOT_SPD, _symmetric_factor

        A = sparse.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SolverError, match="off-diagonal pivot"):
            _symmetric_factor(A, _NOT_SPD)

    def test_factor_copies_not_alive_during_lanczos(self, monkeypatch):
        # scipy builds CSC copies of L and U when `lu.U` is first read and
        # keeps them on the factor; on the L6 square they take 1.5 MB
        # traced, beside 0.64 MB for the rest of what the solve holds at
        # the Lanczos run's entry. Read before the run, they would be
        # alive through it.
        import tracemalloc

        from roughweyl import spectral

        p = square_pencil(64)
        alive = []
        krylov_schur = spectral._krylov_schur

        def spy(*args, **kwargs):
            alive.append(tracemalloc.get_traced_memory()[0])
            return krylov_schur(*args, **kwargs)

        monkeypatch.setattr(spectral, "_krylov_schur", spy)
        tracemalloc.start()
        try:
            solve_weighted(p, 0.0, 10, mode="sparse", vectors=False)
        finally:
            tracemalloc.stop()
        assert len(alive) == 1
        assert alive[0] < 1.2e6


class TestSparseBothEnds:
    """Sign-changing weights on the sparse paths against the dense oracle."""

    @staticmethod
    def _agree(p, k_each):
        d = solve_weighted(p, 0.0, k_each, mode="dense")
        s = solve_weighted(p, 0.0, k_each, mode="sparse")
        assert s.meta["method"] != "dense"
        assert (len(s.pos), len(s.neg)) == (len(d.pos), len(d.neg))
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-9)
        np.testing.assert_allclose(s.neg, d.neg, rtol=1e-9)
        return s

    @pytest.fixture
    def lanczos_calls(self, monkeypatch):
        """The `which` of every Lanczos run, in order."""
        from roughweyl import spectral

        calls = []
        krylov_schur = spectral._krylov_schur

        def spy(*args, **kwargs):
            calls.append(kwargs["which"])
            return krylov_schur(*args, **kwargs)

        monkeypatch.setattr(spectral, "_krylov_schur", spy)
        return calls

    def test_one_lanczos_run_serves_both_signs(self, lanczos_calls):
        for bc in (BoundarySpec.dirichlet(), BoundarySpec.neumann()):
            p = square_pencil(12, halves_weight(1.0, -0.5), bc)
            solve_weighted(p, 0.0, 8, mode="sparse")
        assert lanczos_calls == ["BE", "BE"]

    def test_mirror_weight_dirichlet(self):
        s = self._agree(square_pencil(16, halves_weight(1.0, -1.0)), 20)
        assert s.meta["method"] == "sparse-lanczos"
        np.testing.assert_allclose(s.pos, s.neg, rtol=1e-9)

    def test_halves_pure_neumann(self):
        p = square_pencil(16, halves_weight(1.0, -0.5), BoundarySpec.neumann())
        s = self._agree(p, 20)
        assert s.meta["method"] == "sparse-projected"

    @pytest.mark.parametrize("bc, n_neg", [(BoundarySpec.dirichlet(), 21),
                                           (BoundarySpec.neumann(), 36)])
    def test_negative_family_shorter_than_k_each(self, bc, n_neg):
        s = self._agree(square_pencil(24, expression_weight("x + y - 0.3"),
                                      bc), 40)
        assert (len(s.pos), len(s.neg)) == (40, n_neg)

    def test_k_each_at_n_free(self, lanczos_calls):
        # 2 k_each exceeds what one run can return: each end is solved
        # apart, at n_free - 2, the most Lanczos reaches
        p = square_pencil(24, expression_weight("x + y - 0.3"))
        s = self._agree(p, p.n_free - 2)
        assert lanczos_calls == ["LA", "SA"]
        assert (len(s.pos), len(s.neg)) == (508, 21)


class TestKrylovBasis:
    """The basis each Lanczos run keeps: scipy's default max(2k + 1, 20) up
    to k = 19, k + max(k // 2, 20) above, so k + k // 2 from k = 40 on, and
    never more than the n rows of the pencil; and the spectra that the
    shorter basis gives where it bites, against the dense oracle."""

    PENCILS = {
        "const": lambda size: square_pencil(size),
        "negative": lambda size: square_pencil(size, constant_weight(-2.0)),
        "halves": lambda size: square_pencil(size, halves_weight(1.0, -1.0)),
        "neumann_halves": lambda size: square_pencil(
            size, halves_weight(1.0, -0.5), BoundarySpec.neumann()),
        "x_plus_y": lambda size: square_pencil(
            size, expression_weight("x + y - 0.3")),
    }

    @pytest.mark.parametrize("pencil, size, k_each, runs", [
        ("const", 16, 8, [("LA", 8, 20)]),
        ("const", 16, 19, [("LA", 19, 39)]),
        ("negative", 16, 19, [("SA", 19, 39)]),
        ("halves", 16, 8, [("BE", 16, 33)]),
        ("neumann_halves", 16, 8, [("BE", 16, 33)]),
        ("const", 16, 30, [("LA", 30, 50)]),
        ("const", 32, 60, [("LA", 60, 90)]),
        ("negative", 32, 60, [("SA", 60, 90)]),
        ("halves", 32, 30, [("BE", 60, 90)]),
        ("halves", 32, 100, [("BE", 200, 300)]),
        ("neumann_halves", 32, 100, [("BE", 200, 300)]),
        # capped at n = 49 rows, and at n = 121 when each end runs apart
        ("const", 8, 40, [("LA", 40, 49)]),
        ("halves", 8, 20, [("BE", 40, 49)]),
        ("x_plus_y", 12, 119, [("LA", 119, 121), ("SA", 119, 121)]),
    ])
    def test_ncv_of_each_run(self, monkeypatch, pencil, size, k_each, runs):
        from roughweyl import spectral

        calls = []
        krylov_schur = spectral._krylov_schur

        def spy(*args, **kwargs):
            calls.append((kwargs["which"], kwargs["k"], kwargs["ncv"]))
            return krylov_schur(*args, **kwargs)

        monkeypatch.setattr(spectral, "_krylov_schur", spy)
        solve_weighted(self.PENCILS[pencil](size), 0.0, k_each, mode="sparse",
                       vectors=False)
        assert calls == runs

    def test_basis_traced_below_the_default(self, traced_peak):
        # The bound is two n x ncv arrays at ncv = 2k + 1 = 401, 25.47 MB
        # on the L6 square (n = 3969, k = 200): a basis and a second array
        # of its size, as ARPACK held at extraction (it peaked at 19.96 MB
        # traced with ncv = 300). The run keeps one (ncv + 1) x n basis
        # and ncv^2-sized projected work, and peaks at 11.86 MB.
        p = square_pencil(64)
        peak = traced_peak(lambda: solve_weighted(p, 0.0, 200, mode="sparse",
                                                  vectors=False))
        default_arrays = 2 * 8 * p.n_free * (2 * 200 + 1)
        assert peak < default_arrays, peak / default_arrays

    @pytest.mark.parametrize("pencil, k_each", [
        ("const", 150),  # the square's double eigenvalues among them
        ("halves", 100),  # one BE run of nev = 200
        ("neumann_halves", 100),  # the grounded pencil
    ])
    def test_short_basis_matches_dense_oracle(self, pencil, k_each):
        p = self.PENCILS[pencil](40)
        s = solve_weighted(p, 0.0, k_each, mode="sparse", vectors=False)
        d = solve_weighted(p, 0.0, k_each, mode="dense", vectors=False)
        assert s.meta["method"] != "dense"
        for sign in (1, -1):
            got, want = s.values(sign), d.values(sign)
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        if pencil == "halves":
            assert len(s.pos) == k_each
            np.testing.assert_allclose(s.pos, s.neg, rtol=1e-9)
        if pencil == "const":
            assert max(mult for _, mult in s.groups()) == 2


class TestKrylovSchur:
    """Edge cases of the Lanczos run itself: a Krylov space that fills the
    whole space or closes early, exact double eigenvalues, the restart
    cap, and runs that repeat bit for bit."""

    def test_three_row_poincare_pencil(self):
        # the one-cell Neumann square grounds to 3 rows, and its run keeps
        # ncv = 3: the Krylov space is the whole space
        p = assemble(generate_unit_square(1), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.neumann())
        assert p.n_free - 1 == 3
        Q = null_space(p.r_free[None])
        top = eigh(Q.T @ p.Mmf.toarray() @ Q, Q.T @ p.Kf.toarray() @ Q,
                   eigvals_only=True)[-1]
        np.testing.assert_allclose(poincare_constant(p), 1.0 / top,
                                   rtol=1e-10)

    def test_basis_of_every_row(self, monkeypatch):
        from roughweyl import spectral

        calls = []
        krylov_schur = spectral._krylov_schur

        def spy(*args, **kwargs):
            calls.append((kwargs["ncv"], len(args[3])))
            return krylov_schur(*args, **kwargs)

        monkeypatch.setattr(spectral, "_krylov_schur", spy)
        p = square_pencil(8)
        s = solve_weighted(p, 0.0, 40, mode="sparse", vectors=False)
        assert calls == [(49, 49)]
        d = solve_weighted(p, 0.0, 40, mode="dense", vectors=False)
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-10, atol=0)

    def test_invariant_subspace_continues(self):
        # one vector spans a Krylov space of 4 dimensions here, one per
        # distinct eigenvalue; the basis of 24 fills from new directions,
        # 6 such spaces, so the top eigenvalue comes back 6 times. (A
        # single-vector run cannot see more copies than that.)
        from scipy.sparse.linalg import splu

        from roughweyl.spectral import _krylov_schur

        A = sparse.diags(np.repeat([1.0, 2.0, 3.0, 4.0], 10)).tocsr()
        M = sparse.identity(40, format="csr")
        v0 = np.random.default_rng(0).standard_normal(40)
        w, V = _krylov_schur(A.dot, M, splu(M.tocsc()), v0, which="LA",
                             k=6, ncv=24, vectors=True)
        np.testing.assert_allclose(w, [4.0] * 6, rtol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(A @ V, V * w, atol=1e-12)

    def test_double_eigenvalues_keep_their_multiplicity(self):
        p = square_pencil(40)
        s = solve_weighted(p, 0.0, 150, mode="sparse", vectors=False)
        d = solve_weighted(p, 0.0, 150, mode="dense", vectors=False)
        got, want = s.groups(), d.groups()
        assert [mult for _, mult in got] == [mult for _, mult in want]
        assert sum(mult == 2 for _, mult in want) == 70
        np.testing.assert_allclose([v for v, _ in got], [v for v, _ in want],
                                   rtol=1e-10, atol=0)

    def test_restart_cap_fails_after_the_verdict(self, monkeypatch):
        from roughweyl import spectral

        verdicts = []
        spd_verdict = spectral._spd_verdict

        def spy(lu):
            verdicts.append(lu)
            return spd_verdict(lu)

        monkeypatch.setattr(spectral, "_MAX_RESTARTS", 1)
        monkeypatch.setattr(spectral, "_spd_verdict", spy)
        with pytest.raises(SolverError,
                           match=r"Lanczos failed \(no convergence after 1 "):
            solve_weighted(square_pencil(32), 0.0, 10, mode="sparse")
        assert len(verdicts) == 1

    @pytest.mark.parametrize("w, bc", [
        (None, None),
        (halves_weight(1.0, -0.5), BoundarySpec.neumann()),
    ], ids=["dirichlet_const", "neumann_halves"])
    def test_two_runs_are_bitwise_equal(self, w, bc):
        p = square_pencil(24, w, bc)
        a, b = (solve_weighted(p, 0.0, 30, mode="sparse") for _ in range(2))
        for x, y in ((a.pos, b.pos), (a.neg, b.neg),
                     (a.vec_pos, b.vec_pos), (a.vec_neg, b.vec_neg)):
            assert np.array_equal(x, y)


class TestCostRule:
    """The default path of each solve, picked by the cost rule
    n^2 > C k_each sqrt(c_max / c_min), against the dense oracle. Cases lie
    on both sides of the crossover at n = 529, 961 and 2116 (625 and 2116
    on the Neumann square); the routes marked "pinned" are those of the
    benchmark's pencils and of an unbalanced weight that must stay dense."""

    @pytest.mark.parametrize("size, weight, bc, k_each, method", [
        (24, "const:1", "dirichlet", 16, "sparse-lanczos"),
        (24, "halves:1,-0.25", "dirichlet", 60, "dense"),
        (24, "halves:1,-0.5", "neumann", 16, "sparse-projected"),
        (24, "halves:1,-0.5", "neumann", 60, "dense"),
        (28, "const:1", "dirichlet", 100, "dense"),  # pinned: sandwich
        (32, "const:1", "dirichlet", 200, "dense"),  # pinned: weyl
        (32, "halves:1,-1", "dirichlet", 60, "sparse-lanczos"),  # pinned
        (32, "halves:1,-0.25", "dirichlet", 30, "sparse-lanczos"),
        (32, "expr:x - 0.9", "dirichlet", 30, "dense"),
        (47, "const:1", "dirichlet", 60, "sparse-lanczos"),
        (47, "expr:x - 0.9", "dirichlet", 30, "sparse-lanczos"),
        (47, "expr:x - 0.9", "dirichlet", 60, "dense"),  # pinned
        (45, "halves:1,-0.5", "neumann", 60, "sparse-projected"),
    ])
    def test_routed_spectrum_matches_oracle(self, size, weight, bc, k_each,
                                            method):
        from roughweyl.cli import build_boundary, build_weight

        p = square_pencil(size, build_weight(weight), build_boundary(bc))
        assert p.n_free in (529, 625, 729, 961, 2116)
        s = solve_weighted(p, 0.0, k_each, vectors=False)
        assert s.meta["method"] == method
        d = solve_weighted(p, 0.0, k_each, mode="dense", vectors=False)
        for sign in (1, -1):
            got, want = s.values(sign), d.values(sign)
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


class TestLanczosReach:
    """Lanczos returns at most n - 2 values per end; pencils it cannot
    serve go dense whatever `mode` says."""

    def test_single_sign_k_each_at_n_free(self):
        p = square_pencil(6)
        assert p.n_free == 25
        dense = solve_weighted(p, 0.0, p.n_free, mode="dense")
        s = solve_weighted(p, 0.0, p.n_free, mode="sparse")
        assert s.meta["method"] == "dense"
        assert len(s.pos) == p.n_free
        np.testing.assert_array_equal(s.pos, dense.pos)

    SOLVES = {
        "weighted": lambda p, **kw: solve_weighted(p, 0.0, p.n_free, **kw).pos,
        # no mode to pass: the reach rule alone sends n <= 2 dense
        "poincare": lambda p, **_: poincare_constant(p),
        # the pencil (Mm, K + Mm) of the shifted Laplacian
        "shifted": lambda p, **kw: solve_weighted(p, 1.0, p.n_free, **kw).pos,
    }

    @pytest.mark.parametrize("solve", sorted(SOLVES))
    @pytest.mark.parametrize("bc, n_free", [
        (BoundarySpec.dirichlet(), 1),
        (BoundarySpec.mixed((0, 1, 3)), 2),
    ], ids=["one", "two"])
    def test_tiny_pencils(self, bc, n_free, solve):
        p = square_pencil(2, bc=bc)
        assert p.n_free == n_free
        solve = self.SOLVES[solve]
        np.testing.assert_array_equal(solve(p, mode="sparse"),
                                      solve(p, mode="dense"))


class TestMode:
    """`mode` takes the values of the CLI's `[solver] mode` and no other,
    in every function that routes a solve."""

    FIELDS = (euclidean_metric(), constant_weight(1.0),
              BoundarySpec.dirichlet())
    CALLS = {
        "solve_weighted": lambda m, p, mode: solve_weighted(p, 0.5, 4,
                                                            mode=mode),
        "convergence_study": lambda m, p, mode: convergence_study(
            lambda level: (generate_unit_square(2 ** level),
                           *TestMode.FIELDS),
            (2, 3), k_each=4, mode=mode),
        "check_bracketing": lambda m, p, mode: check_bracketing(
            solve_weighted(p, 0.5, 4), m, [range(64), range(64, 128)],
            *TestMode.FIELDS, k_max=4, mode=mode),
        "check_sandwich": lambda m, p, mode: check_sandwich(
            solve_weighted(p, 0.0, 4), p, (0.5,), k_max=4, mode=mode),
    }

    @pytest.mark.parametrize("mode", ["fast", "Dense", 3000, None])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_unknown_mode_rejected(self, call, mode):
        m = generate_unit_square(8)
        p = assemble(m, *self.FIELDS)
        with pytest.raises(ValueError, match="mode must be one of"):
            self.CALLS[call](m, p, mode)


class TestDenseCap:
    """No solve densifies a pencil above the dense path's 3000-row cap:
    one that `mode` or the reach rule would send dense is refused before
    any form is densified. The L6 Dirichlet square has 3969 free DOFs."""

    @pytest.fixture(scope="class")
    def pencil(self):
        p = square_pencil(64)
        assert p.n_free == 3969
        return p

    @pytest.fixture(autouse=True)
    def no_densify(self, pencil, monkeypatch):
        def fail(self, *args, **kwargs):
            raise AssertionError("densified above the cap")

        monkeypatch.setattr(type(pencil.Kf), "toarray", fail)

    def test_dense_mode_refused(self, pencil):
        with pytest.raises(SolverError, match="3969 rows.*3000-row cap"):
            solve_weighted(pencil, 0.0, 4, mode="dense")

    def test_beyond_lanczos_reach_refused(self, pencil):
        with pytest.raises(SolverError, match="3969 rows.*3000-row cap"):
            solve_weighted(pencil, 0.0, pencil.n_free - 1, vectors=False)


class TestConstrainedSolves:
    def test_neumann_unit_weight_limit(self):
        # zero mode removed: lambda_1^+ -> 1/pi^2
        errs = []
        for n in (8, 16):
            p = square_pencil(n, bc=BoundarySpec.neumann())
            s = solve_weighted(p, 0.0, 3)
            assert s.meta["constrained"]
            errs.append(abs(s.pos[0] * PI2 - 1.0))
        assert errs[-1] < 5e-3
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_constraint_satisfied_by_eigenvectors(self):
        p = square_pencil(12, bc=BoundarySpec.neumann())
        s = solve_weighted(p, 0.0, 4)
        resid = np.abs(p.r_free @ s.vec_pos).max()
        assert resid < 1e-10
        # the dense grounded solve returns full-length vectors that lie in
        # the constraint subspace and are K-orthonormal there
        p = square_pencil(12, halves_weight(1.0, -0.5), BoundarySpec.neumann())
        s = solve_weighted(p, 0.0, 6, mode="dense")
        assert s.meta["method"] == "dense" and len(s.neg) == 6
        V = np.hstack([s.vec_pos, s.vec_neg])
        assert V.shape == (p.n_free, 12)
        r = p.r_free
        assert np.abs(r @ V).max() <= 1e-12 * np.abs(r).sum()
        gram = V.T @ (p.Kf @ V)
        assert np.abs(gram - np.eye(12)).max() < 1e-10

    def test_sparse_semidefinite_matches_dense(self):
        p = square_pencil(16, bc=BoundarySpec.neumann())
        d = solve_weighted(p, 0.0, 5, mode="dense")
        s = solve_weighted(p, 0.0, 5, mode="sparse")
        assert s.meta["method"] == "sparse-projected"
        assert len(s.neg) == 0
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-7)

    def test_sparse_indefinite_matches_dense(self):
        w = expression_weight("x - 0.3")  # sign-changing, mean 0.2
        p = square_pencil(16, w, BoundarySpec.neumann())
        assert p.tau == 1
        d = solve_weighted(p, 0.0, 6, mode="dense")
        s = solve_weighted(p, 0.0, 6, mode="sparse")
        assert s.meta["method"] == "sparse-projected"
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-7)
        np.testing.assert_allclose(s.neg, d.neg, rtol=1e-7)
        assert np.abs(p.r_free @ s.vec_pos).max() < 1e-10

    def test_negative_only_weight(self):
        w = WeightField(lambda pts: -np.ones(len(pts)))
        p = square_pencil(12, w, BoundarySpec.neumann())
        s = solve_weighted(p, 0.0, 4)
        assert len(s.pos) == 0
        np.testing.assert_allclose(s.neg[0] * PI2, 1.0, rtol=1e-2)


class TestSparseConstrained:
    """The grounded pencil of the pure-Neumann t = 0 solve against the dense
    oracle, on a flat square and on the graph-cone disk."""

    WEIGHTS = {
        "const": constant_weight(1.0),
        "negative": constant_weight(-2.0),
        "expr": expression_weight("x - 0.3"),
        "halves": halves_weight(1.0, -0.5),
    }

    @pytest.mark.parametrize("domain", ["square", "cone_disk"])
    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    def test_matches_dense_oracle(self, domain, weight):
        w = self.WEIGHTS[weight]
        if domain == "square":
            p = square_pencil(12, w, BoundarySpec.neumann())
        else:
            p = assemble(generate_disk(8), graph_cone_metric(), w,
                         BoundarySpec.neumann())
        assert p.tau == 1
        d = solve_weighted(p, 0.0, 12, mode="dense")
        s = solve_weighted(p, 0.0, 12, mode="sparse")
        assert s.meta["method"] == "sparse-projected"
        assert (len(s.pos), len(s.neg)) == (len(d.pos), len(d.neg))
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-9)
        np.testing.assert_allclose(s.neg, d.neg, rtol=1e-9)
        V = np.hstack([v for v in (s.vec_pos, s.vec_neg) if v is not None])
        gram = V.T @ (p.Kf @ V)
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10
        assert np.abs(p.r_free @ V).max() < 1e-10

    def test_constraint_vector_other_than_r_times_ones(self):
        # a hand-built r != R 1 couples the constants to the working space
        # unless the projector is applied on both sides of R
        from roughweyl import Pencil

        p = square_pencil(12, halves_weight(1.0, -0.5), BoundarySpec.neumann())
        r = p.r * (1.0 + generate_unit_square(12).vertices[:, 0])
        q = Pencil(p.K, p.Mm, p.R, p.free_dofs, r, 1, p.vol, p.masses)
        d = solve_weighted(q, 0.0, 12, mode="dense")
        s = solve_weighted(q, 0.0, 12, mode="sparse")
        assert s.meta["method"] == "sparse-projected"
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-9)
        np.testing.assert_allclose(s.neg, d.neg, rtol=1e-9)
        assert np.abs(r @ np.hstack([s.vec_pos, s.vec_neg])).max() < 1e-10

    def test_every_factorization_in_symmetric_mode(self, monkeypatch):
        import scipy.sparse.linalg as sla

        modes = []
        splu = sla.splu

        def spy(A, *args, **kwargs):
            modes.append(kwargs.get("options", {}).get("SymmetricMode", False))
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(sla, "splu", spy)
        halves = halves_weight(1.0, -0.5)
        cases = [(BoundarySpec.dirichlet(), halves, 0.0),
                 (BoundarySpec.neumann(), halves, 0.5),
                 (BoundarySpec.neumann(), constant_weight(1.0), 0.0),
                 (BoundarySpec.neumann(), halves, 0.0)]
        for bc, w, t in cases:
            solve_weighted(square_pencil(12, w, bc), t, 8, mode="sparse")
        assert modes == [True] * len(cases)


class TestEigenvaluesOnly:
    """vectors=False skips the eigenvectors and keeps the eigenvalues."""

    CASES = {
        "dirichlet_const": (None, None, 0.0),
        "neumann_t": (halves_weight(1.0, -0.5), BoundarySpec.neumann(), 0.5),
        "constrained_one_sign": (None, BoundarySpec.neumann(), 0.0),
        "constrained_halves": (halves_weight(1.0, -0.5),
                               BoundarySpec.neumann(), 0.0),
        "short_negative": (expression_weight("x + y - 0.3"), None, 0.0),
        "k_each_at_n_free": (expression_weight("x + y - 0.3"), None, 0.0),
    }

    @pytest.mark.parametrize("mode", FORCED, ids=["3000", "0"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values_match_eigenpair_solve(self, monkeypatch, case, mode):
        import scipy.linalg

        drivers = []
        eigh = scipy.linalg.eigh

        def spy(*args, **kwargs):
            drivers.append(kwargs.get("driver"))
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        w, bc, t = self.CASES[case]
        p = square_pencil(16, w, bc)
        forms = [(A, A.data.copy(), A.indices.copy(), A.indptr.copy())
                 for A in (p.Kf, p.Mmf, p.Rf)]
        k_each = p.n_free - 2 if case == "k_each_at_n_free" else 20
        full = solve_weighted(p, t, k_each, mode=mode)
        only = solve_weighted(p, t, k_each, mode=mode, vectors=False)
        # eigenpairs by divide and conquer, eigenvalues alone by dsygv; a
        # dense run must show both calls in the spy, a Lanczos run none
        dense = full.meta["method"] == "dense"
        assert drivers == ([None, "gv"] if dense else [])
        # the dense solve overwrites its own dense copies, not the pencil
        for A, data, indices, indptr in forms:
            np.testing.assert_array_equal(A.data, data)
            np.testing.assert_array_equal(A.indices, indices)
            np.testing.assert_array_equal(A.indptr, indptr)
        assert only.vec_pos is None and only.vec_neg is None
        assert only.meta == full.meta
        assert (len(only.pos), len(only.neg)) == (len(full.pos),
                                                  len(full.neg))
        np.testing.assert_allclose(only.pos, full.pos, rtol=1e-12)
        np.testing.assert_allclose(only.neg, full.neg, rtol=1e-12)
        if case == "short_negative":
            assert 0 < len(only.neg) < k_each

    def test_constrained_halves_takes_one_be_run(self, monkeypatch):
        from roughweyl import spectral

        calls = []
        krylov_schur = spectral._krylov_schur

        def spy(*args, **kwargs):
            calls.append((kwargs["which"], kwargs["vectors"]))
            return krylov_schur(*args, **kwargs)

        monkeypatch.setattr(spectral, "_krylov_schur", spy)
        p = square_pencil(16, halves_weight(1.0, -0.5), BoundarySpec.neumann())
        solve_weighted(p, 0.0, 8, mode="sparse", vectors=False)
        assert calls == [("BE", False)]

    @pytest.mark.parametrize("mode", FORCED)
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_empty_family_has_empty_columns(self, mode, bc, sign):
        # a single-sign weight leaves one family empty; with vectors its
        # columns are (n_free, 0) on both paths, grounded or not
        p = square_pencil(16, constant_weight(sign),
                          getattr(BoundarySpec, bc)())
        s = solve_weighted(p, 0.0, 10, mode=mode)
        full, empty = ((s.vec_pos, s.vec_neg) if sign > 0
                       else (s.vec_neg, s.vec_pos))
        assert full.shape == (p.n_free, 10)
        assert empty.shape == (p.n_free, 0)
        only = solve_weighted(p, 0.0, 10, mode=mode, vectors=False)
        assert only.vec_pos is None and only.vec_neg is None


SCALED_WEIGHTS = {
    "const": constant_weight,
    "halves": lambda c: halves_weight(2.0 * c, -c),
}


class TestWeightScale:
    """The spectrum of c rho is c times the spectrum of rho, so no zero
    test on the way may hold an absolute floor."""

    @pytest.mark.parametrize("c", [1e-12, 1e6])
    @pytest.mark.parametrize("weight", list(SCALED_WEIGHTS))
    @pytest.mark.parametrize("mode", FORCED)
    @pytest.mark.parametrize("bc", [BoundarySpec.dirichlet(),
                                    BoundarySpec.neumann()],
                             ids=["dirichlet", "neumann"])
    def test_spectrum_scales_with_weight(self, bc, mode, weight, c):
        make = SCALED_WEIGHTS[weight]
        ref, got = (solve_weighted(square_pencil(10, make(scale), bc), 0.0,
                                   6, mode=mode, vectors=False)
                    for scale in (1.0, c))
        assert got.meta["constrained"] == (bc.kind == "neumann")
        assert len(ref.pos) == 6
        assert len(ref.neg) == (6 if weight == "halves" else 0)
        for sign in (1, -1):
            want = c * ref.values(sign)
            assert len(got.values(sign)) == len(want)
            np.testing.assert_allclose(got.values(sign), want, rtol=1e-12,
                                       atol=0)


class TestProjectConstraint:
    def test_dirichlet_identity(self):
        assert project_constraint(square_pencil(6)) is None

    def test_neumann_rank_one_drop(self, monkeypatch):
        # at k_each = n_free the reach rule sends the solve dense, on the
        # grounded pencil of n_free - 1 rows: it computes n_free - 1 values,
        # none of them zero, and keeps them all
        import roughweyl.spectral as spectral

        computed = []
        split = spectral._split_signed

        def spy(w, V, k_each):
            computed.append(np.asarray(w))
            return split(w, V, k_each)

        monkeypatch.setattr(spectral, "_split_signed", spy)
        for w in (constant_weight(1.0), halves_weight(1.0, -0.5)):
            p = square_pencil(6, w, BoundarySpec.neumann())
            np.testing.assert_array_equal(project_constraint(p), p.r_free)
            del computed[:]
            s = solve_weighted(p, 0.0, k_each=p.n_free, vectors=False)
            assert s.meta["method"] == "dense"
            (got,) = computed
            assert len(got) == len(s.pos) + len(s.neg) == p.n_free - 1
            assert np.abs(got).min() > 1e-6 * np.abs(got).max()

    def test_basis_orthonormal_and_feasible(self):
        # the constrained spectrum is that of the pencil restricted to an
        # orthonormal basis Q of {r . v = 0}, taken here from scipy
        p = square_pencil(6, halves_weight(1.0, -0.5), BoundarySpec.neumann())
        r = project_constraint(p)
        Q = null_space(r[None])
        assert Q.shape == (p.n_free, p.n_free - 1)
        np.testing.assert_allclose(Q.T @ Q, np.eye(p.n_free - 1), atol=1e-12)
        assert np.abs(r @ Q).max() < 1e-12 * np.abs(r).sum()
        w = eigh(Q.T @ p.Rf.toarray() @ Q, Q.T @ p.Kf.toarray() @ Q,
                 eigvals_only=True)
        s = solve_weighted(p, 0.0, k_each=p.n_free, mode="dense")
        np.testing.assert_allclose(s.pos, w[w > 0][::-1], rtol=1e-12)
        np.testing.assert_allclose(s.neg, -w[w < 0], rtol=1e-12)

    def test_zero_weight_integral_rejected(self):
        p = square_pencil(8, halves_weight(1.0, -1.0), BoundarySpec.neumann())
        with pytest.raises(ModelingError):
            project_constraint(p)
        with pytest.raises(ModelingError):
            solve_weighted(p, 0.0, 2)

    def test_vanishing_constraint_vector_rejected(self):
        w = WeightField(lambda pts: np.zeros(len(pts)))
        p = square_pencil(6, w, BoundarySpec.neumann())
        with pytest.raises(ModelingError):
            project_constraint(p)

    def test_regularized_solve_needs_no_constraint(self):
        # t > 0 restores coercivity on the whole space: zero-mean weights pass
        p = square_pencil(8, halves_weight(1.0, -1.0), BoundarySpec.neumann())
        s = solve_weighted(p, 1.0, 4)
        assert not s.meta["constrained"]
        assert len(s.pos) == 4 and len(s.neg) == 4


def explicit_grounded(A, M, r):
    """(G^T A G, G^T M G) for an explicit dense G = Pi E: E embeds the
    n - 1 coordinates as v_0 = 0, and Pi = I - 1 r^T / (r . 1) projects
    onto {r . v = 0} along the constants."""
    n = len(r)
    G = (np.eye(n) - np.outer(np.ones(n), r) / r.sum())[:, 1:]
    return G.T @ A @ G, G.T @ M @ G


class TestObliqueUpdate:
    """The dense grounded pencil, built by an in-place rank-two update,
    against the products with an explicit map onto the subspace."""

    @staticmethod
    def assert_matches(A, M, r):
        want_a, want_m = explicit_grounded(A, M, r)
        got_a, got_m = _dense_forms(sparse.csr_matrix(A), sparse.csr_matrix(M),
                                    r)
        for got, want in ((got_a, want_a), (got_m, want_m)):
            assert got.shape == (len(r) - 1, len(r) - 1)
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())
            np.testing.assert_array_equal(got, got.T)
            assert got.flags.f_contiguous

    @pytest.mark.parametrize("mean", [2.0, -0.5, 0.0])
    def test_random_symmetric_matrix(self, mean):
        # r of either sign of r . 1, or of a random one about zero; M is
        # semidefinite with M 1 = 0, as K is on a pure-Neumann pencil
        rng = np.random.default_rng(3)
        n = 9
        r = rng.standard_normal(n) + mean
        B, C = rng.standard_normal((2, n, n))
        C -= C.mean(axis=1, keepdims=True)
        self.assert_matches(B + B.T, C.T @ C, r)

    def test_neumann_pencil_forms(self):
        p = assemble(generate_unit_square(8), euclidean_metric(),
                     halves_weight(1.0, -0.5), BoundarySpec.neumann())
        K = p.Kf.toarray()
        for A in (p.Kf, p.Mmf, p.Rf):
            self.assert_matches(A.toarray(), K, p.r_free)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocked_update_equals_the_outer_product_form(self, order):
        # 150 rows: two full 64-row blocks and a partial one
        rng = np.random.default_rng(5)
        n = 150
        B = rng.standard_normal((n, n))
        A = np.array(B + B.T, order=order)
        u, w = rng.standard_normal((2, n))
        U = np.outer(u, w)
        U += U.T
        want = A - U
        _subtract_symmetric(A, u, w)
        np.testing.assert_array_equal(A, want)
        np.testing.assert_array_equal(A, A.T)

    def test_update_makes_no_square_temporary(self, traced_peak):
        # the update allocates row blocks of O(64 n), and the two dense
        # forms are the only squares that building the grounded pencil makes
        rng = np.random.default_rng(6)
        n = 400
        B = rng.standard_normal((n, n))
        A = np.asfortranarray(B + B.T)
        u, w = rng.standard_normal((2, n))
        p = assemble(generate_unit_square(32), euclidean_metric(),
                     halves_weight(1.0, -0.5), BoundarySpec.neumann())
        peak = traced_peak(lambda: _subtract_symmetric(A, u, w))
        forms_peak = traced_peak(lambda: _dense_forms(p.Rf, p.Kf, p.r_free))
        square = 8 * p.n_free ** 2  # the bytes of one dense form
        assert peak <= 1.1 * A.nbytes, peak / A.nbytes
        assert forms_peak <= 2.25 * square, forms_peak / square


class TestCountInertia:
    """N±(s) by Sylvester inertia against the dense oracle's counts: the
    L5 square (the ladder's dense size) definite, indefinite and pure
    Neumann, and the 16-ring cone disk, at t = 0 and t = 1, so both the
    plain factor (tau = 0 or t > 0) and the bordered one (tau = 1, t = 0)
    are gated. Probes sit in gaps of the whole dense spectrum, a dozen per
    sign spread over its range."""

    PENCILS = {
        "square_const": lambda: square_pencil(32),
        "square_halves": lambda: square_pencil(32, halves_weight(1.0, -1.0)),
        "neumann_halves": lambda: square_pencil(
            32, halves_weight(1.0, -0.5), BoundarySpec.neumann()),
        "disk_cone": lambda: assemble(generate_disk(16), graph_cone_metric(),
                                      constant_weight(1.0),
                                      BoundarySpec.dirichlet()),
    }

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("case", sorted(PENCILS))
    def test_matches_dense_counts(self, case, t):
        from roughweyl import count_inertia
        from roughweyl.weyl import counting

        p = self.PENCILS[case]()
        full = solve_weighted(p, t, p.n_free, mode="dense", vectors=False)
        probes = 0
        for sign in (1, -1):
            groups = full.groups(sign)
            if len(groups) < 2:
                continue
            for i in np.unique(np.linspace(0, len(groups) - 2, 12).astype(int)):
                s = 0.5 * (groups[i][0] + groups[i + 1][0])
                assert count_inertia(p, s, sign, t) == counting(full, s, sign)
                probes += 1
        assert probes >= 12

    def test_counts_every_value_above_the_top_probe(self):
        # above the spectrum nothing is counted, below it every value of
        # the sign, the constrained zero mode of the bordered pencil not
        # among them
        from roughweyl import count_inertia

        p = square_pencil(12, halves_weight(1.0, -0.5), BoundarySpec.neumann())
        full = solve_weighted(p, 0.0, p.n_free, mode="dense", vectors=False)
        for sign in (1, -1):
            vals = full.values(sign)
            assert count_inertia(p, 2.0 * vals[0], sign) == 0
            assert count_inertia(p, 0.5 * vals[-1], sign) == len(vals)

    @pytest.mark.parametrize("kwargs, match", [
        ({"s": 1.0, "sign": 0}, "sign must be"),
        ({"s": 0.0, "sign": 1}, "s must be positive"),
        ({"s": 1.0, "sign": 1, "t": -1.0}, "t must be >= 0"),
    ])
    def test_bad_arguments(self, kwargs, match):
        from roughweyl import count_inertia

        with pytest.raises(ValueError, match=match):
            count_inertia(square_pencil(4), **kwargs)


class TestSpectrum:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Spectrum([1.0, 2.0], [])
        with pytest.raises(ValueError):
            Spectrum([2.0, -1.0], [])

    def test_counting(self):
        s = Spectrum([3.0, 2.0, 1.0], [0.5])
        with pytest.raises(ValueError):
            s.values(0)

    def test_groups_clusters_near_degeneracies(self):
        s = Spectrum([3.0, 2.0 + 5e-9, 2.0, 1.0], [])
        assert [m for _, m in s.groups(1)] == [1, 2, 1]

    def test_groups_on_square_symmetry(self):
        # Lambda/pi^2 = 2, 5, 5, 8, 10, 10: multiplicity pattern 1, 2, 1, 2
        s = solve_weighted(square_pencil(16), 0.0, 6)
        assert [m for _, m in s.groups(1)] == [1, 2, 1, 2]

    @pytest.mark.parametrize("c", [1e-11, 1.0, 1e6])
    def test_groups_do_not_depend_on_the_weight_scale(self, c):
        # lambda(c rho) = c lambda(rho), so the clusters scale with c
        s = solve_weighted(square_pencil(16, constant_weight(c)), 0.0, 10)
        assert [m for _, m in s.groups(1)] == [1, 2, 1, 2, 2, 2]
