"""Eigensolver oracles: separation-of-variables targets on the unit square,
sign bookkeeping, the Z(rho) constraint, and dense/sparse path agreement."""

import numpy as np
import pytest

from roughweyl import (
    BoundarySpec,
    Mesh,
    ModelingError,
    SolverError,
    Spectrum,
    WeightField,
    assemble,
    constant_weight,
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
from roughweyl.assembly import _Householder

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
        dense = solve_weighted(p, 1.0, 10, vectors=False)
        sparse = solve_weighted(p, 1.0, 10, dense_limit=50, vectors=False)
        assert sparse.meta["method"] == "sparse-lanczos"
        np.testing.assert_allclose(sparse.pos, dense.pos, rtol=1e-9)

    @pytest.mark.parametrize("dense_limit", [3000, 50])
    @pytest.mark.parametrize("bc", [BoundarySpec.dirichlet(),
                                    BoundarySpec.neumann()],
                             ids=["dirichlet", "neumann"])
    def test_eigenpairs_at_unit_shift(self, bc, dense_limit):
        # Mm V = (K + Mm) V diag(lambda), (K + Mm)-orthonormal columns
        p = square_pencil(16, bc=bc)
        s = solve_weighted(p, 1.0, 8, dense_limit=dense_limit)
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
        d = solve_weighted(p, 0.0, 8)
        s = solve_weighted(p, 0.0, 8, dense_limit=50)
        assert s.meta["method"] == "sparse-lanczos"
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-7)
        np.testing.assert_allclose(s.neg, d.neg, rtol=1e-7)

    def test_sparse_matches_dense_regularized(self):
        p = square_pencil(16, halves_weight(1.0, -1.0), BoundarySpec.neumann())
        d = solve_weighted(p, 0.5, 6)
        s = solve_weighted(p, 0.5, 6, dense_limit=50)
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-7)
        np.testing.assert_allclose(s.neg, d.neg, rtol=1e-7)

    def test_sparse_determinism(self):
        p = square_pencil(16, halves_weight(2.0, -1.0))
        a = solve_weighted(p, 0.0, 6, dense_limit=50, seed=7)
        b = solve_weighted(p, 0.0, 6, dense_limit=50, seed=7)
        assert np.array_equal(a.pos, b.pos)
        assert np.array_equal(a.neg, b.neg)

    def test_element_order_invariance(self):
        m = generate_unit_square(10)
        rng = np.random.default_rng(3)
        perm = rng.permutation(m.num_triangles)
        m2 = Mesh(m.vertices, m.triangles[perm], m.boundary_edges, m.level)
        w = halves_weight(2.0, -1.0)
        a = solve_weighted(assemble(m, euclidean_metric(), w,
                                    BoundarySpec.dirichlet()), 0.0, 8)
        b = solve_weighted(assemble(m2, euclidean_metric(), w,
                                    BoundarySpec.dirichlet()), 0.0, 8)
        np.testing.assert_allclose(a.pos, b.pos, rtol=1e-10)
        np.testing.assert_allclose(a.neg, b.neg, rtol=1e-10)

    @pytest.mark.parametrize("dense_limit", [3000, 50])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_eigenvector_orthonormality(self, t, dense_limit):
        p = square_pencil(12, halves_weight(2.0, -1.0))
        s = solve_weighted(p, t, 6, dense_limit=dense_limit)
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
        lying = Pencil(p.K, p.Mm, p.R, p.free_dofs, p.r, 0, p.mesh, p.bc,
                       p.quad_order, p.rho_range)
        with pytest.raises(SolverError):
            solve_weighted(lying, 0.0, 2)

    @pytest.mark.parametrize("w", [constant_weight(1.0),
                                   halves_weight(1.0, -1.0)])
    def test_non_coercive_without_constraint_sparse(self, w):
        # the symmetric factorization must see the singular K, not invert
        # it into eigenvalues of about 1e15
        from roughweyl import Pencil

        p = square_pencil(20, w, BoundarySpec.neumann())
        lying = Pencil(p.K, p.Mm, p.R, p.free_dofs, p.r, 0, p.mesh, p.bc,
                       p.quad_order, p.rho_range)
        with pytest.raises(SolverError, match="could not be factorized"):
            solve_weighted(lying, 0.0, 2, dense_limit=0)


class TestSparseBothEnds:
    """Sign-changing weights on the sparse paths against the dense oracle."""

    @staticmethod
    def _agree(p, k_each):
        d = solve_weighted(p, 0.0, k_each)
        s = solve_weighted(p, 0.0, k_each, dense_limit=0)
        assert s.meta["method"] != "dense"
        assert (len(s.pos), len(s.neg)) == (len(d.pos), len(d.neg))
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-9)
        np.testing.assert_allclose(s.neg, d.neg, rtol=1e-9)
        return s

    @pytest.fixture
    def eigsh_calls(self, monkeypatch):
        """The `which` of every ARPACK run, in order."""
        import scipy.sparse.linalg as sla

        calls = []
        eigsh = sla.eigsh

        def spy(*args, **kwargs):
            calls.append(kwargs["which"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(sla, "eigsh", spy)
        return calls

    def test_one_lanczos_run_serves_both_signs(self, eigsh_calls):
        for bc in (BoundarySpec.dirichlet(), BoundarySpec.neumann()):
            p = square_pencil(12, halves_weight(1.0, -0.5), bc)
            solve_weighted(p, 0.0, 8, dense_limit=0)
        assert eigsh_calls == ["BE", "BE"]

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

    def test_k_each_at_n_free(self, eigsh_calls):
        # 2 k_each exceeds what one run can return: each end is solved
        # apart, at n_free - 2, the most Lanczos reaches
        p = square_pencil(24, expression_weight("x + y - 0.3"))
        s = self._agree(p, p.n_free - 2)
        assert eigsh_calls == ["LA", "SA"]
        assert (len(s.pos), len(s.neg)) == (508, 21)


class TestLanczosReach:
    """Lanczos returns at most n - 2 values per end; pencils it cannot
    serve go dense whatever dense_limit says."""

    def test_single_sign_k_each_at_n_free(self):
        p = square_pencil(6)
        assert p.n_free == 25
        dense = solve_weighted(p, 0.0, p.n_free)
        s = solve_weighted(p, 0.0, p.n_free, dense_limit=0)
        assert s.meta["method"] == "dense"
        assert len(s.pos) == p.n_free
        np.testing.assert_array_equal(s.pos, dense.pos)

    SOLVES = {
        "weighted": lambda p, **kw: solve_weighted(p, 0.0, p.n_free, **kw).pos,
        # no dense limit to pass: the reach rule alone sends n <= 2 dense
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
        np.testing.assert_array_equal(solve(p, dense_limit=0), solve(p))


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

    def test_sparse_semidefinite_matches_dense(self):
        p = square_pencil(16, bc=BoundarySpec.neumann())
        d = solve_weighted(p, 0.0, 5)
        s = solve_weighted(p, 0.0, 5, dense_limit=50)
        assert s.meta["method"] == "sparse-projected"
        assert len(s.neg) == 0
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-7)

    def test_sparse_indefinite_matches_dense(self):
        w = expression_weight("x - 0.3")  # sign-changing, mean 0.2
        p = square_pencil(16, w, BoundarySpec.neumann())
        assert p.tau == 1
        d = solve_weighted(p, 0.0, 6)
        s = solve_weighted(p, 0.0, 6, dense_limit=50)
        np.testing.assert_allclose(s.pos, d.pos, rtol=1e-7)
        np.testing.assert_allclose(s.neg, d.neg, rtol=1e-7)
        assert np.abs(p.r_free @ s.vec_pos).max() < 1e-10

    def test_negative_only_weight(self):
        w = WeightField(lambda pts: -np.ones(len(pts)), beta=2.0)
        p = square_pencil(12, w, BoundarySpec.neumann())
        s = solve_weighted(p, 0.0, 4)
        assert len(s.pos) == 0
        np.testing.assert_allclose(s.neg[0] * PI2, 1.0, rtol=1e-2)


class TestSparseConstrained:
    """The oblique pencil of the pure-Neumann t = 0 solve against the dense
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
        d = solve_weighted(p, 0.0, 12)
        s = solve_weighted(p, 0.0, 12, dense_limit=0)
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
        r = p.r * (1.0 + p.mesh.vertices[:, 0])
        q = Pencil(p.K, p.Mm, p.R, p.free_dofs, r, 1, p.mesh, p.bc,
                   p.quad_order, p.rho_range)
        d = solve_weighted(q, 0.0, 12)
        s = solve_weighted(q, 0.0, 12, dense_limit=0)
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
            solve_weighted(square_pencil(12, w, bc), t, 8, dense_limit=0)
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

    @pytest.mark.parametrize("dense_limit", [3000, 0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values_match_eigenpair_solve(self, monkeypatch, case,
                                          dense_limit):
        import roughweyl.spectral

        drivers = []
        eigh = roughweyl.spectral.eigh

        def spy(*args, **kwargs):
            drivers.append(kwargs.get("driver"))
            return eigh(*args, **kwargs)

        monkeypatch.setattr(roughweyl.spectral, "eigh", spy)
        w, bc, t = self.CASES[case]
        p = square_pencil(16, w, bc)
        forms = [(A, A.data.copy(), A.indices.copy(), A.indptr.copy())
                 for A in (p.Kf, p.Mmf, p.Rf)]
        k_each = p.n_free - 2 if case == "k_each_at_n_free" else 20
        full = solve_weighted(p, t, k_each, dense_limit=dense_limit)
        only = solve_weighted(p, t, k_each, dense_limit=dense_limit,
                              vectors=False)
        # eigenpairs by divide and conquer, eigenvalues alone by dsygv
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
        import scipy.sparse.linalg as sla

        calls = []
        eigsh = sla.eigsh

        def spy(*args, **kwargs):
            calls.append((kwargs["which"], kwargs["return_eigenvectors"]))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(sla, "eigsh", spy)
        p = square_pencil(16, halves_weight(1.0, -0.5), BoundarySpec.neumann())
        solve_weighted(p, 0.0, 8, dense_limit=0, vectors=False)
        assert calls == [("BE", False)]


class TestProjectConstraint:
    def test_dirichlet_identity(self):
        assert project_constraint(square_pencil(6)) is None

    def test_neumann_rank_one_drop(self):
        p = square_pencil(6, bc=BoundarySpec.neumann())
        np.testing.assert_array_equal(project_constraint(p), p.r_free)
        s = solve_weighted(p, 0.0, k_each=p.n_free, vectors=False)
        assert len(s.pos) == p.n_free - 1 and len(s.neg) == 0

    def test_basis_orthonormal_and_feasible(self):
        p = square_pencil(6, bc=BoundarySpec.neumann())
        Q = _Householder(project_constraint(p)).basis()
        assert Q.shape == (p.n_free, p.n_free - 1)
        np.testing.assert_allclose(Q.T @ Q, np.eye(p.n_free - 1), atol=1e-12)
        assert np.abs(p.r_free @ Q).max() < 1e-12 * np.abs(p.r_free).sum()

    def test_zero_weight_integral_rejected(self):
        p = square_pencil(8, halves_weight(1.0, -1.0), BoundarySpec.neumann())
        with pytest.raises(ModelingError):
            project_constraint(p)
        with pytest.raises(ModelingError):
            solve_weighted(p, 0.0, 2)

    def test_vanishing_constraint_vector_rejected(self):
        w = WeightField(lambda pts: np.zeros(len(pts)), beta=2.0)
        p = square_pencil(6, w, BoundarySpec.neumann())
        with pytest.raises(ModelingError):
            project_constraint(p)

    def test_regularized_solve_needs_no_constraint(self):
        # t > 0 restores coercivity on the whole space: zero-mean weights pass
        p = square_pencil(8, halves_weight(1.0, -1.0), BoundarySpec.neumann())
        s = solve_weighted(p, 1.0, 4)
        assert not s.meta["constrained"]
        assert len(s.pos) == 4 and len(s.neg) == 4


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
