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
    extend_by_zero,
    generate_unit_square,
    halves_weight,
    project_constraint,
    solve_laplace,
    solve_weighted,
)

PI2 = np.pi ** 2
# separation of variables on [0,1]^2: Lambda = pi^2 (j^2 + k^2)
DIRICHLET_TARGETS = PI2 * np.array([2.0, 5.0, 5.0, 8.0, 10.0, 10.0])


def square_pencil(n, w=None, bc=None):
    return assemble(generate_unit_square(n), euclidean_metric(),
                    w or constant_weight(1.0), bc or BoundarySpec.dirichlet())


class TestSolveLaplace:
    def test_dirichlet_targets(self):
        lam = solve_laplace(square_pencil(32), 6)
        rel = np.abs(lam / DIRICHLET_TARGETS - 1.0)
        assert rel.max() < 0.012

    def test_dirichlet_convergence_rate(self):
        errs = [solve_laplace(square_pencil(n), 1)[0] / DIRICHLET_TARGETS[0] - 1.0
                for n in (8, 16, 32)]
        for a, b in zip(errs, errs[1:]):
            assert 3.5 < a / b < 4.5

    def test_neumann_zero_mode(self):
        p = square_pencil(16, bc=BoundarySpec.neumann())
        lam, V = solve_laplace(p, 3, return_vectors=True)
        assert abs(lam[0]) < 1e-8
        const = V[:, 0]
        assert const.std() / abs(const.mean()) < 1e-8
        np.testing.assert_allclose(lam[1], PI2, rtol=5e-3)

    def test_ascending(self):
        lam = solve_laplace(square_pencil(8), 12)
        assert np.all(np.diff(lam) >= -1e-12)

    def test_sparse_matches_dense(self):
        p = square_pencil(16)
        dense = solve_laplace(p, 10)
        sparse_vals = solve_laplace(p, 10, dense_limit=50)
        np.testing.assert_allclose(sparse_vals, dense, rtol=1e-9)


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

    def test_inverse_relation_to_laplace(self):
        p = square_pencil(16)
        s = solve_weighted(p, 0.0, 6)
        lam = solve_laplace(p, 6)
        np.testing.assert_allclose(s.pos * lam, 1.0, rtol=1e-9)

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

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_eigenvector_orthonormality(self, t):
        p = square_pencil(12, halves_weight(2.0, -1.0))
        s = solve_weighted(p, t, 6)
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

    def test_no_free_dofs(self):
        with pytest.raises(SolverError):
            solve_weighted(square_pencil(1), 0.0, 1)

    def test_non_coercive_without_constraint(self):
        # a pencil that claims tau = 0 while K is only semidefinite must
        # surface the Cholesky failure, not return garbage
        from roughweyl import Pencil

        p = square_pencil(6, bc=BoundarySpec.neumann())
        lying = Pencil(p.K, p.Mm, p.R, p.free_dofs, p.r, 0, p.mesh, p.bc,
                       p.quad_order, p.rho_range)
        with pytest.raises(SolverError):
            solve_weighted(lying, 0.0, 2)


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
        w = WeightField(lambda q: -1.0, beta=2.0,
                        eval_batch=lambda pts: -np.ones(len(pts)))
        p = square_pencil(12, w, BoundarySpec.neumann())
        s = solve_weighted(p, 0.0, 4)
        assert len(s.pos) == 0
        np.testing.assert_allclose(s.neg[0] * PI2, 1.0, rtol=1e-2)


class TestProjectConstraint:
    def test_dirichlet_identity(self):
        p = square_pencil(6)
        proj = project_constraint(p)
        assert proj.is_identity
        assert proj.dim == p.n_free
        v = np.arange(p.n_free, dtype=float)
        np.testing.assert_array_equal(proj.apply(v), v)

    def test_neumann_rank_one_drop(self):
        p = square_pencil(6, bc=BoundarySpec.neumann())
        proj = project_constraint(p)
        assert proj.dim == p.n_free - 1
        rng = np.random.default_rng(0)
        v = rng.standard_normal(p.n_free)
        pv = proj.apply(v)
        assert abs(p.r_free @ pv) < 1e-12 * np.abs(p.r_free).sum()
        np.testing.assert_allclose(proj.apply(pv), pv, atol=1e-14)

    def test_basis_orthonormal_and_feasible(self):
        p = square_pencil(6, bc=BoundarySpec.neumann())
        proj = project_constraint(p)
        Q = proj.basis()
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
        w = WeightField(lambda q: 0.0, beta=2.0,
                        eval_batch=lambda pts: np.zeros(len(pts)))
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

    def test_extend_by_zero(self):
        p = square_pencil(4)
        s = solve_weighted(p, 0.0, 2)
        full = extend_by_zero(p, s.vec_pos)
        assert full.shape == (p.n_vertices, 2)
        boundary = np.setdiff1d(np.arange(p.n_vertices), p.free_dofs)
        assert np.all(full[boundary] == 0.0)
        np.testing.assert_array_equal(full[p.free_dofs], s.vec_pos)
