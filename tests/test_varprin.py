import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, eigh, qr, solve_triangular

from roughweyl import (
    BoundarySpec,
    SolverError,
    assemble,
    checkerboard_weight,
    constant_weight,
    expression_weight,
    euclidean_metric,
    generate_disk,
    generate_unit_square,
    graph_cone_metric,
    halves_weight,
    solve_weighted,
)
from roughweyl.cli import named_partition
from roughweyl.spectral import Spectrum, project_constraint
from roughweyl.varprin import (
    check_bracketing,
    check_courant,
    check_inertia,
    check_poincare_minmax,
    check_rayleigh,
    check_sandwich,
    save_report,
)

TOL = 1e-9


def dirichlet_problem(n=12, w=None):
    m = generate_unit_square(n)
    p = assemble(m, euclidean_metric(), w or constant_weight(1.0),
                 BoundarySpec.dirichlet())
    return m, p


def triples(rep, label):
    """Rows (nu_k, lambda_k, eta_k) of a bracketing report side, over the
    range where all three sequences have values."""
    side = rep[label]
    rows = list(zip(side["nu"], side["lam"], side["eta"]))
    return np.array(rows).reshape(-1, 3)


def bracket(m, partition, g, w, bc, t, k_max=50, mode="auto"):
    """check_bracketing against the global spectrum at t, solved by `mode`
    for k_max eigenvalues per sign, eigenvalues only."""
    s = solve_weighted(assemble(m, g, w, bc), t, k_each=k_max, mode=mode,
                       vectors=False)
    return check_bracketing(s, m, partition, g, w, bc, k_max=k_max,
                            mode=mode)


def sandwich(p, t_list=(0.5, 0.1, 0.02), k_max=100, mode="auto"):
    """check_sandwich against the t = 0 spectrum of p, solved by `mode` for
    k_max + tau eigenvalues per sign, eigenvalues only."""
    s0 = solve_weighted(p, 0.0, k_each=k_max + p.tau, mode=mode,
                        vectors=False)
    return check_sandwich(s0, p, t_list, k_max=k_max, mode=mode)


def quadrant_partition(m):
    cen = m.vertices[m.triangles].mean(axis=1)
    return [
        np.nonzero(((cen[:, 0] > 0.5) == ix) & ((cen[:, 1] > 0.5) == iy))[0]
        for ix in (False, True) for iy in (False, True)
    ]


class TestPoincareMinmax:
    def test_random_subspaces_stay_below_lambda_k(self):
        _, p = dirichlet_problem()
        s = solve_weighted(p, 0.0, k_each=8)
        rep = check_poincare_minmax(s, p, 3, trials=100, seed=0)
        assert rep["passed"]
        side = rep["sides"]["plus"]
        assert side["violations"] == 0
        assert side["worst_margin"] >= -TOL

    def test_eigenvector_span_attains_equality(self):
        _, p = dirichlet_problem()
        s = solve_weighted(p, 0.0, k_each=8)
        for k in (1, 3, 5):
            rep = check_poincare_minmax(s, p, k, trials=5, seed=0)
            assert rep["sides"]["plus"]["attainment_gap"] <= TOL

    def test_indefinite_weight_checks_both_sides(self):
        _, p = dirichlet_problem(w=halves_weight(1.0, -1.0))
        s = solve_weighted(p, 0.0, k_each=6)
        rep = check_poincare_minmax(s, p, 2, trials=50, seed=4)
        assert set(rep["sides"]) == {"plus", "minus"}
        assert rep["passed"]

    def test_constrained_neumann_spectrum(self):
        m = generate_unit_square(12)
        p = assemble(m, euclidean_metric(), constant_weight(1.0),
                     BoundarySpec.neumann())
        s = solve_weighted(p, 0.0, k_each=6)
        assert s.meta["constrained"]
        rep = check_poincare_minmax(s, p, 2, trials=50, seed=5)
        assert rep["passed"]
        assert set(rep["sides"]) == {"plus"}

    @pytest.mark.parametrize("bc, t", [("neumann", 0.0), ("neumann", 0.5),
                                       ("dirichlet", 0.0)])
    def test_spectrum_posed_otherwise_refused(self, bc, t):
        # the checked forms come from the pencil at the spectrum's t; a
        # spectrum that claims the other constraint state is refused, not
        # checked against forms of another problem
        p = assemble(generate_unit_square(8), euclidean_metric(),
                     constant_weight(1.0), getattr(BoundarySpec, bc)())
        s = solve_weighted(p, t, k_each=4)
        s.meta["constrained"] = not s.meta["constrained"]
        with pytest.raises(ValueError, match="constrained"):
            check_poincare_minmax(s, p, 2, trials=5, seed=0)

    def test_same_seed_reproduces_report(self):
        _, p = dirichlet_problem(n=8)
        s = solve_weighted(p, 0.0, k_each=6)
        a = check_poincare_minmax(s, p, 3, trials=30, seed=11)
        b = check_poincare_minmax(s, p, 3, trials=30, seed=11)
        c = check_poincare_minmax(s, p, 3, trials=30, seed=12)
        assert a == b
        assert (a["sides"]["plus"]["worst_margin"]
                != c["sides"]["plus"]["worst_margin"])


class TestRayleigh:
    def test_orthogonalized_vectors_bounded_by_lambda_k(self):
        _, p = dirichlet_problem()
        s = solve_weighted(p, 0.0, k_each=8)
        rep = check_rayleigh(s, p, 4, trials=100, seed=0)
        assert rep["passed"]
        assert rep["sides"]["plus"]["violations"] == 0

    def test_k_equal_one_bounds_whole_space(self):
        # empty orthogonality set: every ratio sits below lambda_1
        _, p = dirichlet_problem()
        s = solve_weighted(p, 0.0, k_each=4)
        rep = check_rayleigh(s, p, 1, trials=200, seed=3)
        assert rep["passed"]
        assert rep["sides"]["plus"]["worst_margin"] >= 0.0

    def test_kth_eigenvector_attains_equality(self):
        _, p = dirichlet_problem(w=halves_weight(1.0, -1.0))
        s = solve_weighted(p, 0.0, k_each=6)
        for k in (1, 2, 4):
            rep = check_rayleigh(s, p, k, trials=5, seed=0)
            for side in rep["sides"].values():
                assert side["attainment_gap"] <= TOL

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_bound_holds_for_any_seed(self, k, seed):
        m = generate_unit_square(6)
        p = assemble(m, euclidean_metric(), halves_weight(1.0, -2.0),
                     BoundarySpec.dirichlet())
        s = solve_weighted(p, 0.0, k_each=5)
        rep = check_rayleigh(s, p, k, trials=10, seed=seed)
        assert rep["passed"]


class TestCourant:
    def test_codimension_subspaces_reach_lambda_k(self):
        _, p = dirichlet_problem()
        s = solve_weighted(p, 0.0, k_each=8)
        rep = check_courant(s, p, 4, trials=50, seed=0)
        assert rep["passed"]
        assert rep["sides"]["plus"]["violations"] == 0

    def test_eigenvector_complement_attains_equality(self):
        _, p = dirichlet_problem()
        s = solve_weighted(p, 0.0, k_each=8)
        for k in (1, 2, 5):
            rep = check_courant(s, p, k, trials=3, seed=0)
            assert rep["sides"]["plus"]["attainment_gap"] <= TOL

    def test_indefinite_and_constrained_runs(self):
        _, p = dirichlet_problem(n=8, w=checkerboard_weight(1.0, -1.0))
        s = solve_weighted(p, 0.0, k_each=4)
        rep = check_courant(s, p, 2, trials=25, seed=1)
        assert set(rep["sides"]) == {"plus", "minus"}
        assert rep["passed"]

        m = generate_unit_square(8)
        pn = assemble(m, euclidean_metric(), constant_weight(1.0),
                      BoundarySpec.neumann())
        sn = solve_weighted(pn, 0.0, k_each=4)
        rep = check_courant(sn, pn, 2, trials=25, seed=1)
        assert rep["passed"]


class TestNothingToCompare:
    @pytest.mark.parametrize("check", [
        lambda m, p, s: check_poincare_minmax(s, p, 0),
        lambda m, p, s: check_poincare_minmax(s, p, 2, trials=0),
        lambda m, p, s: check_rayleigh(s, p, 0),
        lambda m, p, s: check_rayleigh(s, p, 2, trials=0),
        lambda m, p, s: check_courant(s, p, 0),
        lambda m, p, s: check_courant(s, p, 2, trials=0),
        lambda m, p, s: check_bracketing(
            s, m, quadrant_partition(m), euclidean_metric(),
            constant_weight(1.0), BoundarySpec.dirichlet(), k_max=0),
        lambda m, p, s: check_sandwich(s, p, k_max=0),
    ], ids=["minmax-k", "minmax-trials", "rayleigh-k", "rayleigh-trials",
            "courant-k", "courant-trials", "bracketing", "sandwich"])
    def test_depth_and_trials_below_one_rejected(self, check):
        m, p = dirichlet_problem(4)
        s = solve_weighted(p, 0.0, k_each=4)
        with pytest.raises(ValueError, match="must be >= 1"):
            check(m, p, s)


class TestInertiaCertificate:
    """`check_inertia` counts the computed values above each probe in a
    gap of the spectrum and compares with the exact Sylvester count."""

    PROBLEMS = {
        "dirichlet_halves": (halves_weight(1.0, -1.0),
                             BoundarySpec.dirichlet()),
        "dirichlet_unbalanced": (expression_weight("x - 0.9"),
                                 BoundarySpec.dirichlet()),
        "neumann_halves": (halves_weight(1.0, -0.5), BoundarySpec.neumann()),
    }

    @pytest.fixture(scope="class", params=[
        (case, t) for case in sorted(PROBLEMS) for t in (0.0, 1.0)],
        ids=lambda c: "{}-t{:g}".format(*c))
    def solved(self, request):
        case, t = request.param
        w, bc = self.PROBLEMS[case]
        p = assemble(generate_unit_square(24), euclidean_metric(), w, bc)
        return p, solve_weighted(p, t, k_each=40, mode="dense",
                                 vectors=False)

    def test_correct_spectrum_passes(self, solved):
        p, s = solved
        rep = check_inertia(s, p)
        assert rep["passed"], rep
        assert rep["check"] == "inertia_consistent"
        assert rep["t"] == s.meta["t"]
        assert {d["probes"] for d in rep["sides"].values()} == {39}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_dropped_eigenpair_fails(self, solved, sign):
        p, s = solved
        pos, neg = s.pos, s.neg
        dropped = s.values(sign)[5]
        if sign == 1:
            pos = np.delete(pos, 5)
        else:
            neg = np.delete(neg, 5)
        rep = check_inertia(Spectrum(pos, neg, meta=s.meta), p)
        assert not rep["passed"]
        label, other = ("plus", "minus") if sign == 1 else ("minus", "plus")
        # the probes below the missing value count one too few
        bad = rep["sides"][label]["mismatches"]
        assert len(bad) >= rep["sides"][label]["probes"] - 6
        assert all(m["s"] < dropped for m in bad)
        assert all(m["inertia"] == m["computed"] + 1 for m in bad)
        assert rep["sides"][other]["mismatches"] == []

    def test_spectrum_of_another_pencil_rejected(self, solved):
        p, s = solved
        other = assemble(generate_unit_square(8), euclidean_metric(),
                         constant_weight(1.0), BoundarySpec.dirichlet())
        with pytest.raises(ValueError, match="free DOFs"):
            check_inertia(s, other)

    def test_nothing_to_probe_fails(self):
        _, p = dirichlet_problem(6)
        s = solve_weighted(p, 0.0, k_each=1)
        assert check_inertia(s, p)["passed"] is False


class TestEigenvaluesOnlySpectrum:
    @pytest.mark.parametrize("check", [check_poincare_minmax, check_rayleigh,
                                       check_courant])
    @pytest.mark.parametrize("bc", [BoundarySpec.dirichlet(),
                                    BoundarySpec.neumann()])
    def test_checkers_reject_spectrum_without_vectors(self, check, bc):
        p = assemble(generate_unit_square(8), euclidean_metric(),
                     halves_weight(1.0, -0.5), bc)
        s = solve_weighted(p, 0.0, k_each=4)
        bare = Spectrum(s.pos, s.neg, meta=s.meta)
        with pytest.raises(ValueError, match="carries no eigenvectors"):
            check(bare, p, 2, trials=5, seed=0)
        with pytest.raises(ValueError, match="carries no eigenvectors"):
            check(solve_weighted(p, 0.0, k_each=4, vectors=False), p, 2,
                  trials=5, seed=0)


class TestDenseCap:
    @pytest.mark.parametrize("check", [check_poincare_minmax, check_rayleigh,
                                       check_courant])
    def test_checkers_refuse_pencil_above_the_cap(self, monkeypatch, check):
        # the L6 Dirichlet square: 3969 free DOFs, above the 3000-row cap
        p = assemble(generate_unit_square(64), euclidean_metric(),
                     constant_weight(1.0), BoundarySpec.dirichlet())
        s = solve_weighted(p, 0.0, k_each=2)
        assert s.meta["method"] == "sparse-lanczos"

        def fail(self, *args, **kwargs):
            raise AssertionError("densified above the cap")

        monkeypatch.setattr(type(p.Kf), "toarray", fail)
        with pytest.raises(SolverError, match="3969 rows.*3000-row cap"):
            check(s, p, 1, trials=1)


def reference_operators(s, p):
    """Dense (Kt, R, vec_pos, vec_neg) of the checked pencil. On a
    constrained spectrum, the grounded pencil (G^T R G, G^T K G) of the
    explicit dense G = Pi E: E embeds n - 1 coordinates as v_0 = 0, and
    Pi = I - 1 r^T / (r . 1) projects onto {r . v = 0} along the constants.
    Each eigenvector v is then the u that solves G u = v."""
    Kt = p.Kf.toarray() + s.meta["t"] * p.Mmf.toarray()
    R = p.Rf.toarray()
    vecs = [s.vec_pos, s.vec_neg]
    if s.meta["constrained"]:
        r = project_constraint(p)
        n = len(r)
        G = (np.eye(n) - np.outer(np.ones(n), r) / r.sum())[:, 1:]
        Kt, R = G.T @ Kt @ G, G.T @ R @ G
        vecs = [V if V is None else np.linalg.lstsq(G, V, rcond=None)[0]
                for V in vecs]
    return (Kt, R, *vecs)


def minmax_reference(s, p, k, trials, seed):
    """Max-min margins by an E_t-orthonormal basis: X is divided by the
    Cholesky factor of X^T Kt X, and eigvalsh of X^T R X gives the
    extremum over span(X). Same draws as check_poincare_minmax; returns,
    per side, (lambda_k, worst margin, attainment gap)."""
    Kt, R, vp, vn = reference_operators(s, p)
    n = Kt.shape[0]
    rng = np.random.default_rng(seed)

    def extremum(X, sign):
        L = cholesky(X.T @ Kt @ X, lower=True)
        X = solve_triangular(L, X.T, lower=True).T
        ritz = np.linalg.eigvalsh(X.T @ R @ X)
        return sign * (ritz[0] if sign == 1 else ritz[-1])

    out = {}
    for label, vals, vecs, sign in (("plus", s.pos, vp, 1),
                                    ("minus", s.neg, vn, -1)):
        if len(vals) < k:
            continue
        lam_k = float(vals[k - 1])
        worst = min(lam_k - extremum(rng.standard_normal((n, k)), sign)
                    for _ in range(trials))
        gap = abs(extremum(vecs[:, :k], sign) - lam_k)
        out[label] = (lam_k, worst, gap)
    return out


class TestMinmaxProjectedPencil:
    """check_poincare_minmax against the orthonormal-basis formula it
    replaced."""

    @pytest.mark.parametrize("case", ["dirichlet", "mirror", "neumann"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_margins_match_orthonormal_basis(self, case, k):
        if case == "neumann":
            p = assemble(generate_unit_square(10), euclidean_metric(),
                         constant_weight(1.0), BoundarySpec.neumann())
        else:
            w = halves_weight(1.0, -1.0) if case == "mirror" else None
            _, p = dirichlet_problem(n=10, w=w)
        s = solve_weighted(p, 0.0, k_each=6)
        rep = check_poincare_minmax(s, p, k, trials=15, seed=2)
        ref = minmax_reference(s, p, k, trials=15, seed=2)
        assert set(rep["sides"]) == set(ref)
        if case == "mirror":
            assert set(ref) == {"plus", "minus"}
        for label, (lam_k, worst, gap) in ref.items():
            side = rep["sides"][label]
            assert side["worst_margin"] == pytest.approx(worst, rel=0,
                                                         abs=1e-10 * lam_k)
            assert side["attainment_gap"] == pytest.approx(gap, rel=0,
                                                           abs=1e-10 * lam_k)
            assert side["violations"] == 0


def courant_reference(s, p, k, trials, seed):
    """Courant margins by the projected generalized pencil: a full QR of
    Kt Y gives a basis B of the complement, and eigh(B^T R B, B^T Kt B)
    its extremum. Same draws as check_courant; returns, per side,
    (lambda_k, worst margin, attainment gap)."""
    Kt, R, vp, vn = reference_operators(s, p)
    n = Kt.shape[0]
    rng = np.random.default_rng(seed)

    def extremum(Y, sign):
        Qf, _ = qr(Kt @ Y, mode="full")
        B = Qf[:, Y.shape[1]:]
        vals = eigh(B.T @ R @ B, B.T @ Kt @ B, eigvals_only=True)
        return sign * (vals[-1] if sign == 1 else vals[0])

    out = {}
    for label, vals, vecs, sign in (("plus", s.pos, vp, 1),
                                    ("minus", s.neg, vn, -1)):
        if len(vals) < k:
            continue
        lam_k = float(vals[k - 1])
        worst = min(extremum(rng.standard_normal((n, k - 1)), sign) - lam_k
                    for _ in range(trials))
        gap = abs(extremum(vecs[:, : k - 1], sign) - lam_k)
        out[label] = (lam_k, worst, gap)
    return out


class TestCourantStandardForm:
    """check_courant against the projected-pencil formula it replaced."""

    @pytest.mark.parametrize("case", ["k1", "neumann", "two_sided"])
    def test_margins_match_projected_pencil(self, case):
        k = 1 if case == "k1" else 3
        if case == "neumann":
            p = assemble(generate_unit_square(10), euclidean_metric(),
                         constant_weight(1.0), BoundarySpec.neumann())
        elif case == "two_sided":
            _, p = dirichlet_problem(n=10, w=halves_weight(2.0, -1.0))
        else:
            _, p = dirichlet_problem(n=10)
        s = solve_weighted(p, 0.0, k_each=6)
        rep = check_courant(s, p, k, trials=15, seed=2)
        ref = courant_reference(s, p, k, trials=15, seed=2)
        assert set(rep["sides"]) == set(ref)
        if case == "two_sided":
            assert set(ref) == {"plus", "minus"}
        for label, (lam_k, worst, gap) in ref.items():
            side = rep["sides"][label]
            assert side["worst_margin"] == pytest.approx(worst, rel=0,
                                                         abs=1e-10 * lam_k)
            assert side["attainment_gap"] <= gap + 1e-10 * lam_k
            assert side["attainment_gap"] <= TOL


class TestBracketing:
    def test_trivial_partition_gives_equalities(self):
        m, _ = dirichlet_problem(n=8)
        rep = bracket(m, [range(m.num_triangles)], euclidean_metric(),
                      constant_weight(1.0), BoundarySpec.dirichlet(), 1.0,
                      k_max=40)
        assert rep["passed"]
        tri = triples(rep, "plus")
        assert np.abs(tri[:, 0] - tri[:, 1]).max() <= 1e-12
        assert np.abs(tri[:, 2] - tri[:, 1]).max() <= 1e-12

    def test_left_right_halves_bracket_global_values(self):
        m, _ = dirichlet_problem(n=8)
        cx = m.vertices[m.triangles].mean(axis=1)[:, 0]
        parts = [np.nonzero(cx < 0.5)[0], np.nonzero(cx > 0.5)[0]]
        rep = bracket(m, parts, euclidean_metric(), constant_weight(1.0),
                      BoundarySpec.dirichlet(), 1.0, k_max=50)
        assert rep["passed"]
        tri = triples(rep, "plus")
        # interface elimination leaves fewer Dirichlet-side eigenvalues
        assert 0 < tri.shape[0] < 50
        assert (tri[:, 1] - tri[:, 0]).min() >= -TOL
        assert (tri[:, 2] - tri[:, 1]).min() >= -TOL

    def test_quadrant_partition_with_sign_changing_weight(self):
        m, _ = dirichlet_problem(n=8)
        cen = m.vertices[m.triangles].mean(axis=1)
        parts = [
            np.nonzero(((cen[:, 0] > 0.5) == ix) & ((cen[:, 1] > 0.5) == iy))[0]
            for ix in (False, True) for iy in (False, True)
        ]
        rep = bracket(m, parts, euclidean_metric(),
                      checkerboard_weight(1.0, -1.0),
                      BoundarySpec.dirichlet(), 1.0, k_max=20)
        assert rep["passed"]
        assert triples(rep, "plus").shape[0] > 0
        assert triples(rep, "minus").shape[0] > 0

    def test_neumann_global_condition(self):
        m, _ = dirichlet_problem(n=8)
        cx = m.vertices[m.triangles].mean(axis=1)[:, 0]
        parts = [np.nonzero(cx < 0.5)[0], np.nonzero(cx > 0.5)[0]]
        rep = bracket(m, parts, euclidean_metric(), constant_weight(1.0),
                      BoundarySpec.neumann(), 0.5, k_max=30)
        assert rep["passed"]

    @pytest.mark.parametrize("domain, scheme, bc", [
        pytest.param("square", scheme, bc, id="{}-{}".format(name, scheme))
        for name, bc in (("dirichlet", BoundarySpec.dirichlet()),
                         ("neumann", BoundarySpec.neumann()))
        for scheme in ("halves", "quadrants")
    ] + [
        # the quadrant cut of the disk does not follow mesh edges
        pytest.param("disk", "quadrants", BoundarySpec.neumann(),
                     id="disk-neumann-quadrants"),
        pytest.param("square", "quadrants", BoundarySpec.mixed((1, 2)),
                     id="mixed-quadrants"),
    ])
    def test_subdomains_honour_dense_limit(self, monkeypatch, domain, scheme,
                                           bc):
        # the cells' solves follow `mode` as the global one does
        import scipy.linalg

        if domain == "disk":
            m, g = generate_disk(14), graph_cone_metric()
            w = halves_weight(1.0, -1.0)
        else:
            m, g = generate_unit_square(16), euclidean_metric()
            w = checkerboard_weight(1.0, -1.0, cells=4)
        p = assemble(m, g, w, bc)
        args = (m, named_partition(m, scheme), g, w, bc)
        orders = []

        def spy(a, b=None, *rest, **kwargs):
            if b is not None:
                orders.append(a.shape[0])
            return eigh(a, b, *rest, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        s = solve_weighted(p, 1.0, k_each=30, mode="dense", vectors=False)
        orders.clear()
        full = check_bracketing(s, *args, k_max=30, mode="dense")
        assert full["passed"]
        # every cell is dense: the spy sees the solves
        assert orders
        s = solve_weighted(p, 1.0, k_each=30, mode="sparse", vectors=False)
        assert s.meta["method"] != "dense"
        orders.clear()
        limited = check_bracketing(s, *args, k_max=30, mode="sparse")
        # only cells that Lanczos cannot serve go dense
        assert max(orders, default=0) <= 30 + 1
        for label in ("plus", "minus"):
            for key in ("nu", "lam", "eta"):
                got, want = limited[label][key], full[label][key]
                assert len(got) == len(want) > 0
                np.testing.assert_allclose(got, want, rtol=1e-10)
        rest = [key for key in full if key not in ("plus", "minus")]
        assert {k: limited[k] for k in rest} == {k: full[k] for k in rest}

    def test_cells_smaller_than_k_max_solved_in_full(self):
        # under "sparse" the quadrants' Dirichlet cells hold one DOF, too
        # few for Lanczos
        m = generate_unit_square(4)
        args = (m, named_partition(m, "quadrants"), euclidean_metric(),
                constant_weight(1.0), BoundarySpec.dirichlet(), 1.0)
        full = bracket(*args, k_max=5, mode="dense")
        limited = bracket(*args, k_max=5, mode="sparse")
        for key in ("nu", "eta"):
            assert limited["plus"][key] == full["plus"][key]
        np.testing.assert_allclose(limited["plus"]["lam"],
                                   full["plus"]["lam"], rtol=1e-10)

    def test_malformed_partitions_rejected(self):
        m, p = dirichlet_problem(n=4)
        g, w = euclidean_metric(), constant_weight(1.0)
        bc = BoundarySpec.dirichlet()
        s = solve_weighted(p, 1.0, k_each=50, vectors=False)
        half = list(range(m.num_triangles // 2))
        rest = list(range(m.num_triangles // 2, m.num_triangles))
        with pytest.raises(ValueError, match="cover"):
            check_bracketing(s, m, [half], g, w, bc)
        with pytest.raises(ValueError, match="overlap"):
            check_bracketing(s, m, [half, rest, half[:1]], g, w, bc)
        with pytest.raises(ValueError, match="out of range"):
            check_bracketing(s, m, [half, rest + [m.num_triangles]], g, w,
                             bc)
        with pytest.raises(ValueError, match="empty"):
            check_bracketing(s, m, [half, rest, []], g, w, bc)
        with pytest.raises(ValueError, match="repeats a triangle"):
            check_bracketing(s, m, [half + half[:1], rest], g, w, bc)

    def test_regularization_required(self):
        m, p = dirichlet_problem(n=4)
        with pytest.raises(ValueError, match="t > 0"):
            check_bracketing(solve_weighted(p, 0.0, k_each=50), m,
                             [range(m.num_triangles)], euclidean_metric(),
                             constant_weight(1.0), BoundarySpec.dirichlet())

    def test_report_serializes_to_json(self, tmp_path):
        m, _ = dirichlet_problem(n=4)
        rep = bracket(m, [range(m.num_triangles)], euclidean_metric(),
                      constant_weight(1.0), BoundarySpec.dirichlet(), 1.0,
                      k_max=10)
        path = tmp_path / "bracket.json"
        save_report(rep, path)
        loaded = json.loads(path.read_text())
        assert loaded["check"] == "bracketing"
        assert loaded["passed"] is True
        assert len(loaded["plus"]["lam"]) <= 10

    @pytest.mark.parametrize("scale, side, first", [
        (2.0, "neumann", 1),
        (0.5, "dirichlet", 2),
    ], ids=["above-eta", "below-nu"])
    def test_failing_side_reported(self, scale, side, first):
        # a global positive family scaled by 2 rises above the interface-free
        # eta, one scaled by 0.5 falls below the Dirichlet-interface nu
        m, p = dirichlet_problem(n=8)
        s = solve_weighted(p, 1.0, k_each=12, vectors=False)
        scaled = Spectrum(scale * s.pos, s.neg, meta=s.meta)
        rep = check_bracketing(scaled, m, named_partition(m, "halves"),
                               euclidean_metric(), constant_weight(1.0),
                               BoundarySpec.dirichlet(), k_max=12)
        assert rep["passed"] is False
        violations = rep["violations"]
        assert len(violations) == 11
        assert {v["sign"] for v in violations} == {"plus"}
        assert {v["side"] for v in violations} == {side}
        assert violations[0]["k"] == first
        nu, lam, eta = (rep["plus"][key] for key in ("nu", "lam", "eta"))
        for v in violations:
            j = v["k"] - 1
            want = eta[j] - lam[j] if side == "neumann" else lam[j] - nu[j]
            assert v["margin"] == want < -TOL


class TestSandwich:
    def test_dirichlet_bounds_hold(self):
        _, p = dirichlet_problem()
        rep = sandwich(p, (0.5, 0.1, 0.02), k_max=50)
        assert rep["passed"]
        assert rep["tau"] == 0
        assert "tau_shift_necessary" not in rep
        for pt in rep["per_t"]:
            side = pt["sides"]["plus"]
            assert side["lower_worst"] >= -TOL
            assert side["upper_worst"] >= -TOL

    def test_neumann_shift_required_and_sufficient(self):
        m = generate_unit_square(12)
        p = assemble(m, euclidean_metric(), constant_weight(1.0),
                     BoundarySpec.neumann())
        rep = sandwich(p, (0.5, 0.1, 0.02), k_max=30)
        assert rep["tau"] == 1
        # sufficient: shifted inequalities hold
        assert rep["passed"]
        # required: dropping the shift breaks the first comparison
        assert rep["tau_shift_necessary"] is True

    def test_sign_changing_weight_bounds_both_families(self):
        _, p = dirichlet_problem(w=halves_weight(2.0, -1.0))
        rep = sandwich(p, (0.5, 0.1), k_max=20)
        assert rep["passed"]
        assert set(rep["per_t"][0]["sides"]) == {"plus", "minus"}

    def test_pinch_tightens_as_t_shrinks(self):
        _, p = dirichlet_problem()
        rep = sandwich(p, (0.5, 0.02), k_max=40)
        gaps = [pt["sides"]["plus"]["pinch_gap"] for pt in rep["per_t"]]
        assert gaps[0] > gaps[1] > 0.0

    def test_t_values_validated(self):
        _, p = dirichlet_problem(n=4)
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError, match="in \\(0, 1\\)"):
                sandwich(p, (bad,), k_max=5)


class TestSuppliedSpectrum:
    """The sandwich and bracketing checkers take the reference spectrum
    they check only when it is of the checked pencil, at the checked t,
    and deep enough; the report reads its first k_max (+ tau) values."""

    def test_sandwich_report_unchanged(self):
        # a deeper reference than the check needs gives the same report
        _, p = dirichlet_problem(w=halves_weight(2.0, -1.0))
        deep = solve_weighted(p, 0.0, k_each=40, vectors=False)
        assert (check_sandwich(deep, p, (0.5, 0.1), k_max=20)
                == sandwich(p, (0.5, 0.1), k_max=20))

    def test_sandwich_rejects_mismatch(self):
        _, p = dirichlet_problem()
        with pytest.raises(ValueError, match="t = 0.1"):
            check_sandwich(solve_weighted(p, 0.1, k_each=10), p, (0.5,),
                           k_max=10)
        _, other = dirichlet_problem(n=10)
        with pytest.raises(ValueError, match="free DOFs"):
            check_sandwich(solve_weighted(other, 0.0, k_each=10), p, (0.5,),
                           k_max=10)
        with pytest.raises(ValueError, match="needs 10"):
            check_sandwich(solve_weighted(p, 0.0, k_each=9), p, (0.5,),
                           k_max=10)

    def test_sandwich_counts_the_constraint_shift(self):
        m = generate_unit_square(8)
        p = assemble(m, euclidean_metric(), constant_weight(1.0),
                     BoundarySpec.neumann())
        with pytest.raises(ValueError, match="needs 11"):
            check_sandwich(solve_weighted(p, 0.0, k_each=10), p, (0.5,),
                           k_max=10)
        s0 = solve_weighted(p, 0.0, k_each=11, vectors=False)
        assert check_sandwich(s0, p, (0.5,), k_max=10)["passed"]

    def test_short_family_accepted_when_the_pencil_ends(self):
        # a positive weight has no negative family at any k_each
        _, p = dirichlet_problem(n=8)
        s0 = solve_weighted(p, 0.0, k_each=10, vectors=False)
        assert len(s0.neg) == 0
        rep = check_sandwich(s0, p, (0.5,), k_max=10)
        assert rep["passed"]
        assert set(rep["per_t"][0]["sides"]) == {"plus"}

    def test_bracketing_report_unchanged(self):
        # a deeper reference than the check needs gives the same report
        w = checkerboard_weight(1.0, -1.0)
        m, p = dirichlet_problem(n=8, w=w)
        args = (m, quadrant_partition(m), euclidean_metric(), w,
                BoundarySpec.dirichlet())
        deep = solve_weighted(p, 0.5, k_each=30, vectors=False)
        assert (check_bracketing(deep, *args, k_max=12)
                == bracket(*args, 0.5, k_max=12))

    def test_bracketing_rejects_mismatch(self):
        m, p = dirichlet_problem(n=8)
        args = (m, quadrant_partition(m), euclidean_metric(),
                constant_weight(1.0), BoundarySpec.dirichlet())
        with pytest.raises(ValueError, match="t > 0"):
            check_bracketing(solve_weighted(p, 0.0, k_each=12), *args,
                             k_max=12)
        _, other = dirichlet_problem(n=6)
        with pytest.raises(ValueError, match="free DOFs"):
            check_bracketing(solve_weighted(other, 0.5, k_each=12), *args,
                             k_max=12)
        with pytest.raises(ValueError, match="needs 12"):
            check_bracketing(solve_weighted(p, 0.5, k_each=11), *args,
                             k_max=12)


class TestReportFormat:
    @pytest.mark.parametrize("check", [
        lambda m, p, s: check_poincare_minmax(s, p, 2, trials=10, seed=0),
        lambda m, p, s: check_rayleigh(s, p, 2, trials=10, seed=0),
        lambda m, p, s: check_courant(s, p, 2, trials=10, seed=0),
        lambda m, p, s: bracket(
            m, quadrant_partition(m), euclidean_metric(),
            constant_weight(1.0), BoundarySpec.dirichlet(), 1.0, k_max=10),
        lambda m, p, s: sandwich(p, (0.5,), k_max=10),
    ], ids=["minmax", "rayleigh", "courant", "bracketing", "sandwich"])
    def test_report_is_plain_json(self, check):
        m, p = dirichlet_problem(n=8)
        rep = check(m, p, solve_weighted(p, 0.0, k_each=6))
        assert json.loads(json.dumps(rep)) == rep

    def test_checker_reports_share_schema(self, tmp_path):
        _, p = dirichlet_problem(n=8)
        s = solve_weighted(p, 0.0, k_each=6)
        reports = [
            check_poincare_minmax(s, p, 2, trials=10, seed=0),
            check_rayleigh(s, p, 2, trials=10, seed=0),
            check_courant(s, p, 2, trials=10, seed=0),
        ]
        for rep in reports:
            assert {"check", "k", "trials", "seed", "tolerance", "sides",
                    "passed"} <= set(rep)
        path = tmp_path / "checks.json"
        save_report(reports, path)
        loaded = json.loads(path.read_text())
        assert [r["check"] for r in loaded] == [
            "poincare_minmax", "rayleigh", "courant"]

    def test_sandwich_report_serializes(self, tmp_path):
        _, p = dirichlet_problem(n=6)
        rep = sandwich(p, (0.5,), k_max=10)
        path = tmp_path / "sandwich.json"
        save_report(rep, path)
        assert json.loads(path.read_text())["poincare_constant"] > 0.0


FAULTS = ("correct", "scaled_up", "scaled_down", "dropped", "swapped")
CHECKERS = ("minmax", "rayleigh", "courant", "inertia", "sandwich",
            "bracketing")
# (checker, fault) pairs that pass by design. A dropped first pair leaves
# every lambda_k attained, now by the next eigenvector, and random trials
# lie far below it, so min-max and Rayleigh cannot see it (Courant's
# complement still holds the dropped vector). A scale of 1 +- 1e-6 moves
# no value across an inertia probe in the middle of a gap, and the
# sandwich and quadrant-bracketing bounds are looser than 1e-6.
PASS_BY_DESIGN = {
    ("minmax", "dropped"), ("rayleigh", "dropped"),
    ("inertia", "scaled_up"), ("inertia", "scaled_down"),
    ("sandwich", "scaled_up"), ("sandwich", "scaled_down"),
    ("bracketing", "scaled_up"), ("bracketing", "scaled_down"),
}


def inject_fault(s, fault):
    """s with one fault of `FAULTS`: both lists scaled by 1 +- 1e-6, the
    first eigenpair of each sign dropped, or the two sign families
    swapped, eigenvectors with their values."""
    vp, vn = s.vec_pos, s.vec_neg
    if fault == "correct":
        return s
    if fault == "swapped":
        return Spectrum(s.neg, s.pos, vn, vp, s.meta)
    if fault == "dropped":
        vp, vn = (None if V is None else V[:, 1:] for V in (vp, vn))
        return Spectrum(s.pos[1:], s.neg[1:], vp, vn, s.meta)
    f = {"scaled_up": 1.0 + 1e-6, "scaled_down": 1.0 - 1e-6}[fault]
    return Spectrum(f * s.pos, f * s.neg, vp, vn, s.meta)


def checker_verdicts(bc, scale, k=3, k_max=10):
    """{(checker, fault): passed} of every checker on every fault of
    `inject_fault`, on the size-8 square with the weight halves(c, -c / 2)
    at c = scale. The variational and inertia checks see the t = 0
    spectrum, the sandwich its eigenvalues, bracketing (over quadrants)
    the spectrum at t = 1."""
    m = generate_unit_square(8)
    g, w = euclidean_metric(), halves_weight(scale, -0.5 * scale)
    p = assemble(m, g, w, bc)
    s0 = solve_weighted(p, 0.0, k_each=k_max + p.tau, mode="dense")
    s1 = solve_weighted(p, 1.0, k_each=k_max, mode="dense", vectors=False)
    quadrants = named_partition(m, "quadrants")
    out = {}
    for fault in FAULTS:
        a, b = inject_fault(s0, fault), inject_fault(s1, fault)
        reports = {
            "minmax": check_poincare_minmax(a, p, k, trials=20),
            "rayleigh": check_rayleigh(a, p, k, trials=20),
            "courant": check_courant(a, p, k, trials=20),
            "inertia": check_inertia(a, p),
            "sandwich": check_sandwich(a, p, k_max=k_max),
            "bracketing": check_bracketing(b, m, quadrants, g, w, bc,
                                           k_max=k_max),
        }
        for checker, rep in reports.items():
            out[checker, fault] = rep["passed"]
    return out


class TestScaleFreeCertificates:
    """The spectrum scales with the weight, so every tolerance is relative:
    the same faults, at weight scales 1e-9, 1 and 1e8, get the same
    verdicts."""

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e8])
    @pytest.mark.parametrize("bc", [BoundarySpec.dirichlet(),
                                    BoundarySpec.neumann()],
                             ids=["dirichlet", "neumann"])
    def test_every_checker_fails_every_fault_it_can_see(self, bc, scale):
        verdicts = checker_verdicts(bc, scale)
        assert set(verdicts) == {(c, f) for c in CHECKERS for f in FAULTS}
        want = {key: key[1] == "correct" or key in PASS_BY_DESIGN
                for key in verdicts}
        assert verdicts == want

    def test_courant_passes_a_correct_spectrum_at_a_large_scale(self):
        # halves:1e8,-1e8: the attainment gap of 1e-9 is 2e-15 relative
        _, p = dirichlet_problem(n=16, w=halves_weight(1e8, -1e8))
        s = solve_weighted(p, 0.0, k_each=5, mode="dense")
        rep = check_courant(s, p, 5, trials=100)
        assert rep["passed"]
        assert max(d["attainment_gap"] for d in rep["sides"].values()) > TOL
