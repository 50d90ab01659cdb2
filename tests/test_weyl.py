import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import roughweyl.weyl
from roughweyl import (
    BoundarySpec,
    Mesh,
    WeightField,
    assemble,
    checkerboard_weight,
    constant_weight,
    euclidean_metric,
    expression_weight,
    generate_disk,
    generate_unit_square,
    graph_cone_metric,
    halves_weight,
    refine_uniform,
    solve_weighted,
)
from roughweyl.cli import build_metric, build_weight
from roughweyl.mesh import triangle_areas
from roughweyl.spectral import Spectrum
from roughweyl.weyl import (
    WeylTarget,
    convergence_study,
    counting,
    fit_limit,
    weyl_constant_factor,
    weyl_constants,
    weyl_target,
    write_spectrum_csv,
)

FOUR_PI_INV = 1.0 / (4.0 * np.pi)


def lattice_spectrum(count=500):
    """Inverse Dirichlet eigenvalues of the unit square, pi^2 (j^2 + k^2)."""
    jk = np.arange(1, 60)
    Lam = np.sort((np.pi ** 2)
                  * (jk[:, None] ** 2 + jk[None, :] ** 2).ravel())[:count]
    return Spectrum(1.0 / Lam, np.array([]), None, None, {})


class TestWeylConstantFactor:
    def test_plane_value(self):
        assert weyl_constant_factor(2) == pytest.approx(FOUR_PI_INV, rel=1e-15)

    def test_generic_formula_at_other_dimensions(self):
        # omega_3 = 4 pi / 3, so the factor is (1/(6 pi^2))^(2/3)
        assert weyl_constant_factor(3) == pytest.approx(
            (1.0 / (6.0 * np.pi ** 2)) ** (2.0 / 3.0), rel=1e-14)
        assert weyl_constant_factor(1) == pytest.approx(
            (2.0 / (2.0 * np.pi)) ** 2.0, rel=1e-14)


def test_import_leaves_scipy_special_unloaded():
    # the Weyl constant needs only the gamma function of the standard
    # library; scipy.special is a slow import nothing else needs
    code = "import sys, roughweyl; print('scipy.special' in sys.modules)"
    src = os.path.dirname(os.path.dirname(roughweyl.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


class TestWeylTarget:
    def test_unit_square_constant_weight(self):
        m = generate_unit_square(8)
        t = weyl_target(m, euclidean_metric(), constant_weight(1.0), 2)
        assert t.c_plus == pytest.approx(FOUR_PI_INV, rel=1e-13)
        assert t.c_minus == 0.0
        assert t.vol == pytest.approx(1.0, rel=1e-13)

    def test_halves_split_the_constant(self):
        m = generate_unit_square(8)
        t = weyl_target(m, euclidean_metric(), halves_weight(1.0, -1.0), 2)
        assert t.c_plus == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-12)
        assert t.c_minus == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-12)

    def test_graph_cone_disk_against_area_oracle(self):
        # det G = 2 everywhere, so the integral is sqrt(2) times the
        # triangulated area; the polygon approaches pi and c_+ -> sqrt(2)/4
        m = generate_disk(16)
        t = weyl_target(m, graph_cone_metric(), constant_weight(1.0), 2)
        area = triangle_areas(m).sum()
        assert t.c_plus == pytest.approx(np.sqrt(2.0) * area / (4.0 * np.pi),
                                         rel=1e-12)
        assert t.c_plus == pytest.approx(np.sqrt(2.0) / 4.0, rel=2e-3)
        assert t.c_minus == 0.0

    def test_relabeling_triangles_changes_nothing(self):
        m = generate_unit_square(6)
        perm = np.random.default_rng(3).permutation(m.num_triangles)
        shuffled = Mesh(m.vertices, m.triangles[perm], m.boundary_edges,
                        level=m.level)
        w = halves_weight(2.0, -0.5)
        a = weyl_target(m, euclidean_metric(), w, 2)
        b = weyl_target(shuffled, euclidean_metric(), w, 2)
        assert abs(a.c_plus - b.c_plus) <= 1e-15
        assert abs(a.c_minus - b.c_minus) <= 1e-15

    def test_refinement_invariance(self):
        m = generate_unit_square(4)
        w = halves_weight(1.0, -1.0)
        a = weyl_target(m, euclidean_metric(), w, 2)
        b = weyl_target(refine_uniform(m), euclidean_metric(), w, 2)
        assert abs(a.c_plus - b.c_plus) <= 1e-6
        assert abs(a.c_minus - b.c_minus) <= 1e-6

        md = generate_disk(8)
        c = weyl_target(md, graph_cone_metric(), constant_weight(1.0), 2)
        d = weyl_target(refine_uniform(md), graph_cone_metric(),
                        constant_weight(1.0), 2)
        assert abs(c.c_plus - d.c_plus) <= 1e-6

    def test_absolute_weight_collects_both_sides(self):
        m = generate_unit_square(8)
        base = halves_weight(1.5, -0.5)
        w_abs = WeightField(lambda pts: np.abs(base.values(pts)))
        signed = weyl_target(m, euclidean_metric(), base, 2)
        folded = weyl_target(m, euclidean_metric(), w_abs, 2)
        assert abs(folded.c_plus
                   - (signed.c_plus + signed.c_minus)) <= 1e-10
        assert folded.c_minus == 0.0

    @pytest.mark.parametrize("mesh,metric,weight", [
        ("square", "euclidean", "const:1"),
        ("square", "euclidean", "halves:1,-1"),
        ("disk", "graph_cone", "const:1"),
        ("square", "pullback:shear=0.5", "expr:x - y + 0.2"),
    ])
    def test_equals_constants_of_the_assembly_sample(self, mesh, metric,
                                                     weight):
        m = generate_unit_square(8) if mesh == "square" else generate_disk(6)
        g, w = build_metric(metric), build_weight(weight)
        p = assemble(m, g, w, BoundarySpec.dirichlet())
        a, b = weyl_target(m, g, w), weyl_constants(p.quad)
        assert (a.c_plus, a.c_minus, a.vol) == (b.c_plus, b.c_minus, b.vol)

    def test_quadrature_orders_agree_for_piecewise_constant(self):
        m = generate_unit_square(6)
        w = halves_weight(1.0, -1.0)
        values = [weyl_target(m, euclidean_metric(), w, q).c_plus
                  for q in (1, 2, 4)]
        assert max(values) - min(values) <= 1e-14

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WeylTarget(-0.1, 0.0, 1.0)


class TestCounting:
    def crafted(self):
        return Spectrum(np.array([0.5, 0.2, 0.2, 0.1]), np.array([]),
                        None, None, {})

    def test_above_top_counts_zero(self):
        assert counting(self.crafted(), 0.6, 1) == 0

    def test_just_below_simple_top_counts_one(self):
        assert counting(self.crafted(), 0.49, 1) == 1

    def test_strict_at_multiple_eigenvalue(self):
        s = self.crafted()
        assert counting(s, 0.2, 1) == 1
        assert counting(s, 0.19, 1) == 3
        assert counting(s, 0.1, 1) == 3

    def test_below_computed_range_rejected(self):
        with pytest.raises(ValueError, match="below the computed range"):
            counting(self.crafted(), 0.05, 1)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="no eigenvalues"):
            counting(self.crafted(), 0.3, -1)

    def test_nonpositive_lam_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            counting(self.crafted(), 0.0, 1)

    def test_square_dirichlet_level_counts_three(self):
        # the first three inverse eigenvalues are 1/(2 pi^2), 1/(5 pi^2) x2;
        # 2% below the pair lands between them and the next cluster
        m = generate_unit_square(32)
        p = assemble(m, euclidean_metric(), constant_weight(1.0),
                     BoundarySpec.dirichlet())
        s = solve_weighted(p, 0.0, k_each=8)
        assert counting(s, 0.98 / (5.0 * np.pi ** 2), 1) == 3
        assert counting(s, 1.0, 1) == 0

    def test_nonincreasing_in_lam(self):
        s = self.crafted()
        grid = np.linspace(0.1, 0.7, 40)
        counts = [counting(s, lam, 1) for lam in grid]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_consistent_with_multiplicity_groups(self):
        s = self.crafted()
        total = 0
        for value, mult in s.groups(1):
            assert counting(s, value, 1) == total
            total += mult


class TestFitLimit:
    def test_synthetic_reciprocal_spectrum_recovers_constant(self):
        c = 0.37
        ks = np.arange(1, 121)
        s = Spectrum(c / ks, np.array([]), None, None, {})
        for window in ((10, 40), (30, 110), None):
            fit = fit_limit(s, window)
            assert fit["sides"]["plus"]["estimate"] == pytest.approx(
                c, rel=1e-14)

    def test_lattice_oracle_slope_near_classical_constant(self):
        s = lattice_spectrum(500)
        m = generate_unit_square(4)
        tgt = weyl_target(m, euclidean_metric(), constant_weight(1.0), 2)
        plus = fit_limit(s, target=tgt)["sides"]["plus"]
        assert abs(plus["slope"] - FOUR_PI_INV) / FOUR_PI_INV < 0.05
        # Dirichlet boundary term pulls the correction negative
        assert plus["intercept"] < 0.0
        assert plus["rel_dev"] < 0.10

    def test_default_window_is_middle_third(self):
        s = lattice_spectrum(300)
        assert fit_limit(s)["window"] == [100, 200]

    def test_window_validation(self):
        s = lattice_spectrum(120)
        with pytest.raises(ValueError, match="k_lo >= 10"):
            fit_limit(s, (5, 60))
        with pytest.raises(ValueError, match="fewer than 20"):
            fit_limit(s, (10, 15))
        with pytest.raises(ValueError, match="exceeds"):
            fit_limit(s, (10, 500))

    def test_single_signed_spectrum_reports_empty_side(self):
        s = lattice_spectrum(120)
        fit = fit_limit(s, (10, 60))
        assert fit["sides"]["minus"] == "empty side"
        assert set(fit["sides"]["plus"]) == {
            "estimate", "rel_dev", "slope", "intercept", "raw_ratio"}

    def test_deviation_requires_target(self):
        fit = fit_limit(lattice_spectrum(120), (10, 60))
        assert fit["sides"]["plus"]["rel_dev"] is None


class TestConvergenceStudy:
    @staticmethod
    def square_problem(scale=None):
        def make(level):
            m = generate_unit_square(2 ** level)
            g = euclidean_metric()
            if scale is not None:
                from roughweyl import piecewise_metric
                g = piecewise_metric([(lambda p: np.ones(len(p), bool),
                                       scale * np.eye(2))])
            return m, g, constant_weight(1.0), BoundarySpec.dirichlet()
        return make

    def test_square_deviation_decreases_with_level(self, tmp_path):
        path = tmp_path / "conv.csv"
        rows, _, _ = convergence_study(self.square_problem(), [4, 5, 6],
                                       k_each=60, csv_path=path)
        devs = [r["rel_dev_plus"] for r in rows]
        assert devs[0] > devs[1] > devs[2]
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0][:2] == ["level", "free_dofs"]
        assert len(table) == 4
        assert float(table[1][4]) == pytest.approx(devs[0], rel=1e-15)

    def test_conformal_scaling_leaves_deviations_unchanged(self):
        rows_1, _, _ = convergence_study(self.square_problem(), [4, 5],
                                         k_each=60)
        rows_c, _, _ = convergence_study(self.square_problem(scale=2.5),
                                         [4, 5], k_each=60)
        for r1, rc in zip(rows_1, rows_c):
            assert rc["rel_dev_plus"] == pytest.approx(r1["rel_dev_plus"],
                                                       rel=1e-9)

    def test_checkerboard_sides_agree_on_mirror_mesh(self):
        def make(level):
            return (generate_unit_square(2 ** level), euclidean_metric(),
                    checkerboard_weight(1.0, -1.0), BoundarySpec.dirichlet())
        rows, _, _ = convergence_study(make, [4, 5], k_each=60)
        for row in rows:
            assert row["rel_dev_minus"] == pytest.approx(
                row["rel_dev_plus"], abs=1e-9)

    def test_solves_for_eigenvalues_only_at_t(self, monkeypatch):
        asked = []
        solve = roughweyl.weyl.solve_weighted

        def spy(p, t, **kw):
            asked.append((t, kw.get("vectors", True)))
            return solve(p, t, **kw)

        monkeypatch.setattr(roughweyl.weyl, "solve_weighted", spy)
        convergence_study(self.square_problem(), [3, 4], window=(10, 29),
                          t=0.5, k_each=30)
        assert asked == [(0.5, False), (0.5, False)]

    def test_returns_first_finest_pencil_and_spectrum(self, monkeypatch):
        solved = []
        solve = roughweyl.weyl.solve_weighted

        def spy(p, *args, **kw):
            solved.append((p, solve(p, *args, **kw)))
            return solved[-1][1]

        monkeypatch.setattr(roughweyl.weyl, "solve_weighted", spy)
        rows, p, s = convergence_study(self.square_problem(), [4, 3, 4],
                                       window=(10, 29), k_each=30)
        assert [row["level"] for row in rows] == [4, 3, 4]
        assert p is solved[0][0] and s is solved[0][1]

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            convergence_study(self.square_problem(), [4])


class TestSpectrumCsv:
    def write(self, tmp_path, s, tgt):
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(s, tgt, path)
        with open(path, newline="") as fh:
            return path, list(csv.reader(fh))

    def test_schema_and_values(self, tmp_path):
        s = Spectrum(np.array([0.5, 0.25]), np.array([0.4]), None, None, {})
        tgt = WeylTarget(0.5, 0.4, 1.0)
        _, rows = self.write(tmp_path, s, tgt)
        assert rows[0] == ["k", "lambda_plus", "lambda_minus",
                           "k_pow_lambda_plus", "k_pow_lambda_minus",
                           "target_plus", "target_minus", "rel_dev_plus",
                           "rel_dev_minus"]
        assert rows[1][0] == "1"
        assert float(rows[1][1]) == 0.5
        assert float(rows[1][3]) == 0.5
        assert float(rows[1][7]) == 0.0
        # k = 2: scaled value 0.5, deviation 0 on plus; minus side exhausted
        assert float(rows[2][3]) == 0.5
        assert rows[2][2] == ""
        assert rows[2][8] == ""

    def test_reruns_are_byte_identical(self, tmp_path):
        m = generate_unit_square(8)
        p = assemble(m, euclidean_metric(), halves_weight(1.0, -1.0),
                     BoundarySpec.dirichlet())
        s = solve_weighted(p, 0.0, k_each=20)
        tgt = weyl_target(m, euclidean_metric(), halves_weight(1.0, -1.0), 2)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_spectrum_csv(s, tgt, a)
        write_spectrum_csv(s, tgt, b)
        assert a.read_bytes() == b.read_bytes()

    def test_floats_round_trip_through_repr(self, tmp_path):
        s = Spectrum(np.array([1.0 / 3.0]), np.array([]), None, None, {})
        tgt = WeylTarget(np.pi / 40.0, 0.0, 1.0)
        _, rows = self.write(tmp_path, s, tgt)
        assert float(rows[1][1]) == 1.0 / 3.0
        assert float(rows[1][5]) == np.pi / 40.0
