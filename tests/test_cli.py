"""Config parsing, field builders, task runners, and SVG output."""

import json
import os
import re

import numpy as np
import pytest

import roughweyl.cli
import roughweyl.varprin
import roughweyl.weyl
from roughweyl.cli import (
    ConfigError,
    ExperimentConfig,
    build_boundary,
    build_metric,
    build_weight,
    emit_svg,
    main,
    named_partition,
    run,
)
from roughweyl.fields import MetricField, WeightField
from roughweyl.mesh import generate_unit_square
from roughweyl.spectral import Spectrum
from roughweyl.weyl import WeylTarget, convergence_study


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParse:
    def test_defaults_fully_materialized(self):
        cfg = ExperimentConfig.from_text("")
        assert cfg.resolved() == {
            "task": "solve",
            "domain": {"kind": "square", "level": 4, "size": 16},
            "metric": "euclidean",
            "weight": "const:1",
            "boundary": "dirichlet",
            "solver": {
                "t": 0.0,
                "k_each": 200,
                "mode": "auto",
                "seed": 0,
                "quad_order": 2,
                "k_max": 50,
                "t_list": [0.5, 0.1, 0.02],
                "trials": 100,
                "k": 3,
                "partition": "halves",
                "levels": [4, 5],
                "window": "auto",
            },
            "output": {"dir": "out", "svg": False},
        }

    def test_full_config_round_trip(self):
        text = """
# experiment: indefinite halves on a fine mesh
task = weyl

[domain]
kind = disk
level = 5
size = 24

[metric]
metric = cone:alpha=0.8

[weight]
weight = halves:2,-1

[boundary]
boundary = neumann

[solver]
t = 0.25
k_each = 80
mode = dense
seed = 7
window = 12,40

[output]
dir = results
svg = true
"""
        cfg = ExperimentConfig.from_text(text)
        assert cfg.task == "weyl"
        assert cfg.domain_kind == "disk"
        assert cfg.size == 24
        assert cfg.metric_spec == "cone:alpha=0.8"
        assert cfg.weight_spec == "halves:2,-1"
        assert cfg.boundary_spec == "neumann"
        assert cfg.t == 0.25
        assert cfg.mode == "dense"
        assert cfg.seed == 7
        assert cfg.window == (12, 40)
        assert cfg.svg is True
        assert cfg.resolved()["solver"]["window"] == [12, 40]

    def test_unknown_key_rejected_with_location(self):
        with pytest.raises(ConfigError, match=r"line 2.*'bogus'"):
            ExperimentConfig.from_text("[solver]\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section"):
            ExperimentConfig.from_text("[plotting]\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig.from_text("[solver]\nt = 1\nt = 2\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            ExperimentConfig.from_text("[solver]\njust words\n")

    def test_unterminated_header_rejected(self):
        with pytest.raises(ConfigError, match="unterminated"):
            ExperimentConfig.from_text("[solver\n")

    def test_preamble_key_must_be_task(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_text("level = 4\n")

    @pytest.mark.parametrize("text, pattern", [
        ("task = explore\n", "unknown task"),
        ("[domain]\nkind = annulus\n", "square or disk"),
        ("[domain]\nlevel = zero\n", "integer"),
        ("[solver]\nt = -0.5\n", ">= 0"),
        ("[solver]\nk = 0\n", r"solver\.k: must be >= 1"),
        ("[solver]\nk_max = 0\n", r"solver\.k_max: must be >= 1"),
        ("[solver]\ntrials = 0\n", r"solver\.trials: must be >= 1"),
        ("[solver]\nmode = fast\n", "auto, dense, or sparse"),
        ("[solver]\nwindow = 15\n", "k_lo,k_hi"),
        ("[solver]\nlevels = 0,2\n", r"solver\.levels: .* >= 1"),
        ("[solver]\nlevels = 4,-1\n", r"solver\.levels: .* >= 1"),
        ("[solver]\npartition = thirds\n", "halves or quadrants"),
        ("[output]\nsvg = maybe\n", "boolean"),
    ])
    def test_bad_values_rejected(self, text, pattern):
        with pytest.raises(ConfigError, match=pattern):
            ExperimentConfig.from_text(text)

    def test_comments_and_blanks_ignored(self):
        cfg = ExperimentConfig.from_text(
            "; full-line comment\n\n# another\ntask = solve\n")
        assert cfg.task == "solve"


class TestBuilders:
    @pytest.mark.parametrize("spec", [
        "euclidean",
        "graph_cone",
        "cone:alpha=0.8",
        "checkerboard:a=1,b=3,cells=4",
        "pullback:shear=0.5",
    ])
    def test_metric_specs_build(self, spec):
        assert isinstance(build_metric(spec), MetricField)

    def test_cone_missing_alpha_names_the_key(self):
        with pytest.raises(ConfigError, match="alpha"):
            build_metric("cone")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError, match="unknown metric"):
            build_metric("hyperbolic")

    def test_euclidean_takes_no_parameters(self):
        with pytest.raises(ConfigError, match="no parameters"):
            build_metric("euclidean:a=1")

    @pytest.mark.parametrize("spec", [
        "const:2",
        "halves:1,-1",
        "checkerboard:2,-1,cells=4",
        "expr:1 + x*y",
    ])
    def test_weight_specs_build(self, spec):
        assert isinstance(build_weight(spec), WeightField)

    @pytest.mark.parametrize("spec, pattern", [
        ("halves:1", "two values"),
        ("const", "requires a value"),
        ("expr:", "requires an expression"),
        ("expr:import os", "unknown token"),
        ("gaussian:1", "unknown weight"),
    ])
    def test_weight_errors(self, spec, pattern):
        with pytest.raises(ConfigError, match=pattern):
            build_weight(spec)

    def test_boundary_specs(self):
        assert build_boundary("dirichlet").kind == "dirichlet"
        assert build_boundary("neumann").kind == "neumann"
        mixed = build_boundary("mixed:1,3")
        assert mixed.kind == "mixed"
        with pytest.raises(ConfigError, match="tags"):
            build_boundary("mixed")
        with pytest.raises(ConfigError, match="unknown boundary"):
            build_boundary("robin")

    def test_named_partition_halves_covers_disjointly(self):
        m = generate_unit_square(8)
        cells = named_partition(m, "halves")
        assert len(cells) == 2
        joined = np.sort(np.concatenate(cells))
        assert np.array_equal(joined, np.arange(m.num_triangles))

    def test_named_partition_quadrants(self):
        m = generate_unit_square(8)
        cells = named_partition(m, "quadrants")
        assert len(cells) == 4
        joined = np.sort(np.concatenate(cells))
        assert np.array_equal(joined, np.arange(m.num_triangles))


class TestRunSolve:
    def test_level5_solve_writes_full_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = solve\n[domain]\nlevel = 5\n[output]\ndir = {}\nsvg = true\n"
            .format(out))
        assert run(cfg) == 0
        rows = (out / "spectrum.csv").read_text().strip().splitlines()
        assert len(rows) - 1 >= 200
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["version"] == "v0.1.0"
        assert summary["config"]["domain"]["level"] == 5
        assert summary["config"]["solver"]["k_each"] == 200
        assert summary["targets"]["c_plus"] == pytest.approx(1 / (4 * np.pi))
        assert (out / "counting.svg").exists()

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        text = ("task = solve\n[domain]\nlevel = 3\n[solver]\nk_each = 20\n"
                "seed = 11\n[output]\ndir = {}\nsvg = true\n".format(out))

        def snapshot():
            assert run(ExperimentConfig.from_text(text)) == 0
            return {name: (out / name).read_bytes()
                    for name in os.listdir(out)}

        first = snapshot()
        second = snapshot()
        assert set(first) == {"spectrum.csv", "summary.json", "counting.svg"}
        for name in first:
            assert first[name] == second[name]

    def test_zero_mean_weight_on_neumann_is_modeling_error(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_text(
            "task = solve\n[domain]\nlevel = 3\n[weight]\nweight = halves:1,-1\n"
            "[boundary]\nboundary = neumann\n[output]\ndir = {}\n"
            .format(tmp_path / "out"))
        assert run(cfg) == 3
        assert "modeling error" in capsys.readouterr().err

    def test_non_finite_weight_is_field_hypothesis_error(self, tmp_path,
                                                         capsys):
        cfg = ExperimentConfig.from_text(
            "task = solve\n[domain]\nlevel = 3\n[weight]\n"
            "weight = expr:1/(x - x)\n[output]\ndir = {}\n"
            .format(tmp_path / "out"))
        with np.errstate(divide="ignore", invalid="ignore"):
            assert run(cfg) == 3
        err = capsys.readouterr().err
        assert "field hypothesis violated: non-finite weight sample" in err

    def test_indefinite_halves_solve(self, tmp_path):
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = solve\n[domain]\nlevel = 4\n[weight]\nweight = halves:1,-1\n"
            "[solver]\nk_each = 30\n[output]\ndir = {}\n".format(out))
        assert run(cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["counts"]["plus"] == 30
        assert summary["counts"]["minus"] == 30
        assert summary["targets"]["c_plus"] == pytest.approx(1 / (8 * np.pi))


class TestRunWeyl:
    def test_acceptance_resolution_deviation_below_ten_percent(self, tmp_path):
        # h = 1/128 and a 500-deep spectrum; coarser meshes cannot reach
        # 10% because the boundary term alone contributes that much early on
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = weyl\n[domain]\nlevel = 7\n[solver]\nk_each = 500\n"
            "[output]\ndir = {}\nsvg = true\n".format(out))
        assert run(cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        side = summary["fit"]["sides"]["plus"]
        assert side["rel_dev"] < 0.10
        assert summary["checks"]["rel_dev_plus_below_0.10"] is True
        assert summary["passed"] is True

    def test_coarse_mesh_fails_the_deviation_check(self, tmp_path):
        # honest failure path: at level 4 the tail sits ~20% low, exit 1
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = weyl\n[domain]\nlevel = 4\n[solver]\nk_each = 90\n"
            "[output]\ndir = {}\n".format(out))
        assert run(cfg) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["rel_dev_plus_below_0.10"] is False
        assert summary["passed"] is False
        assert summary["fit"]["sides"]["minus"] == "empty side"


    def test_metric_sampled_once(self, tmp_path, monkeypatch):
        # assembly and the Weyl target share one quadrature sample
        calls = []
        matrices = MetricField.matrices

        def counted(self, points):
            calls.append(len(points))
            return matrices(self, points)

        monkeypatch.setattr(MetricField, "matrices", counted)
        cfg = ExperimentConfig.from_text(
            "task = weyl\n[domain]\nlevel = 4\n[solver]\nk_each = 90\n"
            "[output]\ndir = {}\n".format(tmp_path / "out"))
        assert run(cfg) == 1  # the coarse-mesh deviation check, as above
        assert calls == [2 * 16 * 16 * 3]


class TestRunReportTasks:
    def test_bracket_task(self, tmp_path):
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = bracket\n[domain]\nlevel = 4\n[solver]\nk_each = 12\n"
            "k_max = 8\nt = 1.0\n[output]\ndir = {}\n".format(out))
        assert run(cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["bracketing"] is True
        assert summary["report"]["check"] == "bracketing"

    def test_sandwich_task(self, tmp_path):
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = sandwich\n[domain]\nlevel = 4\n[solver]\nk_each = 12\n"
            "k_max = 10\n[output]\ndir = {}\n".format(out))
        assert run(cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["sandwich"] is True
        assert summary["report"]["tau"] == 0

    @staticmethod
    def spy_solves(monkeypatch):
        """Record (n_free, t, k_each) of every solve the CLI or a checker
        makes."""
        calls = []
        solve = roughweyl.varprin.solve_weighted

        def spy(p, t=0.0, k_each=6, **kw):
            calls.append((p.n_free, float(t), k_each))
            return solve(p, t, k_each=k_each, **kw)

        monkeypatch.setattr(roughweyl.cli, "solve_weighted", spy)
        monkeypatch.setattr(roughweyl.varprin, "solve_weighted", spy)
        return calls

    def test_sandwich_solves_each_pencil_once(self, tmp_path, monkeypatch):
        calls = self.spy_solves(monkeypatch)
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = sandwich\n[domain]\nlevel = 4\n[boundary]\n"
            "boundary = neumann\n[solver]\nk_each = 12\nk_max = 20\n"
            "[output]\ndir = {}\n".format(out))
        assert run(cfg) == 0
        assert len(calls) == 1 + 2 * len(cfg.t_list)
        assert len(set(calls)) == len(calls)
        # s0 deep enough for the shifted check, artifacts at k_each
        assert calls[0][1:] == (0.0, 21)
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert len(rows) == 1 + 12

    def test_bracket_solves_global_pencil_once(self, tmp_path, monkeypatch):
        calls = self.spy_solves(monkeypatch)
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = bracket\n[domain]\nlevel = 4\n[solver]\nk_each = 6\n"
            "k_max = 8\nt = 1.0\n[output]\ndir = {}\n".format(out))
        assert run(cfg) == 0
        assert calls == [(15 * 15, 1.0, 8)]
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert len(rows) == 1 + 6

    TASK_CONFIGS = {
        "solve": "[solver]\nk_each = 12\n",
        "weyl": "[solver]\nk_each = 30\nwindow = 10,29\n",
        "converge": "[solver]\nk_each = 30\nlevels = 3,4\nwindow = 10,29\n",
        "sandwich": "[boundary]\nboundary = neumann\n[solver]\nk_each = 12\n"
                    "k_max = 10\n",
        "bracket": "[solver]\nk_each = 12\nk_max = 8\nt = 1.0\n",
        "varprin": "[solver]\nk_each = 12\nk = 3\ntrials = 5\n",
    }

    @pytest.mark.parametrize("task", sorted(TASK_CONFIGS))
    def test_only_varprin_asks_for_eigenvectors(self, tmp_path, monkeypatch,
                                                task):
        asked = []
        solve = roughweyl.varprin.solve_weighted

        def spy(*args, **kw):
            asked.append(kw.get("vectors", True))
            return solve(*args, **kw)

        for module in (roughweyl.cli, roughweyl.varprin, roughweyl.weyl):
            monkeypatch.setattr(module, "solve_weighted", spy)
        cfg = ExperimentConfig.from_text(
            "task = {}\n[domain]\nlevel = 4\n{}[output]\ndir = {}\n".format(
                task, self.TASK_CONFIGS[task], tmp_path / "out"))
        assert run(cfg) in (0, 1)
        assert asked
        assert asked == [task == "varprin"] * len(asked)

    def test_varprin_task_runs_all_three_checkers(self, tmp_path):
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = varprin\n[domain]\nlevel = 4\n[solver]\nk_each = 12\n"
            "k = 3\ntrials = 20\n[output]\ndir = {}\n".format(out))
        assert run(cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["checks"]) == {
            "poincare_minmax", "rayleigh", "courant"}
        assert all(summary["checks"].values())

    def test_varprin_artifacts_stop_at_k_each(self, tmp_path):
        # the checkers need k + 1 eigenvalues; spectrum.csv keeps k_each
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = varprin\n[domain]\nsize = 8\n[solver]\nk_each = 3\n"
            "k = 5\ntrials = 5\n[output]\ndir = {}\n".format(out))
        assert run(cfg) == 0
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert len(rows) == 1 + 3

    def test_converge_task_rows_and_rerun_identity(self, tmp_path):
        out = tmp_path / "out"
        text = ("task = converge\n[solver]\nk_each = 90\nlevels = 4,5\n"
                "[output]\ndir = {}\n".format(out))

        def snapshot():
            assert run(ExperimentConfig.from_text(text)) == 0
            return {name: (out / name).read_bytes()
                    for name in os.listdir(out)}

        first = snapshot()
        second = snapshot()
        assert set(first) == {"convergence.csv", "spectrum.csv",
                              "summary.json"}
        for name in first:
            assert first[name] == second[name]
        lines = first["convergence.csv"].decode().strip().splitlines()
        assert lines[0].split(",")[:2] == ["level", "free_dofs"]
        assert len(lines) == 3

    def test_converge_needs_two_levels(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_text(
            "task = converge\n[solver]\nlevels = 5\n[output]\ndir = {}\n"
            .format(tmp_path / "out"))
        assert run(cfg) == 2
        assert "at least 2 levels" in capsys.readouterr().err

    def test_converge_passes_t_to_the_study(self, tmp_path):
        fields = {"weight": "halves:1,-0.5", "boundary": "neumann"}
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = converge\n[weight]\nweight = {weight}\n"
            "[boundary]\nboundary = {boundary}\n[solver]\nt = 0.5\n"
            "k_each = 30\nlevels = 3,4\nwindow = 10,29\n[output]\n"
            "dir = {out}\n".format(out=out, **fields))
        assert run(cfg) == 0

        def make(level):
            return (generate_unit_square(2 ** level), build_metric("euclidean"),
                    build_weight(fields["weight"]),
                    build_boundary(fields["boundary"]))

        for t, name in ((0.5, "t.csv"), (0.0, "zero.csv")):
            convergence_study(make, [3, 4], (10, 29), t, k_each=30,
                              csv_path=tmp_path / name)
        written = (out / "convergence.csv").read_bytes()
        assert written == (tmp_path / "t.csv").read_bytes()
        assert written != (tmp_path / "zero.csv").read_bytes()


def synthetic_spectrum(c, count, with_minus=False):
    pos = c / np.arange(1, count + 1)
    neg = 0.8 * c / np.arange(1, count + 1) if with_minus else []
    return Spectrum(pos, neg, meta={"t": 0.0})


def staircase_paths(svg_text):
    return re.findall(r'<path d="([^"]+)" fill="none" stroke="#[0-9a-f]+" '
                      r'stroke-width="1.5"/>', svg_text)


class TestEmitSvg:
    def test_empty_negative_side_single_staircase(self, tmp_path):
        s = synthetic_spectrum(0.12, 40)
        target = WeylTarget(0.12, 0.0, 1.0)
        path = tmp_path / "plot.svg"
        emit_svg(s, target, str(path))
        text = path.read_text()
        assert len(staircase_paths(text)) == 1
        assert text.startswith("<svg ")
        assert 'width="640" height="480"' in text

    def test_two_sides_two_staircases(self, tmp_path):
        s = synthetic_spectrum(0.12, 40, with_minus=True)
        target = WeylTarget(0.12, 0.8 * 0.12, 1.0)
        path = tmp_path / "plot.svg"
        emit_svg(s, target, str(path))
        assert len(staircase_paths(path.read_text())) == 2

    def test_same_input_byte_identical(self, tmp_path):
        s = synthetic_spectrum(0.3, 60, with_minus=True)
        target = WeylTarget(0.3, 0.24, 1.0)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(s, target, str(a))
        emit_svg(s, target, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_synthetic_staircase_hugs_target_curve(self, tmp_path):
        # for lam_k = c/k the jump at lam_k ends exactly on the curve c/lam
        c, count = 0.12, 50
        s = synthetic_spectrum(c, count)
        target = WeylTarget(c, 0.0, 1.0)
        path = tmp_path / "plot.svg"
        emit_svg(s, target, str(path))
        d = staircase_paths(path.read_text())[0]
        pts = np.array(re.findall(r"[ML] ([0-9.]+) ([0-9.]+)", d),
                       dtype=float)

        # invert the fixed viewport mapping used by the writer
        vals = s.pos
        span = vals[0] - vals[-1]
        lo = max(vals[-1] - 0.02 * span, 0.0)
        hi = vals[0] + 0.05 * span
        n_top = 1.05 * count
        px_per_n = (480.0 - 16.0 - 48.0) / n_top

        for x, y in pts[1:-1]:
            lam = lo + (x - 64.0) / (640.0 - 64.0 - 16.0) * (hi - lo)
            n = (480.0 - 48.0 - y) / px_per_n
            assert abs(n - c / lam) <= 1.2

    def test_empty_spectrum_rejected(self, tmp_path):
        s = Spectrum([], [], meta={})
        with pytest.raises(ValueError, match="empty"):
            emit_svg(s, WeylTarget(0.0, 0.0, 1.0), str(tmp_path / "x.svg"))


class TestMain:
    def test_subcommand_overrides_config_task(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "run.cfg",
            "task = solve\n[domain]\nlevel = 3\n[solver]\nk_each = 12\n"
            "k = 2\ntrials = 10\n[output]\ndir = {}\n".format(out))
        assert main(["varprin", "--config", config]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["task"] == "varprin"

    def test_out_level_seed_overrides(self, tmp_path):
        out = tmp_path / "elsewhere"
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 5\n[solver]\nk_each = 12\n[output]\ndir = {}\n"
            .format(tmp_path / "ignored"))
        rc = main(["solve", "--config", config, "--out", str(out),
                   "--level", "3", "--seed", "5"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["domain"]["level"] == 3
        assert summary["config"]["domain"]["size"] == 8
        assert summary["config"]["solver"]["seed"] == 5

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_cone_metric_exits_2_naming_key(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 3\n[metric]\nmetric = cone\n"
            "[output]\ndir = {}\n".format(tmp_path / "out"))
        assert main(["solve", "--config", config]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_subcommand_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--config", "x"])
        assert exc.value.code == 2
