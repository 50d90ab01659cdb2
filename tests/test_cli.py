"""Config parsing, field builders, task runners, and SVG output."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from roughweyl.spectral import MODES, Spectrum
from roughweyl.weyl import FitError, WeylTarget, convergence_study


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def readme_layout():
    """{section: (keys, comment text)} of README's "All keys with their
    defaults" block; '' is the preamble."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split(
        "All keys with their defaults:", 1)[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    layout = {"": ([], [])}
    section = ""
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        if code.startswith("["):
            section = code.strip("[]")
            layout[section] = ([], [])
        elif code:
            layout[section][0].append(code.partition("=")[0].strip())
        layout[section][1].append(comment)
    return {section: (keys, " ".join(comments))
            for section, (keys, comments) in layout.items()}


def ini_text(values):
    """Config text setting {key: text} in the sections the table gives."""
    lines = []
    section = ""
    for row in roughweyl.cli._KEYS:
        if row.key not in values:
            continue
        if row.section != section:
            section = row.section
            lines.append("[{}]".format(section))
        lines.append("{} = {}".format(row.key, values[row.key]))
    return "\n".join(lines) + "\n"


def echo_text(value):
    """Config text of one value echoed by `resolved()`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def flatten(resolved):
    """{key: value} of a `resolved()` echo, its sections flattened."""
    return {key: value for name, body in resolved.items()
            for key, value in (body.items() if isinstance(body, dict)
                               else [(name, body)])}


def echo_bytes(resolved):
    """The echo as `save_report` serializes it."""
    return json.dumps(resolved, indent=2, sort_keys=True)


def integers(lo):
    return st.integers(lo, 10 ** 6).map(str)


# Config text of every key's valid values, drawn per key of the table
SPEC_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                    max_size=16).map(str.strip)
VALID_TEXT = {
    "task": st.sampled_from(roughweyl.cli.TASKS),
    "kind": st.sampled_from(["square", "disk"]),
    # past level 14284, 2^level has more digits than str or JSON writes
    "level": st.integers(1, 64).map(str),
    "size": integers(1),
    "metric": SPEC_TEXT,
    "weight": SPEC_TEXT,
    "boundary": SPEC_TEXT,
    "t": st.floats(min_value=0.0, allow_infinity=False).map(repr),
    "k_each": integers(1),
    "mode": st.sampled_from(MODES),
    "seed": integers(0),
    "quad_order": st.sampled_from(["1", "2", "4"]),
    "k_max": integers(1),
    "t_list": st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                 exclude_max=True), min_size=1, max_size=4)
    .map(lambda ts: ",".join(map(repr, ts))),
    "trials": integers(1),
    "k": integers(1),
    "partition": st.sampled_from(["halves", "quadrants"]),
    "levels": st.lists(st.integers(1, 30), min_size=1, max_size=4)
    .map(lambda ls: ",".join(map(str, ls))),
    "window": st.one_of(
        st.just("auto"),
        st.tuples(st.integers(10, 10 ** 4), st.integers(19, 10 ** 4))
        .map(lambda w: "{},{}".format(w[0], w[0] + w[1]))),
    "dir": SPEC_TEXT,
    "svg": st.sampled_from(["true", "false", "yes", "no", "1", "0", "on",
                            "OFF"]),
}


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
        ("[solver]\nt = nan\n", r"solver\.t: expected a finite number"),
        ("[solver]\nt = inf\n", r"solver\.t: expected a finite number"),
        ("[solver]\nk = 0\n", r"solver\.k: must be >= 1"),
        ("[solver]\nk_max = 0\n", r"solver\.k_max: must be >= 1"),
        ("[solver]\ntrials = 0\n", r"solver\.trials: must be >= 1"),
        ("[solver]\nmode = fast\n", "auto, dense, or sparse"),
        ("[solver]\nwindow = 15\n", "k_lo,k_hi"),
        ("[solver]\nwindow = 10,28\n", "fewer than 20"),
        ("[solver]\nlevels = 0,2\n", r"solver\.levels: .* >= 1"),
        ("[solver]\nlevels = 4,-1\n", r"solver\.levels: .* >= 1"),
        ("[solver]\npartition = thirds\n", "halves or quadrants"),
        ("[output]\nsvg = maybe\n", "boolean"),
        ("[solver]\nt_list = 0.5,1.5\n",
         r"solver\.t_list: must lie in \(0, 1\)"),
        ("[solver]\nt_list = 0,0.5\n", r"solver\.t_list: must lie in"),
        ("[solver]\nquad_order = 3\n",
         r"solver\.quad_order: unknown quadrature order '3'; expected 1, 2"),
    ])
    def test_bad_values_rejected(self, text, pattern):
        with pytest.raises(ConfigError, match=pattern):
            ExperimentConfig.from_text(text)

    def test_readme_defaults_block_parses_to_the_defaults(self):
        # README's one ini block is a second copy of `_KEYS`: it lists every
        # row, and with the default of each
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = readme.read_text(encoding="utf-8").split("```ini\n")
        assert len(blocks) == 2
        block = blocks[1].split("```", 1)[0]
        # inline comments are the README's, not the parser's
        block = "\n".join(line.split("#", 1)[0] for line in block.splitlines())
        sections = roughweyl.cli._parse_ini(block)
        for row in roughweyl.cli._KEYS:
            assert row.key in sections.get(row.section, {}), row
        assert (ExperimentConfig(sections).resolved()
                == ExperimentConfig({}).resolved())

    def test_comments_and_blanks_ignored(self):
        cfg = ExperimentConfig.from_text(
            "; full-line comment\n\n# another\ntask = solve\n")
        assert cfg.task == "solve"


class TestConfigTable:
    """One row per config key and per spec kind; the parser, the echo and
    README read the same rows."""

    def test_each_key_and_kind_declared_once(self):
        rows = roughweyl.cli._KEYS
        assert len({row.key for row in rows}) == len(rows)
        assert len({row.attr for row in rows}) == len(rows)
        for kinds in (roughweyl.cli._METRICS, roughweyl.cli._WEIGHTS,
                      roughweyl.cli._BOUNDARIES):
            assert len({kind.head for kind in kinds}) == len(kinds)

    def test_parser_echo_and_readme_keys_agree(self):
        def accepts(section, key):
            head = "[{}]\n".format(section) if section else ""
            try:
                roughweyl.cli._parse_ini("{}{} = x\n".format(head, key))
            except ConfigError:
                return False
            return True

        readme = {(section, key) for section, (keys, _) in
                  readme_layout().items() for key in keys}
        table = {(row.section, row.key) for row in roughweyl.cli._KEYS}
        accepted = {pair for pair in readme | table if accepts(*pair)}
        echoed = set(flatten(ExperimentConfig.from_text("").resolved()))
        assert accepted == readme == table
        assert {key for _, key in accepted} == echoed
        assert len(readme) == sum(
            len(keys) for keys, _ in readme_layout().values())

    def test_every_spec_kind_in_readme_grammar(self):
        layout = readme_layout()
        for section, kinds in (("metric", roughweyl.cli._METRICS),
                               ("weight", roughweyl.cli._WEIGHTS),
                               ("boundary", roughweyl.cli._BOUNDARIES)):
            grammar = layout[section][1]
            for kind in kinds:
                assert re.search(r"(^|[\s|]){}(:|\s|$)".format(kind.head),
                                 grammar), (section, kind.head)

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries(
        {}, optional={row.key: VALID_TEXT[row.key]
                      for row in roughweyl.cli._KEYS}))
    def test_echo_parses_back_to_itself(self, values):
        # the summary.json echo describes the run completely: rendered back
        # to config text it reads as the same config, to the JSON byte
        first = ExperimentConfig.from_text(ini_text(values)).resolved()
        text = ini_text({key: echo_text(value)
                         for key, value in flatten(first).items()})
        second = ExperimentConfig.from_text(text).resolved()
        assert second == first
        assert echo_bytes(second) == echo_bytes(first)

    @pytest.mark.parametrize("task, solver, pattern", [
        ("sandwich", "t_list = 0.5,1.5", r"solver\.t_list: must lie in"),
        ("solve", "quad_order = 3", r"solver\.quad_order: unknown"),
    ])
    def test_bad_value_refused_before_any_mesh(self, tmp_path, capsys,
                                               monkeypatch, task, solver,
                                               pattern):
        def fail(*args, **kwargs):
            raise AssertionError("reached past the config check")

        for name in ("solve_weighted", "generate_unit_square"):
            monkeypatch.setattr(roughweyl.cli, name, fail)
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 5\n[solver]\n{}\n[output]\ndir = {}\n"
            .format(solver, tmp_path / "out"))
        assert main([task, "--config", config]) == 2
        assert re.search(pattern, capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_t_is_a_config_error(self, tmp_path, capsys, value):
        # NaN took neither the t > 0 nor the t = 0 branch of the solve,
        # and its echo "t": NaN is not JSON
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 3\n[solver]\nt = {}\n[output]\ndir = {}\n"
            .format(value, out))
        assert main(["solve", "--config", config]) == 2
        assert ("config error: solver.t: expected a finite number"
                in capsys.readouterr().err)
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--level", "0"], "config error: domain.level: must be >= 1"),
        (["--level", "three"],
         "config error: domain.level: expected an integer, got 'three'"),
        (["--seed", "-1"], "config error: solver.seed: must be >= 0"),
    ])
    def test_flags_are_checked_like_their_keys(self, tmp_path, capsys,
                                               flags, message):
        config = write_config(tmp_path / "run.cfg", "[domain]\nlevel = 3\n")
        assert main(["solve", "--config", config] + flags) == 2
        assert message in capsys.readouterr().err

    def test_file_is_checked_before_a_flag_overrides_it(self, tmp_path,
                                                        capsys):
        config = write_config(tmp_path / "run.cfg", "[domain]\nlevel = 0\n")
        assert main(["solve", "--config", config, "--level", "3"]) == 2
        assert "domain.level: must be >= 1" in capsys.readouterr().err

    def test_level_flag_replaces_a_configured_size(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nsize = 24\n[solver]\nk_each = 4\n[output]\n"
            "dir = {}\n".format(out))
        assert main(["solve", "--config", config, "--level", "2"]) == 0
        domain = json.loads((out / "summary.json").read_text())["config"][
            "domain"]
        assert domain == {"kind": "square", "level": 2, "size": 4}


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

    @pytest.mark.parametrize("build, spec, message", [
        (build_weight, "const:0", "weight: constant weight must be nonzero"),
        (build_metric, "cone:alpha=4", "metric: alpha must lie in (0, pi]"),
        (build_metric, "checkerboard:a=-1", "metric: region matrix"),
        (build_weight, "checkerboard:1,-1,cells=0",
         "weight: cells must be >= 1"),
        (build_boundary, "dirichlet:1",
         "boundary: dirichlet takes no parameters, got 'dirichlet:1'"),
        (build_metric, "cone:0.8",
         "metric: cone requires alpha=<radians>, got 'cone:0.8'"),
    ])
    def test_spec_errors_name_the_field(self, build, spec, message):
        with pytest.raises(ConfigError) as exc:
            build(spec)
        assert str(exc.value).startswith(message)

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

    @pytest.mark.parametrize("kind, boundary, message", [
        ("square", "mixed:9", "tags [9] are not on the mesh, whose tags are "
                              "[0, 1, 2, 3]"),
        ("disk", "mixed:1,7", "tags [1, 7] are not on the mesh, whose tags "
                              "are [0]"),
    ], ids=["square", "disk"])
    def test_mixed_tag_absent_from_the_mesh_exits_2(self, tmp_path, capsys,
                                                    kind, boundary, message):
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nkind = {}\n[boundary]\nboundary = {}\n[output]\n"
            "dir = {}\n".format(kind, boundary, tmp_path / "out"))
        assert main(["solve", "--config", config]) == 2
        assert message in capsys.readouterr().err

    def test_tiny_constant_weight_solves(self, tmp_path):
        # the spectrum of c rho is c times that of rho at every scale c
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = solve\n[domain]\nlevel = 3\n[weight]\nweight = const:1e-11\n"
            "[solver]\nk_each = 4\n[output]\ndir = {}\n".format(out))
        assert run(cfg) == 0
        rows = (out / "spectrum.csv").read_text().strip().splitlines()
        assert len(rows) == 5
        assert 0.0 < float(rows[1].split(",")[1]) < 1e-12

    def test_plot_of_an_empty_spectrum_is_a_fit_failure(self, tmp_path,
                                                        capsys):
        # a zero weight leaves no eigenvalue of either sign to plot
        cfg = ExperimentConfig.from_text(
            "task = solve\n[domain]\nlevel = 3\n[weight]\nweight = expr:0*x\n"
            "[output]\ndir = {}\nsvg = true\n".format(tmp_path / "out"))
        assert run(cfg) == 5
        assert ("fit failure: cannot plot an empty spectrum"
                in capsys.readouterr().err)

    def test_python_dash_m_runs_the_command(self, tmp_path):
        # `python -m roughweyl` from a checkout, with nothing on stderr
        src = os.path.dirname(os.path.dirname(roughweyl.cli.__file__))
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 3\n[solver]\nk_each = 4\n[output]\n"
            "dir = {}\n".format(out))
        done = subprocess.run(
            [sys.executable, "-m", "roughweyl", "solve", "--config", config],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert (done.returncode, done.stderr) == (0, "")
        assert (out / "spectrum.csv").exists()

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

    @pytest.mark.parametrize("weight, k_each, auto, mode, forced", [
        ("halves:1,-1", 60, "sparse-lanczos", "dense", "dense"),
        ("const:1", 200, "dense", "sparse", "sparse-lanczos"),
    ])
    def test_mode_forces_its_path(self, tmp_path, weight, k_each, auto, mode,
                                  forced):
        # at 961 free DOFs the auto cost rule picks one path; the mode
        # key must still force the other
        methods = {}
        for key in ("auto", mode):
            out = tmp_path / key
            cfg = ExperimentConfig.from_text(
                "task = solve\n[domain]\nlevel = 5\n[weight]\nweight = {}\n"
                "[solver]\nk_each = {}\nmode = {}\n[output]\ndir = {}\n"
                .format(weight, k_each, key, out))
            assert run(cfg) == 0
            summary = json.loads((out / "summary.json").read_text())
            methods[key] = summary["method"]
        assert methods == {"auto": auto, mode: forced}

    def test_dense_mode_above_the_cap_is_a_solver_failure(self, tmp_path,
                                                          capsys):
        # level 6 leaves 3969 free DOFs, above the dense path's 3000 rows
        cfg = ExperimentConfig.from_text(
            "task = weyl\n[domain]\nlevel = 6\n[solver]\nmode = dense\n"
            "k_each = 30\n[output]\ndir = {}\n".format(tmp_path / "out"))
        assert run(cfg) == 4
        assert "3969 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("k_each", [5, 10])
    def test_nearly_singular_form_exits_4_on_either_path(self, tmp_path,
                                                         capsys, k_each):
        # K + 1e-14 Mm on the Neumann square fails the factor step's
        # verdict; auto sends its 289 rows to Lanczos at k_each = 5 and to
        # the dense path at k_each = 10, and both refuse it
        from roughweyl.spectral import _goes_dense

        assert _goes_dense(17 * 17, k_each, (1.0, 0.0), "auto") == (
            k_each == 10)
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 4\n[boundary]\nboundary = neumann\n"
            "[solver]\nt = 1e-14\nk_each = {}\n[output]\ndir = {}\n".format(
                k_each, tmp_path / "out"))
        assert main(["solve", "--config", config]) == 4
        assert "could not be factorized" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    def test_out_of_memory_is_stated_not_a_failed_check(self, tmp_path,
                                                        capsys, monkeypatch):
        # level 40 asks numpy for 8 TiB; the stand-in mesh allocates nothing
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(roughweyl.cli, "generate_unit_square", fail)
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 40\n[output]\ndir = {}\n".format(
                tmp_path / "out"))
        assert main(["solve", "--config", config]) == 4
        assert (capsys.readouterr().err
                == "out of memory: Unable to allocate 8.00 TiB\n")

    def test_arpack_failure_is_a_solver_failure(self, tmp_path, capsys,
                                                monkeypatch):
        # any failure of the Lanczos run, not only non-convergence, exits
        # 4, never 1, the code of a failed check
        from roughweyl import spectral

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("dsyevd failed (info 1)")

        monkeypatch.setattr(spectral, "_krylov_schur", fail)
        cfg = ExperimentConfig.from_text(
            "task = solve\n[domain]\nlevel = 4\n[solver]\nmode = sparse\n"
            "k_each = 10\n[output]\ndir = {}\n".format(tmp_path / "out"))
        assert run(cfg) == 4
        assert "Lanczos failed" in capsys.readouterr().err


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

    @pytest.mark.parametrize("weight, boundary", [
        ("halves:1,-1", "dirichlet"),
        ("halves:1,-0.5", "neumann"),
    ])
    def test_seed_does_not_reach_the_eigensolver(self, tmp_path, weight,
                                                 boundary):
        # Lanczos starts from one fixed vector; the seed feeds only the
        # variational checkers' subspace trials
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 5\n[weight]\nweight = {}\n[boundary]\n"
            "boundary = {}\n[solver]\nmode = sparse\nk_each = 60\n"
            "[output]\ndir = {}\n".format(weight, boundary, tmp_path / "out"))
        written = []
        for seed in ("0", "7"):
            out = tmp_path / seed
            assert main(["weyl", "--config", config, "--out", str(out),
                         "--seed", seed]) in (0, 1)
            summary = json.loads((out / "summary.json").read_text())
            assert summary["method"].startswith("sparse")
            written.append((out / "spectrum.csv").read_bytes())
        assert written[0] == written[1]

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

    def test_metric_sampled_once_across_blocks(self, tmp_path, monkeypatch):
        # at level 7 the sample runs in 8 blocks of cells, which together
        # cover every quadrature point once
        calls = []
        matrices = MetricField.matrices

        def counted(self, points):
            calls.append(len(points))
            return matrices(self, points)

        monkeypatch.setattr(MetricField, "matrices", counted)
        cfg = ExperimentConfig.from_text(
            "task = weyl\n[domain]\nlevel = 7\n[solver]\nk_each = 60\n"
            "[output]\ndir = {}\n".format(tmp_path / "out"))
        assert run(cfg) in (0, 1)
        assert len(calls) == 8 and sum(calls) == 2 * 128 * 128 * 3


class TestRerun:
    """A run first removes every artifact name of the CLI from its output
    directory, so a failed or narrower rerun leaves no earlier run's files
    beside its own."""

    FIRST = {
        "weyl": "[solver]\nk_each = 30\nwindow = 10,29\n",
        "converge": "[solver]\nk_each = 30\nlevels = 3,4\nwindow = 10,29\n",
    }

    @staticmethod
    def run_task(tmp_path, task, solver, svg="true"):
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 3\n{}[output]\ndir = {}\nsvg = {}\n".format(
                solver, tmp_path / "out", svg))
        return main([task, "--config", config])

    @pytest.mark.parametrize("first", sorted(FIRST))
    def test_failed_rerun_leaves_no_artifacts(self, tmp_path, first):
        assert self.run_task(tmp_path, first, self.FIRST[first]) in (0, 1)
        assert len(os.listdir(tmp_path / "out")) == 3 + (first == "converge")
        # the window ends past the 30 values computed: FitError, exit 5
        assert self.run_task(tmp_path, "weyl", "[solver]\nk_each = 30\n"
                             "window = 10,100\n") == 5
        assert os.listdir(tmp_path / "out") == []

    def test_rerun_without_svg_removes_the_old_plot(self, tmp_path):
        assert self.run_task(tmp_path, "solve", "") == 0
        assert (tmp_path / "out" / "counting.svg").exists()
        assert self.run_task(tmp_path, "solve", "", svg="false") == 0
        assert sorted(os.listdir(tmp_path / "out")) == [
            "spectrum.csv", "summary.json"]


class TestFitFailures:
    """A spectrum too short for the fit window exits 5 after the solve; a
    window that cannot be a fit window exits 2 before it."""

    @staticmethod
    def weyl(tmp_path, solver):
        # the Dirichlet square of level 3 has 49 free DOFs
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 3\n[solver]\n{}[output]\ndir = {}\n".format(
                solver, tmp_path / "out"))
        return main(["weyl", "--config", config])

    def test_window_past_the_computed_values_exits_5(self, tmp_path,
                                                     capsys):
        assert self.weyl(tmp_path, "k_each = 30\nwindow = 10,40\n") == 5
        err = capsys.readouterr().err
        assert "fit failure" in err and "exceeds the 30" in err

    def test_short_spectrum_for_the_default_window_exits_5(self, tmp_path,
                                                          capsys):
        # the middle third of 25 values is [10, 16], 7 samples
        assert self.weyl(tmp_path, "k_each = 25\n") == 5
        assert "fewer than 20" in capsys.readouterr().err

    def test_window_below_k_10_exits_2_before_the_solve(self, tmp_path,
                                                       capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(roughweyl.cli, "solve_weighted",
                            lambda *a, **kw: solves.append(a))
        assert self.weyl(tmp_path, "k_each = 60\nwindow = 5,40\n") == 2
        assert "solver.window: window must start at k_lo >= 10" in (
            capsys.readouterr().err)
        assert solves == []


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

    def test_bracket_without_t_exits_2_before_the_solve(self, tmp_path,
                                                        capsys, monkeypatch):
        # bracketing is of the t-regularized problem: t = 0, the default,
        # is refused, not replaced by another t
        solves = []
        monkeypatch.setattr(roughweyl.cli, "solve_weighted",
                            lambda *a, **kw: solves.append(a))
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 3\n[solver]\nk_each = 12\nk_max = 8\n"
            "[output]\ndir = {}\n".format(tmp_path / "out"))
        assert main(["bracket", "--config", config]) == 2
        assert "config error: solver.t: bracket needs t > 0" in (
            capsys.readouterr().err)
        assert solves == []
        assert os.listdir(tmp_path / "out") == []

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
    def test_every_task_reports_through_one_tail(self, tmp_path, monkeypatch,
                                                 task):
        solves = []
        solve = roughweyl.cli.solve_weighted

        def spy(*args, **kw):
            solves.append(args)
            return solve(*args, **kw)

        monkeypatch.setattr(roughweyl.cli, "solve_weighted", spy)
        out = tmp_path / "out"
        cfg = ExperimentConfig.from_text(
            "task = {}\n[domain]\nlevel = 4\n{}[output]\ndir = {}\n".format(
                task, self.TASK_CONFIGS[task], out))
        assert run(cfg) in (0, 1)
        summary = json.loads((out / "summary.json").read_text())
        assert {"targets", "counts", "method"} <= set(summary)
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert summary["counts"] == {
            side: sum(row["lambda_" + side] != "" for row in rows)
            for side in ("plus", "minus")}
        # converge solves each level inside `convergence_study`
        assert len(solves) == (task != "converge")

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
        with pytest.raises(FitError, match="empty"):
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

    @pytest.mark.parametrize("section, spec", [
        ("metric", "checkerboard:a=1,b=2,cells=0"),
        ("weight", "checkerboard:1,2,cells=0"),
        ("weight", "checkerboard:1,2,cells=-3"),
    ])
    def test_checkerboard_without_cells_exits_2(self, tmp_path, capsys,
                                                section, spec):
        config = write_config(
            tmp_path / "run.cfg",
            "[domain]\nlevel = 3\n[{0}]\n{0} = {1}\n[output]\ndir = {2}\n"
            .format(section, spec, tmp_path / "out"))
        assert main(["solve", "--config", config]) == 2
        assert "cells must be >= 1" in capsys.readouterr().err

    def test_unknown_subcommand_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--config", "x"])
        assert exc.value.code == 2
