"""Experiment runner: config in, artifacts out.

A run parses one INI-style config and follows one pipeline for every
task. It removes any earlier run's artifacts from the output directory,
assembles one pencil and solves it once, at the t and depth the task's
checks need; `converge` runs `weyl.convergence_study` instead and goes on
from its finest level. Only the checks differ by task: a checker's report
(bracket, sandwich, varprin) or the Weyl fit (weyl). One tail then cuts
the spectrum at k_each, writes `spectrum.csv` and optionally
`counting.svg`, and writes `summary.json` last.
Exit codes: 0 when every enabled check passes, 1 when a check fails,
2 for config problems, 3 for modeling violations (such as a weight that
integrates to zero on a pure Neumann problem), 4 for solver failures and
for a problem too large for the machine's memory, 5 when the computed
spectrum is too short for the Weyl fit window.

Each config key is declared once, as a row of `_KEYS`, and each metric,
weight and boundary kind once, as a row of `_METRICS`, `_WEIGHTS` or
`_BOUNDARIES`. The parser, the materialized defaults, the CLI flags and the
config echoed in `summary.json` all read those rows; a new key or kind is
one new row.

Everything written is a pure function of the config: floats go through
repr, JSON keys are sorted, the SVG carries no timestamps, so a rerun of
one config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .assembly import BoundarySpec, ModelingError, assemble
from .fields import (
    ComparabilityError,
    SingularPointError,
    checkerboard_metric,
    checkerboard_weight,
    cone_metric,
    constant_weight,
    euclidean_metric,
    expression_weight,
    graph_cone_metric,
    halves_weight,
    pullback_metric,
)
from .mesh import MeshFormatError, generate_disk, generate_unit_square
from .spectral import MODES, SolverError, Spectrum, solve_weighted
from .varprin import (
    check_bracketing,
    check_courant,
    check_poincare_minmax,
    check_rayleigh,
    check_sandwich,
    save_report,
)
from .weyl import (
    FitError,
    _check_window,
    convergence_study,
    fit_limit,
    weyl_constants,
    write_spectrum_csv,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "build_metric",
    "build_weight",
    "build_boundary",
    "named_partition",
    "emit_svg",
    "run",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_MODELING = 3
EXIT_SOLVER = 4
EXIT_FIT = 5

TASKS = ("solve", "weyl", "bracket", "sandwich", "varprin", "converge")

# every file a run may write
_ARTIFACTS = ("spectrum.csv", "counting.svg", "convergence.csv",
              "summary.json")


class ConfigError(ValueError):
    """Raised for unparseable configs, unknown keys, or bad values."""


# ---------------------------------------------------------------------------
# value parsers: config text in, a checked value out, ValueError otherwise


def _typed(convert, noun):
    def parse(raw):
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(
                "expected {}, got {!r}".format(noun, raw)) from None
    return parse


def _finite(raw):
    value = float(raw)
    if not np.isfinite(value):  # "nan" and "inf" parse as floats
        raise ValueError
    return value


_integer = _typed(int, "an integer")
_number = _typed(_finite, "a finite number")


def _boolean(raw):
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean, got {!r}".format(raw))


def _fraction(raw):
    value = _number(raw)
    if not 0.0 < value < 1.0:
        raise ValueError("must lie in (0, 1), got {!r}".format(raw))
    return value


def _at_least(lo, convert=_integer):
    def parse(raw):
        value = convert(raw)
        if value < lo:
            raise ValueError("must be >= {}".format(lo))
        return value
    return parse


def _list(convert):
    """Comma-separated values, each read by `convert`, as a tuple."""
    return lambda raw: tuple(convert(part) for part in raw.split(","))


def _unknown(what, raw, options):
    names = [str(o) for o in options]
    if len(names) > 2:
        names = [", ".join(names[:-1]) + ",", names[-1]]
    return "unknown {} {!r}; expected {}".format(what, raw, " or ".join(names))


def _one_of(options, what, convert=str):
    def parse(raw):
        value = convert(raw)
        if value not in options:
            raise ValueError(_unknown(what, raw, options))
        return value
    return parse


def _window(raw):
    """None for "auto" (the middle third), else the pair (k_lo, k_hi)."""
    if raw == "auto":
        return None
    window = _list(_integer)(raw)
    if len(window) != 2:
        raise ValueError("expected k_lo,k_hi")
    return _check_window(window)


class _Key(NamedTuple):
    """One config key: its [section] ('' for the preamble), the
    `ExperimentConfig` attribute it sets, its default and the parser of its
    text. A default is config text, or a function of the config as set by
    the rows before it, returning a value the parser takes."""

    section: str
    key: str
    attr: str
    default: object
    parse: Callable


# Every key the parser accepts, and nothing else. `resolved()` echoes them
# in this layout, a section named after its one key as a bare value.
_KEYS = (
    _Key("", "task", "task", "solve", _one_of(TASKS, "task")),
    _Key("domain", "kind", "domain_kind", "square",
         _one_of(("square", "disk"), "domain kind")),
    _Key("domain", "level", "level", "4", _at_least(1)),
    _Key("domain", "size", "size", lambda cfg: 2 ** cfg.level, _at_least(1)),
    _Key("metric", "metric", "metric_spec", "euclidean", str),
    _Key("weight", "weight", "weight_spec", "const:1", str),
    _Key("boundary", "boundary", "boundary_spec", "dirichlet", str),
    _Key("solver", "t", "t", "0", _at_least(0, _number)),
    _Key("solver", "k_each", "k_each", "200", _at_least(1)),
    _Key("solver", "mode", "mode", "auto", _one_of(MODES, "mode")),
    _Key("solver", "seed", "seed", "0", _at_least(0)),
    _Key("solver", "quad_order", "quad_order", "2",
         _one_of((1, 2, 4), "quadrature order", _integer)),
    _Key("solver", "k_max", "k_max", "50", _at_least(1)),
    _Key("solver", "t_list", "t_list", "0.5,0.1,0.02", _list(_fraction)),
    _Key("solver", "trials", "trials", "100", _at_least(1)),
    _Key("solver", "k", "k", "3", _at_least(1)),
    _Key("solver", "partition", "partition", "halves",
         _one_of(("halves", "quadrants"), "partition")),
    _Key("solver", "levels", "levels", "4,5", _list(_at_least(1))),
    _Key("solver", "window", "window", "auto", _window),
    _Key("output", "dir", "out_dir", "out", str),
    _Key("output", "svg", "svg", "false", _boolean),
)

_FIELDS = {(row.section, row.key) for row in _KEYS}
_SECTIONS = {section for section, _ in _FIELDS} - {""}  # headed sections


def _parse_ini(text):
    """Line-oriented `key = value` under [section] headers; '#' and ';'
    start comments. Returns {section: {key: value}} with '' for the
    preamble."""
    sections = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(
                    "line {}: unterminated section header".format(lineno))
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ConfigError(
                    "line {}: unknown section [{}]".format(lineno, current))
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(
                "line {}: expected key = value, got {!r}".format(lineno, line))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if (current, key) not in _FIELDS:
            where = "[{}] ".format(current) if current else ""
            raise ConfigError(
                "line {}: unknown key {}{!r}".format(lineno, where, key))
        if key in sections[current]:
            raise ConfigError(
                "line {}: duplicate key {!r}".format(lineno, key))
        sections[current][key] = value
    return sections


def _read_ini(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_ini(fh.read())
    except OSError as exc:
        raise ConfigError("cannot read config: {}".format(exc))


class ExperimentConfig:
    """Fully-resolved run description; every default is materialized so the
    echoed copy in summary.json describes the run completely.

    Each key of `_KEYS` sets one attribute, read from `sections`
    ({section: {key: text}}, as `_parse_ini` returns) or from its default,
    and checked as it is read: a bad value raises ConfigError naming
    `section.key`."""

    def __init__(self, sections):
        for row in _KEYS:
            raw = sections.get(row.section, {}).get(row.key, row.default)
            if callable(raw):  # a default derived from the keys before it
                raw = raw(self)
            try:
                setattr(self, row.attr, row.parse(raw))
            except ValueError as exc:
                field = ".".join(filter(None, (row.section, row.key)))
                raise ConfigError("{}: {}".format(field, exc)) from None

    @classmethod
    def from_text(cls, text):
        return cls(_parse_ini(text))

    def resolved(self):
        """Every key's value as JSON data: tuples as lists, the "auto"
        window (None) as "auto"."""
        out = {}
        for row in _KEYS:
            value = getattr(self, row.attr)
            if value is None:
                value = "auto"
            elif isinstance(value, tuple):
                value = list(value)
            if row.section in ("", row.key):
                out[row.key] = value
            else:
                out.setdefault(row.section, {})[row.key] = value
        return out


# ---------------------------------------------------------------------------
# field specs: `head[:payload]` strings naming a metric, weight or boundary


class _Kind(NamedTuple):
    """One spec kind: its head, the constructor it calls and what it takes.

    The payload's leading comma-separated values are read by `values`, in
    order, and the `name=value` pairs after them by `options`, keyed by the
    constructor's keyword; the constructor's signature says which of them
    are required and gives the defaults. A kind with one value and no
    options reads the whole payload, commas included. `usage` ends the
    error message of a payload that does not fit.
    """

    head: str
    build: Callable
    usage: str = "takes no parameters"
    values: tuple = ()
    options: dict = {}


def _shear_pullback(shear):
    J = np.array([[1.0, shear], [0.0, 1.0]])
    # singular values of the shear; JtJ has trace s^2 + 2 and det 1
    tr = shear * shear + 2.0
    hi = np.sqrt((tr + np.sqrt(tr * tr - 4.0)) / 2.0)
    return pullback_metric(
        euclidean_metric(),
        phi=lambda pts: pts @ J.T,
        jacobian=lambda pts: np.broadcast_to(J, (len(pts), 2, 2)),
        jac_bounds=(1.0 / hi, hi),
    )


_METRICS = (
    _Kind("euclidean", euclidean_metric),
    _Kind("graph_cone", graph_cone_metric),
    _Kind("cone", cone_metric, "requires alpha=<radians>",
          options={"alpha": float}),
    _Kind("checkerboard", checkerboard_metric,
          "takes a=<f>, b=<f> and cells=<n>, each optional",
          options={"a": float, "b": float, "cells": int}),
    _Kind("pullback", _shear_pullback, "requires shear=<float>",
          options={"shear": float}),
)
_WEIGHTS = (
    _Kind("const", constant_weight, "requires a value, e.g. const:1",
          (float,)),
    _Kind("halves", halves_weight, "requires two values, e.g. halves:1,-1",
          (float, float)),
    _Kind("checkerboard", checkerboard_weight,
          "requires two values, then optionally cells=<n>, "
          "e.g. checkerboard:1,-1", (float, float), {"cells": int}),
    _Kind("expr", expression_weight, "requires an expression", (str,)),
)
_BOUNDARIES = (
    _Kind("dirichlet", BoundarySpec.dirichlet),
    _Kind("neumann", BoundarySpec.neumann),
    _Kind("mixed", BoundarySpec.mixed, "requires tags, e.g. mixed:1,3",
          (_list(_integer),)),
)


def _build(field, kinds, spec):
    """The object of a `head[:payload]` spec, by the row of `kinds` its head
    names. Every failure, the constructor's own ValueError included, is a
    ConfigError naming `field`."""
    head, _, payload = spec.partition(":")
    kind = next((k for k in kinds if k.head == head), None)
    if kind is None:
        raise ConfigError("{}: {}".format(field, _unknown(
            field + " kind", head, [k.head for k in kinds])))
    n = len(kind.values)
    if not payload:
        parts = []
    elif n == 1 and not kind.options:
        parts = [payload]
    else:
        parts = payload.split(",")
    try:
        args = [convert(part) for convert, part in zip(kind.values, parts)]
        kwargs = {}
        for part in parts[n:]:
            name, eq, value = part.partition("=")
            name = name.strip()
            if not eq or name not in kind.options:
                raise ValueError(part)
            kwargs[name] = kind.options[name](value)
        inspect.signature(kind.build).bind(*args, **kwargs)
    except (ValueError, TypeError):
        raise ConfigError("{}: {} {}, got {!r}".format(
            field, head, kind.usage, spec)) from None
    try:
        return kind.build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError("{}: {}".format(field, exc)) from None


def build_metric(spec):
    """The metric field of a spec whose kind is a row of `_METRICS`."""
    return _build("metric", _METRICS, spec)


def build_weight(spec):
    """The weight field of a spec whose kind is a row of `_WEIGHTS`."""
    return _build("weight", _WEIGHTS, spec)


def build_boundary(spec):
    """The `BoundarySpec` of a spec whose kind is a row of `_BOUNDARIES`."""
    return _build("boundary", _BOUNDARIES, spec)


def _build_mesh(kind, size):
    return generate_unit_square(size) if kind == "square" else generate_disk(size)


def named_partition(m, name):
    """Triangle-index cells splitting the mesh at its bounding-box center:
    'halves' cuts left/right, 'quadrants' makes the 2x2 split."""
    cen = m.vertices[m.triangles].mean(axis=1)
    lo = m.vertices.min(axis=0)
    hi = m.vertices.max(axis=0)
    mid = 0.5 * (lo + hi)
    if name == "halves":
        left = np.nonzero(cen[:, 0] < mid[0])[0]
        right = np.nonzero(cen[:, 0] >= mid[0])[0]
        return [left, right]
    if name == "quadrants":
        cells = []
        for gx in (False, True):
            for gy in (False, True):
                mask = ((cen[:, 0] >= mid[0]) == gx) \
                    & ((cen[:, 1] >= mid[1]) == gy)
                cells.append(np.nonzero(mask)[0])
        return [c for c in cells if len(c)]
    raise ConfigError("solver.partition: unknown scheme {!r}".format(name))


# ---------------------------------------------------------------------------
# SVG staircase


def _fmt(x):
    return "{:.2f}".format(x)


def emit_svg(s, target, path):
    """Deterministic counting-function staircase against the Weyl curves.

    Draws N^+(lam) and, when present, N^-(lam) as step functions with the
    target hyperbolas c_pm/lam overlaid; fixed 640x480 viewport, two-decimal
    coordinates, no timestamps, so equal inputs give equal bytes.
    """
    sides = []
    for vals, c, color, label in (
        (s.pos, target.c_plus, "#2b6cb0", "plus"),
        (s.neg, target.c_minus, "#c05621", "minus"),
    ):
        if len(vals):
            sides.append((np.asarray(vals, dtype=float), c, color, label))
    if not sides:
        raise FitError("cannot plot an empty spectrum")

    W, H = 640.0, 480.0
    ml, mr, mt, mb = 64.0, 16.0, 16.0, 48.0
    lam_hi = max(v[0] for v, *_ in sides)
    lam_lo = min(v[-1] for v, *_ in sides)
    span = lam_hi - lam_lo
    if span <= 0.0:
        span = max(lam_hi, 1.0)
    lo = max(lam_lo - 0.02 * span, 0.0)
    hi = lam_hi + 0.05 * span
    n_top = 1.05 * max(len(v) for v, *_ in sides)

    def sx(lam):
        return ml + (lam - lo) / (hi - lo) * (W - ml - mr)

    def sy(n):
        return H - mb - (n / n_top) * (H - mt - mb)

    parts = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
        'viewBox="0 0 640 480">')
    parts.append('<rect x="0" y="0" width="640" height="480" fill="white"/>')
    # axes
    parts.append(
        '<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
        'stroke="black" stroke-width="1"/>'.format(
            x0=_fmt(ml), y0=_fmt(H - mb), x1=_fmt(W - mr), y1=_fmt(mt)))
    for i in range(5):
        lam = lo + (hi - lo) * i / 4.0
        parts.append(
            '<text x="{}" y="{}" font-size="11" text-anchor="middle" '
            'font-family="monospace">{:.4g}</text>'.format(
                _fmt(sx(lam)), _fmt(H - mb + 16.0), lam))
        n = n_top * i / 4.0
        parts.append(
            '<text x="{}" y="{}" font-size="11" text-anchor="end" '
            'font-family="monospace">{:.4g}</text>'.format(
                _fmt(ml - 6.0), _fmt(sy(n) + 4.0), n))
    parts.append(
        '<text x="{}" y="{}" font-size="12" text-anchor="middle" '
        'font-family="monospace">lambda</text>'.format(
            _fmt((ml + W - mr) / 2.0), _fmt(H - 10.0)))
    parts.append(
        '<text x="14" y="{}" font-size="12" text-anchor="middle" '
        'font-family="monospace" transform="rotate(-90 14 {})">'
        'N(lambda)</text>'.format(_fmt((mt + H - mb) / 2.0),
                                  _fmt((mt + H - mb) / 2.0)))

    legend_y = mt + 14.0
    for vals, c, color, label in sides:
        # staircase: N jumps by one at every eigenvalue, largest first
        steps = ["M {} {}".format(_fmt(sx(hi)), _fmt(sy(0.0)))]
        for idx, lam in enumerate(vals):
            steps.append("L {} {}".format(_fmt(sx(lam)), _fmt(sy(idx))))
            steps.append("L {} {}".format(_fmt(sx(lam)), _fmt(sy(idx + 1))))
        steps.append("L {} {}".format(_fmt(sx(max(lo, vals[-1] * 0.98))),
                                      _fmt(sy(len(vals)))))
        parts.append(
            '<path d="{}" fill="none" stroke="{}" stroke-width="1.5"/>'
            .format(" ".join(steps), color))
        if c > 0.0:
            # Weyl curve c/lam, clipped to the viewport
            lam_start = max(lo if lo > 0.0 else hi / 1000.0, c / n_top)
            xs = np.linspace(lam_start, hi, 96)
            curve = ["{} {} {}".format("M" if j == 0 else "L",
                                       _fmt(sx(x)), _fmt(sy(c / x)))
                     for j, x in enumerate(xs)]
            parts.append(
                '<path d="{}" fill="none" stroke="{}" stroke-width="1" '
                'stroke-dasharray="5 3" opacity="0.85"/>'
                .format(" ".join(curve), color))
        parts.append(
            '<text x="{}" y="{}" font-size="11" text-anchor="end" '
            'font-family="monospace" fill="{}">N {} (c = {:.6g})</text>'
            .format(_fmt(W - mr - 6.0), _fmt(legend_y), color, label, c))
        legend_y += 14.0

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


# ---------------------------------------------------------------------------
# task runners


def _solve(cfg, p):
    """The task's one solve of p, at the t and depth its checks need;
    only varprin's checkers read eigenvectors."""
    t, depth = cfg.t, cfg.k_each
    if cfg.task == "bracket":
        t, depth = (t if t > 0.0 else 1.0), max(depth, cfg.k_max)
    elif cfg.task == "sandwich":
        t, depth = 0.0, max(depth, cfg.k_max + p.tau)
    elif cfg.task == "varprin":
        depth = max(depth, cfg.k + 1)
    return solve_weighted(p, t, k_each=depth, mode=cfg.mode,
                          vectors=cfg.task == "varprin")


def _checks(cfg, m, g, w, bc, p, s):
    """The task's own summary entries and its checks: a checker's report,
    the Weyl fit, or neither."""
    if cfg.task == "bracket":
        report = check_bracketing(
            s, m, named_partition(m, cfg.partition), g, w, bc,
            k_max=cfg.k_max, quad_order=cfg.quad_order, mode=cfg.mode)
        return {"report": report}, {"bracketing": report["passed"]}
    if cfg.task == "sandwich":
        report = check_sandwich(s, p, cfg.t_list, k_max=cfg.k_max,
                                mode=cfg.mode)
        return {"report": report}, {"sandwich": report["passed"]}
    if cfg.task == "varprin":
        reports = [check(s, p, cfg.k, cfg.trials, cfg.seed) for check in
                   (check_poincare_minmax, check_rayleigh, check_courant)]
        return ({"report": reports},
                {rep["check"]: rep["passed"] for rep in reports})
    if cfg.task == "solve":
        return {}, {"solver_completed": True}
    fit = fit_limit(s, cfg.window, target=weyl_constants(p.vol, p.masses))
    checks = {"rel_dev_{}_below_0.10".format(label): side["rel_dev"] < 0.10
              for label, side in fit["sides"].items()
              if side != "empty side" and side["rel_dev"] is not None}
    return {"fit": fit}, dict(checks, solver_completed=True)


def run(cfg: ExperimentConfig) -> int:
    """Execute one config; returns the process exit status."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        out = functools.partial(os.path.join, cfg.out_dir)
        for name in _ARTIFACTS:  # a failed run leaves no earlier run's files
            with contextlib.suppress(FileNotFoundError):
                os.remove(out(name))
        g, w, bc = (build_metric(cfg.metric_spec),
                    build_weight(cfg.weight_spec),
                    build_boundary(cfg.boundary_spec))
        if cfg.task == "converge":
            rows, p, s = convergence_study(
                lambda level: (_build_mesh(cfg.domain_kind, 2 ** level),
                               g, w, bc),
                cfg.levels, cfg.window, cfg.t, k_each=cfg.k_each,
                quad_order=cfg.quad_order, mode=cfg.mode,
                csv_path=out("convergence.csv"))
            summary = {"levels": rows}
            checks = {"deviations_finite": all(
                np.isfinite(row[key]) for row in rows for key in
                ("rel_dev_plus", "rel_dev_minus") if row[key] is not None)}
        else:
            m = _build_mesh(cfg.domain_kind, cfg.size)
            p = assemble(m, g, w, bc, cfg.quad_order)
            s = _solve(cfg, p)
            summary, checks = _checks(cfg, m, g, w, bc, p, s)

        # the tail every task shares: the leading k_each values of each
        # sign, without eigenvectors, against the pencil's Weyl target
        tgt = weyl_constants(p.vol, p.masses)
        s = Spectrum(s.pos[:cfg.k_each], s.neg[:cfg.k_each], meta=s.meta)
        write_spectrum_csv(s, tgt, out("spectrum.csv"))
        if cfg.svg:
            emit_svg(s, tgt, out("counting.svg"))
        summary.update(
            version="v{}".format(__version__), task=cfg.task,
            config=cfg.resolved(),
            # the directory held none of them when the run began
            artifacts={name.replace(".", "_"): name for name in _ARTIFACTS
                       if os.path.exists(out(name))},
            targets={"c_plus": tgt.c_plus, "c_minus": tgt.c_minus,
                     "vol": tgt.vol},
            counts={"plus": len(s.pos), "minus": len(s.neg)},
            method=s.meta.get("method"), checks=checks,
            passed=all(checks.values()))
        save_report(summary, out("summary.json"))
        return EXIT_OK if summary["passed"] else EXIT_CHECK_FAILED
    except ModelingError as exc:
        print("modeling error: {}".format(exc), file=sys.stderr)
        return EXIT_MODELING
    except (ComparabilityError, SingularPointError) as exc:
        print("field hypothesis violated: {}".format(exc), file=sys.stderr)
        return EXIT_MODELING
    except SolverError as exc:
        print("solver failure: {}".format(exc), file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print("out of memory: {}".format(str(exc) or "allocation failed"),
              file=sys.stderr)
        return EXIT_SOLVER
    except FitError as exc:
        print("fit failure: {}".format(exc), file=sys.stderr)
        return EXIT_FIT
    except (ConfigError, MeshFormatError, ValueError) as exc:
        print("config error: {}".format(exc), file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print("cannot write artifacts: {}".format(exc), file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughweyl",
        description="Weighted-Laplace spectral experiments on rough metrics")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        tp = sub.add_parser(task)
        tp.add_argument("--config", required=True)
        tp.add_argument("--out", dest="dir")
        tp.add_argument("--level")
        tp.add_argument("--seed")
    args = parser.parse_args(argv)

    try:
        sections = _read_ini(args.config)
        ExperimentConfig(sections)  # the file must be valid as written
        # the subcommand and each flag override the key they are named after
        if args.level is not None:  # and the size follows a new level
            sections.get("domain", {}).pop("size", None)
        for row in _KEYS:
            flag = getattr(args, row.key, None)
            if flag is not None:
                sections.setdefault(row.section, {})[row.key] = flag
        cfg = ExperimentConfig(sections)
    except ConfigError as exc:
        print("config error: {}".format(exc), file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
