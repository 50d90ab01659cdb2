"""Experiment runner: config in, artifacts out.

A run parses one INI-style config, builds the mesh/metric/weight/boundary
stack, dispatches the requested task, and writes `spectrum.csv`,
`summary.json`, and optionally `counting.svg` into the output directory.
Exit codes: 0 when every enabled check passes, 1 when a check fails,
2 for config problems, 3 for modeling violations (such as a weight that
integrates to zero on a pure Neumann problem), 4 for solver failures.

Everything written is a pure function of the config: floats go through
repr, JSON keys are sorted, the SVG carries no timestamps, so a rerun with
the same seed reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .assembly import _DENSE_LIMIT, BoundarySpec, ModelingError, assemble
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
from .mesh import Mesh, MeshFormatError, generate_disk, generate_unit_square
from .spectral import SolverError, Spectrum, solve_weighted
from .varprin import (
    check_bracketing,
    check_courant,
    check_poincare_minmax,
    check_rayleigh,
    check_sandwich,
    save_report,
)
from .weyl import (
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

TASKS = ("solve", "weyl", "bracket", "sandwich", "varprin", "converge")


class ConfigError(ValueError):
    """Raised for unparseable configs, unknown keys, or bad values."""


# every key the parser accepts, and nothing else
_SCHEMA = {
    "": {"task"},
    "domain": {"kind", "level", "size"},
    "metric": {"metric"},
    "weight": {"weight"},
    "boundary": {"boundary"},
    "solver": {"t", "k_each", "mode", "seed", "quad_order", "k_max",
               "t_list", "trials", "k", "partition", "levels", "window"},
    "output": {"dir", "svg"},
}


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
            if current not in _SCHEMA or current == "":
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
        if key not in _SCHEMA[current]:
            where = "[{}] ".format(current) if current else ""
            raise ConfigError(
                "line {}: unknown key {}{!r}".format(lineno, where, key))
        if key in sections[current]:
            raise ConfigError(
                "line {}: duplicate key {!r}".format(lineno, key))
        sections[current][key] = value
    return sections


def _as_int(section, key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            "{}.{}: expected an integer, got {!r}".format(section, key, value))


def _as_float(section, key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(
            "{}.{}: expected a number, got {!r}".format(section, key, value))


def _as_bool(section, key, value):
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(
        "{}.{}: expected a boolean, got {!r}".format(section, key, value))


def _as_float_list(section, key, value):
    try:
        return tuple(float(v) for v in value.split(","))
    except ValueError:
        raise ConfigError(
            "{}.{}: expected comma-separated numbers, got {!r}"
            .format(section, key, value))


def _as_int_list(section, key, value):
    try:
        return tuple(int(v) for v in value.split(","))
    except ValueError:
        raise ConfigError(
            "{}.{}: expected comma-separated integers, got {!r}"
            .format(section, key, value))


class ExperimentConfig:
    """Fully-resolved run description; every default is materialized so the
    echoed copy in summary.json describes the run completely."""

    def __init__(self, sections):
        pre = sections.get("", {})
        dom = sections.get("domain", {})
        sol = sections.get("solver", {})
        out = sections.get("output", {})

        task = pre.get("task", "solve")
        if task not in TASKS:
            raise ConfigError("task: unknown task {!r}; choose one of {}"
                              .format(task, "|".join(TASKS)))
        self.task = task

        kind = dom.get("kind", "square")
        if kind not in ("square", "disk"):
            raise ConfigError(
                "domain.kind: expected square or disk, got {!r}".format(kind))
        self.domain_kind = kind
        self.level = _as_int("domain", "level", dom.get("level", "4"))
        if self.level < 1:
            raise ConfigError("domain.level: must be >= 1")
        if "size" in dom:
            self.size = _as_int("domain", "size", dom["size"])
            if self.size < 1:
                raise ConfigError("domain.size: must be >= 1")
        else:
            self.size = 2 ** self.level

        self.metric_spec = sections.get("metric", {}).get("metric",
                                                          "euclidean")
        self.weight_spec = sections.get("weight", {}).get("weight", "const:1")
        self.boundary_spec = sections.get("boundary", {}).get("boundary",
                                                              "dirichlet")

        self.t = _as_float("solver", "t", sol.get("t", "0"))
        if self.t < 0.0:
            raise ConfigError("solver.t: must be >= 0")
        self.k_each = _as_int("solver", "k_each", sol.get("k_each", "200"))
        self.mode = sol.get("mode", "auto")
        if self.mode not in ("auto", "dense", "sparse"):
            raise ConfigError(
                "solver.mode: expected auto, dense, or sparse, got {!r}"
                .format(self.mode))
        self.seed = _as_int("solver", "seed", sol.get("seed", "0"))
        if self.seed < 0:
            raise ConfigError("solver.seed: must be >= 0")
        self.quad_order = _as_int("solver", "quad_order",
                                  sol.get("quad_order", "2"))
        self.k_max = _as_int("solver", "k_max", sol.get("k_max", "50"))
        self.t_list = _as_float_list("solver", "t_list",
                                     sol.get("t_list", "0.5,0.1,0.02"))
        self.trials = _as_int("solver", "trials", sol.get("trials", "100"))
        self.k = _as_int("solver", "k", sol.get("k", "3"))
        for key in ("k_each", "k_max", "trials", "k"):
            if getattr(self, key) < 1:
                raise ConfigError("solver.{}: must be >= 1".format(key))
        self.partition = sol.get("partition", "halves")
        if self.partition not in ("halves", "quadrants"):
            raise ConfigError(
                "solver.partition: expected halves or quadrants, got {!r}"
                .format(self.partition))
        self.levels = _as_int_list("solver", "levels",
                                   sol.get("levels", "4,5"))
        if min(self.levels) < 1:
            raise ConfigError("solver.levels: every level must be >= 1")
        window = sol.get("window")
        self.window = (None if window is None
                       else _as_int_list("solver", "window", window))
        if self.window is not None and len(self.window) != 2:
            raise ConfigError("solver.window: expected k_lo,k_hi")

        self.out_dir = out.get("dir", "out")
        self.svg = _as_bool("output", "svg", out.get("svg", "false"))

    @classmethod
    def from_text(cls, text):
        return cls(_parse_ini(text))

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_text(fh.read())
        except OSError as exc:
            raise ConfigError("cannot read config: {}".format(exc))

    def dense_limit(self):
        if self.mode == "dense":
            return 10 ** 9
        if self.mode == "sparse":
            return 0
        return _DENSE_LIMIT

    def resolved(self):
        return {
            "task": self.task,
            "domain": {"kind": self.domain_kind, "level": self.level,
                       "size": self.size},
            "metric": self.metric_spec,
            "weight": self.weight_spec,
            "boundary": self.boundary_spec,
            "solver": {
                "t": self.t,
                "k_each": self.k_each,
                "mode": self.mode,
                "seed": self.seed,
                "quad_order": self.quad_order,
                "k_max": self.k_max,
                "t_list": list(self.t_list),
                "trials": self.trials,
                "k": self.k,
                "partition": self.partition,
                "levels": list(self.levels),
                "window": ("auto" if self.window is None
                           else list(self.window)),
            },
            "output": {"dir": self.out_dir, "svg": self.svg},
        }


def _keyword_params(field, payload):
    params = {}
    if not payload:
        return params
    for part in payload.split(","):
        key, eq, value = part.partition("=")
        if not eq:
            raise ConfigError(
                "{}: expected key=value parameters, got {!r}"
                .format(field, part))
        params[key.strip()] = value.strip()
    return params


def build_metric(spec):
    """Recognized metric strings: euclidean | graph_cone | cone:alpha=<rad> |
    checkerboard:a=<f>,b=<f>[,cells=<n>] | pullback:shear=<f>."""
    head = spec.partition(":")[0]
    payload = spec.partition(":")[2]
    if head == "euclidean":
        if payload:
            raise ConfigError("metric: euclidean takes no parameters")
        return euclidean_metric()
    if head == "graph_cone":
        if payload:
            raise ConfigError("metric: graph_cone takes no parameters")
        return graph_cone_metric()
    if head == "cone":
        params = _keyword_params("metric", payload)
        if "alpha" not in params:
            raise ConfigError(
                "metric: cone requires alpha=<radians>, got {!r}".format(spec))
        alpha = _as_float("metric", "alpha", params.pop("alpha"))
        if params:
            raise ConfigError("metric: unknown cone parameters {}"
                              .format(sorted(params)))
        return cone_metric(alpha)
    if head == "checkerboard":
        params = _keyword_params("metric", payload)
        a = _as_float("metric", "a", params.pop("a", "1"))
        b = _as_float("metric", "b", params.pop("b", "2"))
        cells = _as_int("metric", "cells", params.pop("cells", "2"))
        if params:
            raise ConfigError("metric: unknown checkerboard parameters {}"
                              .format(sorted(params)))
        return checkerboard_metric(a, b, cells)
    if head == "pullback":
        params = _keyword_params("metric", payload)
        if "shear" not in params:
            raise ConfigError("metric: pullback requires shear=<float>")
        s = _as_float("metric", "shear", params.pop("shear"))
        if params:
            raise ConfigError("metric: unknown pullback parameters {}"
                              .format(sorted(params)))
        return _shear_pullback(s)
    raise ConfigError("metric: unknown metric kind {!r}".format(head))


def _shear_pullback(s):
    J = np.array([[1.0, s], [0.0, 1.0]])
    # singular values of the shear; JtJ has trace s^2 + 2 and det 1
    tr = s * s + 2.0
    hi = np.sqrt((tr + np.sqrt(tr * tr - 4.0)) / 2.0)
    return pullback_metric(
        euclidean_metric(),
        phi=lambda pts: pts @ J.T,
        jacobian=lambda pts: np.broadcast_to(J, (len(pts), 2, 2)),
        jac_bounds=(1.0 / hi, hi),
    )


def build_weight(spec):
    """Recognized weight strings: const:<v> | halves:<v+>,<v-> |
    checkerboard:<a>,<b>[,cells=<n>] | expr:<expression>."""
    head, _, payload = spec.partition(":")
    if head == "const":
        if not payload:
            raise ConfigError("weight: const requires a value, e.g. const:1")
        return constant_weight(_as_float("weight", "const", payload))
    if head == "halves":
        parts = payload.split(",") if payload else []
        if len(parts) != 2:
            raise ConfigError(
                "weight: halves requires two values, e.g. halves:1,-1")
        return halves_weight(_as_float("weight", "plus", parts[0]),
                             _as_float("weight", "minus", parts[1]))
    if head == "checkerboard":
        parts = payload.split(",") if payload else []
        if len(parts) < 2:
            raise ConfigError(
                "weight: checkerboard requires two values, e.g. "
                "checkerboard:1,-1")
        cells = 2
        if len(parts) == 3:
            key, eq, value = parts[2].partition("=")
            if key.strip() != "cells" or not eq:
                raise ConfigError(
                    "weight: third checkerboard parameter must be cells=<n>")
            cells = _as_int("weight", "cells", value)
        elif len(parts) > 3:
            raise ConfigError("weight: too many checkerboard parameters")
        return checkerboard_weight(_as_float("weight", "a", parts[0]),
                                   _as_float("weight", "b", parts[1]),
                                   cells)
    if head == "expr":
        if not payload:
            raise ConfigError("weight: expr requires an expression")
        try:
            return expression_weight(payload)
        except ValueError as exc:
            raise ConfigError("weight: {}".format(exc))
    raise ConfigError("weight: unknown weight kind {!r}".format(head))


def build_boundary(spec):
    """Recognized boundary strings: dirichlet | neumann | mixed:<tag>,<tag>,..."""
    head, _, payload = spec.partition(":")
    if head == "dirichlet":
        return BoundarySpec.dirichlet()
    if head == "neumann":
        return BoundarySpec.neumann()
    if head == "mixed":
        if not payload:
            raise ConfigError(
                "boundary: mixed requires tags, e.g. mixed:1,3")
        tags = _as_int_list("boundary", "mixed", payload)
        return BoundarySpec.mixed(tags)
    raise ConfigError("boundary: unknown boundary kind {!r}".format(head))


def _build_mesh(kind, size, level):
    m = generate_unit_square(size) if kind == "square" else generate_disk(size)
    return Mesh(m.vertices, m.triangles, m.boundary_edges, level=level)


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
        raise ValueError("cannot plot an empty spectrum")

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


def _fields(cfg):
    """The config's metric, weight and boundary conditions."""
    return (build_metric(cfg.metric_spec), build_weight(cfg.weight_spec),
            build_boundary(cfg.boundary_spec))


def _solve_stack(cfg):
    return assemble(_build_mesh(cfg.domain_kind, cfg.size, cfg.level),
                    *_fields(cfg), cfg.quad_order)


def _level_problem(cfg):
    """`make_problem(level)` for `convergence_study`: the config's fields
    on the mesh of size 2^level."""
    fields = _fields(cfg)
    return lambda level: (_build_mesh(cfg.domain_kind, 2 ** level, level),
                          *fields)


def _leading(s, k):
    """The first k values of each sign of s, without eigenvectors."""
    return Spectrum(s.pos[:k], s.neg[:k], meta=s.meta)


def _spectrum_artifacts(cfg, p, s, out_dir):
    tgt = weyl_constants(p.quad)
    csv_path = os.path.join(out_dir, "spectrum.csv")
    write_spectrum_csv(s, tgt, csv_path)
    artifacts = {"spectrum_csv": "spectrum.csv"}
    if cfg.svg:
        svg_path = os.path.join(out_dir, "counting.svg")
        emit_svg(s, tgt, svg_path)
        artifacts["counting_svg"] = "counting.svg"
    return tgt, artifacts


def run(cfg: ExperimentConfig) -> int:
    """Execute one config; returns the process exit status."""
    try:
        out_dir = cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        summary = {
            "version": "v{}".format(__version__),
            "task": cfg.task,
            "config": cfg.resolved(),
        }
        checks = {}

        if cfg.task == "converge":
            rows, p, s = convergence_study(
                _level_problem(cfg), cfg.levels, cfg.window, cfg.t,
                k_each=cfg.k_each, quad_order=cfg.quad_order,
                dense_limit=cfg.dense_limit(), seed=cfg.seed,
                csv_path=os.path.join(out_dir, "convergence.csv"))
            tgt, artifacts = _spectrum_artifacts(cfg, p, s, out_dir)
            artifacts["convergence_csv"] = "convergence.csv"
            summary["levels"] = rows
            summary["targets"] = {"c_plus": tgt.c_plus,
                                  "c_minus": tgt.c_minus, "vol": tgt.vol}
            devs = [row["rel_dev_{}".format(side)]
                    for row in rows for side in ("plus", "minus")
                    if row["rel_dev_{}".format(side)] is not None]
            checks["deviations_finite"] = all(np.isfinite(devs))
        elif cfg.task == "bracket":
            m = _build_mesh(cfg.domain_kind, cfg.size, cfg.level)
            g, w, bc = _fields(cfg)
            t = cfg.t if cfg.t > 0.0 else 1.0
            p = assemble(m, g, w, bc, cfg.quad_order)
            s = solve_weighted(p, t, k_each=max(cfg.k_each, cfg.k_max),
                               dense_limit=cfg.dense_limit(), seed=cfg.seed,
                               vectors=False)
            report = check_bracketing(
                m, named_partition(m, cfg.partition), g, w, bc, t,
                k_max=cfg.k_max, quad_order=cfg.quad_order,
                dense_limit=cfg.dense_limit(), seed=cfg.seed, s_global=s)
            _, artifacts = _spectrum_artifacts(cfg, p, _leading(s, cfg.k_each),
                                               out_dir)
            summary["report"] = report
            checks["bracketing"] = report["passed"]
        elif cfg.task == "sandwich":
            p = _solve_stack(cfg)
            s = solve_weighted(p, 0.0, k_each=max(cfg.k_each,
                                                  cfg.k_max + p.tau),
                               dense_limit=cfg.dense_limit(), seed=cfg.seed,
                               vectors=False)
            report = check_sandwich(p, cfg.t_list, k_max=cfg.k_max,
                                    dense_limit=cfg.dense_limit(),
                                    seed=cfg.seed, s0=s)
            _, artifacts = _spectrum_artifacts(cfg, p, _leading(s, cfg.k_each),
                                               out_dir)
            summary["report"] = report
            checks["sandwich"] = report["passed"]
        elif cfg.task == "varprin":
            p = _solve_stack(cfg)
            s = solve_weighted(p, cfg.t, k_each=max(cfg.k_each, cfg.k + 1),
                               dense_limit=cfg.dense_limit(), seed=cfg.seed)
            reports = [
                check_poincare_minmax(s, p, cfg.k, cfg.trials, cfg.seed),
                check_rayleigh(s, p, cfg.k, cfg.trials, cfg.seed),
                check_courant(s, p, cfg.k, cfg.trials, cfg.seed),
            ]
            _, artifacts = _spectrum_artifacts(cfg, p, _leading(s, cfg.k_each),
                                               out_dir)
            summary["report"] = reports
            for rep in reports:
                checks[rep["check"]] = rep["passed"]
        else:  # solve and weyl share the pipeline
            p = _solve_stack(cfg)
            s = solve_weighted(p, cfg.t, k_each=cfg.k_each,
                               dense_limit=cfg.dense_limit(), seed=cfg.seed,
                               vectors=False)
            tgt, artifacts = _spectrum_artifacts(cfg, p, s, out_dir)
            summary["targets"] = {"c_plus": tgt.c_plus,
                                  "c_minus": tgt.c_minus, "vol": tgt.vol}
            summary["counts"] = {"plus": len(s.pos), "minus": len(s.neg)}
            summary["method"] = s.meta.get("method")
            checks["solver_completed"] = True
            if cfg.task == "weyl":
                fit = fit_limit(s, cfg.window, target=tgt)
                summary["fit"] = fit
                for label in ("plus", "minus"):
                    side = fit["sides"][label]
                    if side == "empty side" or side["rel_dev"] is None:
                        continue
                    checks["rel_dev_{}_below_0.10".format(label)] = (
                        side["rel_dev"] < 0.10)

        summary["checks"] = checks
        summary["passed"] = all(checks.values())
        summary["artifacts"] = artifacts
        save_report(summary, os.path.join(out_dir, "summary.json"))
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
        tp.add_argument("--out", default=None)
        tp.add_argument("--level", type=int, default=None)
        tp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.from_file(args.config)
    except ConfigError as exc:
        print("config error: {}".format(exc), file=sys.stderr)
        return EXIT_CONFIG

    cfg.task = args.task
    if args.out is not None:
        cfg.out_dir = args.out
    if args.level is not None:
        if args.level < 1:
            print("config error: --level must be >= 1", file=sys.stderr)
            return EXIT_CONFIG
        cfg.level = args.level
        cfg.size = 2 ** args.level
    if args.seed is not None:
        if args.seed < 0:
            print("config error: --seed must be >= 0", file=sys.stderr)
            return EXIT_CONFIG
        cfg.seed = args.seed
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
