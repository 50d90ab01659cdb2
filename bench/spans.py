"""Span tracing from outside the package, and the per-layer metrics.

`Tracer.install()` replaces each public function of the layer modules at
every module attribute that binds it (importers use
`from .spectral import solve_weighted`, so `roughweyl.cli.solve_weighted`
and `roughweyl.varprin.solve_weighted` are separate bindings), plus the
`MetricField.matrices` and `WeightField.values` methods. Each call records
a span: name, start, end, parent and a few attributes read from its
arguments and result. Spans stay in memory until the caller writes them
out. Nothing under `src/` changes; `uninstall()` restores the originals.

The benchmark runs one task at a time from one thread, so a single
parent stack suffices.
"""

import functools
import inspect
import os
import statistics
import sys
import time

PACKAGE = "roughweyl"
LAYERS = ("mesh", "fields", "assembly", "spectral", "varprin", "weyl", "cli")
METHOD_KEYS = {"dense": "dense", "sparse-lanczos": "lanczos",
               "sparse-projected": "projected"}


def _n_triangles(args, kwargs, result):
    return {"triangles": int(result.num_triangles)}


def _io_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else args[0]  # save_mesh(m, path)
    return {"bytes": int(os.path.getsize(path))}


def _points(args, kwargs, result):
    return {"points": int(len(result))}


def _assembled(args, kwargs, result):
    return {"nnz": int(result.K.nnz)}


def _fingerprint(p, t):
    """Identifies the assembled matrices and shift of a solve by content,
    so that two separately assembled copies of one problem match."""
    return (p.n_free, p.K.nnz, float(p.K.data.sum()), float(p.Mm.data.sum()),
            float(p.R.data.sum()), int(p.free_dofs.sum()), float(t))


def _solved(args, kwargs, result):
    p = args[0]
    t = args[1] if len(args) > 1 else kwargs.get("t", 0.0)
    return {"method": result.meta.get("method"),
            "eigs": int(len(result.pos) + len(result.neg)),
            "n_free": int(p.n_free),
            "key": _fingerprint(p, t)}


def _trials(args, kwargs, result):
    return {"trials": int(result["trials"])}


# span attributes recorded per wrapped name
ATTRS = {
    "mesh.generate_unit_square": _n_triangles,
    "mesh.generate_disk": _n_triangles,
    "mesh.refine_uniform": _n_triangles,
    "mesh.save_mesh": _io_bytes,
    "mesh.load_mesh": _io_bytes,
    "fields.MetricField.matrices": _points,
    "fields.WeightField.values": _points,
    "assembly.assemble": _assembled,
    "spectral.solve_weighted": _solved,
    "varprin.check_poincare_minmax": _trials,
    "varprin.check_rayleigh": _trials,
    "varprin.check_courant": _trials,
}


class Tracer:
    """Records spans as [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.wrapped = []   # every span name that can be recorded

    def _wrap(self, name, fn):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of every layer's public functions."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            mod = sys.modules["{}.{}".format(PACKAGE, layer)]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                name = "{}.{}".format(layer, attr)
                wrapper = self._wrap(name, fn)
                self.wrapped.append(name)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patched.append((owner, key, fn))
                            setattr(owner, key, wrapper)
        fields = sys.modules[PACKAGE + ".fields"]
        for cls, method in ((fields.MetricField, "matrices"),
                            (fields.WeightField, "values")):
            fn = vars(cls)[method]
            name = "fields.{}.{}".format(cls.__name__, method)
            self.wrapped.append(name)
            self._patched.append((cls, method, fn))
            setattr(cls, method, self._wrap(name, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def root_time(spans):
    return sum(end - start for _, start, end, parent, _ in spans
               if parent < 0)


def layer_of(name):
    return name.split(".", 1)[0]


def in_call_times(spans):
    """Self time of every span, charged to its outermost caller in the same
    layer: `validate` carries the `edge_incidence` it calls, while
    `check_sandwich` does not carry its solves, which are spectral."""
    charged = [0.0] * len(spans)
    owner = []
    for idx, (own, span) in enumerate(zip(self_times(spans), spans)):
        parent = span[3]
        if parent >= 0 and layer_of(spans[parent][0]) == layer_of(span[0]):
            owner.append(owner[parent])
        else:
            owner.append(idx)
        charged[owner[idx]] += own
    return charged


def layer_metrics(spans, names):
    """Per-layer metrics of one traced pass.

    `names` lists every wrapped span name, so a call that no longer happens
    still reports zero counts and times. `<layer>.self_s` is the layer's
    whole self time; the seven add up to the root spans. A metric named
    after a function (`assembly.assemble_s`, `varprin.courant_s`) is the
    layer's self time inside outermost calls of that function.
    `fields.eval_s` (the outermost metric and weight evaluations) and
    `cli.svg_s` are whole call times, because their callers sit in the
    same layer.
    """
    charged = in_call_times(spans)
    by_name = {name: [] for name in names}
    for span, own in zip(spans, charged):
        by_name.setdefault(span[0], []).append((span, own))

    def total(name, field="time"):
        if field == "time":
            return sum(own for _, own in by_name[name])
        if field == "calls":
            return len(by_name[name])
        return sum(s[4][field] for s, _ in by_name[name])

    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(total(n) for n in by_name
                                   if layer_of(n) == layer)

    builds = ("mesh.generate_unit_square", "mesh.generate_disk",
              "mesh.refine_uniform")
    m["mesh.build_s"] = sum(total(n) for n in builds)
    m["mesh.triangles"] = sum(total(n, "triangles") for n in builds)
    m["mesh.io_s"] = total("mesh.save_mesh") + total("mesh.load_mesh")
    m["mesh.io_bytes"] = (total("mesh.save_mesh", "bytes")
                          + total("mesh.load_mesh", "bytes"))
    m["mesh.validate_s"] = total("mesh.validate")

    # a pullback metric evaluates its base metric inside its own
    # evaluation; only the outermost evaluation counts
    evals = ("fields.MetricField.matrices", "fields.WeightField.values")
    outer = [s for s in spans
             if s[0] in evals and (s[3] < 0 or spans[s[3]][0] not in evals)]
    m["fields.eval_s"] = sum(s[2] - s[1] for s in outer)
    m["fields.points"] = sum(s[4]["points"] for s in outer)
    m["fields.audit_calls"] = total("fields.comparability_audit", "calls")

    m["assembly.assemble_s"] = total("assembly.assemble")
    m["assembly.calls"] = total("assembly.assemble", "calls")
    m["assembly.nnz"] = total("assembly.assemble", "nnz")
    m["assembly.poincare_s"] = total("assembly.poincare_constant")

    solves = by_name["spectral.solve_weighted"]
    solve_s = 0.0
    for method, key in METHOD_KEYS.items():
        spent = sum(own for s, own in solves if s[4]["method"] == method)
        m["spectral.{}_s".format(key)] = spent
        solve_s += spent
    m["spectral.solve_calls"] = len(solves)
    m["spectral.eigs"] = sum(s[4]["eigs"] for s, _ in solves)
    m["spectral.eigs_per_s"] = (m["spectral.eigs"] / solve_s
                                if solve_s > 0.0 else 0.0)
    m["spectral.n_free_max"] = max((s[4]["n_free"] for s, _ in solves),
                                   default=0)
    dup = _duplicate_solves(spans)
    m["spectral.duplicate_solves"] = dup
    m["spectral.useful_frac"] = ((len(solves) - dup) / len(solves)
                                 if solves else 1.0)

    for key, name in (("minmax", "check_poincare_minmax"),
                      ("rayleigh", "check_rayleigh"),
                      ("courant", "check_courant"),
                      ("bracketing", "check_bracketing"),
                      ("sandwich", "check_sandwich")):
        m["varprin.{}_s".format(key)] = total("varprin." + name)
    m["varprin.trials"] = sum(total("varprin." + n, "trials") for n in (
        "check_poincare_minmax", "check_rayleigh", "check_courant"))

    m["weyl.target_s"] = total("weyl.weyl_target")
    m["weyl.target_calls"] = total("weyl.weyl_target", "calls")
    m["weyl.fit_s"] = total("weyl.fit_limit")
    m["weyl.csv_s"] = total("weyl.write_spectrum_csv")
    m["cli.svg_s"] = sum(s[2] - s[1] for s, _ in by_name["cli.emit_svg"])
    return m


def _duplicate_solves(spans):
    """Solves of the same assembled matrices at the same t, whatever
    k_each, within one root span (one task)."""
    roots = {}
    for idx, (name, _, _, parent, attrs) in enumerate(spans):
        root = idx if parent < 0 else roots[parent]
        roots[idx] = root
    seen = set()
    dup = 0
    for idx, (name, _, _, _, attrs) in enumerate(spans):
        if name != "spectral.solve_weighted":
            continue
        key = (roots[idx], attrs["key"])
        if key in seen:
            dup += 1
        seen.add(key)
    return dup


def spans_json(spans):
    """Spans as JSON-ready rows, with fingerprints made printable."""
    rows = []
    for name, start, end, parent, attrs in spans:
        row = {"name": name, "start": start, "end": end, "parent": parent}
        if attrs:
            row.update({k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in attrs.items()})
        rows.append(row)
    return rows


def median_metrics(passes):
    """Per-metric median over the traced passes."""
    return {key: statistics.median(p[key] for p in passes)
            for key in passes[0]}
