"""The benchmark's tracer (`bench/spans.py`) wraps the package's public
functions by name and its per-layer metrics read those names. A refactor
that removes or renames one must fail here, not only under
`bench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import roughweyl as rw

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_metrics_find_every_traced_name():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        p = rw.assemble(rw.generate_unit_square(4), rw.euclidean_metric(),
                        rw.constant_weight(1.0), rw.BoundarySpec.dirichlet())
        rw.solve_weighted(p, 0.0, 3, vectors=False)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, tracer.wrapped)
    assert metrics["assembly.calls"] == 1
    assert metrics["spectral.solve_calls"] == 1
    assert metrics["spectral.eigs"] == 3
    assert metrics["spectral.dense_s"] > 0.0
    assert not hasattr(rw.assemble, "__wrapped__")  # uninstalled


def test_metric_sample_is_a_span_inside_assemble():
    spans = load_spans()
    with spans.Tracer() as tracer:
        rw.assemble(rw.generate_unit_square(4), rw.euclidean_metric(),
                    rw.constant_weight(1.0), rw.BoundarySpec.dirichlet())
    names = [span[0] for span in tracer.spans]
    samples = [span for span in tracer.spans
               if span[0] == "fields.sample_metric"]
    assert len(samples) == 1
    assert names[samples[0][3]] == "assembly.assemble"


def test_metric_sample_of_every_block_is_a_span_inside_assemble():
    spans = load_spans()
    m = rw.generate_unit_square(64)  # 8192 cells, two blocks
    with spans.Tracer() as tracer:
        rw.assemble(m, rw.euclidean_metric(), rw.constant_weight(1.0),
                    rw.BoundarySpec.dirichlet())
    names = [span[0] for span in tracer.spans]
    samples = [span for span in tracer.spans
               if span[0] == "fields.sample_metric"]
    assert len(samples) == 2
    assert all(names[span[3]] == "assembly.assemble" for span in samples)
