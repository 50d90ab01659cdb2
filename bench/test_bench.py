"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest bench

They take about a minute on 2 cores, most of it the quick-mode runs.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads

rw = run.roughweyl
CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def first_task_only(bench):
    """Cut `definite` down to its first task, the dense L5 square."""
    bench.jobs = bench.jobs[:1]
    return bench


def last_json(stdout, key=None):
    lines = stdout.strip().splitlines()
    if key is None:
        return json.loads(lines[-1])
    return next(json.loads(line)[key] for line in reversed(lines)
                if line.startswith('{"' + key + '"'))


@pytest.mark.parametrize("perturb", [
    lambda ref: ref.__setitem__(7, ref[7] * (1 + 1e-9)),
    lambda ref: ref.pop(),
], ids=["value", "length"])
def test_perturbed_reference_fails_the_output_check(tmp_path, perturb):
    references = json.loads((run.REFERENCES / "definite.json").read_text())
    bench = first_task_only(run.Workload("definite", 0, tmp_path, references))
    bench.run_pass()
    assert bench.failures == []

    perturb(references["sq5_dense"]["pos"])
    bench.run_pass()
    assert [task for task, _ in bench.failures] == ["sq5_dense"]
    assert "sq5_dense.pos" in bench.failures[0][1]


def test_changed_artifacts_fail_the_repeat_check(tmp_path):
    bench = first_task_only(run.Workload("definite", 0, tmp_path, None))
    bench.run_pass()
    bench.repeat_first()
    assert bench.failures == []
    bench.digests["sq5_dense"]["counting.svg"] = "0" * 64
    bench.repeat_first()
    assert bench.failures == [
        ("sq5_dense", "artifacts differ from the first run: ['counting.svg']")]


def test_self_times_add_up_to_root_spans(tmp_path):
    bench = first_task_only(run.Workload("definite", 0, tmp_path, None))
    tracer = spans.Tracer()
    with tracer:
        bench.run_pass()
    assert not hasattr(rw.cli.solve_weighted, "__wrapped__")
    assert not hasattr(rw.fields.MetricField.matrices, "__wrapped__")

    recorded = tracer.spans
    slack = len(recorded) * time.get_clock_info("perf_counter").resolution
    roots = spans.root_time(recorded)
    assert roots > 0.0
    assert all(own >= -slack for own in spans.self_times(recorded))
    assert abs(sum(spans.self_times(recorded)) - roots) <= slack

    metrics = spans.layer_metrics(recorded, tracer.wrapped)
    layers = sum(metrics[layer + ".self_s"] for layer in spans.LAYERS)
    assert abs(layers - roots) <= slack
    assert metrics["spectral.solve_calls"] == 1
    assert metrics["spectral.dense_s"] > 0.0
    # the metric is audited once in assemble and again in weyl_target
    assert metrics["fields.audit_calls"] == 2
    # wrapped names no call reached still report zero
    assert metrics["varprin.trials"] == 0
    assert metrics["mesh.io_bytes"] == 0


def quick(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    return last_json(proc.stdout), last_json(proc.stdout, "summary")


def expected(kind):
    return {m["name"]: m["unit"] for m in CONFIG[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_mode_runs_each_workload_once(workload):
    result, summary = quick(workload, trace=0)
    assert summary["passes"] == 1
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == expected("end_to_end")
    assert all(v["value"] > 0.0 for v in result["metrics"].values())


def test_quick_traced_run_reports_every_per_layer_metric():
    result, summary = quick("definite", trace=1)
    assert summary["passes"] == 1
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == expected("per_layer")


def test_fails_without_the_package(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run exits nonzero and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in CONFIG["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        CONFIG["command"] + ["--workload", "definite", "--seed", "0",
                             "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
