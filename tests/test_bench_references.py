"""The benchmark's output check, in the test suite: one `pencil_build`
pass and the `certify` and `indefinite` CLI tasks (`bench/workloads.py`)
must reproduce `bench/references/` under the rule of `bench/run.py`,
numbers to 1e-10 relative and counts, flags and lengths exactly, so a
kernel change that moves an nnz or a norm, or a checker or solver change
that moves a spectrum, fails here, not only under `bench/run.py`."""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np

from roughweyl.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
REL_TOL = 1e-10
MIRROR_TOL = 1e-9  # halves:1,-1 families agree to this, absolutely


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pencil_build_matches_the_stored_references(tmp_path):
    workloads = load_workloads()
    build = workloads.PencilBuild(str(tmp_path), workloads.pencil_inputs())
    for step in build.STEPS:
        getattr(build, step)()
    with open(BENCH / "references" / "pencil_build.json",
              encoding="utf-8") as fh:
        want = json.load(fh)["pencil_build"]
    assert set(build.out) == set(want)
    for key, ref in want.items():
        got = build.out[key]
        if isinstance(ref, float):
            assert abs(got - ref) <= REL_TOL * abs(ref), (key, got, ref)
        else:
            assert got == ref, (key, got, ref)


def read_spectrum(path):
    """{"pos": [...], "neg": [...]} from a spectrum.csv."""
    out = {"pos": [], "neg": []}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            for key, column in (("pos", "lambda_plus"),
                                ("neg", "lambda_minus")):
                if row[column]:
                    out[key].append(float(row[column]))
    return out


def load_references(workload):
    with open(BENCH / "references" / (workload + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def assert_spectrum_matches(task_id, got, want):
    for key, ref in want.items():
        assert len(got[key]) == len(ref), (task_id, key)
        np.testing.assert_allclose(got[key], ref, rtol=REL_TOL, atol=0,
                                   err_msg="{} {}".format(task_id, key))


def test_certify_tasks_match_the_stored_references(tmp_path):
    workloads = load_workloads()
    want = load_references("certify")
    jobs = workloads.write_configs("certify", 7, str(tmp_path))
    assert {task_id for task_id, _, _ in jobs} == set(want)
    for task_id, argv, out_dir in jobs:
        assert main(argv) == 0, task_id
        out = Path(out_dir)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True, task_id
        got = read_spectrum(out / "spectrum.csv")
        assert_spectrum_matches(task_id, got, want[task_id])


def test_indefinite_tasks_match_the_stored_references(tmp_path):
    # exit 1 is allowed, as in `bench/run.py`: the Weyl tail checks of
    # these small sign-changing problems fail
    workloads = load_workloads()
    want = load_references("indefinite")
    jobs = workloads.write_configs("indefinite", 7, str(tmp_path))
    assert {task_id for task_id, _, _ in jobs} == set(want)
    for task_id, argv, out_dir in jobs:
        assert main(argv) in (0, 1), task_id
        got = read_spectrum(Path(out_dir) / "spectrum.csv")
        assert_spectrum_matches(task_id, got, want[task_id])
        if task_id in workloads.MIRROR_TASKS:
            assert len(got["pos"]) == len(got["neg"]), task_id
            gap = np.abs(np.subtract(got["pos"], got["neg"])).max()
            assert gap < MIRROR_TOL, (task_id, gap)
