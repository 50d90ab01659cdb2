"""The benchmark's output check, in the test suite: one `pencil_build`
pass (`bench/workloads.py`) must reproduce `bench/references/` under the
rule of `bench/run.py`, numbers to 1e-10 relative and counts and flags
exactly, so a kernel change that moves an nnz or a norm fails here, not
only under `bench/run.py`."""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
REL_TOL = 1e-10


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
