"""roughweyl benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout: the package is imported from
the checkout's `src/`, and the run fails (exit 1, no result line) when that
is missing. Workloads are defined in `workloads.py`. One process runs one
task at a time and starts no threads of its own; BLAS keeps its default
thread count, and nothing here sets a thread variable.

A run repeats passes over the workload's tasks while the next pass is
predicted to end within `--seconds` (at least one pass). `--seconds 0` is
the quick mode: one pass. Every task's output is checked against the
stored references in `references/`.

With `--trace 0` the result carries the end-to-end metrics:
- `wall_s`: time of a typical pass, the sum over tasks of each task's
  median time (the tasks only, not the checks);
- `setup_s`: median over fresh processes of the time to import roughweyl
  and generate the workload's inputs, one process before each pass and
  at least seven;
- `peak_rss_mb`: peak resident set of this process after its first pass,
  what a user running the tasks from a fresh process would see. Later
  passes only add allocator fragmentation.

With `--trace 1` passes alternate untraced and traced, set-up is not
measured, and the result
carries the per-layer metrics of `spans.layer_metrics`, medians over the
traced passes, plus the tracing overhead. Spans are written to
`.bench_work/<workload>/spans.json` at the end.

Before the result, stdout carries one `env` line (machine, BLAS, versions,
thread variables, commit) and one `summary` line with sample counts, the
failed-task fraction and the number of failed science checks. The last line
is the result object.

`--write-references` runs one pass and stores its outputs as the
references instead of checking them.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = HERE / "references"

sys.path.insert(0, str(SRC))
import roughweyl  # noqa: E402  (from SRC, checked in main)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
REL_TOL = 1e-10     # "moves eigenvalues" bound of the dense-oracle contract
MIRROR_TOL = 1e-9   # halves:1,-1 families agree to this, absolutely
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "ROUGHWEYL_THREADS")


def check_package():
    """roughweyl must come from this checkout's src/, not an install."""
    found = Path(roughweyl.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise SystemExit("roughweyl imported from {}, not from {}"
                         .format(found, SRC))


# ---------------------------------------------------------------------------
# output checks


def read_spectrum(path):
    """(pos, neg) from a spectrum.csv."""
    pos, neg = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["lambda_plus"]:
                pos.append(float(row["lambda_plus"]))
            if row["lambda_minus"]:
                neg.append(float(row["lambda_minus"]))
    return np.array(pos), np.array(neg)


def compare(got, ref, where):
    """First difference of `got` from `ref` beyond REL_TOL, or None.

    Numbers compare relatively; counts, flags and list lengths exactly.
    """
    if isinstance(ref, dict):
        if set(got) != set(ref):
            return "{}: keys {} differ from the reference's {}".format(
                where, sorted(got), sorted(ref))
        for key in ref:
            problem = compare(got[key], ref[key], "{}.{}".format(where, key))
            if problem:
                return problem
        return None
    if isinstance(ref, list):
        got = np.asarray(got, dtype=float)
        ref = np.asarray(ref, dtype=float)
        if got.shape != ref.shape:
            return "{}: {} values, reference has {}".format(
                where, got.size, ref.size)
        bad = ~(np.abs(got - ref) <= REL_TOL * np.abs(ref))  # NaN is bad
        if bad.any():
            i = int(np.argmax(bad))
            return "{}[{}]: {!r} vs reference {!r}".format(
                where, i, float(got[i]), float(ref[i]))
        return None
    if isinstance(ref, float):
        if not abs(got - ref) <= REL_TOL * abs(ref):
            return "{}: {!r} vs reference {!r}".format(where, got, ref)
        return None
    if got != ref:
        return "{}: {!r} vs reference {!r}".format(where, got, ref)
    return None


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """Runs the passes of one workload and checks every task's output.

    With `references=None` outputs are collected into `outputs` instead of
    checked, which is how the references are made.
    """

    def __init__(self, name, seed, work_dir, references):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.references = references
        self.outputs = {}
        self.attempted = 0
        self.failures = []          # (task id, reason)
        self.times = {}             # task or step id -> seconds, per pass
        self.science_failed = []    # false `checks` entries, one per pass
        self.artifact_bytes = []    # bytes written, one per pass
        self.digests = {}           # task id -> {file: sha256}, first run
        self.first_pass_rss_mb = None
        if name == "pencil_build":
            self.fields = workloads.pencil_inputs()
        else:
            self.jobs = workloads.write_configs(name, seed, str(work_dir))

    def run_pass(self):
        """Run every task once; returns the seconds spent inside tasks."""
        self.science_failed.append(0)
        self.artifact_bytes.append(0)
        if self.name == "pencil_build":
            spent = self._pencil_pass()
        else:
            spent = sum(self.run_task(*job) for job in self.jobs)
        if self.first_pass_rss_mb is None:
            self.first_pass_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return spent

    def repeat_first(self):
        """Run the first task again, so its artifacts get compared."""
        return self.run_task(*self.jobs[0])

    def _timed(self, task_id, call):
        """(seconds, result, exception) of one task."""
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a task that raises counts as failed
            traceback.print_exc()
            return time.perf_counter() - start, None, exc
        spent = time.perf_counter() - start
        self.times.setdefault(task_id, []).append(spent)
        return spent, result, None

    def run_task(self, task_id, argv, out_dir):
        self.attempted += 1
        spent, code, exc = self._timed(task_id,
                                       lambda: roughweyl.cli.main(argv))
        if exc is not None:
            self.failures.append((task_id, "raised {!r}".format(exc)))
        elif code not in (0, 1):
            self.failures.append((task_id, "exit code {}".format(code)))
        else:
            try:
                problem = self._check_cli(task_id, Path(out_dir))
            except (OSError, ValueError, KeyError) as exc:
                problem = "unreadable artifacts: {!r}".format(exc)
            if problem:
                self.failures.append((task_id, problem))
        return spent

    def _check_cli(self, task_id, out_dir):
        with open(out_dir / "summary.json", encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        self.science_failed[-1] += sum(1 for ok in checks.values() if not ok)
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        self.artifact_bytes[-1] += sum(p.stat().st_size for p in files)
        problem = self._same_bytes(task_id, files)
        if problem:
            return problem
        pos, neg = read_spectrum(out_dir / "spectrum.csv")
        if task_id in workloads.MIRROR_TASKS:
            if len(pos) != len(neg):
                return "mirror: {} positive vs {} negative".format(
                    len(pos), len(neg))
            gap = float(np.abs(pos - neg).max())
            if not gap < MIRROR_TOL:
                return "mirror: |pos - neg| reaches {:.3e}".format(gap)
        return self._against_reference(
            task_id, {"pos": pos.tolist(), "neg": neg.tolist()})

    def _same_bytes(self, task_id, files):
        """A repeated task must rewrite byte-identical artifacts."""
        now = {p.name: digest(p) for p in files}
        first = self.digests.setdefault(task_id, now)
        if now != first:
            changed = sorted(k for k in set(now) | set(first)
                             if now.get(k) != first.get(k))
            return "artifacts differ from the first run: {}".format(changed)
        return None

    def _against_reference(self, task_id, got):
        if self.references is None:
            self.outputs[task_id] = got
            return None
        if task_id not in self.references:
            return "no stored reference"
        return compare(got, self.references[task_id], task_id)

    def _pencil_pass(self):
        """The whole pass is one task; each step is timed on its own."""
        self.attempted += 1
        build = workloads.PencilBuild(str(self.work_dir), self.fields)
        total = 0.0
        for step in build.STEPS:
            spent, _, exc = self._timed("pencil_build." + step,
                                        getattr(build, step))
            total += spent
            if exc is not None:
                self.failures.append(("pencil_build", "{} raised {!r}"
                                      .format(step, exc)))
                return total
        mesh_file = self.work_dir / "square.rwmesh"
        try:
            self.artifact_bytes[-1] += mesh_file.stat().st_size
            problem = (self._same_bytes("pencil_build", [mesh_file])
                       or self._against_reference("pencil_build", build.out))
        except OSError as exc:
            problem = "unreadable artifacts: {!r}".format(exc)
        if problem:
            self.failures.append(("pencil_build", problem))
        return total


# ---------------------------------------------------------------------------
# measurement


def timed_loop(step, seconds):
    """Call `step` until the next call is predicted to end past `seconds`;
    always at least once."""
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            return


def monotonic():
    """A clock that reads the same in every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_time(workload, seed):
    """Seconds from spawning a fresh process until it has imported
    roughweyl and made the workload's inputs.

    The child prints the clock when it is done, so neither interpreter
    teardown nor the polling of a wait with a timeout is counted.
    """
    start = monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        check=True, stdout=subprocess.PIPE, text=True,
        timeout=SETUP_TIMEOUT_S)
    return float(done.stdout.split()[-1]) - start


def typical_pass(times):
    """Sum over tasks of each task's median time: the time of a typical
    pass, with a slow outlier of one task in one pass left out (the first
    pass also pays for lazy imports inside the package)."""
    return sum(statistics.median(t) for t in times.values())


def untraced_run(bench, seconds):
    """Passes, each after one set-up sample, so that set-up samples spread
    over the run as the passes do; at least SETUP_SAMPLES of them. This
    machine's speed drifts over tens of seconds."""
    walls, setups = [], []

    def step():
        setups.append(setup_time(bench.name, bench.seed))
        walls.append(bench.run_pass())

    timed_loop(step, seconds)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_time(bench.name, bench.seed))
    return walls, setups


def traced_run(bench, seconds, spans_path):
    """Alternate untraced and traced passes; per-layer medians plus the
    tracing overhead, from the typical pass of each kind."""
    plain, plain_times, traced_times = [], {}, {}
    per_pass, recorded = [], []

    def pair():
        bench.times = plain_times
        plain.append(bench.run_pass())
        bench.times = traced_times
        tracer = spans.Tracer()
        with tracer:
            bench.run_pass()
        layer = spans.layer_metrics(tracer.spans, tracer.wrapped)
        layer["cli.artifact_bytes"] = bench.artifact_bytes[-1]
        layer["science_checks_failed"] = bench.science_failed[-1]
        per_pass.append(layer)
        recorded.append(spans.spans_json(tracer.spans))

    timed_loop(pair, seconds)
    metrics = spans.median_metrics(per_pass)
    metrics["trace.wall_s"] = typical_pass(traced_times)
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                      / typical_pass(plain_times) - 1.0)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": recorded}, fh)
    return metrics, plain


def unit(name):
    """A metric's unit, from the suffix of its name."""
    for suffix, symbol in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                           ("_bytes", "bytes"), ("_frac", "frac")):
        if name.endswith(suffix):
            return symbol
    return "count"


# ---------------------------------------------------------------------------
# environment record


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "roughweyl": roughweyl.__version__,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="becomes every config's [solver] seed "
                             "(taken modulo 2**32)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.seed %= 2 ** 32
    return args


def main(argv=None):
    args = parse_args(argv)
    check_package()
    if args.setup_only:
        Workload(args.workload, args.seed,
                 WORK / args.workload / "setup", references={})
        print(repr(monotonic()))
        return 0

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "run").mkdir(parents=True)
    print(json.dumps({"env": environment()}, sort_keys=True), flush=True)

    ref_path = REFERENCES / (args.workload + ".json")
    if args.write_references:
        bench = Workload(args.workload, args.seed, work / "run", None)
        bench.run_pass()
        if bench.failures:
            raise SystemExit("not writing references: {}".format(
                bench.failures))
        REFERENCES.mkdir(exist_ok=True)
        with open(ref_path, "w", encoding="utf-8") as fh:
            json.dump(bench.outputs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", ref_path)
        return 0

    with open(ref_path, encoding="utf-8") as fh:
        references = json.load(fh)
    bench = Workload(args.workload, args.seed, work / "run", references)
    if args.trace:
        setups = []
        metrics, walls = traced_run(bench, args.seconds, work / "spans.json")
    else:
        walls, setups = untraced_run(bench, args.seconds)
        metrics = {"wall_s": typical_pass(bench.times),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": bench.first_pass_rss_mb}
    if args.workload != "pencil_build" and len(walls) < 2:
        bench.repeat_first()
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(walls),
        "pass_s_samples": walls,
        "task_s_medians": {k: statistics.median(v)
                           for k, v in bench.times.items()},
        "setup_s_samples": setups,
        "peak_rss_mb_end": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": len(bench.failures) / bench.attempted,
        "failures": bench.failures,
        "science_checks_failed": statistics.median(bench.science_failed),
    }
    print(json.dumps({"summary": summary}), flush=True)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
