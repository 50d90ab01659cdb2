"""The benchmark's four workloads.

Three workloads are lists of CLI tasks, each run in-process through
`roughweyl.cli.main`. The fourth, `pencil_build`, calls library functions
directly: every CLI task ends in an eigensolve, so only a library-level
workload can exercise mesh, fields, assembly and the Weyl target with no
eigensolver work at all.

Why each workload exists (the layer it loads, and the one it leaves idle):

- `definite`: single-sign weights over the dense path and both single-end
  sparse paths. The sparse eigensolver does nearly all the work and the
  checkers do none, so a solver change shows here and a checker change
  should not.
- `indefinite`: sign-changing weights, so Lanczos runs at both spectral
  ends and the constrained problem goes through the bordered
  factorization. A change that speeds one end or path at the cost of
  another shows against `definite`.
- `certify`: the checker tasks at dense-path sizes. Dense `eigh`, the
  Poincare constant and `varprin` do the work; sparse Lanczos does none.
- `pencil_build`: meshing, field evaluation, assembly, the Weyl target and
  mesh I/O with no eigensolve.

The workload seed becomes every generated config's `[solver] seed`.
Spectra do not depend on it, so one set of stored references holds for
every seed.
"""

import os

import numpy as np
import roughweyl as rw

# Each CLI task: (task id, subcommand, {section: {key: value}}). The
# `[solver] seed` and `[output]` keys are filled in per run. Sizes keep one
# pass between 3 and 5.5 s on 2 cores, so that a 25 s run holds at least
# four passes. `definite` is the heaviest: below about 5 s its meshing and
# assembly would exceed a tenth of the pass. `k_each` stays at 60 or more
# because the Weyl fit window needs 20 eigenvalues.
CLI_TASKS = {
    "definite": [
        ("sq5_dense", "weyl", {
            "domain": {"level": 5},
            "solver": {"k_each": 200}}),
        ("sq6_lanczos", "weyl", {
            "domain": {"level": 6},
            "solver": {"k_each": 200}}),
        ("sq7_lanczos", "weyl", {
            "domain": {"level": 7},
            "solver": {"k_each": 100}}),
        ("disk6_cone", "weyl", {
            "domain": {"kind": "disk", "level": 6},
            "metric": {"metric": "graph_cone"},
            "solver": {"k_each": 100}}),
        ("sq6_neumann", "weyl", {
            "domain": {"level": 6},
            "boundary": {"boundary": "neumann"},
            "solver": {"k_each": 100}}),
    ],
    "indefinite": [
        ("sq6_halves", "weyl", {
            "domain": {"level": 6},
            "weight": {"weight": "halves:1,-1"},
            "solver": {"k_each": 60}}),
        ("sq6_neumann_halves", "weyl", {
            "domain": {"level": 6},
            "weight": {"weight": "halves:1,-0.5"},
            "boundary": {"boundary": "neumann"},
            "solver": {"k_each": 60}}),
        ("converge_halves", "converge", {
            "weight": {"weight": "halves:1,-1"},
            "solver": {"levels": "4,5", "k_each": 60}}),
    ],
    "certify": [
        ("sandwich_dirichlet", "sandwich", {
            "domain": {"size": 28},
            "solver": {"k_max": 100}}),
        ("sandwich_neumann", "sandwich", {
            "domain": {"size": 24},
            "boundary": {"boundary": "neumann"},
            "solver": {"k_max": 100}}),
        ("bracket_halves", "bracket", {
            "domain": {"size": 24},
            "weight": {"weight": "checkerboard:1,-1,cells=4"},
            "solver": {"t": 1, "k_max": 50, "partition": "halves"}}),
        ("bracket_quadrants", "bracket", {
            "domain": {"size": 24},
            "weight": {"weight": "checkerboard:1,-1,cells=4"},
            "solver": {"t": 1, "k_max": 50, "partition": "quadrants"}}),
        ("varprin", "varprin", {
            "domain": {"size": 16},
            "solver": {"k": 5, "trials": 20}}),
    ],
}

# Tasks whose weight is `halves:1,-1`: mirror symmetry makes the two
# signed families equal.
MIRROR_TASKS = {"sq6_halves", "converge_halves"}

WORKLOADS = tuple(CLI_TASKS) + ("pencil_build",)


def config_text(sections, seed, out_dir):
    """INI text of one task config, with the run's seed and output dir."""
    merged = {name: dict(body) for name, body in sections.items()}
    merged.setdefault("solver", {})["seed"] = seed
    merged["output"] = {"dir": out_dir, "svg": "true"}
    lines = []
    for name, body in merged.items():
        lines.append("[{}]".format(name))
        lines.extend("{} = {}".format(k, v) for k, v in body.items())
    return "\n".join(lines) + "\n"


def write_configs(workload, seed, work_dir):
    """Write one config per task of a CLI workload.

    Returns [(task id, argv for `roughweyl.cli.main`, output dir)]. Output
    dirs are fixed per task, so a repeated task must rewrite identical
    bytes, `summary.json` included.
    """
    jobs = []
    for task_id, command, sections in CLI_TASKS[workload]:
        out_dir = os.path.join(work_dir, "out", task_id)
        path = os.path.join(work_dir, "cfg", task_id + ".cfg")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text(sections, seed, out_dir))
        jobs.append((task_id, [command, "--config", path], out_dir))
    return jobs


# pencil_build sizes: L7 square (h = 1/128, 16.6k vertices) and a 64-ring
# disk; `validate` at n = 32 because it grows superlinearly. At L8 the
# workload is allocation-bound and its median pass moved by 30% from one
# process to the next.
PENCIL_SQUARE_N = 64
PENCIL_DISK_RINGS = 64
PENCIL_VALIDATE_N = 32


def pencil_inputs():
    """The metric and weight fields of pencil_build, from the CLI's specs.

    They are inputs, so they are made at set-up, outside the timed passes.
    """
    cli = rw.cli
    return {
        "shear": cli.build_metric("pullback:shear=0.5"),
        "expr": cli.build_weight("expr:x - y + 0.2"),
        "checker": cli.build_metric("checkerboard:a=1,b=2,cells=4"),
        "halves": cli.build_weight("halves:1,-1"),
        "cone": cli.build_metric("graph_cone"),
        "one": cli.build_weight("const:1"),
    }


class PencilBuild:
    """One pass of pencil_build, as steps timed one by one.

    Each step records the scalars the output check compares against the
    references in `out`; `square` must run before `shear`, `checker` and
    `io`.
    """

    STEPS = ("square", "shear", "checker", "disk", "io", "validate")

    def __init__(self, work_dir, fields):
        self.work_dir = work_dir
        self.fields = fields
        self.mesh = None
        self.out = {}

    def _record(self, name, p, target=None):
        out = self.out
        # no trace of R: a sign-changing weight sums it to roundoff
        for key in ("K", "Mm", "R"):
            mat = getattr(p, key)
            out["{}.{}_nnz".format(name, key)] = int(mat.nnz)
            out["{}.{}_norm".format(name, key)] = float(
                np.linalg.norm(mat.data))
        for key in ("K", "Mm"):
            out["{}.{}_trace".format(name, key)] = float(
                getattr(p, key).diagonal().sum())
        out["{}.n_free".format(name)] = int(p.n_free)
        out["{}.tau".format(name)] = int(p.tau)
        if target is not None:
            out["{}.c_plus".format(name)] = float(target.c_plus)
            out["{}.c_minus".format(name)] = float(target.c_minus)
            out["{}.vol".format(name)] = float(target.vol)

    def square(self):
        self.mesh = rw.refine_uniform(rw.generate_unit_square(PENCIL_SQUARE_N))
        self.out["square.vertices"] = int(self.mesh.num_vertices)
        self.out["square.triangles"] = int(self.mesh.num_triangles)

    def shear(self):
        g, w = self.fields["shear"], self.fields["expr"]
        self._record("shear",
                     rw.assemble(self.mesh, g, w, rw.BoundarySpec.dirichlet()),
                     rw.weyl_target(self.mesh, g, w))

    def checker(self):
        self._record("checker", rw.assemble(
            self.mesh, self.fields["checker"], self.fields["halves"],
            rw.BoundarySpec.neumann()))

    def disk(self):
        disk = rw.generate_disk(PENCIL_DISK_RINGS)
        g, w = self.fields["cone"], self.fields["one"]
        self._record("disk", rw.assemble(disk, g, w,
                                         rw.BoundarySpec.dirichlet()),
                     rw.weyl_target(disk, g, w))

    def io(self):
        path = os.path.join(self.work_dir, "square.rwmesh")
        rw.save_mesh(self.mesh, path)
        loaded = rw.load_mesh(path)
        self.out["io.bytes"] = os.path.getsize(path)
        self.out["io.roundtrip_equal"] = bool(
            np.array_equal(loaded.vertices, self.mesh.vertices)
            and np.array_equal(loaded.triangles, self.mesh.triangles)
            and np.array_equal(loaded.boundary_edges,
                               self.mesh.boundary_edges))

    def validate(self):
        self.out["validate.violations"] = len(
            rw.validate(rw.generate_unit_square(PENCIL_VALIDATE_N)))
