"""End-to-end acceptance runs for the whole package.

One test per shipped claim, at the stated tolerance; run

    pytest tests/test_acceptance.py -v

to get a single pass/fail line for each. The heavy spectra (h = 1/128
square, 64-ring cone disk) are computed once per session and shared.
"""

import os
import time

import numpy as np
import pytest

from roughweyl.assembly import BoundarySpec, assemble
from roughweyl.cli import ExperimentConfig, named_partition, run
from roughweyl.fields import (
    WeightField,
    checkerboard_weight,
    constant_weight,
    euclidean_metric,
    expression_weight,
    graph_cone_metric,
    halves_weight,
    pullback_metric,
)
from roughweyl.mesh import Mesh, generate_disk, generate_unit_square
from roughweyl.spectral import solve_weighted
from roughweyl.varprin import (
    check_bracketing,
    check_courant,
    check_poincare_minmax,
    check_rayleigh,
    check_sandwich,
)
from roughweyl.weyl import fit_limit, weyl_target

FOUR_PI_INV = 1.0 / (4.0 * np.pi)
EIGHT_PI_INV = 1.0 / (8.0 * np.pi)


@pytest.fixture(scope="module")
def fine_square():
    """Unit square, Euclidean, Dirichlet, h = 1/128, 500 eigenvalues (no
    eigenvectors: no test reads them)."""
    t0 = time.perf_counter()
    m = generate_unit_square(128)
    g = euclidean_metric()
    w = constant_weight(1.0)
    p = assemble(m, g, w, BoundarySpec.dirichlet(), 2)
    s = solve_weighted(p, 0.0, k_each=500, vectors=False)
    elapsed = time.perf_counter() - t0
    return {"s": s, "target": weyl_target(m, g, w), "elapsed": elapsed}


@pytest.fixture(scope="module")
def fine_halves():
    """Same mesh, rho = +1 on the left half and -1 on the right."""
    m = generate_unit_square(128)
    p = assemble(m, euclidean_metric(), halves_weight(1.0, -1.0),
                 BoundarySpec.dirichlet(), 2)
    return solve_weighted(p, 0.0, k_each=300, vectors=False)


@pytest.fixture(scope="module")
def cone_disk():
    """Unit disk under the graph metric of f(x) = 1 - |x|, rho = 1."""
    m = generate_disk(64)
    g = graph_cone_metric()
    w = constant_weight(1.0)
    p = assemble(m, g, w, BoundarySpec.dirichlet(), 2)
    s = solve_weighted(p, 0.0, k_each=900, vectors=False)
    return {"s": s, "target": weyl_target(m, g, w)}


def test_01_square_eigenvalues_match_separation_of_variables(fine_square):
    """First five Dirichlet eigenvalues within 0.5% of pi^2 {2,5,5,8,10}."""
    lam = 1.0 / fine_square["s"].pos[:5]
    oracle = np.pi ** 2 * np.array([2.0, 5.0, 5.0, 8.0, 10.0])
    assert np.all(np.abs(lam - oracle) / oracle < 0.005)
    assert fine_square["elapsed"] < 60.0


def test_02_weyl_slope_matches_volume_over_4pi(fine_square):
    """Two-parameter counting fit N ~ a Lambda + b sqrt(Lambda) over the
    first 500 eigenvalues recovers a within 10% of 1/(4 pi)."""
    plus = fit_limit(fine_square["s"], (10, 500),
                     target=fine_square["target"])["sides"]["plus"]
    assert abs(plus["slope"] - FOUR_PI_INV) / FOUR_PI_INV < 0.10
    assert plus["intercept"] < 0.0  # Dirichlet boundary deficit
    assert fine_square["elapsed"] < 300.0


def test_03_indefinite_halves_tail_and_symmetry(fine_halves):
    """Both signed families obey the half-volume Weyl constant within 10%
    on k in [100, 300], and coincide to 1e-9 by mirror symmetry."""
    ks = np.arange(100, 301)
    for vals in (fine_halves.pos, fine_halves.neg):
        tail = float((vals[ks - 1] * ks).mean())
        assert abs(tail - EIGHT_PI_INV) / EIGHT_PI_INV < 0.10
    assert np.abs(fine_halves.pos[:300] - fine_halves.neg[:300]).max() < 1e-9


def test_04_graph_cone_disk_fitted_limit(cone_disk):
    """Fitted limit of lambda_k k on the cone disk within 10% of sqrt(2)/4,
    the target being the quadrature integral of sqrt(det G) = sqrt(2)."""
    target = cone_disk["target"]
    assert target.c_plus == pytest.approx(np.sqrt(2.0) / 4.0, rel=2e-3)
    plus = fit_limit(cone_disk["s"], target=target)["sides"]["plus"]
    assert plus["rel_dev"] < 0.10
    assert abs(plus["estimate"] - np.sqrt(2.0) / 4.0) / (np.sqrt(2.0) / 4.0) < 0.10


def test_05_two_and_four_part_bracketing_inequalities():
    """Subdomain Dirichlet/Neumann eigenvalues bracket the regularized
    global ones for k <= 50, both signs, on 2- and 4-part partitions."""
    m = generate_unit_square(24)
    g = euclidean_metric()
    w = checkerboard_weight(1.0, -1.0, cells=4)
    bc = BoundarySpec.dirichlet()
    s = solve_weighted(assemble(m, g, w, bc, 2), 1.0, k_each=50,
                       vectors=False)
    for scheme in ("halves", "quadrants"):
        report = check_bracketing(s, m, named_partition(m, scheme), g, w, bc,
                                  k_max=50)
        assert report["passed"]
        for sign in ("plus", "minus"):
            side = report[sign]
            assert len(side["lam"]) == 50
            rows = list(zip(side["nu"], side["lam"], side["eta"]))
            nu, lam, eta = np.array(rows).T
            assert np.all(lam - nu >= -1e-9)
            assert np.all(eta - lam >= -1e-9)


def test_06_sandwich_inequalities_with_tau_shift():
    """Regularized spectra pinch the t = 0 spectrum for t in
    {0.5, 0.1, 0.02} up to k = 100, with the index shift confirmed
    necessary on the Neumann run."""
    m = generate_unit_square(40)
    g = euclidean_metric()
    w = constant_weight(1.0)
    for bc, tau in ((BoundarySpec.dirichlet(), 0), (BoundarySpec.neumann(), 1)):
        p = assemble(m, g, w, bc, 2)
        s0 = solve_weighted(p, 0.0, k_each=100 + tau, vectors=False)
        report = check_sandwich(s0, p, (0.5, 0.1, 0.02), k_max=100)
        assert report["tau"] == tau
        assert report["passed"]
        for entry in report["per_t"]:
            for side in entry["sides"].values():
                assert side["lower_worst"] >= -1e-9
                assert side["upper_worst"] >= -1e-9
        if tau == 1:
            assert report["tau_shift_necessary"] is True


def test_07_shear_pullback_pencil_and_spectrum_equality():
    """Pulling a shear lipeomorphism back onto the square reproduces the
    image-mesh pencil entrywise to 1e-10 and its spectrum to 1e-9."""
    shear = 0.5
    J = np.array([[1.0, shear], [0.0, 1.0]])
    tr = shear ** 2 + 2.0
    s_hi = np.sqrt((tr + np.sqrt(tr * tr - 4.0)) / 2.0)
    msq = generate_unit_square(16)
    mim = Mesh(msq.vertices @ J.T, msq.triangles, msq.boundary_edges)
    w_im = expression_weight("x - y + 0.2")
    w_pb = WeightField(lambda pts: w_im.values(pts @ J.T))
    g_pb = pullback_metric(
        euclidean_metric(), phi=lambda pts: pts @ J.T,
        jacobian=lambda pts: np.broadcast_to(J, (len(pts), 2, 2)),
        jac_bounds=(1.0 / s_hi, s_hi))
    bc = BoundarySpec.dirichlet()
    pa = assemble(msq, g_pb, w_pb, bc, 2)
    pb = assemble(mim, euclidean_metric(), w_im, bc, 2)
    for name in ("K", "Mm", "R"):
        diff = np.abs((getattr(pa, name) - getattr(pb, name)).toarray()).max()
        assert diff < 1e-10
    assert np.abs(pa.r - pb.r).max() < 1e-10
    sa = solve_weighted(pa, 0.0, k_each=60, mode="dense")
    sb = solve_weighted(pb, 0.0, k_each=60, mode="dense")
    assert np.abs(sa.pos - sb.pos).max() < 1e-9
    assert np.abs(sa.neg - sb.neg).max() < 1e-9


def test_08_variational_principles_zero_violations():
    """100 seeded subspace trials per characterization: no random subspace
    beats the eigenvalue bound beyond 1e-9 and eigenvector spans attain it."""
    m = generate_unit_square(16)
    p = assemble(m, euclidean_metric(), constant_weight(1.0),
                 BoundarySpec.dirichlet(), 2)
    s = solve_weighted(p, 0.0, k_each=10, mode="dense")
    for checker in (check_poincare_minmax, check_rayleigh, check_courant):
        report = checker(s, p, k=5, trials=100, seed=0)
        assert report["trials"] == 100
        assert report["passed"]
        for side in report["sides"].values():
            assert side["violations"] == 0
            assert side["attainment_gap"] <= 1e-9


def test_09_neumann_constraint_and_principal_eigenvalue():
    """Pure Neumann with rho = 1 trips the one-dimensional constraint, and
    the principal weighted eigenvalue on the constrained space lands within
    1% of 1/pi^2 at h = 1/128."""
    m = generate_unit_square(128)
    p = assemble(m, euclidean_metric(), constant_weight(1.0),
                 BoundarySpec.neumann(), 2)
    assert p.tau == 1
    s = solve_weighted(p, 0.0, k_each=5)
    assert abs(s.pos[0] - 1.0 / np.pi ** 2) * np.pi ** 2 < 0.01


def test_10_rerun_byte_identical_artifacts(tmp_path):
    """Re-running a config with the same seed reproduces every artifact
    byte for byte: CSV, JSON, and SVG."""
    out = tmp_path / "out"
    text = ("task = solve\n[domain]\nlevel = 4\n[weight]\n"
            "weight = halves:1,-1\n[solver]\nk_each = 40\nseed = 3\n"
            "[output]\ndir = {}\nsvg = true\n".format(out))

    def snapshot():
        assert run(ExperimentConfig.from_text(text)) == 0
        return {name: (out / name).read_bytes() for name in os.listdir(out)}

    first = snapshot()
    second = snapshot()
    assert set(first) == {"spectrum.csv", "summary.json", "counting.svg"}
    for name, blob in first.items():
        assert blob == second[name]
