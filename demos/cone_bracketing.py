"""Dirichlet-Neumann bracketing on the graph cone over the disk.

The metric comes from the graph of f(x) = 1 - |x|, a cone with
det G = 2 away from the apex line. Splitting the disk into left and
right halves gives computable two-sided bounds: subdomain Dirichlet
eigenvalues sit below the regularized global ones, subdomain Neumann
eigenvalues above, exactly, at the discrete level.
"""

import numpy as np

from roughweyl import (
    BoundarySpec,
    assemble,
    check_bracketing,
    constant_weight,
    generate_disk,
    graph_cone_metric,
    solve_weighted,
)
from roughweyl.cli import named_partition


def main():
    m = generate_disk(12)
    g = graph_cone_metric()
    w = constant_weight(1.0)
    bc = BoundarySpec.dirichlet()
    s = solve_weighted(assemble(m, g, w, bc), 0.5, k_each=12, vectors=False)
    report = check_bracketing(s, m, named_partition(m, "halves"), g, w, bc,
                              k_max=12)

    print("bracketing on {} triangles, t = {}, passed: {}".format(
        m.num_triangles, report["t"], report["passed"]))
    print("\n  k    nu_k (lower)   lambda_k(t)    eta_k (upper)")
    side = report["plus"]
    triples = np.array(list(zip(side["nu"], side["lam"], side["eta"])))
    for k, (nu, lam, eta) in enumerate(triples, start=1):
        print("{:4d}   {:.6f}       {:.6f}       {:.6f}".format(
            k, nu, lam, eta))

    gaps = triples[:, 2] - triples[:, 0]
    print("\nsmallest sandwich width eta - nu: {:.2e}".format(gaps.min()))
    print("worst inequality margin: {:.2e} (>= -1e-9 required)".format(
        min((triples[:, 1] - triples[:, 0]).min(),
            (triples[:, 2] - triples[:, 1]).min())))


if __name__ == "__main__":
    main()
