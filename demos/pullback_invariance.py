"""A sheared chart and its pullback produce the same discrete problem.

Assembling on the unit square with the pulled-back metric
G' = J^T J of the shear phi(x, y) = (x + s y, y) yields, entry for
entry, the matrices of the Euclidean assembly on the sheared mesh.
The spectra then agree to roundoff: rough metrics made by pulling
back along lipeomorphisms cost nothing in fidelity.
"""

import numpy as np

from roughweyl import (
    BoundarySpec,
    Mesh,
    WeightField,
    assemble,
    euclidean_metric,
    expression_weight,
    generate_unit_square,
    pullback_metric,
    solve_weighted,
)


def main():
    shear = 0.5
    J = np.array([[1.0, shear], [0.0, 1.0]])
    tr = shear ** 2 + 2.0
    s_hi = np.sqrt((tr + np.sqrt(tr * tr - 4.0)) / 2.0)

    square = generate_unit_square(12)
    image = Mesh(square.vertices @ J.T, square.triangles,
                 square.boundary_edges)

    w_image = expression_weight("x - y + 0.2")
    w_pulled = WeightField(lambda pts: w_image.values(pts @ J.T))
    g_pulled = pullback_metric(
        euclidean_metric(), phi=lambda pts: pts @ J.T,
        jacobian=lambda pts: np.broadcast_to(J, (len(pts), 2, 2)),
        jac_bounds=(1.0 / s_hi, s_hi))

    bc = BoundarySpec.dirichlet()
    on_square = assemble(square, g_pulled, w_pulled, bc, 2)
    on_image = assemble(image, euclidean_metric(), w_image, bc, 2)

    print("entrywise matrix differences (square chart vs sheared mesh):")
    for name in ("K", "Mm", "R"):
        diff = np.abs((getattr(on_square, name)
                       - getattr(on_image, name)).toarray()).max()
        print("  {:2s}: {:.2e}".format(name, diff))

    sa = solve_weighted(on_square, 0.0, k_each=30)
    sb = solve_weighted(on_image, 0.0, k_each=30)
    print("spectra: {} positive, {} negative eigenvalues each".format(
        len(sa.pos), len(sa.neg)))
    print("max eigenvalue difference: {:.2e}".format(
        max(np.abs(sa.pos - sb.pos).max(), np.abs(sa.neg - sb.neg).max())))


if __name__ == "__main__":
    main()
