"""Two-sided spectrum of a sign-changing weight.

With rho = +1 on the left half of the square and -1 on the right, the
eigenvalue family splits into a positive and a negative branch. Mirror
symmetry swaps the branches, so they coincide numerically; each branch
follows the Weyl law of its own half volume.
"""

import numpy as np

from roughweyl import (
    BoundarySpec,
    assemble,
    euclidean_metric,
    fit_limit,
    generate_unit_square,
    halves_weight,
    solve_weighted,
    weyl_constants,
)


def main():
    m = generate_unit_square(32)
    g = euclidean_metric()
    w = halves_weight(1.0, -1.0)
    p = assemble(m, g, w, BoundarySpec.dirichlet(), 2)
    s = solve_weighted(p, 0.0, k_each=150)

    print("computed {} positive and {} negative eigenvalues".format(
        len(s.pos), len(s.neg)))
    print("\n  k    lambda_k^+      lambda_k^-      difference")
    for k in (1, 2, 5, 10, 50):
        print("{:4d}   {:.8f}    {:.8f}    {:.2e}".format(
            k, s.pos[k - 1], s.neg[k - 1], abs(s.pos[k - 1] - s.neg[k - 1])))
    print("\nmax |lambda^+ - lambda^-| over all 150: {:.2e}".format(
        np.abs(s.pos - s.neg).max()))

    target = weyl_constants(p.vol, p.masses)
    print("\neach branch sees only its half: c_+ = c_- = {:.6f} "
          "(1/(8 pi) = {:.6f})".format(target.c_plus, 1.0 / (8.0 * np.pi)))
    sides = fit_limit(s, target=target)["sides"]
    for side, label in (("plus", "positive"), ("minus", "negative")):
        print("{} tail average {:.6f}, deviation {:.1%}".format(
            label, sides[side]["estimate"], sides[side]["rel_dev"]))
    print("the deviations match exactly, as they must; their size is the"
          " pre-asymptotic\nboundary deficit at this resolution, within 10%"
          " for the h = 1/128 run")


if __name__ == "__main__":
    main()
