#!/usr/bin/env python3
"""The two-variable Christoffel-Darboux identity, checked on coefficients.

With K_1 the reproducing kernel of span{z^i w^j : i <= n, j <= m-1} minus
its one-step-smaller-in-z subspan, and K_2 the same with the roles of the
variables exchanged,

    p(z,w) conj(p(z1,w1)) - refl(z,w) conj(refl(z1,w1))
        = (1 - w conj(w1)) K_1 + (1 - z conj(z1)) K_2.

Both sides are polynomials in (z, w) and conj(z1, w1) over the box
[0, n] x [0, m], so the identity is an equation between coefficient arrays.
The left side comes from p alone; the kernel arrays E_1 and E_2 come from
the moment data alone, so the two sides are computed by genuinely different
machinery.  The value of a kernel at the origin 4-tuple is its coefficient
of the pair (1, 1).
"""

import numpy as np

from bscd import moments_from_grid
from bscd.measure import random_stable_poly
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair
from bscd.subspaces import cd_formula_residual

p = Poly({(0, 0): 3, (1, 0): -1, (0, 1): -1})
deg = DegreePair(1, 1)
table = moments_from_grid(p, (6, 6))
result = cd_formula_residual(p, deg, table)

print("p = 3 - z - w at the origin 4-tuple")
print("-----------------------------------")
pr = p.reflect(deg)
lhs = p(0, 0) * np.conj(p(0, 0)) - pr(0, 0) * np.conj(pr(0, 0))
k1 = result["E1"][0, 0, 0, 0].real
k2 = result["E2"][0, 0, 0, 0].real
print(f"  left side : {lhs.real:.12f}")
print(f"  K_1 part  : {k1:.12f}   (exact value (9 - 3 sqrt 5)/2 = {(9 - 3 * np.sqrt(5)) / 2:.12f})")
print(f"  K_2 part  : {k2:.12f}")
print(f"  K_1 + K_2 : {k1 + k2:.12f}")
print(f"  largest coefficient difference {result['max_residual']:.2e} at {result['argmax']}")
print()

rng = np.random.default_rng(29)
print("random stable polynomials, every coefficient pair of the box")
print("--------------------------------------------------------------")
for trial in range(3):
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    q, qdeg = random_stable_poly(n, m, rng)
    qtable = moments_from_grid(q, (2 * n + 2, 2 * m + 2))
    result = cd_formula_residual(q, qdeg, qtable)
    print(
        f"  degree {(n, m)}: max residual {result['max_residual']:.2e}"
        f" at {result['argmax']}"
    )
