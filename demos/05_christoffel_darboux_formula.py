#!/usr/bin/env python3
"""The two-variable Christoffel-Darboux identity, checked pointwise.

With K_1 the reproducing kernel of span{z^i w^j : i <= n, j <= m-1} minus
its one-step-smaller-in-z subspan, and K_2 the same with the roles of the
variables exchanged,

    p(z,w) conj(p(z1,w1)) - refl(z,w) conj(refl(z1,w1))
        = (1 - w conj(w1)) K_1 + (1 - z conj(z1)) K_2.

The kernels come from inverse Gram matrices of the moment data, so the two
sides are computed by genuinely different machinery.
"""

import numpy as np

from bscd import moments_from_grid
from bscd.measure import random_stable_poly
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair
from bscd.subspaces import (
    KernelEvaluator,
    SubspaceSpec,
    cd_formula_residual,
    monomial_rect,
)

p = Poly({(0, 0): 3, (1, 0): -1, (0, 1): -1})
deg = DegreePair(1, 1)
table = moments_from_grid(p, (6, 6))

print("p = 3 - z - w at the origin 4-tuple")
print("-----------------------------------")
pr = p.reflect(deg)
lhs = p(0, 0) * np.conj(p(0, 0)) - pr(0, 0) * np.conj(pr(0, 0))
K1 = KernelEvaluator(
    SubspaceSpec(monomial_rect(0, 1, 0, 0), monomial_rect(0, 0, 0, 0)), table
)
K2 = KernelEvaluator(
    SubspaceSpec(monomial_rect(0, 0, 0, 1), monomial_rect(0, 0, 1, 1)), table
)
k1 = K1.evaluate((0, 0), (0, 0)).real
k2 = K2.evaluate((0, 0), (0, 0)).real
print(f"  left side : {lhs.real:.12f}")
print(f"  K_1 part  : {k1:.12f}   (exact value (9 - 3 sqrt 5)/2 = {(9 - 3 * np.sqrt(5)) / 2:.12f})")
print(f"  K_2 part  : {k2:.12f}")
print(f"  K_1 + K_2 : {k1 + k2:.12f}")
print()

rng = np.random.default_rng(29)
print("random stable polynomials, 200 random points of the closed bidisk each")
print("-----------------------------------------------------------------------")
for trial in range(3):
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    q, qdeg = random_stable_poly(n, m, rng)
    qtable = moments_from_grid(q, (2 * n + 2, 2 * m + 2))
    points = [
        tuple(np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4)))
        for _ in range(200)
    ]
    result = cd_formula_residual(q, qdeg, qtable, points)
    print(f"  degree {(n, m)}: max residual {result['max_residual']:.2e}")
