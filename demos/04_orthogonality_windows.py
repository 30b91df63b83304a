#!/usr/bin/env python3
"""The orthogonality windows of the kernel coefficients.

Each a_k annihilates every monomial of an L-shaped index region: the whole
strip 0 <= j < m except the single monomial z^n w^k, plus two quadrant
pieces.  The family is also dual to the shifted monomials z^(j+n) w^k (each
such pairing is a strip pairing, conjugated), each z^s a_k stays orthogonal
to the monomials z^i w^j with i < n, j >= 0 (a strip or quadrant pairing of
a_k itself), and each a_k can be *reconstructed* from those relations alone,
up to the norm fixed by the circle average of the matching Schur-Cohn
diagonal entry.
"""

import numpy as np

from bscd import (
    cd_kernel_set,
    inner_product,
    moments_from_grid,
    orthogonality_report,
    reconstruct_kernel_coefficients,
    schur_cohn_matrix,
)
from bscd.measure import norm, random_stable_poly
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair
from bscd.subspaces import MARGIN, in_coefficient_orthogonality_set

p = Poly({(0, 0): 3, (1, 0): -1, (0, 1): -1})
deg = DegreePair(1, 1)
table = moments_from_grid(p, (10, 8))
ks = cd_kernel_set(p, deg)
a0 = ks.a[0]

print("p = 3 - z - w, a_0 = -3 + 9z - 3z^2")
print("-----------------------------------")
print("  window of pairings <a_0, z^i w^j> (X = annihilated, * = the pivot):")
for j in range(2, -3, -1):
    row = []
    for i in range(-2, 5):
        if (i, j) == (1, 0):
            row.append("*")
        elif in_coefficient_orthogonality_set(i, j, 0, deg):
            value = inner_product(a0, Poly.monomial(i, j), table)
            row.append("X" if abs(value) < 1e-9 else "?")
        else:
            row.append(".")
    print(f"    j={j:+d}:  " + " ".join(row))
pivot = inner_product(a0, Poly.monomial(1, 0), table)
print(f"  pivot pairing <a_0, z w^0> = {pivot.real:.9f}")
print()

rng = np.random.default_rng(23)
q, qdeg = random_stable_poly(2, 2, rng)
qtable = moments_from_grid(q, (14, 12))
kq = cd_kernel_set(q, qdeg)
report = orthogonality_report(q, qdeg, kq, qtable)
scale = min(norm(ak, qtable) for ak in kq.a)
print(f"random stable polynomial, degree {tuple(qdeg)}")
print("---------------------------------------")
print(f"  pairings checked over the margin-{MARGIN} rectangle, by relation family:")
for name, family in report.families.items():
    print(f"    {name}: {family.values.size}")
print(f"  max violation: {report.max_violation:.2e}  (relative: {report.max_violation / scale:.2e})")

rebuilt = reconstruct_kernel_coefficients(q, qdeg, qtable, schur_cohn_matrix(q, qdeg))
for k, (rec, ak) in enumerate(zip(rebuilt, kq.a)):
    print(f"  reconstruction of a_{k} from orthogonality alone: "
          f"max coeff diff {(rec - ak).max_abs():.2e}")
