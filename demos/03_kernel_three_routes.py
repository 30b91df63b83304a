#!/usr/bin/env python3
"""Three independent constructions of the parametrized kernel coefficients.

Route 1 reads the family a_0 .. a_{m-1} off the Schur-Cohn matrix.
Route 2 divides the Christoffel-Darboux numerator by (1 - w conj(eta)),
with conj(eta) formal, so one division gives the whole family.
Route 3 writes each a_j as p * A_j + reflect(p) * B_j from explicit
cofactor polynomials.  All three agree coefficientwise.
"""

import numpy as np

from bscd import cd_kernel_set, kernel_by_divided_difference
from bscd.measure import random_stable_poly
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair

p = Poly({(0, 0): 3, (1, 0): -1, (0, 1): -1})
deg = DegreePair(1, 1)
ks = cd_kernel_set(p, deg)

print("p = 3 - z - w")
print("-------------")
print(f"  a_0 from the matrix route : {dict(ks.a[0].items())}")
print(f"  cofactors                 : A_0 = {dict(ks.A[0].items())}, B_0 = {dict(ks.B[0].items())}")
recombined = p * ks.A[0] + p.reflect(deg) * ks.B[0]
print(f"  p*A_0 + reflect(p)*B_0    : {dict(recombined.items())}")
(dd,) = kernel_by_divided_difference(p, deg)
print(f"  divided-difference route  : {dict(dd.items())}")
print()

rng = np.random.default_rng(11)
q, qdeg = random_stable_poly(2, 2, rng)
kq = cd_kernel_set(q, qdeg)
print(f"random stable polynomial, degree {tuple(qdeg)}")
print("---------------------------------------")
worst = max(
    (direct - aj).max_abs() for direct, aj in zip(kernel_by_divided_difference(q, qdeg), kq.a)
)
print(f"  route 1 vs route 2 on every a_j                : max coeff diff {worst:.2e}")

worst = 0.0
for j in range(qdeg.m):
    recombined = q * kq.A[j] + q.reflect(qdeg) * kq.B[j]
    worst = max(worst, (recombined - kq.a[j]).max_abs())
print(f"  cofactor identity a_j = p A_j + reflect(p) B_j : max coeff diff {worst:.2e}")

n, m = qdeg
mirror_defect = max(
    (kq.a[m - 1 - k].reflect(DegreePair(2 * n, m - 1)) - kq.a[k]).max_abs()
    for k in range(m)
)
print(f"  reflection symmetry a_k = reflect(a_(m-1-k))   : max coeff diff {mirror_defect:.2e}")
