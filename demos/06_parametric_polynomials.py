#!/usr/bin/env python3
"""Orthogonal polynomials of the slice measures from pivot-free LU.

At each angle the Schur-Cohn matrix factors as L U without pivoting.  The
rows of U against [w^(m-1), ..., 1] give polynomials of exact degrees
0 .. m-1 that are orthogonal for the slice measure, with squared norm and
leading coefficient both equal to the pivot ratio D[m-i]/D[m-i-1].  The
weighted angle-Fourier coefficients of the squared norm vanish beyond
frequency n(m-j), and the bound is sharp.  The slice moments and the
vanishing check take the report of check_stability, which carries p and its
degree, and read its verdict.
"""

import numpy as np

from bscd import (
    check_stability,
    moment_vanishing,
    orthogonality_check,
    parametric_polynomials,
    principal_determinants,
    schur_cohn_matrix,
    slice_moments,
)
from bscd.measure import random_stable_poly
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair

p = Poly({(0, 0): 3, (1, 0): -1, (0, 1): -1})
deg = DegreePair(1, 1)

print("p = 3 - z - w")
print("-------------")
# the polynomials factor the circle values of a determinant profile, at an
# array of angles; one angle is an array of one
theta = 0.9
T = schur_cohn_matrix(p, deg)
op = parametric_polynomials(principal_determinants(T, [theta]))
print(f"  phi_0 at theta={theta}: {op.phi[0][0, 0].real:.6f}   (9 - 6 cos theta = {9 - 6 * np.cos(theta):.6f})")
mv = moment_vanishing(check_stability(p, deg), {0: [1, 2, 3, 4, 5]}, T)
print(f"  angle-Fourier values I(k) on {mv['theta_grid']} angles, vanishing bound k > n(m-j) = 1:")
for k, v in zip(mv["per_j"][0]["k_list"], mv["per_j"][0]["values"]):
    print(f"    I({k}) = {v.real:+.3e} {v.imag:+.3e}i")
print("  (I(1) = -3 is the sharpness value at the bound)")
print()

rng = np.random.default_rng(31)
q, qdeg = random_stable_poly(2, 3, rng)
q_stability = check_stability(q, qdeg)
n, m = qdeg
print(f"random stable polynomial, degree {tuple(qdeg)}")
print("---------------------------------------")
Tq = schur_cohn_matrix(q, qdeg)
op = parametric_polynomials(principal_determinants(Tq, [0.7]))
check = orthogonality_check(op, slice_moments(q_stability, [0.7], m - 1))
print(f"  off-diagonal slice inner products: max {check['offdiag_max'][0]:.2e}")
print(f"  diagonal law D[m-i]/D[m-i-1]     : residual {check['lu_law_residual'][0]:.2e}")
# the variant subscripting shifts the denominator index the other way; it
# misses the norms by far more than roundoff
D, i = op.D.D[0], np.arange(1, m)
variant = np.max(np.abs(np.diagonal(check["gram"][0])[1:] - D[m - i] / D[m - i + 1]))
print(f"  variant subscript D[m-i]/D[m-i+1]: residual {variant:.2e}")
k_lists = {j: [n * (m - j) + 1, n * (m - j) + 2] for j in range(m)}
mv = moment_vanishing(q_stability, k_lists, Tq)
print(f"  one sweep of {mv['theta_grid']} angles for every j:")
for j, entry in mv["per_j"].items():
    mags = ", ".join(f"|I({k})|={abs(v):.1e}" for k, v in zip(entry["k_list"], entry["values"]))
    print(f"  j={j}: bound n(m-j)={n * (m - j)}; beyond it {mags}")
