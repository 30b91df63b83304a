#!/usr/bin/env python3
"""The Schur-Cohn matrix on the circle and what it knows about the slices.

For stable p the matrix built from the w-coefficient slices is positive
definite at every point of the unit circle, and it is the *inverse* of the
moment matrix of the one-variable slice measure there.  Both facts are
demonstrated numerically.  The slice moments take the report of
check_stability, which carries p and its degree, and read its verdict.
"""

import numpy as np

from bscd import (
    check_stability,
    evaluate_on_circle,
    principal_determinants,
    schur_cohn_matrix,
    slice_moments,
)
from bscd.measure import random_stable_poly
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair, angle_grid

p = Poly({(0, 0): 3, (1, 0): -1, (0, 1): -1})
deg = DegreePair(1, 1)
T = schur_cohn_matrix(p, deg)

print("p = 3 - z - w")
print("-------------")
print(f"  matrix entry (0,0): {dict(T.entry(0, 0).items())}")
at_0, at_pi = evaluate_on_circle(T, [0.0, np.pi])[:, 0, 0].real
print(f"  value at theta=0  : {at_0:.6f}   (9 - 6 cos 0 = 3)")
print(f"  value at theta=pi : {at_pi:.6f}  (9 - 6 cos pi = 15)")
thetas = angle_grid(128)
eigs = np.linalg.eigvalsh(evaluate_on_circle(T, thetas))[:, 0]
print(f"  positivity scan   : min eigenvalue {eigs.min():.6f} at theta={thetas[eigs.argmin()]:.3f}")
print()

rng = np.random.default_rng(7)
q, qdeg = random_stable_poly(2, 3, rng)
Tq = schur_cohn_matrix(q, qdeg)
print(f"random stable polynomial, degree {tuple(qdeg)}")
print("---------------------------------------")
min_eig = np.linalg.eigvalsh(evaluate_on_circle(Tq, angle_grid(64)))[:, 0].min()
print(f"  positive definite on the circle: {min_eig > 0} (min eig {min_eig:.4f})")

# every circle-layer function takes an array of angles; one angle is an array of one
theta = 1.234
profile = principal_determinants(Tq, [theta])
print(f"  leading principal determinants at theta={theta}: "
      + ", ".join(f"{d:.4f}" for d in profile.D[0]))

m = qdeg.m
sm = slice_moments(check_stability(q, qdeg), [theta], m - 1)
residual = np.max(np.abs(profile.matrix @ sm.lag_matrix(m, m) - np.eye(m)))
print(f"  || T(theta) @ sliced-moment-matrix - I ||_max = {residual:.2e}")
print("  (the matrix inverts the moment matrix of the slice measure)")
