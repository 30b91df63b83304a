#!/usr/bin/env python3
"""Stability testing and the two moment pipelines.

The measure under study is dsigma / |p|^2 on the torus for a polynomial p
with no zeros in the closed bidisk.  This script checks stability for a few
polynomials, each verdict with the smallest root modulus it is decided by,
then computes the Fourier moments of the measure two ways (the angle DFT
of the slice moments vs. the power series of 1/p) and compares.  Both
pipelines take the report of check_stability, which carries p and its
degree, and read its verdict instead of testing p again.
"""

from bscd import check_stability, moments_from_grid, moments_from_series
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair


VERDICTS = {True: "stable", False: "NOT stable", None: "inconclusive"}


def show_stability(label, p, deg):
    # the smallest root modulus decides: at most 1, within 1e-9 above, or more
    report = check_stability(p, deg)
    verdict = VERDICTS[report.stable]
    if report.witness is not None:
        verdict += f", smallest root at {report.witness}"
    print(f"  {label:<20} -> {verdict}   (min root modulus: {report.min_root_modulus:.12g})")


print("Stability on the closed bidisk")
print("------------------------------")
show_stability("3 - z - w", Poly({(0, 0): 3, (1, 0): -1, (0, 1): -1}), DegreePair(1, 1))
show_stability("2 - z - w", Poly({(0, 0): 2, (1, 0): -1, (0, 1): -1}), DegreePair(1, 1))
show_stability(
    "2.0000000001 - z - w",
    Poly({(0, 0): 2.0000000001, (1, 0): -1, (0, 1): -1}),
    DegreePair(1, 1),
)
show_stability("1 - 2z", Poly({(0, 0): 1, (1, 0): -2}), DegreePair(1, 0))
print()

p = Poly({(0, 0): 4, (1, 0): -2, (0, 1): -2, (1, 1): 1})  # (2 - z)(2 - w)
deg = DegreePair(1, 1)
print("Moments of dsigma/|p|^2 for p = (2 - z)(2 - w)")
print("----------------------------------------------")
stability = check_stability(p, deg)
grid = moments_from_grid(stability, (4, 4))
series = moments_from_series(stability, (4, 4))
print(f"  grid pipeline  : {grid.grid_size} angles, est. error {grid.est_error:.2e}")
print(f"  series pipeline: truncation order {series.grid_size}, est. error {series.est_error:.2e}")
print(f"  cross-path difference: {grid.max_difference(series):.2e}")
print()
print("  closed form to compare against: c[a,b] = 2^(-|a|-|b|) / 9")
worst = 0.0
for a in range(-4, 5):
    for b in range(-4, 5):
        worst = max(worst, abs(grid.get(a, b) - 2.0 ** (-abs(a) - abs(b)) / 9))
print(f"  max deviation from the closed form: {worst:.2e}")
print(f"  c[1,1] = {grid.get(1, 1).real:.12f}  (exact 1/36 = {1 / 36:.12f})")
