"""Seeded inputs for the bscd benchmark workloads.

Every workload cycles through a fixed degree mix.  Each polynomial is a fresh
draw from one generator seeded by the run's ``--seed``; the program only sees
the generated config files.  The generators live here rather than in
``bscd.measure.random_stable_poly`` so that a change to the package cannot
change the benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# p = 3 - z - w: the warm-up call and the correctness gate.  Its kernel
# coefficient is a_0 = -3 + 9z - 3z^2 with ||a_0||^2 = 9.
WORKED_EXAMPLE = {
    "n": 1,
    "m": 1,
    "coeffs": [[[3.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]],
}
WORKED_A0 = (-3.0, 9.0, -3.0)
WORKED_A0_NORM2 = 9.0


@dataclass(frozen=True)
class Workload:
    degrees: tuple[tuple[int, int], ...]
    # None: ladder draw, |p| >= 1 on the bidisk.  A number: min |p| on the bidisk.
    delta: float | None


WORKLOADS = {
    # verify-kernel's fixed 512^2 quadrature is ~75% of each call; parametric
    # and schur_cohn stay under 15%.
    "ladder_small": Workload(((1, 1), (2, 2), (3, 3), (4, 4)), None),
    # scalar Laurent evaluation under parametric and the inner-product loops of
    # verify-orthogonality dominate; (8,8) carries the parametric NoConvergence.
    "ladder_large": Workload(((6, 6), (8, 8)), None),
    # slowly decaying moments: the series oracle reaches order 1024 and the
    # torus grid 1024^2, depths the ladders never reach.
    "near_boundary": Workload(((2, 2), (3, 3)), 0.1),
}


def draw_polynomial(n: int, m: int, rng: np.random.Generator, delta: float | None) -> dict:
    """One stable polynomial in the config interchange form.

    Ladder draws follow ``random_stable_poly``: ``q`` has complex normal
    coefficients scaled to a mass drawn from U(0.8, 1.6), and ``p = (1 + mass)
    - q``, so ``|p| >= 1`` on the closed bidisk.  Near-boundary draws give ``q``
    positive real coefficients summing to 1 and set ``p = (1 + delta) - q``, so
    the minimum of ``|p|`` on the bidisk is exactly ``delta``, reached at (1, 1).
    Their magnitudes are drawn from U(0.5, 1) before normalizing: with U(0, 1)
    about a third of the (2,2) draws stop at grid 512 instead of 1024, which
    halves their cost and makes a short run's throughput depend on the draw.
    """
    keys = [(i, j) for i in range(n + 1) for j in range(m + 1) if (i, j) != (0, 0)]
    if delta is None:
        mass = float(rng.uniform(0.8, 1.6))
        q = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        q *= mass / np.abs(q).sum()
        constant = 1.0 + float(np.abs(q).sum())
    else:
        q = rng.uniform(0.5, 1.0, size=len(keys)).astype(complex)
        q /= q.sum()
        constant = 1.0 + delta
    coeffs = [[[0.0, 0.0] for _ in range(m + 1)] for _ in range(n + 1)]
    coeffs[0][0] = [constant, 0.0]
    for (i, j), c in zip(keys, q):
        coeffs[i][j] = [float(-c.real), float(-c.imag)]
    return {"n": n, "m": m, "coeffs": coeffs}


def polynomial_key(poly: dict) -> tuple:
    return (poly["n"], poly["m"], tuple(tuple(map(tuple, row)) for row in poly["coeffs"]))


def draw_cycles(workload: Workload, seed: int, cycles: int) -> list[list[dict]]:
    """``cycles`` passes over the degree mix, all polynomials distinct.

    Distinct inputs keep ``measure``'s stability cache from serving a timed
    call from an earlier one; the worked example is excluded for the same
    reason, since it is the warm-up call.
    """
    rng = np.random.default_rng(seed)
    seen = {polynomial_key(WORKED_EXAMPLE)}
    out = []
    for _ in range(cycles):
        cycle = []
        for n, m in workload.degrees:
            poly = draw_polynomial(n, m, rng, workload.delta)
            key = polynomial_key(poly)
            if key in seen:
                raise RuntimeError(f"repeated polynomial in the measured set: {poly}")
            seen.add(key)
            cycle.append(poly)
        out.append(cycle)
    return out
