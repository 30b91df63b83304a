"""Shared fixtures: the worked example, a reproducible random family and a
child-process runner that imports bscd from this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bscd import cd_kernel, measure
from bscd.poly import BivariateLaurentPoly, DegreePair

# p = 3 - z - w, the polynomial every hand-derived value in the suite uses
WORKED = BivariateLaurentPoly({(0, 0): 3, (1, 0): -1, (0, 1): -1})
WORKED_DEG = DegreePair(1, 1)

# the positive control: (3 - z)^n (3 - w)^m, whose measure is a product of
# one-variable measures
PRODUCT_DEGREES = [(1, 1), (2, 1), (1, 2)]


def product_polynomial(n: int, m: int) -> tuple[BivariateLaurentPoly, DegreePair]:
    p = BivariateLaurentPoly.constant(1)
    for _ in range(n):
        p = p * BivariateLaurentPoly({(0, 0): 3, (1, 0): -1})
    for _ in range(m):
        p = p * BivariateLaurentPoly({(0, 0): 3, (0, 1): -1})
    return p, DegreePair(n, m)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(args, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a child process that imports bscd from this checkout,
    with its output captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


RANDOM_DEGREES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3)]
RANDOM_SEED = 20260811


def window_for(deg: DegreePair) -> tuple[int, int]:
    n, m = deg
    return (3 * n + 8, 2 * m + 8)


def make_random_family(seed: int = RANDOM_SEED):
    rng = np.random.default_rng(seed)
    return [measure.random_stable_poly(n, m, rng) for (n, m) in RANDOM_DEGREES]


def variant_law_residual(check, op):
    """Distance of the slice Gram diagonal from the variant subscripting
    ``D[m-i] / D[m-i+1]``, which shifts the denominator of the pivot ratio
    ``D[m-i] / D[m-i-1]`` the other way; defined for ``i = 1 .. m-1``, so
    ``m >= 2``.  ``check`` is ``orthogonality_check`` of the polynomials
    ``op``; the result has one entry per angle."""
    D = op.D.D
    m = D.shape[-1] - 1
    i = np.arange(1, m)
    diag = np.diagonal(check["gram"], axis1=-2, axis2=-1)[..., 1:]
    return np.max(np.abs(diag - D[..., m - i] / D[..., m - i + 1]), axis=-1)


@pytest.fixture(scope="session")
def worked_moments():
    return measure.moments_from_grid(measure.check_stability(WORKED, WORKED_DEG), (10, 8))


@pytest.fixture(scope="session")
def worked_kernelset():
    return cd_kernel.cd_kernel_set(WORKED, WORKED_DEG)


@pytest.fixture(scope="session")
def random_family():
    return make_random_family()


@pytest.fixture(scope="session")
def random_family_with_moments(random_family):
    return [
        (p, deg, measure.moments_from_grid(measure.check_stability(p, deg), window_for(deg)))
        for (p, deg) in random_family
    ]


@pytest.fixture(scope="session")
def random_kernelsets(random_family):
    return [cd_kernel.cd_kernel_set(p, deg) for (p, deg) in random_family]
