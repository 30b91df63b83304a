"""The defect matrix: which suites catch a defect planted in the moment table,
in the slice moments, in one of the algebraic layers built from ``p`` or in
one of the two paths that evaluate a slice on the circle.

Each table defect rewrites the values every ``MomentTable`` is built from, so
the grid and the series route carry the same error and only a check against
something other than a second table can see it.  Each slice defect rewrites
the values every ``SlicedMoments`` is built from: the slices of the theta grid,
those of the vanishing check's own angles and those the grid table is the
angle DFT of, so ``moments`` sees it against the series table.  Each algebraic defect
rewrites one layer boundary: the degree every reflection is taken at, the
sign of the cofactors ``B_j``, or the order of the Schur-Cohn tensor's two
matrix axes.  Each slice-evaluation defect rewrites either the Horner slices
the circle values read or the power sums of ``measure.w_slice``.  The tests
pin, for each defect and input, the suites that fail; README publishes the
matrix.  Gaps are pinned on purpose: ``moments`` compares two tables that
share the defect and passes every one; on the worked example, whose measure
is symmetric in ``z`` and ``w``, ``verify-cd`` passes both flips; its slices
on the theta grid (``m = 1``) carry only the real ``m_0``, so among the
suites on that grid only the roll of the angles reaches them; its 1 x 1
tensor is its own transpose; only ``cd-kernel`` reads the cofactors; and
``cd-kernel`` passes a tilt of the power sums.
"""

import numpy as np
import pytest

from bscd import cd_kernel, cli, measure, schur_cohn
from bscd.poly import BivariateLaurentPoly, DegreePair

from conftest import WORKED, WORKED_DEG

SUITES = ["stability", "moments", "verify-orthogonality", "verify-cd", "verify-kernel"]
DOWNSTREAM = {"verify-orthogonality", "verify-cd", "verify-kernel"}
TILT = 1e-6


def tilt(values, axis=0):
    """The moments of the weight ``(1 + TILT Re x)`` times the measure, ``x``
    the variable whose lags run along ``axis``: ``c[a] + TILT/2 (c[a - 1] +
    c[a + 1])`` along it, zero past the window."""
    values = np.moveaxis(values, axis, 0)
    tilted = values.copy()
    tilted[1:] += 0.5 * TILT * values[:-1]
    tilted[:-1] += 0.5 * TILT * values[1:]
    return np.moveaxis(tilted, 0, axis)


# each maps the value array, rows a = -A .. A and columns b = -B .. B
DEFECTS = {
    "conjugate": np.conj,
    "z-flip": lambda values: values[::-1, :],
    "w-flip": lambda values: values[:, ::-1],
    "tilt": tilt,
}

INPUTS = {
    "worked": lambda: (WORKED, WORKED_DEG),
    "2x3": lambda: measure.random_stable_poly(2, 3, np.random.default_rng(1)),
    "3x3": lambda: measure.random_stable_poly(3, 3, np.random.default_rng(1)),
}

# the suites that fail; the worked example's moments are real, so its
# conjugated table is the table itself
CAUGHT = {
    ("conjugate", "worked"): set(),
    ("conjugate", "2x3"): DOWNSTREAM,
    ("conjugate", "3x3"): DOWNSTREAM,
    ("z-flip", "worked"): {"verify-orthogonality", "verify-kernel"},
    ("z-flip", "2x3"): DOWNSTREAM,
    ("z-flip", "3x3"): DOWNSTREAM,
    ("w-flip", "worked"): {"verify-orthogonality", "verify-kernel"},
    ("w-flip", "2x3"): DOWNSTREAM,
    ("w-flip", "3x3"): DOWNSTREAM,
    ("tilt", "worked"): DOWNSTREAM,
    ("tilt", "2x3"): DOWNSTREAM,
    ("tilt", "3x3"): DOWNSTREAM,
}


@pytest.mark.parametrize("defect, name", list(CAUGHT), ids=[f"{d}-{n}" for d, n in CAUGHT])
def test_each_planted_defect_fails_the_suites_of_its_row(monkeypatch, defect, name):
    build = measure.MomentTable.__init__

    def planted(self, window, values, grid_size, est_error):
        values = DEFECTS[defect](np.asarray(values, dtype=complex))
        build(self, window, values, grid_size, est_error)

    monkeypatch.setattr(measure.MomentTable, "__init__", planted)
    p, deg = INPUTS[name]()
    reports = cli.run(cli.RunConfig(p, deg, SUITES))
    failed = {r.suite for r in reports if r.status != "pass"}
    assert failed == CAUGHT[defect, name]
    # a caught defect fails its check, not a build that blocks it
    assert all("error" not in r.details for r in reports)


SLICE_SUITES = ["stability", "moments", "schur-cohn", "cd-kernel", "parametric"]

# each maps the value array, rows one per angle and columns the lags -lag .. lag
SLICE_DEFECTS = {
    "conjugate": np.conj,
    "tilt": lambda values: tilt(values, axis=1),
    "roll": lambda values: np.roll(values, 1, axis=0),
}

# the suites that fail, each with the error it reports (None for a residual
# over tolerance); a moved slice measure breaks the vanishing check's grid
# agreement before its values are read.  The grid table reads the slices at
# every lag of its window, so moments catches the defects that the worked
# example's real m_0 hides from the suites on the theta grid
SLICES_CAUGHT = {"moments": None, "schur-cohn": None, "cd-kernel": None, "parametric": None}
VANISHING_CAUGHT = {**SLICES_CAUGHT, "parametric": "NoConvergence"}
SLICE_CAUGHT = {
    ("conjugate", "worked"): {"moments": None},
    ("conjugate", "2x3"): VANISHING_CAUGHT,
    ("conjugate", "3x3"): VANISHING_CAUGHT,
    ("tilt", "worked"): {"moments": None},
    ("tilt", "2x3"): SLICES_CAUGHT,
    ("tilt", "3x3"): SLICES_CAUGHT,
    ("roll", "worked"): VANISHING_CAUGHT,
    ("roll", "2x3"): VANISHING_CAUGHT,
    ("roll", "3x3"): VANISHING_CAUGHT,
}


@pytest.mark.parametrize(
    "defect, name", list(SLICE_CAUGHT), ids=[f"{d}-{n}" for d, n in SLICE_CAUGHT]
)
def test_each_planted_slice_defect_fails_the_suites_of_its_row(monkeypatch, defect, name):
    build = measure.SlicedMoments.__init__

    def planted(self, theta, lag, values, grid):
        build(self, theta, lag, SLICE_DEFECTS[defect](np.asarray(values, dtype=complex)), grid)

    monkeypatch.setattr(measure.SlicedMoments, "__init__", planted)
    p, deg = INPUTS[name]()
    reports = cli.run(cli.RunConfig(p, deg, SLICE_SUITES))
    failed = {r.suite: r.details.get("error") for r in reports if r.status != "pass"}
    assert failed == SLICE_CAUGHT[defect, name]
    # a caught defect fails a check, not a shared build that blocks it
    assert all("blocked_by" not in r.details for r in reports)


def plant_reflection_degree(monkeypatch):
    """Every reflection taken at ``(n + 1, m)`` instead of ``(n, m)``."""
    reflect = BivariateLaurentPoly.reflect

    def planted(self, deg):
        return reflect(self, DegreePair(deg.n + 1, deg.m))

    monkeypatch.setattr(BivariateLaurentPoly, "reflect", planted)


def plant_cofactor_sign(monkeypatch):
    """The cofactors ``B_j`` with their sign flipped."""
    decompose = cd_kernel.cofactor_decomposition

    def planted(p, deg):
        A, B = decompose(p, deg)
        return A, tuple(b.scale(-1.0) for b in B)

    monkeypatch.setattr(cd_kernel, "cofactor_decomposition", planted)


def plant_transposed_tensor(monkeypatch):
    """The Schur-Cohn tensor with its two matrix axes swapped; the slices the
    circle values come from stay as they are."""
    build = schur_cohn.LaurentMatrixPoly.__init__

    def planted(self, coeffs, slices):
        build(self, np.transpose(coeffs, (1, 0, 2)), slices)

    monkeypatch.setattr(schur_cohn.LaurentMatrixPoly, "__init__", planted)


# each defect with the suites that read its layer: the reflection feeds the
# divided difference, the cofactor check, the mirror images, the numerator of
# verify-cd and the corner kernel; the cofactors and the tensor the kernel set,
# which the tensor also rebuilds in verify-orthogonality
ALGEBRA_DEFECTS = {
    "reflection-degree": (plant_reflection_degree, ["cd-kernel", "verify-cd", "verify-kernel"]),
    "cofactor-sign": (plant_cofactor_sign, ["cd-kernel", "verify-orthogonality"]),
    "transposed-tensor": (plant_transposed_tensor, ["cd-kernel", "verify-orthogonality"]),
}

# the suites that fail, each with the error it reports (None for a residual
# over tolerance); the wrong reflection leaves a remainder in the division
REFLECTION_CAUGHT = {"cd-kernel": "NonzeroRemainder", "verify-cd": None, "verify-kernel": None}
KERNEL_SET_CAUGHT = {"cd-kernel": None, "verify-orthogonality": None}
ALGEBRA_CAUGHT = {
    ("reflection-degree", "worked"): REFLECTION_CAUGHT,
    ("reflection-degree", "2x3"): REFLECTION_CAUGHT,
    ("reflection-degree", "3x3"): REFLECTION_CAUGHT,
    ("cofactor-sign", "worked"): {"cd-kernel": None},
    ("cofactor-sign", "2x3"): {"cd-kernel": None},
    ("cofactor-sign", "3x3"): {"cd-kernel": None},
    ("transposed-tensor", "worked"): {},
    ("transposed-tensor", "2x3"): KERNEL_SET_CAUGHT,
    ("transposed-tensor", "3x3"): KERNEL_SET_CAUGHT,
}


@pytest.mark.parametrize(
    "defect, name", list(ALGEBRA_CAUGHT), ids=[f"{d}-{n}" for d, n in ALGEBRA_CAUGHT]
)
def test_each_planted_algebra_defect_fails_the_suites_of_its_row(monkeypatch, defect, name):
    plant, suites = ALGEBRA_DEFECTS[defect]
    p, deg = INPUTS[name]()
    plant(monkeypatch)
    reports = cli.run(cli.RunConfig(p, deg, suites))
    failed = {r.suite: r.details.get("error") for r in reports if r.status != "pass"}
    assert failed == ALGEBRA_CAUGHT[defect, name]
    # a caught defect fails a check, not a shared build that blocks it
    assert all("blocked_by" not in r.details for r in reports)


def plant_horner_tilt(monkeypatch):
    """Each slice ``p_i`` the circle values are evaluated from multiplied by
    ``1 + TILT z``; the tensor stays as it is."""
    build = schur_cohn.LaurentMatrixPoly.__init__
    factor = BivariateLaurentPoly({(0, 0): 1.0, (1, 0): TILT})

    def planted(self, coeffs, slices):
        build(self, coeffs, [q * factor for q in slices])

    monkeypatch.setattr(schur_cohn.LaurentMatrixPoly, "__init__", planted)


def plant_power_sum(monkeypatch, evaluate):
    """``measure.w_slice``, under both names it is read by, replaced by
    ``evaluate(w_slice, p, z, size)``."""
    w_slice = measure.w_slice

    def planted(p, z, size):
        return evaluate(w_slice, p, z, size)

    for module in (measure, cd_kernel):
        monkeypatch.setattr(module, "w_slice", planted)


# each rewrites one of the two paths that evaluate slices at z = e^{i theta}:
# Horner on the Schur-Cohn slices, which the circle values read, and the power
# sums of measure.w_slice, which the slice moments, and so the grid table, and
# the slice Gram read
SLICE_EVALUATION_DEFECTS = {
    "horner-tilt": plant_horner_tilt,
    "power-sum-tilt": lambda mp: plant_power_sum(
        mp, lambda w_slice, p, z, size: w_slice(p, z, size) * (1 + TILT * np.asarray(z))
    ),
    "power-sum-conjugate": lambda mp: plant_power_sum(
        mp, lambda w_slice, p, z, size: w_slice(p, np.conj(z), size)
    ),
}

# the suites that fail, each with the error it reports (None for a residual
# over tolerance).  A tilt of the power sums depends on the angle alone, so it
# cancels between the sections of the a_j and the slice moments, and the slice
# Gram of cd-kernel passes it; the worked example's slices have real
# coefficients, so at conj(z) each is the conjugate slice, with the same m_0,
# and only the grid table, which reads every lag, sees the flip
CIRCLE_CAUGHT = {"schur-cohn": None, "cd-kernel": None, "parametric": None}
POWER_SUM_CAUGHT = {"moments": None, "schur-cohn": None, "parametric": None}
SLICE_EVALUATION_CAUGHT = {
    ("horner-tilt", "worked"): CIRCLE_CAUGHT,
    ("horner-tilt", "2x3"): {**CIRCLE_CAUGHT, "parametric": "NoConvergence"},
    ("horner-tilt", "3x3"): CIRCLE_CAUGHT,
    ("power-sum-tilt", "worked"): POWER_SUM_CAUGHT,
    ("power-sum-tilt", "2x3"): {**POWER_SUM_CAUGHT, "parametric": "NoConvergence"},
    ("power-sum-tilt", "3x3"): POWER_SUM_CAUGHT,
    ("power-sum-conjugate", "worked"): {"moments": None},
    ("power-sum-conjugate", "2x3"): VANISHING_CAUGHT,
    ("power-sum-conjugate", "3x3"): VANISHING_CAUGHT,
}


@pytest.fixture
def fresh_stability_cache():
    """The planted w_slice also feeds the root scan: no verdict cached under
    it outlives the test, and none cached before it serves the test."""
    measure._cached_stability.cache_clear()
    yield
    measure._cached_stability.cache_clear()


@pytest.mark.parametrize(
    "defect, name",
    list(SLICE_EVALUATION_CAUGHT),
    ids=[f"{d}-{n}" for d, n in SLICE_EVALUATION_CAUGHT],
)
def test_each_planted_slice_evaluation_defect_fails_the_suites_of_its_row(
    monkeypatch, fresh_stability_cache, defect, name
):
    p, deg = INPUTS[name]()
    SLICE_EVALUATION_DEFECTS[defect](monkeypatch)
    reports = cli.run(cli.RunConfig(p, deg, SLICE_SUITES))
    failed = {r.suite: r.details.get("error") for r in reports if r.status != "pass"}
    assert failed == SLICE_EVALUATION_CAUGHT[defect, name]
    # a caught defect fails a check, not a shared build that blocks it
    assert all("blocked_by" not in r.details for r in reports)
