"""The defect matrix: which suites catch a defect planted in the moment table.

Each defect rewrites the values every ``MomentTable`` is built from, so the
grid and the series route carry the same error and only a check against
something other than a second table can see it.  The tests pin, for each
defect and input, the set of suites that fail; README publishes the matrix.
Two gaps are pinned on purpose: ``moments`` compares two tables that share
the defect and passes every one, and on the worked example, whose measure is
symmetric in ``z`` and ``w``, ``verify-cd`` passes both flips.
"""

import numpy as np
import pytest

from bscd import cli, measure

from conftest import WORKED, WORKED_DEG

SUITES = ["stability", "moments", "verify-orthogonality", "verify-cd", "verify-kernel"]
DOWNSTREAM = {"verify-orthogonality", "verify-cd", "verify-kernel"}
TILT = 1e-6


def tilt(values):
    """The moments of the weight ``(1 + TILT Re z)`` times the measure:
    ``c[a, b] + TILT/2 (c[a - 1, b] + c[a + 1, b])``, zero past the window."""
    tilted = values.copy()
    tilted[1:] += 0.5 * TILT * values[:-1]
    tilted[:-1] += 0.5 * TILT * values[1:]
    return tilted


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
    reports = cli.run(cli.RunConfig(p, deg, SUITES, dict(cli.DEFAULT_TOLERANCES)))
    failed = {r.suite for r in reports if r.status != "pass"}
    assert failed == CAUGHT[defect, name]
    # a caught defect fails its check, not a build that blocks it
    assert all("error" not in r.details for r in reports)
