"""Batch front-end: parse a config, dispatch verification suites, emit reports.

Command shape:

    bscd <all | suite [suite ...]> --config path.json [--out path]

The config file holds the polynomial and nothing else; the suites and the
output path come from the command line alone.  One suite name prints that
suite's payload; several names, or ``all``, write the report document of those
suites to stdout or to ``--out``.  Everything else is fixed or follows from the
degree: each suite's gate (``TOLERANCES``), the moment window, the theta grid,
the seed of the sampled points and the vanishing frequencies; the
orthogonality rectangle is fixed in ``subspaces``.

Exit codes: 0 all pass, 1 any fail, 2 config error, 3 inconclusive (stability
could not be decided near the boundary).  Suites run one after another in
dependency order, results are assembled in suite-name order, and identical
configs produce byte-identical reports apart from wall times.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import cd_kernel, measure, parametric, schur_cohn, subspaces
from .errors import (
    BscdError,
    ConfigInvalid,
    DegenerateMoments,
    InconclusiveNearBoundary,
    IoFailure,
)
from .poly import BivariateLaurentPoly, DegreePair, angle_grid

SUITE_ORDER = (
    "stability",
    "moments",
    "schur-cohn",
    "cd-kernel",
    "verify-orthogonality",
    "verify-cd",
    "verify-kernel",
    "parametric",
)

# each suite passes when its max_violation is below its gate; the stability
# verdict is 0 or 1, so its gate of 1.0 passes a stable p alone
TOLERANCES = {
    "stability": 1.0,
    "moments": 1e-10,
    "schur-cohn": 1e-8,
    "cd-kernel": 1e-10,
    "verify-orthogonality": 1e-8,
    "verify-cd": 1e-9,
    "verify-kernel": 1e-8,
    "parametric": 1e-9,
}

CONFIG_KEYS = {"polynomial"}

# every run verifies the same extents: the theta grid of the slice suites and
# the seed of the sampled points
THETA_GRID = 32
SEED = 0


@dataclass
class RunConfig:
    polynomial: BivariateLaurentPoly
    deg: DegreePair
    suites: list[str]

    @property
    def window(self) -> tuple[int, int]:
        """The moment window: the one verify-orthogonality reads, with ``|b|``
        widened to at least ``m + 2 MARGIN``."""
        A, B = subspaces.orthogonality_window(self.deg)
        return (A, max(B, self.deg.m + 2 * subspaces.MARGIN))


@dataclass
class SuiteReport:
    suite: str
    status: str
    max_violation: float
    tolerance: float
    details: dict = field(default_factory=dict)
    wall_time: float = 0.0


def load_config(path: str) -> RunConfig:
    """Read and validate a config file, whose one entry is the polynomial.

    The returned config runs every suite; on the command line, :func:`main`
    narrows the suites.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError covers bad JSON and bytes that are not UTF-8; RecursionError
    # nesting past the interpreter's limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    if "polynomial" not in doc:
        raise ConfigInvalid("config needs a 'polynomial' entry")
    try:
        poly, deg = BivariateLaurentPoly.from_json_dict(doc["polynomial"])
    # OverflowError: an integer too large for a float
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"bad polynomial: {exc}") from exc
    # the kernel coefficients, the Schur-Cohn matrix and the slices need both
    if deg.n < 1 or deg.m < 1:
        raise ConfigInvalid(f"degree ({deg.n}, {deg.m}) needs n >= 1 and m >= 1")
    if poly.is_zero:
        raise ConfigInvalid("polynomial must be nonzero")
    if not np.isfinite(poly.coeffs).all():
        raise ConfigInvalid("polynomial coefficients must be finite")
    return RunConfig(poly, deg, list(SUITE_ORDER))


# ----------------------------------------------------------------------
# Shared artifacts
# ----------------------------------------------------------------------


def _grid_moments(art):
    """The grid moment table, refused when its mass is degenerate."""
    table = measure.moments_from_grid(art.get("stability"), art.config.window)
    # an underflowed (subnormal or zero) mass makes every absolute difference
    # between two tables tiny, so a cross-path check would pass on it
    mass = table.get(0, 0).real
    if not np.finfo(float).tiny <= mass < np.inf:
        raise DegenerateMoments(f"c[0, 0] = {mass!r} is not a positive normal float")
    return table


# each builder gets the run's Artifacts, so it can build on other artifacts;
# those that form 1/|p|^2 take the stability verdict as their p
ARTIFACT_BUILDERS = {
    "stability": lambda art: measure.check_stability(art.p, art.deg),
    "moments": _grid_moments,
    "matrix": lambda art: schur_cohn.schur_cohn_matrix(art.p, art.deg),
    "kernelset": lambda art: cd_kernel.cd_kernel_set(art.p, art.deg, art.get("matrix")),
    # the Schur-Cohn circle values on the theta grid: the schur-cohn,
    # cd-kernel and parametric suites all read this one set
    "circle": lambda art: schur_cohn.principal_determinants(
        art.get("matrix"), angle_grid(THETA_GRID)
    ),
    # slice moments on the theta grid; a suite fetches them only after an
    # artifact that refuses m < 1 (load_config refuses it too)
    "slices": lambda art: measure.slice_moments(
        art.get("stability"), angle_grid(THETA_GRID), art.deg.m - 1
    ),
}


class Artifacts:
    """Lazily built objects shared between suites of one run.

    Every other artifact waits on the stability verdict: an unstable or
    inconclusive one refuses them all with its own error.  A build that raises
    is remembered too: every later request re-raises the same error instead of
    paying for the failed build again.  The error names the artifact in
    ``artifact``, which a suite report reads as ``blocked_by``: the first
    artifact that failed, when one build fails on another.
    """

    def __init__(self, config: RunConfig):
        self.config, self.p, self.deg = config, config.polynomial, config.deg
        self._cache: dict[str, object] = {}

    def get(self, name: str):
        if name not in self._cache:
            # the step that raised names the error: the verdict, then the build
            step = "stability"
            try:
                if name != step:
                    self.get(step).require_stable()
                    step = name
                self._cache[name] = ARTIFACT_BUILDERS[name](self)
            except BscdError as exc:
                if exc.artifact is None:
                    exc.artifact = step
                self._cache[name] = exc
        value = self._cache[name]
        if isinstance(value, BscdError):
            raise value
        return value


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------


def _worst(values) -> float:
    """The largest of ``values``, 0.0 for none, and NaN if any is NaN (where
    Python's ``max`` may keep a number and pass a NaN residual)."""
    return float(np.max(np.asarray(list(values), dtype=float), initial=0.0))


def _suite_stability(art: Artifacts, cfg: RunConfig):
    report = art.get("stability")
    details = {
        "stable": report.stable,
        "witness": None if report.witness is None else [[c.real, c.imag] for c in report.witness],
        "min_root_modulus": report.min_root_modulus,
    }
    if report.stable is None:
        return None, {**details, "message": report.message}
    return (0.0 if report.stable else 1.0), details


def _suite_moments(art: Artifacts, cfg: RunConfig):
    grid_table = art.get("moments")
    series_table = measure.moments_from_series(art.get("stability"), cfg.window)
    violation = grid_table.max_difference(series_table)
    details = {
        "cross_path_difference": violation,
        "grid_size": grid_table.grid_size,
        "grid_est_error": grid_table.est_error,
        "series_order": series_table.grid_size,
        "series_est_error": series_table.est_error,
        "table": grid_table.to_json_dict(),
    }
    return violation, details


def _suite_schur_cohn(art: Artifacts, cfg: RunConfig):
    profile = art.get("circle")
    m = cfg.deg.m
    M = profile.matrix
    eigs = np.linalg.eigvalsh(M)[:, 0]
    residuals = np.max(np.abs(M @ art.get("slices").lag_matrix(m, m) - np.eye(m)), axis=(1, 2))
    rows = [
        {
            "theta": float(theta),
            "D_list": D.tolist(),
            "min_eig": float(eig),
            "inverse_moment_residual": float(residual),
        }
        for theta, D, eig, residual in zip(profile.theta, profile.D, eigs, residuals)
    ]
    min_eig = float(np.min(eigs))
    violation = _worst([*residuals, 1.0 if min_eig <= 0.0 else 0.0])
    details = {"rows": rows, "min_eig": min_eig}
    return violation, details


def _suite_cd_kernel(art: Artifacts, cfg: RunConfig):
    ks = art.get("kernelset")
    p, (n, m) = cfg.polynomial, cfg.deg
    pr, mirror = p.reflect(cfg.deg), DegreePair(2 * n, m - 1)

    def gap_to_a(family):
        return _worst((f - aj).max_abs() for f, aj in zip(family, ks.a))

    # second route: the sliced Gram of the a_j is T(e^{i theta}) on the grid
    Tc = art.get("circle").matrix
    gap = np.max(np.abs(cd_kernel.slice_gram(ks, art.get("slices")) - Tc))
    checks = {
        "divided_difference_max": gap_to_a(cd_kernel.kernel_by_divided_difference(p, cfg.deg)),
        "cofactor_max": gap_to_a(p * A + pr * B for A, B in zip(ks.A, ks.B)),
        "mirror_max": gap_to_a(aj.reflect(mirror) for aj in reversed(ks.a)),
        "slice_gram_max": float(gap / max(1.0, np.max(np.abs(Tc)))),
    }
    return _worst(checks.values()), {**checks, "a": [aj.to_json_dict(mirror) for aj in ks.a]}


def _suite_verify_orthogonality(art: Artifacts, cfg: RunConfig):
    ks = art.get("kernelset")
    moments = art.get("moments")
    scale = min(measure.norm(ak, moments) for ak in ks.a)
    base = subspaces.orthogonality_report(ks, moments)
    shifts = subspaces.shift_orthogonality_report(cfg.deg, moments)
    families = {**base.families, **shifts.families}
    families = {name: family.summary(scale) for name, family in families.items()}
    # second route: each a_k recovered from its defining relations alone
    rebuilt = subspaces.reconstruct_kernel_coefficients(moments, art.get("matrix"))
    reconstruction_max = _worst(
        (rec - ak).max_abs() / max(1.0, ak.max_abs()) for rec, ak in zip(rebuilt, ks.a)
    )
    pivot_max = _worst(np.abs(base.pivots - 1.0))
    violation = _worst([f["max"] for f in families.values()] + [reconstruction_max, pivot_max])
    details = {
        "normalization": scale,
        "reconstruction_max": reconstruction_max,
        "pivot_max": pivot_max,
        "families": families,
    }
    return violation, details


def _random_bidisk_points(rng, count, entries):
    """``count`` points of ``entries`` coordinates, uniform on the disk each."""
    radius, turn = np.moveaxis(rng.uniform(size=(count, entries, 2)), -1, 0)
    return [tuple(row) for row in np.sqrt(radius) * np.exp(1j * (2.0 * np.pi * turn))]


def _suite_verify_cd(art: Artifacts, cfg: RunConfig):
    moments = art.get("moments")
    result = subspaces.cd_formula_residual(cfg.polynomial, cfg.deg, moments)
    return result["max_residual"], {"argmax": result["argmax"]}


def _suite_verify_kernel(art: Artifacts, cfg: RunConfig):
    moments = art.get("moments")
    rng = np.random.default_rng(SEED)
    functions = subspaces.default_lshape_monomials(cfg.deg, count=10)
    functions.append(BivariateLaurentPoly.monomial(cfg.deg.n, cfg.deg.m))
    points = [
        (0.9 * z, 0.9 * w) for z, w in _random_bidisk_points(rng, 10, 2)
    ]
    result = subspaces.closed_form_kernel_residual(art.get("stability"), moments, functions, points)
    details = {
        "reproducing_max": result["reproducing_max"],
        "projection_max": result["projection_max"],
    }
    return result["max_residual"], details


def _suite_parametric(art: Artifacts, cfg: RunConfig):
    n, m = cfg.deg
    op = parametric.parametric_polynomials(art.get("circle"))
    thetas = op.D.theta
    check = parametric.orthogonality_check(op, art.get("slices"))
    residuals = [*check["offdiag_max"], *check["lu_law_residual"]]
    # second route: monic Gram-Schmidt on the slices, scaled to the LU leads
    gram_schmidt = np.zeros(len(thetas))
    for phi, q in zip(op.phi, parametric.gram_schmidt_slice_polynomials(art.get("slices"))):
        error = np.max(np.abs(phi[:, -1:] * q - phi), axis=1)
        scale = np.maximum(1.0, np.max(np.abs(phi), axis=1))
        gram_schmidt = np.maximum(gram_schmidt, error / scale)
    residuals.extend(gram_schmidt)
    rows = [
        {
            "theta": float(theta),
            "offdiag_max": float(check["offdiag_max"][k]),
            "lu_law_residual": float(check["lu_law_residual"][k]),
            "gram_schmidt_residual": float(gram_schmidt[k]),
        }
        for k, theta in enumerate(thetas)
    ]
    # the first three frequencies past each bound n(m - j)
    k_lists = {j: [n * (m - j) + d for d in (1, 2, 3)] for j in range(m)}
    result = parametric.moment_vanishing(art.get("stability"), k_lists, art.get("matrix"))
    vanishing = {}
    for j, entry in result["per_j"].items():
        # the values are roundoff of an integrand of modulus up to the scale;
        # np.abs, where Python's abs raises on a modulus past the float range
        residuals.extend(np.abs(entry["values"]) / max(1.0, entry["scale"]))
        vanishing[str(j)] = {
            "k_list": entry["k_list"],
            "values": [[v.real, v.imag] for v in entry["values"]],
            "scale": entry["scale"],
            "theta_grid": result["theta_grid"],
        }
    details = {"rows": rows, "vanishing": vanishing}
    return _worst(residuals), details


SUITE_RUNNERS = {
    "stability": _suite_stability,
    "moments": _suite_moments,
    "schur-cohn": _suite_schur_cohn,
    "cd-kernel": _suite_cd_kernel,
    "verify-orthogonality": _suite_verify_orthogonality,
    "verify-cd": _suite_verify_cd,
    "verify-kernel": _suite_verify_kernel,
    "parametric": _suite_parametric,
}


def _run_one(name: str, art: Artifacts, cfg: RunConfig) -> SuiteReport:
    tolerance = TOLERANCES[name]
    start = time.perf_counter()
    try:
        violation, details = SUITE_RUNNERS[name](art, cfg)
    except BscdError as exc:
        if isinstance(exc, InconclusiveNearBoundary):
            violation, details = None, {"message": str(exc)}
        else:
            violation, details = tolerance, {"error": type(exc).__name__, "message": str(exc)}
        if exc.artifact is not None:
            details["blocked_by"] = exc.artifact
    # a violation of None: the check could not decide
    status = "inconclusive" if violation is None else "pass" if violation < tolerance else "fail"
    violation = 0.0 if violation is None else float(violation)
    elapsed = time.perf_counter() - start
    return SuiteReport(name, status, violation, tolerance, details, elapsed)


def run(config: RunConfig) -> list[SuiteReport]:
    """Execute the configured suites and return their reports, name-ordered."""
    art = Artifacts(config)
    reports = [_run_one(s, art, config) for s in SUITE_ORDER if s in config.suites]
    return sorted(reports, key=lambda r: r.suite)


def exit_code(reports: list[SuiteReport]) -> int:
    if any(r.status == "fail" for r in reports):
        return 1
    if any(r.status == "inconclusive" for r in reports):
        return 3
    return 0


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def _dump_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # json.dumps writes the non-finite values as NaN, Infinity, -Infinity
        value = float(obj)
        return format(value, ".17g") if math.isfinite(value) else json.dumps(value)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dump_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = [f"{json.dumps(str(k))}:{_dump_json(v)}" for k, v in obj.items()]
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_document(reports: list[SuiteReport]) -> dict:
    doc = {}
    for r in sorted(reports, key=lambda r: r.suite):
        doc[r.suite] = {
            "status": r.status,
            "max_violation": r.max_violation,
            "tolerance": r.tolerance,
            "details": r.details,
            "wall_time": r.wall_time,
        }
    return doc


def render_report(reports: list[SuiteReport]) -> str:
    return _dump_json(report_document(reports)) + "\n"


def emit_report(reports: list[SuiteReport], path: str | None) -> None:
    text = render_report(reports)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write report to {path}: {exc}") from exc


def _suite_payload(report: SuiteReport) -> str:
    """The stdout payload of a single-suite invocation."""
    body = {
        "status": report.status,
        "max_violation": report.max_violation,
        "details": report.details,
    }
    return _dump_json(body) + "\n"


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bscd",
        description="verify kernel and orthogonality identities of a stable polynomial",
    )
    parser.add_argument("suites", nargs="+", metavar="suite", choices=SUITE_ORDER + ("all",))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    named = [] if args.suites == ["all"] else args.suites
    if "all" in named:
        parser.error("'all' runs every suite and takes no other suite name")

    try:
        config = load_config(args.config)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    config.suites = named or config.suites

    reports = run(config)
    try:
        # one name prints its payload; the document goes to stdout otherwise
        if len(named) == 1:
            sys.stdout.write(_suite_payload(reports[0]))
        if len(named) != 1 or args.out is not None:
            emit_report(reports, args.out)
    except IoFailure as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
