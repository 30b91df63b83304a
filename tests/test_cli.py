"""Config handling, suite dispatch, reports and exit codes."""

import dataclasses
import json
import time

import numpy as np
import pytest

from bscd import cli, measure
from bscd.errors import ConfigInvalid, NoConvergence
from bscd.poly import BivariateLaurentPoly

from conftest import WORKED, WORKED_DEG, run_python

WORKED_JSON = WORKED.to_json_dict(WORKED_DEG)


def write_config(tmp_path, **extra):
    doc = {"polynomial": WORKED_JSON}
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


def test_unknown_suite_is_config_error(tmp_path):
    path = write_config(tmp_path, suites=["no-such-suite"])
    with pytest.raises(ConfigInvalid):
        cli.load_config(path)
    assert cli.main(["all", "--config", path]) == 2


def test_unknown_key_is_config_error(tmp_path):
    path = write_config(tmp_path, bogus=1)
    assert cli.main(["all", "--config", path]) == 2


def test_missing_polynomial_is_config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suites": ["stability"]}))
    assert cli.main(["stability", "--config", str(path)]) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficient_is_config_error(tmp_path, bad):
    polynomial = json.loads(json.dumps(WORKED_JSON))
    polynomial["coeffs"][1][0][1] = bad  # json writes NaN / Infinity literals
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": polynomial}))
    with pytest.raises(ConfigInvalid, match="finite"):
        cli.load_config(str(path))
    assert cli.main(["stability", "--config", str(path)]) == 2


def test_nonpositive_tolerance_rejected(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["stability", "--config", path, "--tol", "orthogonality=0"]) == 2
    assert cli.main(["stability", "--config", path, "--tol", "nope=1"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_flag_is_config_error(tmp_path, capsys, value):
    # a NaN gate failed every check and an infinite one passed every check
    path = write_config(tmp_path)
    flags = ["--tol", f"orthogonality={value}"]
    assert cli.main(["verify-orthogonality", "--config", path] + flags) == 2
    assert "positive finite" in capsys.readouterr().err


def test_boolean_tolerance_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, tolerances={"orthogonality": True})
    assert cli.main(["stability", "--config", path]) == 2
    assert "positive finite" in capsys.readouterr().err


def test_non_finite_moment_tolerance_is_refused_before_any_suite(tmp_path):
    # only load_config runs here: a suite would refine the torus grid to its
    # cap chasing an unreachable moments tolerance
    nan_file = write_config(tmp_path, tolerances={"moments": float("nan")})
    assert "NaN" in (tmp_path / "config.json").read_text()
    with pytest.raises(ConfigInvalid, match="tolerance moments must be a positive finite"):
        cli.load_config(nan_file)
    with pytest.raises(ConfigInvalid, match="tolerance moments must be a positive finite"):
        cli.load_config(write_config(tmp_path), {"tolerances": {"moments": float("inf")}})


def test_tol_flag_sets_names_over_the_config_file(tmp_path):
    tolerances = {"orthogonality": 1e-7, "identity": 1e-6}
    path = write_config(tmp_path, tolerances=tolerances)
    config = cli.load_config(path, {"tolerances": {"identity": 1e-5}})
    assert config.tolerances == {
        **cli.DEFAULT_TOLERANCES,
        "orthogonality": 1e-7,
        "identity": 1e-5,
    }
    bad = write_config(tmp_path, tolerances={"identity": "small"})
    with pytest.raises(ConfigInvalid, match="tolerance identity"):
        cli.load_config(bad)
    bad = write_config(tmp_path, tolerances=[1e-7])
    with pytest.raises(ConfigInvalid, match="'tolerances' must be an object"):
        cli.load_config(bad)


@pytest.mark.parametrize(
    "extra",
    [
        {"window": 5},
        {"window": [1]},
        {"margin": "x"},
        {"theta_grid": "a"},
        {"k_max": "q"},
        {"seed": [1]},
        {"shift_max": None},
        {"output": 7},
        {"seed": -1},
        {"theta_grid": 2.5},
        {"margin": 1.9},
        {"seed": True},
        {"polynomial": {**WORKED_JSON, "n": 1.7}},
        {"polynomial": {**WORKED_JSON, "m": True}},
        {"polynomial": {**WORKED_JSON, "n": "1"}},
        {"polynomial": {**WORKED_JSON, "coeffs": [[[3, 0], [-1, 0]], [[-1, 0], [True, 0]]]}},
        {"polynomial": {**WORKED_JSON, "coeffs": [[["3", 0], [-1, 0]], [[-1, 0], [0, 0]]]}},
    ],
    ids=[
        "window-int",
        "window-short",
        "margin-str",
        "theta_grid-str",
        "k_max-str",
        "seed-list",
        "shift_max-null",
        "output-int",
        "seed-negative",
        "theta_grid-float",
        "margin-float",
        "seed-bool",
        "n-float",
        "m-bool",
        "n-string",
        "coefficient-bool",
        "coefficient-string",
    ],
)
def test_malformed_scalar_is_config_error(tmp_path, capsys, extra):
    # the keys other than output and polynomial are no longer config keys and
    # are refused as unknown; int() and float() read the polynomial cases as
    # the worked example or a stable neighbour, which then passed
    path = write_config(tmp_path, suites=["cd-kernel"], **extra)
    assert cli.main(["cd-kernel", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


REMOVED_KEYS = {
    "window": [9, 9],
    "margin": 4,
    "shift_max": 2,
    "theta_grid": 32,
    "seed": 0,
    "k_max": 4,
    "format": "json",
}
REMOVED_FLAGS = {
    "--window": "9,9",
    "--margin": "4",
    "--shift-max": "2",
    "--theta-grid": "32",
    "--seed": "0",
    "--k-max": "4",
    "--format": "json",
}


@pytest.mark.parametrize("knob", list(REMOVED_KEYS) + list(REMOVED_FLAGS))
def test_removed_knob_is_refused(tmp_path, capsys, knob):
    # each value is the one the worked example took by default, so it loaded before
    if knob in REMOVED_KEYS:
        path = write_config(tmp_path, suites=["stability"], **{knob: REMOVED_KEYS[knob]})
        assert cli.main(["stability", "--config", path]) == 2
        assert capsys.readouterr().err == f"config error: unknown config keys: ['{knob}']\n"
    else:
        path = write_config(tmp_path, suites=["stability"])
        with pytest.raises(SystemExit) as info:
            cli.main(["stability", "--config", path, knob, REMOVED_FLAGS[knob]])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "polynomial",
    [
        {"n": 1, "m": 0, "coeffs": [[[3, 0]], [[-1, 0]]]},
        {"n": 0, "m": 1, "coeffs": [[[3, 0], [-1, 0]]]},
        {"n": 0, "m": 0, "coeffs": [[[3, 0]]]},
    ],
    ids=["3-z", "3-w", "constant"],
)
def test_degenerate_degree_is_refused_at_the_door(tmp_path, capsys, polynomial):
    path = write_config(tmp_path, polynomial=polynomial)
    assert cli.main(["all", "--config", path]) == 2
    n, m = polynomial["n"], polynomial["m"]
    assert capsys.readouterr().err == f"config error: degree ({n}, {m}) needs n >= 1 and m >= 1\n"


# ----------------------------------------------------------------------
# Suites and exit codes
# ----------------------------------------------------------------------


def test_stability_suite_passes(tmp_path, capsys):
    path = write_config(tmp_path)
    code = cli.main(["stability", "--config", path])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["status"] == "pass"
    assert payload["details"]["stable"] is True


def test_stability_suite_fails_with_witness(tmp_path, capsys):
    unstable = {
        "n": 1,
        "m": 1,
        "coeffs": [[[2, 0], [-1, 0]], [[-1, 0], [0, 0]]],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": unstable}))
    code = cli.main(["stability", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["status"] == "fail"
    witness = payload["details"]["witness"]
    assert abs(witness[0][0] - 1) < 1e-9 and abs(witness[1][0] - 1) < 1e-9


@pytest.mark.parametrize(
    "tolerances, flags",
    [({}, ["--tol", "2"]), ({}, ["--tol", "stability=2"]), ({"stability": 2}, [])],
    ids=["bare-flag", "named-flag", "config"],
)
def test_no_tolerance_loosens_the_stability_verdict(tmp_path, capsys, tolerances, flags):
    # 1 - z - w is unstable, a violation of 1: no tolerance may pass it
    unstable = {"n": 1, "m": 1, "coeffs": [[[1, 0], [-1, 0]], [[-1, 0], [0, 0]]]}
    path = write_config(tmp_path, polynomial=unstable, tolerances=tolerances)
    assert cli.main(["stability", "--config", path] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")


def test_near_boundary_is_inconclusive_exit_three(tmp_path, capsys):
    # p = (1 + 1e-12 - z)(2 - w) has the z-root 1 + 1e-12
    nearly = {
        "n": 1,
        "m": 1,
        "coeffs": [[[2 + 2e-12, 0], [-1 - 1e-12, 0]], [[-2, 0], [1, 0]]],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": nearly, "suites": ["stability"]}))
    code = cli.main(["stability", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["status"] == "inconclusive"


def test_near_boundary_run_scans_stability_once(tmp_path):
    # p = 2.0000000001 - z - w has a w-root of modulus 1 + 1e-10 at z = 1, too
    # close for the slice moments to converge: every suite must stop at the
    # one cached stability verdict
    nearly = {"n": 1, "m": 1, "coeffs": [[[2.0000000001, 0], [-1, 0]], [[-1, 0], [0, 0]]]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": nearly}))
    out = tmp_path / "report.json"
    measure._cached_stability.cache_clear()
    code = cli.main(["all", "--config", str(path), "--out", str(out)])
    doc = json.loads(out.read_text())
    cache = measure._cached_stability.cache_info()
    assert code == 3
    assert doc["schur-cohn"]["status"] == "inconclusive"
    assert cache.misses == 1 and cache.hits >= 1
    assert doc["stability"]["details"]["message"].startswith("root modulus 1.0000000001 ")


def test_short_window_names_the_window_verify_orthogonality_needs(tmp_path):
    # at degree (2, 2) with MARGIN 4 and SHIFT_MAX 2 the orthogonality reports
    # read moments up to |a| <= 12, |b| <= 8; a shorter window cannot be set
    p, deg = measure.random_stable_poly(2, 2, np.random.default_rng(3))
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"polynomial": p.to_json_dict(deg), "window": [5, 4]}))
    proc = run_python(["-m", "bscd.cli", "verify-orthogonality", "--config", str(short)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "config error: unknown config keys: ['window']\n"

    # the derived window holds what verify-orthogonality reads, so it passes
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": p.to_json_dict(deg)}))
    cfg = cli.load_config(str(path))
    assert cfg.window == (12, 10)
    proc = run_python(["-m", "bscd.cli", "verify-orthogonality", "--config", str(path)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"


def test_moments_suite_cross_validates(tmp_path, capsys):
    path = write_config(tmp_path)
    code = cli.main(["moments", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["details"]["cross_path_difference"] < 1e-10
    table = payload["details"]["table"]
    assert table["window"] == [9, 9]
    assert any(row[:2] == [0, 0] for row in table["values"])


def test_parametric_vanishing_is_relative_to_the_integrand_scale(tmp_path, capsys):
    # the j = 0 values of this draw are about 1.9e-8 at an integrand scale of
    # 2.9e8: roundoff, which an absolute count against 1e-9 failed
    p, deg = measure.random_stable_poly(12, 12, np.random.default_rng(1))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": p.to_json_dict(deg)}))
    code = cli.main(["parametric", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["status"] == "pass"
    zero = payload["details"]["vanishing"]["0"]
    assert max(np.hypot(*np.array(zero["values"]).T)) > 1e-9
    assert zero["scale"] > 1e8


def test_schur_cohn_payload_is_the_suite_body(tmp_path, capsys):
    path = write_config(tmp_path)
    code = cli.main(["schur-cohn", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(payload) == ["status", "max_violation", "details"]
    rows = payload["details"]["rows"]
    assert len(rows) == cli.THETA_GRID
    assert all({"theta", "D_list", "min_eig"} <= set(row) for row in rows)
    assert rows[0]["D_list"][0] == 1.0
    assert rows[0]["D_list"][1] == pytest.approx(3.0, abs=1e-12)


def test_schur_cohn_suite_min_eig_on_worked_examples(tmp_path, capsys):
    # 3 - z - w and (2 - z)(2 - w) both have T(e^{i theta}) = 9 - 6 cos(theta),
    # smallest at theta = 0, the first angle of the grid
    product = {"n": 1, "m": 1, "coeffs": [[[4, 0], [-2, 0]], [[-2, 0], [1, 0]]]}
    for polynomial in (WORKED_JSON, product):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"polynomial": polynomial, "suites": ["schur-cohn"]}))
        out = tmp_path / "report.json"
        assert cli.main(["schur-cohn", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        details = json.loads(out.read_text())["schur-cohn"]["details"]
        assert details["rows"][0]["theta"] == 0.0
        assert details["min_eig"] == pytest.approx(3.0, abs=1e-12)
        assert details["rows"][0]["min_eig"] == details["min_eig"]


def _scale_one_coefficient(ks):
    """The kernel set with a_0 scaled by 1 + 1e-6."""
    a = (ks.a[0].scale(1 + 1e-6),) + ks.a[1:]
    return dataclasses.replace(ks, a=a)


def _shift_first_lag(sm):
    """The slice moments with m_1 and m_{-1} scaled by 1 + 1e-6 at every angle."""
    values = np.array(sm.values)
    values[:, [sm.lag - 1, sm.lag + 1]] *= 1 + 1e-6
    return dataclasses.replace(sm, values=values)


@pytest.mark.parametrize(
    "suite, artifact, perturb, read",
    [
        ("cd-kernel", "kernelset", _scale_one_coefficient, lambda d: d["slice_gram_max"]),
        (
            "cd-kernel",
            "kernelset",
            _scale_one_coefficient,
            lambda d: d["divided_difference_max"],
        ),
        (
            "verify-orthogonality",
            "kernelset",
            _scale_one_coefficient,
            lambda d: d["reconstruction_max"],
        ),
        ("verify-orthogonality", "kernelset", _scale_one_coefficient, lambda d: d["pivot_max"]),
        (
            "parametric",
            "slices",
            _shift_first_lag,
            lambda d: max(row["gram_schmidt_residual"] for row in d["rows"]),
        ),
    ],
    ids=[
        "slice_gram_max",
        "divided_difference_max",
        "reconstruction_max",
        "pivot_max",
        "gram_schmidt_residual",
    ],
)
def test_each_second_route_can_fail(tmp_path, capsys, monkeypatch, suite, artifact, perturb, read):
    p, deg = measure.random_stable_poly(2, 2, np.random.default_rng(3))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": p.to_json_dict(deg), "suites": [suite]}))
    config = cli.load_config(str(path))
    tolerance = config.tolerances[cli.SUITE_TOLERANCE_NAME[suite]]
    (clean,) = cli.run(config)
    assert clean.status == "pass" and read(clean.details) < tolerance
    build = cli.ARTIFACT_BUILDERS[artifact]
    monkeypatch.setitem(cli.ARTIFACT_BUILDERS, artifact, lambda art: perturb(build(art)))
    (broken,) = cli.run(config)
    assert broken.status == "fail" and read(broken.details) > tolerance


def test_planted_strip_defect_is_the_strip_argmax(tmp_path, monkeypatch):
    # a_0 + 1e-6 z^n w breaks <a_0, z^n w> = 0, a strip relation; every other
    # strip pairing of a_0 picks up 1e-6 times a smaller moment
    p, deg = measure.random_stable_poly(8, 8, np.random.default_rng(1))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": p.to_json_dict(deg)}))
    config = cli.load_config(str(path), {"suites": ["verify-orthogonality"]})
    build = cli.ARTIFACT_BUILDERS["kernelset"]

    def planted(cfg):
        ks = build(cfg)
        a0 = ks.a[0] + BivariateLaurentPoly.monomial(deg.n, 1, 1e-6)
        return dataclasses.replace(ks, a=(a0,) + ks.a[1:])

    monkeypatch.setitem(cli.ARTIFACT_BUILDERS, "kernelset", planted)
    (report,) = cli.run(config)
    families = report.details["families"]
    assert report.status == "fail"
    assert families["strip"]["argmax"] == ["a_0", deg.n, 1]
    assert families["strip"]["max"] == max(f["max"] for f in families.values())
    assert families["strip"]["max"] > report.tolerance


def test_full_report_of_a_degree_four_draw_is_small(tmp_path):
    # the report summarizes each relation family instead of listing pairings
    p, deg = measure.random_stable_poly(4, 4, np.random.default_rng(1))
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps({"polynomial": p.to_json_dict(deg)}))
    assert cli.main(["all", "--config", str(config), "--out", str(out)]) == 0
    assert out.stat().st_size < 100_000
    families = json.loads(out.read_text())["verify-orthogonality"]["details"]["families"]
    assert list(families) == ["strip", "lower_quadrant", "upper_quadrant", "complement_shift"]


# p = 1e160 (3 - z - w): the Schur-Cohn matrix, the kernel set and the LU
# law overflow to NaN, while the polynomial itself is stable and finite
HUGE_JSON = {
    "n": 1,
    "m": 1,
    "coeffs": [[[3e160, 0.0], [-1e160, 0.0]], [[-1e160, 0.0], [0.0, 0.0]]],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_residuals_fail_their_suites(tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps({"polynomial": HUGE_JSON}))
    assert cli.main(["all", "--config", str(config), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert np.isnan(doc["cd-kernel"]["details"]["slice_gram_max"])
    assert np.isnan(doc["parametric"]["details"]["rows"][0]["lu_law_residual"])
    for suite in ("cd-kernel", "parametric"):
        assert doc[suite]["status"] == "fail"
        assert np.isnan(doc[suite]["max_violation"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_kernel_pairings_fail_verify_kernel(tmp_path):
    # at 1e154 the Gram solves still run, but the closed-form kernel overflows
    coeffs = [[[3e154, 0.0], [-1e154, 0.0]], [[-1e154, 0.0], [0.0, 0.0]]]
    path = tmp_path / "config.json"
    doc = {"polynomial": {"n": 1, "m": 1, "coeffs": coeffs}, "suites": ["verify-kernel"]}
    path.write_text(json.dumps(doc))
    (report,) = cli.run(cli.load_config(str(path)))
    assert report.status == "fail"
    assert np.isnan(report.max_violation) and np.isnan(report.details["reproducing_max"])


@pytest.mark.parametrize("scale", [1e154, 1e160])
def test_underflowed_moment_table_fails_the_moments_suite(tmp_path, scale):
    # c[0, 0] is subnormal at 1e154 and zero at 1e160, so the two tables
    # differ by less than any gate and the cross-path check alone passed
    coeffs = [[[3 * scale, 0.0], [-scale, 0.0]], [[-scale, 0.0], [0.0, 0.0]]]
    path = tmp_path / "config.json"
    doc = {"polynomial": {"n": 1, "m": 1, "coeffs": coeffs}, "suites": ["moments"]}
    path.write_text(json.dumps(doc))
    config = cli.load_config(str(path))
    mass = cli.Artifacts(config).get("moments").get(0, 0).real
    assert 0.0 <= mass < np.finfo(float).tiny
    (report,) = cli.run(config)
    assert report.status == "fail"
    assert report.details["error"] == "DegenerateMoments"
    assert "c[0, 0]" in report.details["message"]
    assert "blocked_by" not in report.details


def test_non_finite_floats_are_written_as_json_reads_them():
    text = cli._dump_json([float("nan"), float("inf"), -float("inf"), np.float64(0.1), 1e-320])
    assert text == "[NaN,Infinity,-Infinity,0.10000000000000001,9.9998886718268301e-321]"
    back = json.loads(text)
    assert np.isnan(back[0]) and back[1:] == [float("inf"), -float("inf"), 0.1, 1e-320]


def test_one_schur_cohn_matrix_per_run(tmp_path, monkeypatch):
    from bscd import cd_kernel, parametric, schur_cohn

    calls = []
    build = schur_cohn.schur_cohn_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for module in (schur_cohn, cd_kernel, parametric):
        monkeypatch.setattr(module, "schur_cohn_matrix", counted)
    reports = cli.run(cli.load_config(write_config(tmp_path)))
    assert [r.status for r in reports] == ["pass"] * len(cli.SUITE_ORDER)
    assert len(calls) == 1


def test_a_suite_blocked_by_a_failed_matrix_names_it(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise NoConvergence("no matrix")

    monkeypatch.setattr(cli.schur_cohn, "schur_cohn_matrix", refuse)
    path = write_config(tmp_path)
    reports = {r.suite: r for r in cli.run(cli.load_config(path))}
    # the kernel set is built from the matrix, so its suites name the matrix
    for name in ("schur-cohn", "cd-kernel", "verify-orthogonality", "parametric"):
        assert reports[name].status == "fail"
        assert reports[name].details["blocked_by"] == "matrix"


def test_full_run_on_worked_example(tmp_path):
    path = write_config(tmp_path)
    config = cli.load_config(path)
    reports = cli.run(config)
    assert [r.suite for r in reports] == sorted(cli.SUITE_ORDER)
    assert all(r.status == "pass" for r in reports)
    assert cli.exit_code(reports) == 0


def _run_all(tmp_path, name, polynomial):
    """Exit code and report of ``bscd all`` on ``polynomial``."""
    config, out = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
    config.write_text(json.dumps({"polynomial": polynomial}))
    code = cli.main(["all", "--config", str(config), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("degree", [None, (2, 3), (3, 1)], ids=["worked", "2x3", "3x1"])
def test_swapping_z_and_w_transposes_the_run(tmp_path, degree):
    # p(w, z) at degree (m, n) has the moments c[b, a] of p at (n, m), so
    # every suite decides alike and the grid tables agree where both reach
    if degree is None:
        p, deg = WORKED, WORKED_DEG
    else:
        p, deg = measure.random_stable_poly(*degree, np.random.default_rng(5))
    polynomial = p.to_json_dict(deg)
    swapped = {
        "n": deg.m,
        "m": deg.n,
        "coeffs": [list(column) for column in zip(*polynomial["coeffs"])],
    }
    code, doc = _run_all(tmp_path, "p", polynomial)
    swapped_code, swapped_doc = _run_all(tmp_path, "swapped", swapped)
    assert code == swapped_code
    assert {k: v["status"] for k, v in doc.items()} == {
        k: v["status"] for k, v in swapped_doc.items()
    }

    def table(report):
        values = report["moments"]["details"]["table"]["values"]
        return {(a, b): complex(re, im) for a, b, re, im in values}

    grid, swapped_grid = table(doc), table(swapped_doc)
    common = [(a, b) for a, b in grid if (b, a) in swapped_grid]
    assert max(abs(grid[a, b] - swapped_grid[b, a]) for a, b in common) <= 1e-15


def test_worked_example_pins_the_fixed_extents(tmp_path):
    # every run verifies 32 angles, frequencies up to bound + 3 and the
    # moment window of MARGIN 4 and SHIFT_MAX 2 at degree (1, 1)
    config = cli.load_config(write_config(tmp_path))
    doc = cli.report_document(cli.run(config))
    assert len(doc["schur-cohn"]["details"]["rows"]) == 32
    assert len(doc["parametric"]["details"]["rows"]) == 32
    vanishing = doc["parametric"]["details"]["vanishing"]
    assert {j: entry["k_list"] for j, entry in vanishing.items()} == {"0": [2, 3, 4]}
    assert config.window == (9, 9)
    assert doc["moments"]["details"]["table"]["window"] == [9, 9]


def test_worked_example_report_shape(tmp_path):
    # a report field leaves or returns only through an edit of this test
    path = write_config(tmp_path, suites=["stability", "cd-kernel", "parametric"])
    doc = json.loads(cli.render_report(cli.run(cli.load_config(path))))
    assert doc["stability"]["tolerance"] == 1.0
    # cd-kernel reports each of its four checks, and fails on the largest
    details = doc["cd-kernel"]["details"]
    checks = ["divided_difference_max", "cofactor_max", "mirror_max", "slice_gram_max"]
    assert list(details) == checks + ["a"]
    assert doc["cd-kernel"]["max_violation"] == max(details[name] for name in checks)
    rows = doc["parametric"]["details"]["rows"]
    assert len(rows) == cli.THETA_GRID
    for row in rows:
        assert list(row) == ["theta", "offdiag_max", "lu_law_residual", "gram_schmidt_residual"]


def test_reports_are_deterministic(tmp_path):
    path = write_config(tmp_path, suites=["stability", "moments", "cd-kernel"])
    outputs = []
    for _ in range(2):
        reports = cli.run(cli.load_config(path))
        text = cli.render_report(reports)
        doc = json.loads(text)
        for suite in doc.values():
            suite.pop("wall_time")
        outputs.append(json.dumps(doc, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_empty_suite_list(tmp_path):
    path = write_config(tmp_path, suites=[])
    reports = cli.run(cli.load_config(path))
    assert reports == []
    assert cli.exit_code(reports) == 0
    assert cli.render_report(reports).strip() == "{}"


def test_report_written_to_file(tmp_path):
    path = write_config(tmp_path, suites=["stability"])
    out = tmp_path / "report.json"
    code = cli.main(["stability", "--config", path, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["stability"]["status"] == "pass"


def test_tolerance_override_can_force_failure(tmp_path, capsys):
    path = write_config(tmp_path, suites=["moments"])
    code = cli.main(["moments", "--config", path, "--tol", "cross-path=1e-30"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["status"] == "fail"


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path, suites=["stability"])
    proc = run_python(["-m", "bscd.cli", "stability", "--config", path])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"


def test_package_imports_numpy_but_not_scipy():
    # scipy is not a runtime dependency; importing it would cost more memory
    # and start-up time than numpy itself
    code = (
        "import sys, bscd.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "print('numpy' in sys.modules)"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_unwritable_output_is_io_error(tmp_path):
    path = write_config(tmp_path, suites=["stability"])
    code = cli.main(
        ["stability", "--config", path, "--out", "/no/such/dir/report.json"]
    )
    assert code == 2


def direct_config(polynomial):
    """A run config that load_config would refuse for its degree."""
    p, deg = BivariateLaurentPoly.from_json_dict(polynomial)
    return cli.RunConfig(p, deg, list(cli.SUITE_ORDER), dict(cli.DEFAULT_TOLERANCES))


def test_suite_error_is_recorded_as_failure():
    # degree 0 in one variable makes the two-kernel identity undefined; the
    # CLI refuses it, and a library caller's run fails each suite with a
    # message instead of crashing
    univariate = {"n": 1, "m": 0, "coeffs": [[[3, 0]], [[-1, 0]]]}
    reports = cli.run(direct_config(univariate))
    by_name = {r.suite: r for r in reports}
    assert by_name["stability"].status == "pass"
    # the suites that read the slice moments fetch them only after the matrix
    # or the kernel set has refused m = 0
    for name in ("schur-cohn", "cd-kernel", "verify-cd", "parametric"):
        assert by_name[name].status == "fail"
        assert by_name[name].details["error"] == "DegenerateDegree"
    assert cli.exit_code(reports) == 1


def test_constant_polynomial_writes_a_report_without_traceback(tmp_path):
    # the L-shaped span of degree (0, 0) is empty: verify-kernel projects onto
    # no monomials, and the suites that need m >= 1 fail with a message
    # (the CLI refuses the degree; a library caller's run still reports)
    constant = {"n": 0, "m": 0, "coeffs": [[[3.0, 0.0]]]}
    report = tmp_path / "report.json"
    reports = cli.run(direct_config(constant))
    cli.emit_report(reports, str(report))
    assert cli.exit_code(reports) == 1
    doc = json.loads(report.read_text())
    for suite in ("stability", "moments", "verify-kernel"):
        assert doc[suite]["status"] == "pass"
    for suite in ("schur-cohn", "cd-kernel", "verify-orthogonality", "verify-cd", "parametric"):
        assert doc[suite]["details"]["error"] == "DegenerateDegree"


def test_overflowing_density_fails_fast(tmp_path):
    # 1 / |p|^2 overflows: every refinement stops at its first doubling, so the
    # run ends in a report instead of doubling every grid to its cap
    overflowing = WORKED.scale(1e-200).to_json_dict(WORKED_DEG)
    path = write_config(tmp_path, polynomial=overflowing)
    out = tmp_path / "report.json"
    started = time.perf_counter()
    proc = run_python(["-m", "bscd.cli", "all", "--config", path, "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert elapsed < 2.0
    doc = json.loads(out.read_text())
    assert doc["stability"]["status"] == "pass"
    for name in ("moments", "verify-cd", "schur-cohn"):
        assert doc[name]["status"] == "fail"
        assert "not finite (change nan)" in doc[name]["details"]["message"]


def test_verify_cd_names_the_pair_where_a_foreign_table_fails(tmp_path, monkeypatch):
    # a planted defect: the moments of another stable polynomial
    other, deg = measure.random_stable_poly(1, 1, np.random.default_rng(5))
    foreign = measure.moments_from_grid(other, (9, 9))
    monkeypatch.setattr(cli.measure, "moments_from_grid", lambda *args: foreign)
    reports = {r.suite: r for r in cli.run(cli.load_config(write_config(tmp_path)))}
    report = reports["verify-cd"]
    assert report.status == "fail" and report.max_violation > 1e-3
    (i, j), (k, l) = report.details["argmax"]
    assert 0 <= min(i, j, k, l) and max(i, j, k, l) <= 1


def test_failed_artifact_is_built_once(tmp_path, monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise NoConvergence("moment window not stable")

    monkeypatch.setattr(cli.measure, "moments_from_grid", refuse)
    path = write_config(tmp_path)
    reports = {r.suite: r for r in cli.run(cli.load_config(path))}
    assert len(calls) == 1
    for name in ("moments", "verify-orthogonality", "verify-cd", "verify-kernel"):
        assert reports[name].status == "fail"
        assert reports[name].details == {
            "error": "NoConvergence",
            "message": "moment window not stable",
            "blocked_by": "moments",
        }
    assert reports["parametric"].status == "pass"


def test_suites_blocked_by_a_failed_artifact_name_it(tmp_path, monkeypatch):
    # a finite moments tolerance no grid up to the cap reaches
    monkeypatch.setattr(cli.measure, "GRID_CAP", 512)
    path = write_config(tmp_path, tolerances={"moments": 1e-300})
    reports = {r.suite: r for r in cli.run(cli.load_config(path))}
    for name in ("moments", "verify-orthogonality", "verify-cd", "verify-kernel"):
        details = reports[name].details
        assert reports[name].status == "fail"
        assert details["error"] == "NoConvergence" and "grid 512" in details["message"]
        assert details["blocked_by"] == "moments"
    # the suites that never read the moments run as usual
    for name in ("stability", "schur-cohn", "cd-kernel", "parametric"):
        assert reports[name].status == "pass"
        assert "blocked_by" not in reports[name].details
