"""Config handling, suite dispatch, reports and exit codes."""

import dataclasses
import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bscd import cli, measure
from bscd.errors import ConfigInvalid, NoConvergence
from bscd.poly import BivariateLaurentPoly, DegreePair

from conftest import PRODUCT_DEGREES, WORKED, WORKED_DEG, product_polynomial, run_python

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


def test_unknown_suite_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(["stability", "no-such-suite", "--config", path])
    assert info.value.code == 2
    assert "invalid choice: 'no-such-suite'" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path):
    path = write_config(tmp_path, bogus=1)
    assert cli.main(["all", "--config", path]) == 2


def test_missing_polynomial_is_config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({}))
    assert cli.main(["stability", "--config", str(path)]) == 2


UNREADABLE_CONFIGS = {
    "not-utf-8": b'{"polynomial": "\xff"}',
    "nested-past-the-recursion-limit": b"[" * 100000,
    # 10**400 has 401 digits: an exact JSON integer, past the largest float
    "huge-coefficient": json.dumps(
        {"polynomial": {"n": 1, "m": 1, "coeffs": [[[10**400, 0], [-1, 0]], [[-1, 0], [0, 0]]]}}
    ).encode(),
}


@pytest.mark.parametrize("content", UNREADABLE_CONFIGS.values(), ids=UNREADABLE_CONFIGS)
def test_a_config_python_cannot_read_is_a_config_error(tmp_path, capsys, content):
    # UnicodeDecodeError, RecursionError and OverflowError each ended in a traceback
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert cli.main(["all", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficient_is_config_error(tmp_path, bad):
    polynomial = json.loads(json.dumps(WORKED_JSON))
    polynomial["coeffs"][1][0][1] = bad  # json writes NaN / Infinity literals
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": polynomial}))
    with pytest.raises(ConfigInvalid, match="finite"):
        cli.load_config(str(path))
    assert cli.main(["stability", "--config", str(path)]) == 2


def refused_flags_error(capsys, argv):
    """The one error line of a command line that argparse refuses, exit 2 and no output."""
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = [row for row in captured.err.splitlines() if not row.startswith("usage: ")]
    return line


# the values that --tol refused one by one when it set a gate
TOL_REFUSALS = [
    "nope=1",
    "orthogonality",
    "orthogonality=small",
    "orthogonality=1e400",
    "orthogonality=0",
    "orthogonality=-1e-8",
]


@pytest.mark.parametrize("flag", TOL_REFUSALS)
def test_each_bad_tol_flag_is_one_config_error(tmp_path, capsys, flag):
    # each gate is a constant, so --tol is refused whole, whatever its value
    path = write_config(tmp_path)
    line = refused_flags_error(capsys, ["stability", "--config", path, "--tol", flag])
    assert line == f"bscd: error: unrecognized arguments: --tol {flag}"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_flag_is_config_error(tmp_path, capsys, value):
    # a NaN gate would fail every check and an infinite one pass every check
    argv = ["verify-orthogonality", "--config", write_config(tmp_path)]
    line = refused_flags_error(capsys, argv + ["--tol", f"orthogonality={value}"])
    assert line.endswith(f"unrecognized arguments: --tol orthogonality={value}")


def test_boolean_tolerance_is_config_error(tmp_path, capsys):
    # a gate of true is not read as 1
    path = write_config(tmp_path)
    for value in ("true", "True"):
        argv = ["stability", "--config", path, "--tol", f"identity={value}"]
        line = refused_flags_error(capsys, argv)
        assert line.endswith(f"unrecognized arguments: --tol identity={value}")


def test_non_finite_moment_tolerance_is_refused_before_any_suite(tmp_path, capsys, monkeypatch):
    # a NaN gate would fail every check and an infinite one pass every check
    # of the moments suite: the flag is refused before any suite runs, and the
    # moments' stopping rule is relative to their size, not a setting
    monkeypatch.setattr(cli, "run", None)
    for flag in ("cross-path=nan", "cross-path=inf", "moments=1e-9"):
        argv = ["moments", "--config", write_config(tmp_path), "--tol", flag]
        assert refused_flags_error(capsys, argv).endswith(f"unrecognized arguments: --tol {flag}")


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
    # the keys other than polynomial are no longer config keys and are
    # refused as unknown; int() and float() read the polynomial cases as the
    # worked example or a stable neighbour, which then passed
    path = write_config(tmp_path, **extra)
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
    # each run setting has one entry point, on the command line
    "suites": ["stability"],
    "tolerances": {"orthogonality": 1e-8},
    "output": "report.json",
}
REMOVED_FLAGS = {
    "--window": "9,9",
    "--margin": "4",
    "--shift-max": "2",
    "--theta-grid": "32",
    "--seed": "0",
    "--k-max": "4",
    "--format": "json",
    # each suite's gate is a constant
    "--tol": "identity=1e-9",
}


@pytest.mark.parametrize("knob", list(REMOVED_KEYS) + list(REMOVED_FLAGS))
def test_removed_knob_is_refused(tmp_path, capsys, knob):
    # each value is the one the worked example took by default, so it loaded before
    if knob in REMOVED_KEYS:
        path = write_config(tmp_path, **{knob: REMOVED_KEYS[knob]})
        assert cli.main(["stability", "--config", path]) == 2
        assert capsys.readouterr().err == f"config error: unknown config keys: ['{knob}']\n"
    else:
        path = write_config(tmp_path)
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
    "extra, flags",
    [({}, ["--tol", "2"]), ({}, ["--tol", "stability=2"]), ({"tolerances": {"stability": 2}}, [])],
    ids=["bare-flag", "named-flag", "config"],
)
def test_no_tolerance_loosens_the_stability_verdict(tmp_path, capsys, extra, flags):
    # 1 - z - w is unstable, a violation of 1: no tolerance may pass it; the
    # --tol flag is refused by argparse and the tolerances key as unknown
    unstable = {"n": 1, "m": 1, "coeffs": [[[1, 0], [-1, 0]], [[-1, 0], [0, 0]]]}
    argv = ["stability", "--config", write_config(tmp_path, polynomial=unstable, **extra)] + flags
    if flags:
        line = refused_flags_error(capsys, argv)
        assert line == f"bscd: error: unrecognized arguments: {' '.join(flags)}"
    else:
        assert cli.main(argv) == 2
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
    path.write_text(json.dumps({"polynomial": nearly}))
    code = cli.main(["stability", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["status"] == "inconclusive"


def _diagonal_line(constant):
    """``constant - z - w`` in the config interchange form."""
    return {"n": 1, "m": 1, "coeffs": [[[constant, 0], [-1, 0]], [[-1, 0], [0, 0]]]}


def _run_all_counting_scans(tmp_path, polynomial):
    """Exit code, report and stability cache counts of one ``bscd all``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": polynomial}))
    out = tmp_path / "report.json"
    measure._cached_stability.cache_clear()
    code = cli.main(["all", "--config", str(path), "--out", str(out)])
    return code, json.loads(out.read_text()), measure._cached_stability.cache_info()


def test_near_boundary_run_scans_stability_once(tmp_path):
    # p = 2.0000000001 - z - w has a w-root of modulus 1 + 1e-10 at z = 1, too
    # close for the slice moments to converge: every suite must stop at the
    # one stability verdict, which no other suite asks for again
    code, doc, cache = _run_all_counting_scans(tmp_path, _diagonal_line(2.0000000001))
    assert code == 3
    assert doc["schur-cohn"]["status"] == "inconclusive"
    assert cache.misses == 1 and cache.hits == 0
    assert doc["stability"]["details"]["message"].startswith("root modulus 1.0000000001 ")


def _stability_message(stability):
    """The message a verdict that stops the run gives the other suites."""
    details = stability["details"]
    if details["stable"] is None:
        return details["message"]
    witness = tuple(complex(*c) for c in details["witness"])
    return f"zero of p at {witness} inside the closed bidisk"


def test_an_inconclusive_verdict_reports_its_root_in_the_stability_entry(tmp_path):
    # the suite that owns the verdict reports it in the shape of every verdict,
    # not in the shape of a suite the verdict blocked
    code, doc, _ = _run_all_counting_scans(tmp_path, _diagonal_line(2.0000000001))
    assert code == 3
    entry = doc["stability"]
    assert entry["status"] == "inconclusive" and entry["max_violation"] == 0.0
    details = entry["details"]
    assert list(details) == ["stable", "witness", "min_root_modulus", "message"]
    assert details["stable"] is None
    assert details["min_root_modulus"] == 1.0000000001
    assert details["witness"] == [[1.0, 0.0], [1.0000000001, 0.0]]
    assert details["message"].startswith("root modulus 1.0000000001 ")


@pytest.mark.parametrize("scale", ["1e-308", "1e-320", "5e-324"])
def test_subnormal_coefficients_end_in_a_report(tmp_path, scale):
    # the root scan runs on a power-of-two scaling of p, so a subnormal slice
    # coefficient is never divided into; the suites past it fail cleanly
    path = write_config(tmp_path, polynomial=WORKED.scale(float(scale)).to_json_dict(WORKED_DEG))
    out = tmp_path / "report.json"
    proc = run_python(["-m", "bscd.cli", "all", "--config", path, "--out", str(out)])
    assert proc.returncode == 1 and proc.stderr == ""
    doc = json.loads(out.read_text())
    assert doc["stability"]["status"] == "pass"
    assert doc["stability"]["details"]["min_root_modulus"] == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize(
    "constant, code, status",
    [(1.5, 1, "fail"), (2.0000000001, 3, "inconclusive")],
    ids=["unstable", "inconclusive"],
)
def test_a_verdict_that_stops_the_run_blocks_every_other_suite(tmp_path, constant, code, status):
    got, doc, cache = _run_all_counting_scans(tmp_path, _diagonal_line(constant))
    assert got == code
    assert doc["stability"]["status"] == status
    message = _stability_message(doc["stability"])
    for name in cli.SUITE_ORDER[1:]:
        details = doc[name]["details"]
        assert doc[name]["status"] == status, name
        assert details["blocked_by"] == "stability", name
        assert details["message"] == message, name
        if status == "fail":
            assert details["error"] == "NotStable", name
    assert (cache.misses, cache.hits) == (1, 0)


def test_a_stable_run_scans_once_and_asks_for_the_verdict_never_again(tmp_path):
    # every function that forms 1/|p|^2 takes the stability artifact and
    # reads the verdict it carries, so the cache is never asked a second time
    code, doc, cache = _run_all_counting_scans(tmp_path, WORKED_JSON)
    assert code == 0
    assert (cache.misses, cache.hits) == (1, 0)


@pytest.mark.parametrize("deg", [(2, 1), (1, 2)])
def test_a_declared_degree_shares_the_support_box_scan(tmp_path, deg):
    # the zero rows or columns a declared box adds carry no root, so the
    # scan runs on the support box and decides the run once
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": WORKED.to_json_dict(DegreePair(*deg))}))
    measure._cached_stability.cache_clear()
    reports = cli.run(cli.load_config(str(path)))
    assert measure._cached_stability.cache_info().misses == 1
    assert [r.status for r in reports] == ["pass"] * 8


@pytest.mark.parametrize("scale", [1e-3, 2.0**-10])
def test_a_scaled_down_worked_example_passes_every_suite(tmp_path, scale):
    # its moments grow as 1 / scale^2; the refinements stop relative to them
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"polynomial": WORKED.scale(scale).to_json_dict(WORKED_DEG)}))
    out = tmp_path / "report.json"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [body["status"] for body in doc.values()] == ["pass"] * 8


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
        path.write_text(json.dumps({"polynomial": polynomial}))
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
    path.write_text(json.dumps({"polynomial": p.to_json_dict(deg)}))
    config = cli.load_config(str(path))
    config.suites = [suite]
    tolerance = cli.TOLERANCES[suite]
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
    config = cli.load_config(str(path))
    config.suites = ["verify-orthogonality"]
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


def _scaled_worked_config(tmp_path, scale):
    """The run config of ``scale (3 - z - w)``."""
    polynomial = WORKED.scale(scale).to_json_dict(WORKED_DEG)
    return cli.load_config(write_config(tmp_path, polynomial=polynomial))


def test_nan_residuals_fail_their_suites(tmp_path, monkeypatch):
    # a NaN circle value at one angle: the minimum eigenvalue, the slice Gram
    # and the LU law read NaN, which no gate may pass
    build = cli.ARTIFACT_BUILDERS["circle"]

    def planted(art):
        profile = build(art)
        matrix = profile.matrix.copy()
        matrix[3, 0, 0] = np.nan
        return dataclasses.replace(profile, matrix=matrix)

    monkeypatch.setitem(cli.ARTIFACT_BUILDERS, "circle", planted)
    reports = {r.suite: r for r in cli.run(cli.load_config(write_config(tmp_path)))}
    assert np.isnan(reports["schur-cohn"].details["min_eig"])
    assert np.isnan(reports["cd-kernel"].details["slice_gram_max"])
    rows = reports["parametric"].details["rows"]
    assert np.isnan(rows[3]["lu_law_residual"])
    for suite in ("schur-cohn", "cd-kernel", "parametric"):
        assert reports[suite].status == "fail"
        assert np.isnan(reports[suite].max_violation)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_kernel_pairings_fail_verify_kernel(tmp_path, monkeypatch):
    # at 1e154 the Gram solves still run, but the closed-form kernel
    # overflows; the moments artifact refuses the subnormal mass, so the suite
    # reads the unchecked grid table here
    monkeypatch.setitem(
        cli.ARTIFACT_BUILDERS,
        "moments",
        lambda art: measure.moments_from_grid(art.get("stability"), art.config.window),
    )
    config = _scaled_worked_config(tmp_path, 1e154)
    config.suites = ["verify-kernel"]
    (report,) = cli.run(config)
    assert report.status == "fail"
    assert np.isnan(report.max_violation) and np.isnan(report.details["reproducing_max"])


@pytest.mark.parametrize("scale", [1e154, 1e160])
def test_underflowed_moment_table_fails_the_moments_suite(tmp_path, scale):
    # c[0, 0] is subnormal at 1e154 and zero at 1e160, so the two tables
    # differ by less than any gate and the cross-path check alone passed;
    # the artifact refuses the table, and every suite that reads it names it
    config = _scaled_worked_config(tmp_path, scale)
    stability = measure.check_stability(config.polynomial, config.deg)
    mass = measure.moments_from_grid(stability, config.window).get(0, 0).real
    assert 0.0 <= mass < np.finfo(float).tiny
    reports = {r.suite: r for r in cli.run(config)}
    for name in ("moments", "verify-cd", "verify-kernel"):
        assert reports[name].status == "fail"
        assert reports[name].details["error"] == "DegenerateMoments"
        assert "c[0, 0]" in reports[name].details["message"]
        assert reports[name].details["blocked_by"] == "moments"


# the artifact that blocks each suite when the matrix degenerates: every
# suite that reads the matrix fetches it before the moments
MATRIX_BLOCKS = {
    "moments": "moments",
    "schur-cohn": "matrix",
    "cd-kernel": "matrix",
    "verify-orthogonality": "matrix",
    "verify-cd": "moments",
    "verify-kernel": "moments",
    "parametric": "matrix",
}

# the artifact that blocks each suite when the tensor is finite but its
# circle values are not: the suites on the circle name the circle, and
# verify-orthogonality, which reads the matrix but not the circle, the moments
CIRCLE_BLOCKS = {
    "moments": "moments",
    "schur-cohn": "circle",
    "cd-kernel": "circle",
    "verify-orthogonality": "moments",
    "verify-cd": "moments",
    "verify-kernel": "moments",
    "parametric": "circle",
}

# each scale with the artifact that blocks each suite and the error of each artifact
SCALE_PAST_THE_FLOAT_RANGE = {
    # |p|^2 overflows: the tensor reads NaN and c[0, 0] underflows to zero
    1e300: (MATRIX_BLOCKS, {"moments": "DegenerateMoments", "matrix": "DegenerateMatrix"}),
    # |p|^2 underflows: the tensor is all zero and the density overflows
    1e-200: (MATRIX_BLOCKS, {"moments": "NoConvergence", "matrix": "DegenerateMatrix"}),
    # the tensor is still finite, but its circle values overflow and c[0, 0]
    # is subnormal
    4e153: (CIRCLE_BLOCKS, {"moments": "DegenerateMoments", "circle": "DegenerateMatrix"}),
}


@pytest.mark.parametrize("scale", SCALE_PAST_THE_FLOAT_RANGE)
def test_a_scale_past_the_float_range_is_blamed_on_the_artifact_it_degenerates(tmp_path, scale):
    # at 1e300 and 4e153 the schur-cohn, cd-kernel and parametric suites failed
    # on NaN with no error and numpy warned on stderr; at 1e-200 parametric
    # blamed its LU for a pivot 0 of the underflowed tensor
    path = write_config(tmp_path, polynomial=WORKED.scale(scale).to_json_dict(WORKED_DEG))
    out = tmp_path / "report.json"
    proc = run_python(["-m", "bscd.cli", "all", "--config", path, "--out", str(out)])
    assert proc.returncode == 1 and proc.stderr == ""
    doc = json.loads(out.read_text())
    assert doc["stability"]["status"] == "pass"
    blocking, errors = SCALE_PAST_THE_FLOAT_RANGE[scale]
    for name, artifact in blocking.items():
        details = doc[name]["details"]
        assert doc[name]["status"] == "fail", name
        assert details["blocked_by"] == artifact, name
        assert details["error"] == errors[artifact], name


def test_a_vanishing_integrand_past_the_float_range_fails_parametric_in_process(tmp_path):
    # the (2,5) draw at 2^110: D[m-j-1] <phi_j, phi_j> overflows at j = 0, and
    # Python's abs of a vanishing value whose modulus overflowed raised
    # OverflowError out of cli.main, with numpy's warnings before it
    p, deg = measure.random_stable_poly(2, 5, np.random.default_rng(1))
    path = write_config(tmp_path, polynomial=p.scale(2.0**110).to_json_dict(deg))
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["all", "--config", path, "--out", str(out)])
    assert [str(w.message) for w in caught] == [] and code == 1
    parametric = json.loads(out.read_text())["parametric"]
    assert parametric["status"] == "fail"
    assert parametric["details"]["error"] == "DegenerateMatrix"
    assert "vanishing integrand is not finite" in parametric["details"]["message"]


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


def _statuses(report):
    return {suite: body["status"] for suite, body in report.items()}


def _grid_table(report):
    """The moments ``c[a, b]`` of the report's grid table, by ``(a, b)``."""
    values = report["moments"]["details"]["table"]["values"]
    return {(a, b): complex(re, im) for a, b, re, im in values}


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
    assert _statuses(doc) == _statuses(swapped_doc)
    grid, swapped_grid = _grid_table(doc), _grid_table(swapped_doc)
    common = [(a, b) for a, b in grid if (b, a) in swapped_grid]
    assert max(abs(grid[a, b] - swapped_grid[b, a]) for a, b in common) <= 1e-15


@pytest.mark.parametrize(
    "degree", [None, (2, 3), (3, 1), (4, 4)], ids=["worked", "2x3", "3x1", "4x4"]
)
def test_rotating_z_and_w_rotates_the_moments(tmp_path, degree):
    # p(e^{i alpha} z, e^{i beta} w) has the moments e^{-i(a alpha + b beta)} c[a, b]
    # of p, so every suite decides alike; the opposite phase, a conjugation
    # error, misses by 2e-2 or more on these inputs
    alpha, beta = 0.7, -1.3
    if degree is None:
        p, deg = WORKED, WORKED_DEG
    else:
        p, deg = measure.random_stable_poly(*degree, np.random.default_rng(1))
    rotated = BivariateLaurentPoly(
        {(i, j): c * np.exp(1j * (i * alpha + j * beta)) for (i, j), c in p.items()}
    )
    code, doc = _run_all(tmp_path, "p", p.to_json_dict(deg))
    rotated_code, rotated_doc = _run_all(tmp_path, "rotated", rotated.to_json_dict(deg))
    assert code == rotated_code
    assert _statuses(doc) == _statuses(rotated_doc)
    grid, rotated_grid = _grid_table(doc), _grid_table(rotated_doc)
    assert grid.keys() == rotated_grid.keys()
    gap = max(
        abs(rotated_grid[a, b] - np.exp(-1j * (a * alpha + b * beta)) * grid[a, b])
        for a, b in grid
    )
    assert gap <= 1e-14


@pytest.mark.parametrize(
    "p, deg",
    [product_polynomial(*degree) for degree in PRODUCT_DEGREES]
    + [
        measure.random_stable_poly(*degree, np.random.default_rng(1))
        for degree in [(2, 8), (8, 2), (12, 12)]
    ],
    ids=["product-1x1", "product-2x1", "product-1x2", "2x8", "8x2", "12x12"],
)
def test_every_suite_passes_on_products_and_off_the_ladder(tmp_path, p, deg):
    # the positive control, and degrees no workload draws: n != m and (12, 12)
    code, doc = _run_all(tmp_path, "p", p.to_json_dict(deg))
    assert code == 0
    assert set(_statuses(doc).values()) == {"pass"}


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 8), other=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_every_suite_but_the_quadrature_passes_off_the_diagonal(n, other, seed):
    # no workload draws n != m; verify-kernel's fixed quadrature is left out
    # for its cost, about 0.7 s a run
    m = other + (other >= n)  # every degree in 1 .. 8 but n
    p, deg = measure.random_stable_poly(n, m, np.random.default_rng(seed))
    suites = [name for name in cli.SUITE_ORDER if name != "verify-kernel"]
    reports = cli.run(cli.RunConfig(p, deg, suites))
    assert {r.suite: r.status for r in reports} == dict.fromkeys(sorted(suites), "pass")


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
    config = cli.load_config(write_config(tmp_path))
    config.suites = ["stability", "cd-kernel", "parametric"]
    doc = json.loads(cli.render_report(cli.run(config)))
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
    path = write_config(tmp_path)
    outputs = []
    for _ in range(2):
        config = cli.load_config(path)
        config.suites = ["stability", "moments", "cd-kernel"]
        reports = cli.run(config)
        text = cli.render_report(reports)
        doc = json.loads(text)
        for suite in doc.values():
            suite.pop("wall_time")
        outputs.append(json.dumps(doc, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_empty_suite_list(tmp_path, capsys):
    # a run of no suite would report {} and exit 0, a pass that checked nothing
    with pytest.raises(SystemExit) as info:
        cli.main(["--config", write_config(tmp_path)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "required: suite" in captured.err


def test_several_suites_write_the_document_of_those_suites(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["stability", "moments", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["moments", "stability"]
    assert [body["status"] for body in doc.values()] == ["pass", "pass"]


@pytest.mark.parametrize(
    "suites", [["all", "stability"], ["moments", "all"]], ids=["all-first", "all-last"]
)
def test_all_with_a_suite_name_is_refused(tmp_path, capsys, suites):
    with pytest.raises(SystemExit) as info:
        cli.main(suites + ["--config", write_config(tmp_path)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'all' runs every suite" in captured.err


def test_report_written_to_file(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "report.json"
    code = cli.main(["stability", "--config", path, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["stability"]["status"] == "pass"


def test_tolerance_override_can_force_failure(tmp_path, capsys, monkeypatch):
    # the worked example's two moment tables differ by roundoff, above 1e-30
    monkeypatch.setitem(cli.TOLERANCES, "moments", 1e-30)
    path = write_config(tmp_path)
    code = cli.main(["moments", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["status"] == "fail"


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path)
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
    path = write_config(tmp_path)
    code = cli.main(
        ["stability", "--config", path, "--out", "/no/such/dir/report.json"]
    )
    assert code == 2


def direct_config(polynomial):
    """A run config that load_config would refuse for its degree."""
    p, deg = BivariateLaurentPoly.from_json_dict(polynomial)
    return cli.RunConfig(p, deg, list(cli.SUITE_ORDER))


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
    # the suites on the circle stop at the underflowed Schur-Cohn tensor
    for name in ("moments", "verify-cd"):
        assert doc[name]["status"] == "fail"
        assert "not finite (change nan)" in doc[name]["details"]["message"]


def test_verify_cd_names_the_pair_where_a_foreign_table_fails(tmp_path, monkeypatch):
    # a planted defect: the moments of another stable polynomial
    other, deg = measure.random_stable_poly(1, 1, np.random.default_rng(5))
    foreign = measure.moments_from_grid(measure.check_stability(other, deg), (9, 9))
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
    monkeypatch.setattr(cli.measure, "MOMENT_TOL", 1e-300)
    path = write_config(tmp_path)
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
