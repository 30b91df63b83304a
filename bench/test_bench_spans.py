"""Self-tests of the benchmark: span coverage, nesting and the untraced path."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
cli = run.import_cli()  # puts src on the path
from bscd import cd_kernel, parametric, schur_cohn  # noqa: E402


def bindings(original):
    return [
        (mod.__name__, key)
        for mod in spans._bscd_namespaces()
        for key, value in vars(mod).items()
        if value is original
    ]


def test_every_binding_is_wrapped_and_restored():
    originals = {}
    for name, (module, attr) in spans.TARGETS.items():
        owner, leaf = spans._resolve(module, attr)
        originals[name] = (owner, leaf, vars(owner)[leaf])
    evaluate = originals["schur_cohn.evaluate_on_circle"][2]
    assert {"bscd.schur_cohn", "bscd.parametric", "bscd.cd_kernel"} <= {
        mod for mod, _ in bindings(evaluate)
    }
    before = {name: bindings(fn) for name, (_, _, fn) in originals.items()}

    with spans.Tracer():
        for name, (owner, leaf, fn) in originals.items():
            assert bindings(fn) == [], name
            assert getattr(vars(owner)[leaf], spans.MARK) == name
        assert schur_cohn.evaluate_on_circle is parametric.evaluate_on_circle
        assert cd_kernel.evaluate_on_circle is parametric.evaluate_on_circle
        assert spans.installed()

    assert spans.installed() == []
    for name, (owner, leaf, fn) in originals.items():
        assert vars(owner)[leaf] is fn
        assert bindings(fn) == before[name]


def test_spans_nest_and_self_times_fit_in_the_wall_time(tmp_path):
    caller = run.Caller(cli, tmp_path)
    caller.cache.cache_clear()
    with spans.Tracer() as tracer:
        record = caller.call(workloads.WORKED_EXAMPLE)
    assert record["code"] == 0 and caller.errors == []
    stats = tracer.stats
    self_total = sum(s.self_s for s in stats.values())
    # a span's time is its self time plus its children's, so the self times of
    # all spans add up to the time of the outermost ones
    assert self_total == pytest.approx(tracer.outermost_s, rel=1e-9)
    assert tracer.outermost_s <= record["seconds"]
    assert tracer.edges[("schur_cohn.principal_determinants", "schur_cohn.evaluate_on_circle")] > 0
    assert tracer.edges[("parametric.moment_vanishing", "parametric.parametric_polynomials")] > 0
    assert tracer.edges[("schur_cohn.evaluate_on_circle", "poly.call")] > 0
    for s in stats.values():
        assert 0.0 <= s.self_s <= s.total_s + 1e-12


@pytest.fixture
def tiny_workload(monkeypatch):
    """A one-degree workload, so that a whole run takes a few seconds."""
    cli.measure._cached_stability.cache_clear()
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workloads.Workload(((1, 1),), None))
    monkeypatch.delenv("BSCD_THREADS", raising=False)
    monkeypatch.setattr(run, "probe_setup", lambda args: 1.0)
    monkeypatch.setattr(run, "MIN_CYCLES", 1)


def run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


def test_untraced_run_installs_no_wrapper(tiny_workload, monkeypatch):
    def refuse():
        raise AssertionError("the untraced run built a tracer")

    monkeypatch.setattr(spans, "Tracer", refuse)
    code, lines = run_main(["--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert result["attempted"] == len(run.SUITES)
    assert spans.installed() == []


def test_traced_run_reports_every_per_layer_metric(tiny_workload):
    code, lines = run_main(["--workload", "tiny", "--seed", "2", "--seconds", "1", "--trace", "1"])
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert spans.installed() == []


def test_gate_refuses_a_wrong_worked_example(tmp_path):
    a0 = [[[c, 0.0]] for c in workloads.WORKED_A0]
    doc = {
        "cd-kernel": {"details": {"a": [{"coeffs": a0}]}},
        "verify-orthogonality": {"details": {"normalization": 3.0}},
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert run.gate_errors({"code": 0}, path) == []
    assert run.gate_errors({"code": 1}, path)
    doc["cd-kernel"]["details"]["a"][0]["coeffs"][1] = [[9.001, 0.0]]
    doc["verify-orthogonality"]["details"]["normalization"] = 3.001
    path.write_text(json.dumps(doc))
    assert len(run.gate_errors({"code": 0}, path)) == 2


def test_report_checks(tmp_path):
    caller = run.Caller(cli, tmp_path)
    doc = {suite: {"status": "pass"} for suite in run.SUITES}
    assert caller.check(doc, 0, (1, 1)) and caller.errors == []
    doc["parametric"]["status"] = "inconclusive"
    assert caller.check(doc, 3, (1, 1)) and caller.errors == []
    assert caller.check(doc, 0, (1, 1)) and len(caller.errors) == 1
    del doc["parametric"]
    assert not caller.check(doc, 0, (1, 1)) and len(caller.errors) == 2


def test_repeated_polynomials_are_refused(monkeypatch):
    monkeypatch.setattr(
        workloads, "draw_polynomial", lambda n, m, rng, delta: workloads.WORKED_EXAMPLE
    )
    with pytest.raises(RuntimeError, match="repeated polynomial"):
        workloads.draw_cycles(workloads.WORKLOADS["ladder_small"], 0, 1)


def test_inputs_depend_only_on_the_seed():
    ladder = workloads.WORKLOADS["ladder_large"]
    assert workloads.draw_cycles(ladder, 3, 2) == workloads.draw_cycles(ladder, 3, 2)
    assert workloads.draw_cycles(ladder, 3, 1) != workloads.draw_cycles(ladder, 4, 1)


def test_near_boundary_draws_reach_delta_at_one_one():
    near = workloads.WORKLOADS["near_boundary"]
    for poly in workloads.draw_cycles(near, 0, 3)[-1]:
        value = sum(complex(*c) for row in poly["coeffs"] for c in row)
        assert value == pytest.approx(near.delta, abs=1e-12)
