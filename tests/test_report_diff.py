"""Self-test of tools/report_diff.py on report documents built in-process."""

import copy
import importlib.util
import json
from pathlib import Path

from bscd import cli

from conftest import WORKED, WORKED_DEG

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)

# every suite but verify-kernel, whose fixed quadrature costs most of a run
CHEAP = [name for name in cli.SUITES if name != "verify-kernel"]


def worked_document():
    """The report of the worked example, as the tool reads it from a file."""
    return json.loads(cli.render_report(cli.run(cli.RunConfig(WORKED, WORKED_DEG, CHEAP))))


def test_a_report_against_itself_moves_nothing():
    # two runs differ in their wall times alone, which the diff leaves out
    first, second = worked_document(), worked_document()
    assert report_diff.diff_reports(first, second) == ([], False)
    assert report_diff.diff_reports(first, copy.deepcopy(first)) == ([], False)


def test_a_planted_field_change_is_reported_with_its_path():
    old = worked_document()
    new = copy.deepcopy(old)
    # the real part of c[-9, -9], the first row of the moment table
    before = old["moments"]["details"]["table"]["values"][0][2]
    new["moments"]["details"]["table"]["values"][0][2] = 2 * before
    lines, status_moved = report_diff.diff_reports(old, new)
    assert not status_moved
    (line,) = lines
    assert line.startswith("  moments.details.table.values[0][2]: ")
    assert f"{before!r} -> {2 * before!r} (rel 1, gate 1e-10)" in line


def test_a_moved_status_or_a_missing_report_is_flagged():
    old = worked_document()
    new = copy.deepcopy(old)
    new["parametric"]["status"] = "fail"
    new["parametric"]["details"] = {"error": "DegenerateMatrix"}
    lines, status_moved = report_diff.diff_reports(old, new)
    assert status_moved
    assert lines[0] == "  parametric: status pass -> fail"
    assert "  parametric.details.rows: [32 items] -> (absent) (rel -, gate 1e-09)" in lines
    # a run that wrote no report moves every status
    lines, status_moved = report_diff.diff_reports(old, None)
    assert status_moved and len(lines) >= len(CHEAP)


def test_the_inputs_are_the_bench_draws_then_the_edge_cases():
    names = list(report_diff.inputs())
    # the worked example, then seeds 1 and 5 of each workload's first cycle
    assert len(names) == 24 and len(set(names)) == 24
    assert names[0] == "worked example"
    assert sum(" seed 1 (" in name or " seed 5 (" in name for name in names[1:17]) == 16
    assert names[-1] == "2^110 seed 1 (2,5)"
