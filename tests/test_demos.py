"""Every demo script runs to completion."""

from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(script):
    done = run_python([str(script)], cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
