#!/usr/bin/env python3
"""Compare the ``bscd all`` reports of two checkouts on a fixed set of inputs.

    python tools/report_diff.py BASE HEAD

``BASE`` and ``HEAD`` are directories that each hold a checkout with
``src/bscd``; for a git revision, unpack one with
``git archive REV | tar -x -C DIR``.  Every input runs as
``python -m bscd.cli all`` in a process of its own, from each checkout, with
``OPENBLAS_NUM_THREADS=1``: a report is byte-identical from run to run at one
pinned thread count only, and a thread pool can move its roundoff fields.

The inputs are built by this checkout's ``bench/workloads.py`` and
``bscd.measure``, so both sides read the same configs: the worked example
``3 - z - w``; seeds 1 and 5 of the first cycle of each bench workload; the
seed-0 delta = 0.02 draws of degree (2,2) and (3,3); ``1e-3 (3 - z - w)``,
``1.5 - z - w``, ``2.0000000001 - z - w`` and ``4e153 (3 - z - w)``; and the
seed-1 (2,5) ``random_stable_poly`` draw times 2^110.

For each input, every suite entry that moved, ``wall_time`` aside, prints each
moved field with its old value, its new value, the relative change and the
suite's gate; a moved status or exit code prints too.  The exit status is 1 if
a status or an exit code moved, else 0: moved fields alone are for the reader
to explain.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the side of a moved field where its key is missing
ABSENT = "(absent)"


def _line(constant: float, scale: float) -> dict:
    """``scale (constant - z - w)`` in the config form."""
    coeffs = [[[constant * scale, 0.0], [-scale, 0.0]], [[-scale, 0.0], [0.0, 0.0]]]
    return {"n": 1, "m": 1, "coeffs": coeffs}


def inputs() -> dict[str, dict]:
    """Name -> polynomial in the config form, in the order they run."""
    for path in (ROOT / "src", ROOT / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import numpy as np
    import workloads
    from bscd.measure import random_stable_poly

    found = {"worked example": workloads.WORKED_EXAMPLE}
    for name, workload in workloads.WORKLOADS.items():
        for seed in (1, 5):
            (cycle,) = workloads.draw_cycles(workload, seed, 1)
            for poly in cycle:
                found[f"{name} seed {seed} ({poly['n']},{poly['m']})"] = poly
    for n in (2, 3):
        draw = workloads.draw_polynomial(n, n, np.random.default_rng(0), 0.02)
        found[f"delta 0.02 seed 0 ({n},{n})"] = draw
    found["1e-3 (3 - z - w)"] = _line(3.0, 1e-3)
    found["1.5 - z - w"] = _line(1.5, 1.0)
    found["2.0000000001 - z - w"] = _line(2.0000000001, 1.0)
    found["4e153 (3 - z - w)"] = _line(3.0, 4e153)
    p, deg = random_stable_poly(2, 5, np.random.default_rng(1))
    found["2^110 seed 1 (2,5)"] = p.scale(2.0**110).to_json_dict(deg)
    return found


def _environment(checkout: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    # the package must come from the checkout, not from an installed copy
    where = subprocess.run(
        [sys.executable, "-c", "import bscd; print(bscd.__file__)"],
        env=env, cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to((checkout / "src").resolve()):
        raise SystemExit(f"bscd imports from {where}, not from {checkout / 'src'}")
    return env


def run_both(checkouts, envs, config: Path, scratch: Path) -> list[tuple[int, dict | None]]:
    """``bscd all`` on ``config`` from each checkout at once: (exit code, report)."""
    procs, outs = [], []
    for side, (checkout, env) in enumerate(zip(checkouts, envs)):
        out = scratch / f"report-{side}.json"
        out.unlink(missing_ok=True)
        command = [sys.executable, "-m", "bscd.cli", "all", "--config", str(config), "--out", str(out)]
        procs.append(subprocess.Popen(command, env=env, cwd=checkout, stdout=subprocess.DEVNULL))
        outs.append(out)
    return [
        (proc.wait(), json.loads(out.read_text()) if out.exists() else None)
        for proc, out in zip(procs, outs)
    ]


def _summary(value) -> str:
    if value is ABSENT:
        return ABSENT
    if isinstance(value, dict):
        return f"{{{len(value)} keys}}"
    if isinstance(value, list):
        return f"[{len(value)} items]"
    return json.dumps(value)


def _same(old, new) -> bool:
    if isinstance(old, float) and isinstance(new, float) and math.isnan(old) and math.isnan(new):
        return True
    return type(old) is type(new) and old == new


def _relative(old, new) -> str:
    numbers = [v for v in (old, new) if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if len(numbers) < 2:
        return "-"
    if old == 0:
        return "inf"
    return f"{abs(new - old) / abs(old):.3g}"


def moved_fields(old, new, path: str):
    """``(path, old, new)`` for every leaf that differs; a subtree whose shape
    differs (a key on one side only, a list of another length, another type)
    is one entry, with :data:`ABSENT` for a missing side."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            sub = f"{path}.{key}"
            if key not in old or key not in new:
                yield sub, old.get(key, ABSENT), new.get(key, ABSENT)
            else:
                yield from moved_fields(old[key], new[key], sub)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (a, b) in enumerate(zip(old, new)):
            yield from moved_fields(a, b, f"{path}[{index}]")
    elif isinstance(old, (dict, list)) or isinstance(new, (dict, list)):
        if old != new:
            yield path, old, new
    elif not _same(old, new):
        yield path, old, new


def diff_reports(old: dict | None, new: dict | None) -> tuple[list[str], bool]:
    """Lines describing what moved between two report documents, and whether
    a status moved.  A missing report (the run wrote none) has no suites."""
    old, new = old or {}, new or {}
    lines, status_moved = [], False
    for suite in sorted(set(old) | set(new)):
        before, after = old.get(suite, {}), new.get(suite, {})
        if before.get("status") != after.get("status"):
            status_moved = True
            lines.append(f"  {suite}: status {before.get('status')} -> {after.get('status')}")
        gate = after.get("tolerance", before.get("tolerance"))
        before = {k: v for k, v in before.items() if k != "wall_time"}
        after = {k: v for k, v in after.items() if k != "wall_time"}
        for path, a, b in moved_fields(before, after, suite):
            if path == f"{suite}.status":
                continue
            lines.append(
                f"  {path}: {_summary(a)} -> {_summary(b)} (rel {_relative(a, b)}, gate {gate})"
            )
    return lines, status_moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the old code")
    parser.add_argument("head", type=Path, help="checkout of the new code")
    args = parser.parse_args(argv)
    checkouts = [args.base.resolve(), args.head.resolve()]
    envs = [_environment(checkout) for checkout in checkouts]
    moved_any = False
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for name, poly in inputs().items():
            config = scratch / "config.json"
            config.write_text(json.dumps({"polynomial": poly}))
            (old_code, old), (new_code, new) = run_both(checkouts, envs, config, scratch)
            lines, moved = diff_reports(old, new)
            if old_code != new_code:
                moved = True
                lines.insert(0, f"  exit code {old_code} -> {new_code}")
            moved_any |= moved
            print(f"{name}: exit {new_code}, " + ("identical" if not lines else "moved"))
            for line in lines:
                print(line)
    return 1 if moved_any else 0


if __name__ == "__main__":
    sys.exit(main())
