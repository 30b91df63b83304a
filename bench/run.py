"""Throughput benchmark of ``bscd all``, one workload per process.

    python3 bench/run.py --workload ladder_small --seed 0 --seconds 30 --trace 0

A single caller runs a closed loop in this process: ``bscd.cli.main(["all",
...])`` on one generated polynomial at a time, cycling through the workload's
degree mix at least twice and until another whole cycle would end past
``--seconds``.  Set-up (import of bscd, config generation and a warm-up call on
the worked example ``3 - z - w``, whose report is also the correctness gate) is
timed here and in two fresh interpreters, and the median is reported.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the same loop runs untraced first and then, on the same
polynomials, under the span wrappers of ``spans.py``; the last line then holds
the per-layer metrics, per polynomial, and the tracing overhead.
"""

import time

PROCESS_START = time.perf_counter()  # set-up is timed from here

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SUITES = (
    "cd-kernel",
    "moments",
    "parametric",
    "schur-cohn",
    "stability",
    "verify-cd",
    "verify-kernel",
    "verify-orthogonality",
)
STATUSES = ("pass", "fail", "inconclusive")
# configs drawn during set-up; a run stops early if it uses them all
MAX_CYCLES = 100
MIN_CYCLES = 2
SETUP_PROBES = 2
HEADROOM_CAP = 16.0


class BenchmarkError(Exception):
    """The benchmark could not run: no bscd package in this checkout."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up, print it as JSON and exit (the set-up repeats)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_cli():
    src = ROOT / "src"
    if not (src / "bscd" / "__init__.py").is_file():
        raise BenchmarkError(f"no bscd package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from bscd import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchmarkError(f"imported bscd from {cli.__file__}, not from {src}")
    return cli


class Caller:
    """Runs ``cli.main`` on one config at a time and checks each report."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.cache = cli.measure._cached_stability
        self.config_path = workdir / "config.json"
        self.report_path = workdir / "report.json"
        self.errors: list[str] = []

    def call(self, polynomial: dict) -> dict:
        self.config_path.write_text(json.dumps({"polynomial": polynomial}))
        if self.report_path.exists():
            self.report_path.unlink()
        before = self.cache.cache_info()
        start = time.perf_counter()
        try:
            code = self.cli.main(
                ["all", "--config", str(self.config_path), "--out", str(self.report_path)]
            )
        except Exception as exc:  # a crash is counted as 8 failed suites
            code, crash = None, f"{type(exc).__name__}: {exc}"
        else:
            crash = None
        seconds = time.perf_counter() - start
        after = self.cache.cache_info()
        record = {
            "degree": [polynomial["n"], polynomial["m"]],
            "seconds": seconds,
            "code": code,
            "cache_hits": after.hits - before.hits,
            "cache_misses": after.misses - before.misses,
        }
        if code is None or code == 2:
            record.update(failed=len(SUITES), crash=crash or f"exit {code}")
            return record
        text = self.report_path.read_text()
        doc = json.loads(text)
        if not self.check(doc, code, record["degree"]):
            record.update(failed=len(SUITES), crash="malformed report")
            return record
        content = {
            suite: {k: v for k, v in body.items() if k != "wall_time"}
            for suite, body in doc.items()
        }
        details = doc.get("moments", {}).get("details", {})
        record.update(
            failed=sum(body.get("status") != "pass" for body in doc.values()),
            headroom=headroom_digits(doc),
            grid_size=details.get("grid_size"),
            series_order=details.get("series_order"),
            report_bytes=len(text.encode()),
            suite_s={suite: body.get("wall_time") for suite, body in doc.items()},
            digest=hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest(),
        )
        return record

    def check(self, doc: dict, code: int, degree) -> bool:
        """Record what is wrong with one report; True if it is well formed."""
        where = f"report for degree {tuple(degree)}"
        if sorted(doc) != sorted(SUITES):
            self.errors.append(f"{where}: suites {sorted(doc)}")
            return False
        statuses = [body.get("status") for body in doc.values()]
        if any(s not in STATUSES for s in statuses):
            self.errors.append(f"{where}: statuses {statuses}")
            return False
        expected = 1 if "fail" in statuses else 3 if "inconclusive" in statuses else 0
        if code != expected:
            self.errors.append(f"{where}: exit code {code} but statuses give {expected}")
        return True


def headroom_digits(doc: dict) -> float | None:
    """Smallest ``log10(tolerance / max_violation)`` over passing suites."""
    digits = []
    for body in doc.values():
        if body["status"] != "pass":
            continue
        violation, tolerance = body["max_violation"], body["tolerance"]
        if violation <= 0:
            digits.append(HEADROOM_CAP)
        else:
            digits.append(min(HEADROOM_CAP, math.log10(tolerance / violation)))
    return min(digits) if digits else None


def gate_errors(record: dict, report_path: Path) -> list[str]:
    """Checks on the report of the worked example ``3 - z - w``."""
    if record["code"] != 0:
        return [f"worked example: exit code {record['code']} ({record.get('crash')})"]
    doc = json.loads(report_path.read_text())
    errors = []
    a0 = doc["cd-kernel"]["details"]["a"][0]["coeffs"]
    got = [complex(*row[0]) for row in a0]
    if len(got) != len(workloads.WORKED_A0) or any(
        abs(g - e) > 1e-10 for g, e in zip(got, workloads.WORKED_A0)
    ):
        errors.append(f"worked example: a_0 coefficients {got}, expected {workloads.WORKED_A0}")
    norm2 = doc["verify-orthogonality"]["details"]["normalization"] ** 2
    if abs(norm2 - workloads.WORKED_A0_NORM2) > 1e-8:
        errors.append(f"worked example: ||a_0||^2 = {norm2!r}, expected 9")
    return errors


def set_up(args, workdir: Path):
    """Import bscd, draw the configs, make the warm-up call; time all of it."""
    cli = import_cli()
    cycles = workloads.draw_cycles(workloads.WORKLOADS[args.workload], args.seed, MAX_CYCLES)
    caller = Caller(cli, workdir)
    warm = caller.call(workloads.WORKED_EXAMPLE)
    seconds = time.perf_counter() - PROCESS_START
    return caller, cycles, gate_errors(warm, caller.report_path), seconds


def run_loop(caller: Caller, cycles, seconds: float) -> list[dict]:
    """Closed loop over whole cycles of the degree mix.

    Every degree is measured at least twice; after that, another cycle starts
    only if, at the mean cycle time so far, it would end within ``seconds``.
    """
    records = []
    start = time.perf_counter()
    for done, cycle in enumerate(cycles, start=1):
        records.extend(caller.call(poly) for poly in cycle)
        elapsed = time.perf_counter() - start
        if done >= MIN_CYCLES and elapsed * (done + 1) / done > seconds:
            break
    return records


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter running this script with --setup-only."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def polys_per_s(records, degrees) -> float:
    """Throughput at the equal degree mix, from the median call time per degree."""
    per_degree = [
        statistics.median(r["seconds"] for r in records if tuple(r["degree"]) == d)
        for d in degrees
    ]
    return len(degrees) / sum(per_degree)


def end_to_end(records, degrees, setups, attempted, failed) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "polys_per_s": {"value": polys_per_s(records, degrees), "unit": "1/s"},
        "report_s_p50": {"value": statistics.median(r["seconds"] for r in records), "unit": "s"},
        "pass_share": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v, "unset") for v in thread_vars + ("BSCD_THREADS",)},
    }


def per_layer(tracer, traced, untraced, overhead_ratio, cache_delta) -> dict:
    """Per-polynomial layer metrics of the traced pass; report fields from the untraced one."""
    count = len(traced)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def mean_of(field, records=untraced):
        values = [r[field] for r in records if r.get(field) is not None]
        return statistics.fmean(values) if values else 0.0

    for suite in SUITES:
        times = [r["suite_s"][suite] for r in untraced if "suite_s" in r]
        put(f"cli.suite.{suite}_s", statistics.fmean(times) if times else 0.0, "s")
    put("cli.render_s", tracer.stats["cli.render_report"].total_s / count, "s")
    put("cli.report_bytes", mean_of("report_bytes"), "bytes")
    headrooms = [r["headroom"] for r in untraced if r.get("headroom") is not None]
    # per report the minimum over its passing suites; the median over reports
    put("headroom_digits_min", statistics.median(headrooms) if headrooms else 0.0, "digits")
    for name, stats in tracer.stats.items():
        if name != "cli.render_report":
            put(f"{name}.calls", stats.calls / count, "count")
            put(f"{name}.self_s", stats.self_s / count, "s")
    hits, misses = cache_delta
    put("measure.stability_cache.hit_ratio", hits / (hits + misses), "ratio")
    put("measure.moments_from_grid.grid_size", mean_of("grid_size"), "count")
    put("measure.moments_from_series.order", mean_of("series_order"), "count")
    vanishing = tracer.stats["parametric.moment_vanishing"]
    angles = tracer.edges.get(
        ("parametric.moment_vanishing", "parametric.parametric_polynomials"), 0
    )
    useful = sum(result["theta_grid"] for result in vanishing.results)
    no_convergence = vanishing.errors.get("NoConvergence", 0)
    put("parametric.moment_vanishing.angles", angles / count, "count")
    put("parametric.moment_vanishing.useful_ratio", useful / angles if angles else 0.0, "ratio")
    put("parametric.moment_vanishing.no_convergence", no_convergence / count, "count")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # the serial path: one suite at a time, so spans of one thread nest
    os.environ.pop("BSCD_THREADS", None)
    degrees = workloads.WORKLOADS[args.workload].degrees
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        try:
            caller, cycles, errors, setup_s = set_up(args, Path(tmp))
        except BenchmarkError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 1 if errors else 0
        print("env", json.dumps(environment()))
        wrapped = spans.installed()
        if wrapped:
            errors.append(f"span wrappers installed before the untraced loop: {wrapped}")
        records = run_loop(caller, cycles, args.seconds)
        for index, r in enumerate(records):
            print(
                "poly", index, "degree", tuple(r["degree"]),
                f"seconds={r['seconds']:.4f} code={r['code']} failed={r['failed']}",
                f"headroom={r.get('headroom')} grid_size={r.get('grid_size')}",
                f"series_order={r.get('series_order')}",
                f"cache_hits={r['cache_hits']} cache_misses={r['cache_misses']}",
            )
        first = "".join(r.get("digest", "crash") for r in records[: len(degrees)])
        print("digest", args.workload, hashlib.sha256(first.encode()).hexdigest())
        attempted = len(SUITES) * len(records)
        served = [r for r in records if r["cache_misses"] == 0]
        failed = sum(r["failed"] for r in records)
        if args.trace:
            measured = [poly for cycle in cycles[: len(records) // len(degrees)] for poly in cycle]
            caller.cache.cache_clear()
            before = caller.cache.cache_info()
            with spans.Tracer() as tracer:
                traced = [caller.call(poly) for poly in measured]
            after = caller.cache.cache_info()
            served += [r for r in traced if r["cache_misses"] == 0]
            if spans.installed():
                errors.append("span wrappers left installed after the traced pass")
            for plain, tr in zip(records, traced):
                if plain.get("digest") != tr.get("digest"):
                    errors.append(f"tracing changed the report for degree {tuple(plain['degree'])}")
            overhead = polys_per_s(traced, degrees) / polys_per_s(records, degrees)
            cache_delta = (after.hits - before.hits, after.misses - before.misses)
            metrics = per_layer(tracer, traced, records, overhead, cache_delta)
        else:
            setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            print("setup_s", [round(s, 4) for s in setups])
            metrics = end_to_end(records, degrees, setups, attempted, failed)
        if served:
            errors.append(f"{len(served)} timed calls found their stability verdict cached")
    for message in errors + caller.errors:
        print("check failed:", message, file=sys.stderr)
    correct = not errors and not caller.errors
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
