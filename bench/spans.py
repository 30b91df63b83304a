"""Span recording around bscd's public functions, installed from outside the package.

Each traced function is replaced, in every ``bscd`` namespace that binds it,
by a wrapper that opens a span on entry and closes it on exit.  Spans of one
thread nest, so a span's self time is its duration minus the durations of its
direct children.  Spans are folded into per-name totals as they close, plus a
count for each (parent, child) pair: ``poly.call`` alone closes ~10^5 spans per
(8,8) polynomial, too many to keep one record each.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module, attribute); "Class.method" names a method
TARGETS = {
    "cli.render_report": ("bscd.cli", "render_report"),
    "measure.check_stability": ("bscd.measure", "check_stability"),
    "measure.moments_from_grid": ("bscd.measure", "moments_from_grid"),
    "measure.moments_from_series": ("bscd.measure", "moments_from_series"),
    "measure.inner_product": ("bscd.measure", "inner_product"),
    # the public slice_moments adds only a stability check before delegating
    # here, and cli, parametric and cd_kernel call this function directly
    "measure.slice_moments": ("bscd.measure", "_slice_moments_unchecked"),
    "measure.slice_inner_product": ("bscd.measure", "slice_inner_product"),
    "measure.torus_grid_values": ("bscd.measure", "torus_grid_values"),
    "schur_cohn.schur_cohn_matrix": ("bscd.schur_cohn", "schur_cohn_matrix"),
    "schur_cohn.evaluate_on_circle": ("bscd.schur_cohn", "evaluate_on_circle"),
    "schur_cohn.principal_determinants": ("bscd.schur_cohn", "principal_determinants"),
    "poly.call": ("bscd.poly", "BivariateLaurentPoly.__call__"),
    "poly.mul": ("bscd.poly", "BivariateLaurentPoly.__mul__"),
    "cd_kernel.kernel_coefficients": ("bscd.cd_kernel", "kernel_coefficients"),
    "cd_kernel.cofactor_decomposition": ("bscd.cd_kernel", "cofactor_decomposition"),
    "cd_kernel.kernel_by_divided_difference": (
        "bscd.cd_kernel",
        "kernel_by_divided_difference",
    ),
    "subspaces.closed_form_kernel_pairing": ("bscd.subspaces", "closed_form_kernel_pairing"),
    "subspaces.orthogonality_report": ("bscd.subspaces", "orthogonality_report"),
    "subspaces.shift_orthogonality_report": ("bscd.subspaces", "shift_orthogonality_report"),
    "subspaces.cd_formula_residual": ("bscd.subspaces", "cd_formula_residual"),
    "subspaces.gram_matrix": ("bscd.subspaces", "gram_matrix"),
    "parametric.parametric_polynomials": ("bscd.parametric", "parametric_polynomials"),
    "parametric.lu_no_pivot": ("bscd.parametric", "lu_no_pivot"),
    "parametric.orthogonality_check": ("bscd.parametric", "orthogonality_check"),
    "parametric.moment_vanishing": ("bscd.parametric", "moment_vanishing"),
}

# spans whose return values are kept, for counters that need them
KEEP_RESULTS = frozenset({"parametric.moment_vanishing"})

MARK = "__bench_span__"


class SpanStats:
    """Folded spans of one name."""

    __slots__ = ("calls", "total_s", "self_s", "errors", "results")

    def __init__(self, keep_results: bool):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors: dict[str, int] = {}  # exception type name -> count
        self.results: list | None = [] if keep_results else None


def _bscd_namespaces():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "bscd" or name.startswith("bscd.")
    ]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def installed() -> list[str]:
    """Dotted names of every span wrapper currently bound in a bscd namespace."""
    found = []
    for mod in _bscd_namespaces():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(
                    f"{mod.__name__}.{attr}.{meth}"
                    for meth, fn in vars(value).items()
                    if hasattr(fn, MARK)
                )
    return found


class Tracer:
    """Installs span wrappers on :data:`TARGETS` and folds what they record.

    Use as a context manager; leaving it restores every original binding.
    """

    def __init__(self):
        self.stats = {name: SpanStats(name in KEEP_RESULTS) for name in TARGETS}
        # (parent span name or None, child span name) -> calls
        self.edges: dict[tuple[str | None, str], int] = {}
        # summed duration of the spans opened with no span open
        self.outermost_s = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name, (module, attr) in TARGETS.items():
                owner, leaf = _resolve(module, attr)
                original = vars(owner)[leaf]
                wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    bindings = [(owner, leaf)]
                else:
                    bindings = [
                        (mod, key)
                        for mod in _bscd_namespaces()
                        for key, value in vars(mod).items()
                        if value is original
                    ]
                for target, key in bindings:
                    setattr(target, key, wrapper)
                    self._patches.append((target, key, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        edges = self.edges
        results = stats.results
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]  # span name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                kind = type(exc).__name__
                stats.errors[kind] = stats.errors.get(kind, 0) + 1
                raise
            else:
                if results is not None:
                    results.append(result)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    key = (parent[0], name)
                else:
                    self.outermost_s += duration
                    key = (None, name)
                edges[key] = edges.get(key, 0) + 1

        setattr(traced, MARK, name)
        return traced
