"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
of every criterion as it completes.  Criteria with runtime bounds time their
own artifact construction.
"""

import time
from contextlib import contextmanager

import numpy as np

from bscd import cli, measure
from bscd.cd_kernel import (
    cd_kernel_set,
    kernel_by_divided_difference,
    kernel_coefficients,
    slice_gram,
)
from bscd.measure import (
    check_stability,
    inner_product,
    moments_from_grid,
    moments_from_series,
    norm,
    slice_moments,
)
from bscd.parametric import moment_vanishing, orthogonality_check, parametric_polynomials
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair
from bscd.schur_cohn import evaluate_on_circle, principal_determinants, schur_cohn_matrix
from bscd.subspaces import (
    cd_formula_residual,
    closed_form_kernel_residual,
    default_lshape_monomials,
    orthogonality_report,
    reconstruct_kernel_coefficients,
)

from conftest import WORKED, WORKED_DEG, make_random_family, variant_law_residual, window_for

A0_WORKED = Poly({(0, 0): -3, (1, 0): 9, (2, 0): -3})


@contextmanager
def criterion(num: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} {label}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"\nACCEPTANCE {num} {label}: PASS ({time.perf_counter() - started:.1f}s)")


_STATE: dict = {}


def random_set():
    """Random family with moment tables and kernel sets, built once."""
    if "family" not in _STATE:
        family = []
        for p, deg in make_random_family():
            table = moments_from_grid(check_stability(p, deg), window_for(deg))
            family.append((p, deg, table, cd_kernel_set(p, deg, schur_cohn_matrix(p, deg))))
        _STATE["family"] = family
    return _STATE["family"]


def test_criterion_1_worked_example_kernel():
    with criterion(1, "worked-example kernel"):
        start = time.perf_counter()
        measure._cached_stability.cache_clear()

        stability = check_stability(WORKED, WORKED_DEG)
        assert stability.stable
        from_matrix = kernel_coefficients(schur_cohn_matrix(WORKED, WORKED_DEG))[0]
        assert (from_matrix - A0_WORKED).max_abs() <= 1e-10
        (from_quotient,) = kernel_by_divided_difference(WORKED, WORKED_DEG)
        assert (from_quotient - A0_WORKED).max_abs() <= 1e-10
        table = moments_from_grid(stability, (4, 2))
        (from_orthogonality,) = reconstruct_kernel_coefficients(
            table, schur_cohn_matrix(WORKED, WORKED_DEG)
        )
        assert (from_orthogonality - A0_WORKED).max_abs() <= 1e-10
        norm2 = inner_product(from_matrix, from_matrix, table)
        assert abs(norm2 - 9.0) <= 1e-8

        assert time.perf_counter() - start < 5.0


def test_criterion_2_moment_oracle_equivalence():
    with criterion(2, "moment oracle equivalence"):
        named = [
            (Poly({(0, 0): 4, (1, 0): -2, (0, 1): -2, (1, 1): 1}), DegreePair(1, 1)),
            (WORKED, WORKED_DEG),
            (Poly({(0, 0): 4, (1, 0): -1, (0, 1): -1, (1, 1): -1}), DegreePair(1, 1)),
        ]
        cases = named + [(p, deg) for p, deg in make_random_family()]
        for p, deg in cases:
            stability = check_stability(p, deg)
            grid = moments_from_grid(stability, (8, 8))
            series = moments_from_series(stability, (8, 8))
            assert grid.max_difference(series) <= 1e-10

        product_table = moments_from_grid(check_stability(*named[0]), (8, 8))
        for a in range(-8, 9):
            for b in range(-8, 9):
                expected = 2.0 ** (-abs(a) - abs(b)) / 9.0
                assert abs(product_table.get(a, b) - expected) <= 1e-10


def test_criterion_3_orthogonality_suite():
    with criterion(3, "coefficient orthogonality windows"):
        start = time.perf_counter()
        for p, deg, table, ks in random_set():
            scales = np.array([norm(ak, table) for ak in ks.a])
            report = orthogonality_report(ks, table)
            # each a_k family is indexed by (k, i, j): gate a_k at its own norm
            for family in report.families.values():
                k = family.index[:, 0]
                assert np.all(np.abs(family.values) < 1e-8 * scales[k])
        assert time.perf_counter() - start < 60.0


def test_criterion_4_christoffel_darboux_formula():
    with criterion(4, "bivariate Christoffel-Darboux formula"):
        pr = WORKED.reflect(WORKED_DEG)
        lhs = WORKED(0, 0) * np.conj(WORKED(0, 0)) - pr(0, 0) * np.conj(pr(0, 0))
        assert abs(lhs - 9.0) <= 1e-12

        worked = moments_from_grid(check_stability(WORKED, WORKED_DEG), (6, 6))
        cases = [(WORKED, WORKED_DEG, worked)]
        cases += [(p, deg, table) for p, deg, table, _ in random_set()]
        for p, deg, table in cases:
            result = cd_formula_residual(p, deg, table)
            assert result["max_residual"] < 1e-9


def test_criterion_5_corner_kernel_reproduces():
    with criterion(5, "closed-form kernel reproducing property"):
        rng = np.random.default_rng(102)
        worked = moments_from_grid(check_stability(WORKED, WORKED_DEG), (8, 8))
        cases = [(WORKED, WORKED_DEG, worked)]
        p4, deg4, table4, _ = random_set()[3]
        cases.append((p4, deg4, table4))
        for p, deg, table in cases:
            functions = default_lshape_monomials(deg, 10)
            points = [
                (
                    0.85 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
                    0.85 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
                )
                for _ in range(10)
            ]
            result = closed_form_kernel_residual(
                check_stability(p, deg), table, functions, points
            )
            assert result["reproducing_max"] < 1e-8


def test_criterion_6_slice_identities():
    with criterion(6, "slice identities"):
        rng = np.random.default_rng(103)
        cases = [(WORKED, WORKED_DEG, None)]
        cases += [(p, deg, ks) for p, deg, _, ks in random_set()]
        for p, deg, ks in cases:
            T = schur_cohn_matrix(p, deg)
            if ks is None:
                ks = cd_kernel_set(p, deg, T)
            stability = check_stability(p, deg)
            n, m = deg
            thetas = 2 * np.pi * np.arange(32) / 32
            gram = slice_gram(ks, slice_moments(stability, thetas, m - 1))
            assert np.max(np.abs(gram - evaluate_on_circle(T, thetas))) < 1e-9
            for theta, G in zip(thetas, gram):
                # the squared slice norm of the kernel at eta, v^H G v with
                # v_j = conj(eta)^j, is its diagonal value conj(z)^n L(z, eta; eta)
                z = np.exp(1j * theta)
                eta = complex(rng.normal(), rng.normal()) * 0.5
                v = np.conj(eta) ** np.arange(m)
                diagonal = np.conj(z) ** n * sum(aj(z, eta) * vj for aj, vj in zip(ks.a, v))
                assert abs(np.conj(v) @ G @ v - diagonal) < 1e-9
                sm = slice_moments(stability, [theta], m - 1)
                M = np.array([[sm.get(j - i)[0] for j in range(m)] for i in range(m)])
                identity_residual = np.max(
                    np.abs(evaluate_on_circle(T, [theta])[0] @ M - np.eye(m))
                )
                assert identity_residual < 1e-8


def test_criterion_7_parametric_polynomials():
    with criterion(7, "parametric slice polynomials"):
        for p, deg, _, _ in random_set():
            n, m = deg
            T = schur_cohn_matrix(p, deg)
            stability = check_stability(p, deg)
            for theta in (0.0, 0.7, 2.9):
                op = parametric_polynomials(principal_determinants(T, [theta]))
                check = orthogonality_check(op, slice_moments(stability, [theta], m - 1))
                assert check["offdiag_max"][0] < 1e-9
                assert check["lu_law_residual"][0] < 1e-9
                if m >= 2:
                    assert variant_law_residual(check, op)[0] > 1e-3
            k_lists = {j: [n * (m - j) + d for d in (1, 2, 3)] for j in range(m)}
            result = moment_vanishing(stability, k_lists, T)
            for entry in result["per_j"].values():
                assert all(abs(v) < 1e-8 for v in entry["values"])

        sharp = moment_vanishing(
            check_stability(WORKED, WORKED_DEG), {0: [1]}, schur_cohn_matrix(WORKED, WORKED_DEG)
        )["per_j"][0]
        assert abs(sharp["values"][0] - (-3.0)) <= 1e-8


def test_criterion_8_full_default_suite_runtime(tmp_path):
    with criterion(8, "full default suite on the worked example"):
        import json

        config_path = tmp_path / "worked.json"
        config_path.write_text(
            json.dumps({"polynomial": WORKED.to_json_dict(WORKED_DEG)})
        )
        start = time.perf_counter()
        reports = cli.run(cli.load_config(str(config_path)))
        elapsed = time.perf_counter() - start
        assert len(reports) == len(cli.SUITES)
        failures = {r.suite: r.details for r in reports if r.status != "pass"}
        assert not failures, failures
        assert elapsed < 60.0
