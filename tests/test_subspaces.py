"""Reproducing kernels, reconstruction, orthogonality windows, CD formula."""

import numpy as np
import pytest

from bscd import measure, subspaces
from bscd.cd_kernel import cd_kernel_set
from bscd.errors import (
    DegenerateDegree,
    IllConditionedGram,
    WindowTooSmall,
)
from bscd.measure import (
    MomentTable,
    inner_product,
    moments_from_grid,
    norm,
    random_stable_poly,
)
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair
from bscd.schur_cohn import diagonal_average, schur_cohn_matrix
from bscd.subspaces import (
    KernelEvaluator,
    SubspaceSpec,
    cd_formula_residual,
    closed_form_kernel_pairing,
    closed_form_kernel_residual,
    default_lshape_monomials,
    gram_matrix,
    in_coefficient_orthogonality_set,
    kernel_pivot_values,
    monomial_rect,
    orthogonality_report,
    orthogonality_window,
    reconstruct_kernel_coefficients,
    shift_orthogonality_report,
)

from conftest import WORKED, WORKED_DEG

A0_WORKED = Poly({(0, 0): -3, (1, 0): 9, (2, 0): -3})


def orthonormal_complement_basis(spec, moments):
    """The orthonormal basis of ``span(S1) - span(S2)`` as explicit polynomials."""
    basis = subspaces._complement_coefficients(spec, moments)
    return [Poly(dict(zip(spec.S1, column))) for column in basis.T]


def kernel_section(K, y):
    """The polynomial ``K(., y)`` of a kernel evaluator; pairing with it reproduces."""
    phi_y = subspaces._monomial_values(K.spec.S1, y) @ K.basis
    return Poly(dict(zip(K.spec.S1, K.basis @ np.conj(phi_y))))


# ----------------------------------------------------------------------
# Gram matrices and reproducing kernels
# ----------------------------------------------------------------------


def test_gram_for_lebesgue_measure_is_identity():
    table = moments_from_grid(Poly.constant(1), (3, 3))
    G = gram_matrix([(0, 0), (1, 0)], table)
    assert np.max(np.abs(G - np.eye(2))) < 1e-14


def test_gram_for_univariate_geometric_measure():
    table = moments_from_grid(Poly({(0, 0): 2, (1, 0): -1}), (3, 0))
    G = gram_matrix([(0, 0), (1, 0)], table)
    expected = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    assert np.max(np.abs(G - expected)) < 1e-12


def test_trivial_kernel_is_constant_one():
    table = moments_from_grid(Poly.constant(1), (3, 3))
    K = KernelEvaluator(SubspaceSpec(((0, 0),)), table)
    for x in ((0.3, 0.1), (0.9j, -0.4)):
        assert K.evaluate(x, (0.2, 0.7j)) == pytest.approx(1.0, abs=1e-14)


def test_reproducing_property_on_full_and_difference_spans(worked_moments):
    rng = np.random.default_rng(31)
    spec = SubspaceSpec(monomial_rect(0, 2, 0, 1), monomial_rect(0, 0, 0, 1))
    K = KernelEvaluator(spec, worked_moments)
    basis = orthonormal_complement_basis(spec, worked_moments)
    for _ in range(5):
        coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        f = Poly.zero()
        for c, phi in zip(coeffs, basis):
            f = f + phi.scale(c)
        y = (0.5 * np.exp(2j * np.pi * rng.uniform()), 0.6 * np.exp(2j * np.pi * rng.uniform()))
        paired = inner_product(f, kernel_section(K, y), worked_moments)
        assert abs(paired - f(*y)) < 1e-9


def difference_of_inverses_kernel(spec, moments, x, y):
    """The Gram form ``v1(x)^T G1^{-1} conj(v1(y)) - v2(x)^T G2^{-1} conj(v2(y))``."""

    def span_term(S):
        if not S:
            return 0j
        vx = np.array([complex(x[0]) ** i * complex(x[1]) ** j for i, j in S])
        vy = np.array([complex(y[0]) ** i * complex(y[1]) ** j for i, j in S])
        return complex(vx @ np.linalg.inv(gram_matrix(S, moments)) @ np.conj(vy))

    return span_term(spec.S1) - span_term(spec.S2)


def test_kernel_equals_orthonormal_basis_sum(worked_moments):
    rng = np.random.default_rng(32)
    spec = SubspaceSpec(monomial_rect(0, 2, 0, 1), monomial_rect(0, 1, 0, 0))
    K = KernelEvaluator(spec, worked_moments)
    basis = orthonormal_complement_basis(spec, worked_moments)
    for _ in range(10):
        x = (rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
        y = (rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
        direct = K.evaluate(x, y)
        summed = sum(phi(*x) * np.conj(phi(*y)) for phi in basis)
        reference = difference_of_inverses_kernel(spec, worked_moments, x, y)
        assert abs(direct - summed) < 1e-10 * max(1.0, abs(direct))
        assert abs(direct - reference) < 1e-10 * max(1.0, abs(direct))


def test_corner_value_of_first_difference_kernel(worked_moments):
    # span{1, z} minus span{1}: exact moments give (9 - 3 sqrt 5) / 2 at the
    # origin; the frequently-guessed value a0(0)^2/9 = 1 is not the kernel
    # of this two-monomial span (it would need a z^2 component).
    K = KernelEvaluator(
        SubspaceSpec(monomial_rect(0, 1, 0, 0), monomial_rect(0, 0, 0, 0)),
        worked_moments,
    )
    expected = (9 - 3 * np.sqrt(5)) / 2
    assert K.evaluate((0, 0), (0, 0)) == pytest.approx(expected, abs=1e-9)


# ----------------------------------------------------------------------
# Reconstruction from orthogonality
# ----------------------------------------------------------------------


def test_reconstruct_worked_example(worked_moments):
    T = schur_cohn_matrix(WORKED, WORKED_DEG)
    (rec,) = reconstruct_kernel_coefficients(WORKED, WORKED_DEG, worked_moments, T)
    assert (rec - A0_WORKED).max_abs() < 1e-9


def test_reconstruct_univariate_constant():
    p = Poly({(0, 0): 2, (0, 1): -1})
    table = moments_from_grid(p, (2, 3))
    T = schur_cohn_matrix(p, DegreePair(0, 1))
    (rec,) = reconstruct_kernel_coefficients(p, DegreePair(0, 1), table, T)
    assert (rec - Poly.constant(3)).max_abs() < 1e-10


def test_reconstruct_matches_matrix_route(random_family_with_moments, random_kernelsets):
    for (p, deg, table), ks in zip(random_family_with_moments, random_kernelsets):
        T = schur_cohn_matrix(p, deg)
        rebuilt = reconstruct_kernel_coefficients(p, deg, table, T)
        assert len(rebuilt) == deg.m
        for k, rec in enumerate(rebuilt):
            # both normalizations make <a_k, z^n w^k> real positive, so the
            # unimodular ambiguity is already aligned
            assert (rec - ks.a[k]).max_abs() < 1e-8 * max(1.0, ks.a[k].max_abs())
            norm2 = inner_product(ks.a[k], ks.a[k], table).real
            assert abs(norm2 - diagonal_average(T, k)) < 1e-8


# ----------------------------------------------------------------------
# Orthogonality windows
# ----------------------------------------------------------------------


def test_worked_example_annihilated_monomials(worked_moments, worked_kernelset):
    a0 = worked_kernelset.a[0]
    for i in (0, 2, 3):
        assert abs(inner_product(a0, Poly.monomial(i, 0), worked_moments)) < 1e-10
    assert abs(inner_product(a0, Poly.monomial(0, 1), worked_moments)) < 1e-10
    assert abs(inner_product(a0, Poly.monomial(0, 2), worked_moments)) < 1e-10
    assert abs(inner_product(a0, Poly.monomial(2, -1), worked_moments)) < 1e-10
    # the one pairing that must survive
    assert inner_product(a0, Poly.monomial(1, 0), worked_moments) == pytest.approx(
        1.0, abs=1e-10
    )


def test_orthogonality_set_membership():
    deg = DegreePair(1, 1)
    assert in_coefficient_orthogonality_set(0, 0, 0, deg)
    assert in_coefficient_orthogonality_set(2, -1, 0, deg)
    assert in_coefficient_orthogonality_set(0, 1, 0, deg)
    assert not in_coefficient_orthogonality_set(1, 0, 0, deg)
    assert not in_coefficient_orthogonality_set(-1, -1, 0, deg)


def test_orthogonality_report_on_random_family(
    random_family_with_moments, random_kernelsets
):
    for (p, deg, table), ks in zip(random_family_with_moments, random_kernelsets):
        report = orthogonality_report(p, deg, ks, table, margin=4)
        scale = min(norm(ak, table) for ak in ks.a)
        assert report.max_violation < 1e-8 * scale
        for value in kernel_pivot_values(ks, table):
            assert value == pytest.approx(1.0, abs=1e-9)


def in_kernel_orthogonality_set(i, j, deg):
    """Membership in the set annihilated by the full parametrized kernel."""
    n, m = deg
    return (i > n and j < 0) or (i != n and 0 <= j < m) or (i < n and j >= m)


def test_parameter_sum_orthogonality(random_family_with_moments, random_kernelsets):
    # the kernel set lies inside every coefficient set, so the pairings of
    # the kernel sum_k conj(eta)^k a_k are sums of pairings that
    # orthogonality_report checks
    rng = np.random.default_rng(33)
    (p, deg, table), ks = random_family_with_moments[3], random_kernelsets[3]
    n, m = deg
    window = [
        (i, j)
        for i in range(-(n + 4), 2 * n + 5)
        for j in range(-(m + 4), 2 * m + 5)
        if in_kernel_orthogonality_set(i, j, deg)
    ]
    assert all(in_coefficient_orthogonality_set(i, j, k, deg) for i, j in window for k in range(m))
    scale = min(norm(ak, table) for ak in ks.a)
    for _ in range(10):
        eta = complex(rng.normal(), rng.normal()) * 0.7
        kernel = ks.parameter_sum(eta)
        worst = max(abs(inner_product(kernel, Poly.monomial(i, j), table)) for i, j in window)
        assert worst < 1e-8 * scale * max(1.0, abs(eta) ** m)


def test_shift_orthogonality(random_family_with_moments, random_kernelsets):
    for (p, deg, table), ks in zip(
        random_family_with_moments[:3], random_kernelsets[:3]
    ):
        report = shift_orthogonality_report(p, deg, ks, table, shift_max=2, margin=4)
        scale = min(norm(ak, table) for ak in ks.a)
        assert report.max_violation < 1e-8 * max(1.0, scale)


def test_worked_example_shift_values(worked_moments, worked_kernelset):
    a0 = worked_kernelset.a[0]
    for j in range(5):
        assert abs(inner_product(a0, Poly.monomial(0, j), worked_moments)) < 1e-10
    assert abs(inner_product(a0.shift(1, 0), Poly.monomial(0, 3), worked_moments)) < 1e-10


def test_shifted_family_spans_complement(random_family_with_moments, random_kernelsets):
    # inner products of z^s a_k against the strip monomials starting at z^n
    # form a matrix of full row rank (the span identity's converse half)
    (p, deg, table), ks = random_family_with_moments[1], random_kernelsets[1]
    n, m = deg
    S = 2
    rows = []
    for s in range(S + 1):
        for k in range(m):
            shifted = ks.a[k].shift(s, 0)
            rows.append(
                [
                    inner_product(shifted, Poly.monomial(i, j), table)
                    for i in range(n, S + 2 * n + 1)
                    for j in range(m)
                ]
            )
    sigma = np.linalg.svd(np.array(rows), compute_uv=False)
    assert sigma[-1] > 1e-8


# ----------------------------------------------------------------------
# Batched reports against their per-pair definitions, at degree (8, 8)
# ----------------------------------------------------------------------

MARGIN, SHIFT_MAX = 4, 2


@pytest.fixture(scope="module")
def degree_eight():
    p, deg = random_stable_poly(8, 8, np.random.default_rng(1))
    table = moments_from_grid(p, orthogonality_window(deg, MARGIN, SHIFT_MAX))
    return p, deg, cd_kernel_set(p, deg), table


def complement_spec(deg):
    n, m = deg
    return SubspaceSpec(monomial_rect(0, n, 0, m - 1), monomial_rect(0, n - 1, 0, m - 1))


def reference_orthogonality_pairs(deg, ks, table):
    n, m = deg
    pairs = []
    for k, ak in enumerate(ks.a):
        for i in range(-(n + MARGIN), 2 * n + MARGIN + 1):
            for j in range(-(m + MARGIN), 2 * m + MARGIN + 1):
                if in_coefficient_orthogonality_set(i, j, k, deg):
                    value = inner_product(ak, Poly.monomial(i, j), table)
                    pairs.append((f"a_{k}", (i, j), value))
    for j1 in range(-MARGIN, MARGIN + 1):
        for k1 in range(m):
            for j2 in range(-MARGIN, MARGIN + 1):
                for k2 in range(m):
                    if (j1, k1) != (j2, k2):
                        value = inner_product(
                            Poly.monomial(j1 + n, k1), ks.a[k2].shift(j2, 0), table
                        )
                        pairs.append((f"dual[{j1},{k1};{j2},{k2}]", (j1 + n, k1), value))
    return pairs


def reference_shift_pairs(deg, ks, table):
    n, m = deg
    pairs = []
    for s in range(SHIFT_MAX + 1):
        for k, ak in enumerate(ks.a):
            for i in range(-(n + MARGIN), n):
                for j in range(0, m + MARGIN + 1):
                    value = inner_product(ak.shift(s, 0), Poly.monomial(i, j), table)
                    pairs.append((f"z^{s}a_{k}", (i, j), value))
    basis = orthonormal_complement_basis(complement_spec(deg), table)
    for s in range(1, SHIFT_MAX + 1):
        for bi, phi_i in enumerate(basis):
            for bj, phi_j in enumerate(basis):
                value = inner_product(phi_i.shift(s, 0), phi_j, table)
                pairs.append((f"z^{s}H[{bi}]|H[{bj}]", (s, 0), value))
    return pairs


def assert_same_pairs(report, reference, tol):
    assert [(label, ij) for label, ij, _ in report.pairs] == [
        (label, ij) for label, ij, _ in reference
    ]
    values = zip(report.pairs, reference)
    worst = max(abs(got - want) for (_, _, got), (_, _, want) in values)
    assert worst < tol


def test_batched_reports_match_per_pair_definitions(degree_eight):
    p, deg, ks, table = degree_eight
    tol = 1e-13 * min(norm(ak, table) for ak in ks.a)
    report = orthogonality_report(p, deg, ks, table, margin=MARGIN)
    assert_same_pairs(report, reference_orthogonality_pairs(deg, ks, table), tol)
    shifts = shift_orthogonality_report(p, deg, ks, table, shift_max=SHIFT_MAX, margin=MARGIN)
    assert_same_pairs(shifts, reference_shift_pairs(deg, ks, table), tol)


def test_batched_reports_read_few_lag_matrices(degree_eight, monkeypatch):
    p, deg, ks, table = degree_eight
    calls = {"inner_product": 0, "lag_matrix": 0}
    pair, lag_matrix = measure.inner_product, MomentTable.lag_matrix

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    counted_pair = counted("inner_product", pair)
    for module in (measure, subspaces):
        monkeypatch.setattr(module, "inner_product", counted_pair, raising=False)
    monkeypatch.setattr(MomentTable, "lag_matrix", counted("lag_matrix", lag_matrix))
    report = orthogonality_report(p, deg, ks, table, margin=MARGIN)
    assert len(report.pairs) > 10_000
    assert calls == {"inner_product": 0, "lag_matrix": 1}
    calls["lag_matrix"] = 0
    shifts = shift_orthogonality_report(p, deg, ks, table, shift_max=SHIFT_MAX, margin=MARGIN)
    assert len(shifts.pairs) > 3_000
    # the window, the nested Gram, the projections, the complement Gram and
    # one matrix per shift
    assert calls == {"inner_product": 0, "lag_matrix": 4 + SHIFT_MAX}


def test_relation_families_partition_the_pairs(degree_eight):
    p, deg, ks, table = degree_eight
    n, m = deg
    base = orthogonality_report(p, deg, ks, table, margin=MARGIN)
    shifts = shift_orthogonality_report(p, deg, ks, table, shift_max=SHIFT_MAX, margin=MARGIN)
    pairs = base.pairs + shifts.pairs
    scale = min(norm(ak, table) for ak in ks.a)
    families = subspaces.relation_families(deg, pairs, scale)
    # counts from the index sets alone, without reading any label
    window = [
        j
        for k in range(m)
        for i in range(-(n + MARGIN), 2 * n + MARGIN + 1)
        for j in range(-(m + MARGIN), 2 * m + MARGIN + 1)
        if in_coefficient_orthogonality_set(i, j, k, deg)
    ]
    duals = (2 * MARGIN + 1) * m
    expected = {
        "strip": sum(0 <= j < m for j in window),
        "lower_quadrant": sum(j < 0 for j in window),
        "upper_quadrant": sum(j >= m for j in window),
        "duality": duals * (duals - 1),
        "shift": (SHIFT_MAX + 1) * m * (2 * n + MARGIN) * (m + MARGIN + 1),
        # the complement of the one-step-smaller box has dimension m
        "complement_shift": SHIFT_MAX * m * m,
    }
    assert {name: f["count"] for name, f in families.items()} == expected
    assert sum(expected.values()) == len(pairs)
    # the largest family maximum is the suite's normalized maximum, to the bit
    overall = max(base.max_violation, shifts.max_violation) / scale
    assert max(f["max"] for f in families.values()) == overall
    values = {(label, ij): value for label, ij, value in pairs}
    for f in families.values():
        label, i, j = f["argmax"]
        assert abs(values[label, (i, j)]) / scale == f["max"]


def test_complement_basis_is_orthonormal_at_degree_eight(degree_eight):
    _, deg, _, table = degree_eight
    basis = orthonormal_complement_basis(complement_spec(deg), table)
    assert len(basis) == deg.m
    G = np.array([[inner_product(c, r, table) for c in basis] for r in basis])
    assert np.max(np.abs(G - np.eye(len(basis)))) < 1e-12


def test_orthogonality_window_is_what_the_reports_read():
    p, deg = random_stable_poly(2, 2, np.random.default_rng(7))
    ks = cd_kernel_set(p, deg)
    A, B = orthogonality_window(deg, MARGIN, SHIFT_MAX)
    assert (A, B) == (12, 8)

    def run_both(window):
        table = moments_from_grid(p, window)
        orthogonality_report(p, deg, ks, table, margin=MARGIN)
        shift_orthogonality_report(p, deg, ks, table, shift_max=SHIFT_MAX, margin=MARGIN)

    run_both((A, B))
    for short in ((A - 1, B), (A, B - 1)):
        with pytest.raises(WindowTooSmall, match="needed"):
            run_both(short)


# ----------------------------------------------------------------------
# Christoffel-Darboux formula
# ----------------------------------------------------------------------


def test_cd_formula_origin_value(worked_moments):
    pr = WORKED.reflect(WORKED_DEG)
    lhs = WORKED(0, 0) * np.conj(WORKED(0, 0)) - pr(0, 0) * np.conj(pr(0, 0))
    assert lhs == pytest.approx(9.0, abs=1e-12)
    result = cd_formula_residual(WORKED, WORKED_DEG, worked_moments, [(0, 0, 0, 0)])
    assert result["max_residual"] < 1e-10


def test_cd_formula_on_random_points(random_family_with_moments):
    rng = np.random.default_rng(34)
    for p, deg, table in random_family_with_moments:
        points = [
            tuple(
                np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4))
            )
            for _ in range(100)
        ]
        assert cd_formula_residual(p, deg, table, points)["max_residual"] < 1e-9


def test_stacked_kernel_values_are_the_per_point_values(random_family_with_moments):
    rng = np.random.default_rng(35)
    for p, deg, table in random_family_with_moments:
        n, m = deg
        K = KernelEvaluator(
            SubspaceSpec(monomial_rect(0, n, 0, m - 1), monomial_rect(0, n - 1, 0, m - 1)),
            table,
        )
        z, w, z1, w1 = np.sqrt(rng.uniform(size=(4, 30))) * np.exp(
            2j * np.pi * rng.uniform(size=(4, 30))
        )
        stacked = K.evaluate((z, w), (z1, w1))
        assert stacked.shape == (30,)
        for k in range(30):
            single = K.evaluate((z[k], w[k]), (z1[k], w1[k]))
            assert type(single) is complex
            assert abs(stacked[k] - single) <= 1e-12 * max(1.0, abs(single))


def test_cd_formula_needs_both_degrees(worked_moments):
    p = Poly({(0, 0): 2, (0, 1): -1})
    table = moments_from_grid(p, (2, 3))
    with pytest.raises(DegenerateDegree):
        cd_formula_residual(p, DegreePair(0, 1), table, [(0, 0, 0, 0)])


# ----------------------------------------------------------------------
# Closed-form corner kernel
# ----------------------------------------------------------------------


def test_closed_form_kernel_reproduces_constants(worked_moments):
    value = closed_form_kernel_pairing(WORKED, WORKED_DEG, Poly.constant(1), (0.2, -0.3j))
    assert value == pytest.approx(1.0, abs=1e-11)


def test_closed_form_kernel_projection_of_corner_monomial(worked_moments):
    # the pairing against z w equals its projection (z + w)/3, not its value
    y = (0.3, 0.4)
    paired = closed_form_kernel_pairing(WORKED, WORKED_DEG, Poly.monomial(1, 1), y)
    assert paired == pytest.approx((y[0] + y[1]) / 3, abs=1e-11)
    assert abs(paired - (y[0] * y[1])) > 0.1


def test_closed_form_kernel_residual_suite(worked_moments):
    rng = np.random.default_rng(35)
    functions = default_lshape_monomials(WORKED_DEG, 10)
    functions.append(Poly.monomial(1, 1))
    points = [
        (0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
         0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        for _ in range(10)
    ]
    result = closed_form_kernel_residual(
        WORKED, WORKED_DEG, worked_moments, functions, points
    )
    assert result["max_residual"] < 1e-8


def test_kernel_projection_checks_the_gram_condition(worked_moments, monkeypatch):
    # z w lies in the removed corner, so its projection needs a Gram solve
    functions = [Poly.monomial(1, 1)]
    points = [(0.3, 0.4)]
    closed_form_kernel_residual(WORKED, WORKED_DEG, worked_moments, functions, points)
    monkeypatch.setattr(subspaces, "GRAM_CONDITION_CAP", 1.0)
    with pytest.raises(IllConditionedGram, match="Gram spectrum"):
        closed_form_kernel_residual(WORKED, WORKED_DEG, worked_moments, functions, points)


def test_corner_adjacent_monomial_is_reproduced(random_family_with_moments):
    # z w^m sits inside the L-shaped span whenever n >= 2
    p, deg, table = random_family_with_moments[3]
    assert deg.n >= 2
    f = Poly.monomial(1, deg.m)
    y = (0.35, -0.2 + 0.3j)
    paired = closed_form_kernel_pairing(p, deg, f, y)
    assert abs(paired - f(*y)) < 1e-10


def test_closed_form_kernel_residual_random(random_family_with_moments):
    rng = np.random.default_rng(36)
    p, deg, table = random_family_with_moments[3]
    functions = default_lshape_monomials(deg, 8)
    functions.append(Poly.monomial(deg.n, deg.m))
    points = [
        (0.7 * np.exp(2j * np.pi * rng.uniform()) * np.sqrt(rng.uniform()),
         0.7 * np.exp(2j * np.pi * rng.uniform()) * np.sqrt(rng.uniform()))
        for _ in range(6)
    ]
    result = closed_form_kernel_residual(p, deg, table, functions, points)
    assert result["max_residual"] < 1e-8
