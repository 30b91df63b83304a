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
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair, coefficient_matrix
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
        assert len(report.pivots) == deg.m
        for value in report.pivots:
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


def draw(n, m):
    p, deg = random_stable_poly(n, m, np.random.default_rng(1))
    table = moments_from_grid(p, orthogonality_window(deg, MARGIN, SHIFT_MAX))
    return p, deg, cd_kernel_set(p, deg), table


@pytest.fixture(scope="module")
def degree_eight():
    return draw(8, 8)


def complement_spec(deg):
    n, m = deg
    return SubspaceSpec(monomial_rect(0, n, 0, m - 1), monomial_rect(0, n - 1, 0, m - 1))


def rectangle(deg):
    """The z- and w-ranges :func:`orthogonality_report` checks."""
    n, m = deg
    i_range = range(min(-(n + MARGIN), n - 2 * MARGIN), max(2 * n + MARGIN, n + 2 * MARGIN) + 1)
    return i_range, range(-(m + MARGIN), 2 * m + MARGIN + 1)


def a_family(j, m):
    return "lower_quadrant" if j < 0 else "strip" if j < m else "upper_quadrant"


def reference_orthogonality_pairs(deg, ks, table):
    """``(family, (k, i, j)) -> <a_k, z^i w^j>``, one ``inner_product`` each."""
    i_range, j_range = rectangle(deg)
    pairs = {}
    for k, ak in enumerate(ks.a):
        for i in i_range:
            for j in j_range:
                if in_coefficient_orthogonality_set(i, j, k, deg):
                    value = inner_product(ak, Poly.monomial(i, j), table)
                    pairs[a_family(j, deg.m), (k, i, j)] = value
    return pairs


def reference_duality_pairs(deg, ks, table):
    """``(j1, k1, j2, k2) -> <z^(j1+n) w^k1, z^j2 a_k2>`` for shifts up to the margin."""
    n, m = deg
    pairs = {}
    for j1 in range(-MARGIN, MARGIN + 1):
        for k1 in range(m):
            for j2 in range(-MARGIN, MARGIN + 1):
                for k2 in range(m):
                    if (j1, k1) != (j2, k2):
                        value = inner_product(
                            Poly.monomial(j1 + n, k1), ks.a[k2].shift(j2, 0), table
                        )
                        pairs[j1, k1, j2, k2] = value
    return pairs


def reference_shift_pairs(deg, ks, table):
    n, m = deg
    pairs = {}
    for s in range(SHIFT_MAX + 1):
        for k, ak in enumerate(ks.a):
            for i in range(-(n + MARGIN), n):
                for j in range(0, m + MARGIN + 1):
                    value = inner_product(ak.shift(s, 0), Poly.monomial(i, j), table)
                    pairs["shift", (s, k, i, j)] = value
    basis = orthonormal_complement_basis(complement_spec(deg), table)
    for s in range(1, SHIFT_MAX + 1):
        for bi, phi_i in enumerate(basis):
            for bj, phi_j in enumerate(basis):
                value = inner_product(phi_i.shift(s, 0), phi_j, table)
                pairs["complement_shift", (s, bi, bj)] = value
    return pairs


def family_values(report):
    """Every pairing of a report, keyed by its family and index row."""
    return {
        (name, tuple(row)): value
        for name, family in report.families.items()
        for row, value in zip(family.index.tolist(), family.values)
    }


def assert_same_pairs(report, reference, tol):
    got = family_values(report)
    assert got.keys() == reference.keys()
    assert max(abs(got[key] - want) for key, want in reference.items()) < tol


def test_batched_reports_match_per_pair_definitions(degree_eight):
    p, deg, ks, table = degree_eight
    tol = 1e-13 * min(norm(ak, table) for ak in ks.a)
    report = orthogonality_report(p, deg, ks, table, margin=MARGIN)
    assert_same_pairs(report, reference_orthogonality_pairs(deg, ks, table), tol)
    shifts = shift_orthogonality_report(p, deg, ks, table, shift_max=SHIFT_MAX, margin=MARGIN)
    assert_same_pairs(shifts, reference_shift_pairs(deg, ks, table), tol)


@pytest.mark.parametrize("n", [2, 8])
def test_every_duality_relation_is_a_strip_pairing(n, degree_eight):
    # n = 2 < margin: the duality shifts reach past -(n + margin) <= i <= 2n + margin
    p, deg, ks, table = degree_eight if n == 8 else draw(n, n)
    strip = orthogonality_report(p, deg, ks, table, margin=MARGIN).families["strip"]
    values = dict(zip(map(tuple, strip.index.tolist()), strip.values))
    tol = 1e-13 * min(norm(ak, table) for ak in ks.a)
    duals = reference_duality_pairs(deg, ks, table)
    assert len(duals) == ((2 * MARGIN + 1) * deg.m) ** 2 - (2 * MARGIN + 1) * deg.m
    for (j1, k1, j2, k2), value in duals.items():
        # <z^(j1+n) w^k1, z^j2 a_k2> = conj(<a_k2, z^(n+j1-j2) w^k1>)
        key = (k2, deg.n + j1 - j2, k1)
        assert key in values
        assert abs(value - np.conj(values[key])) < tol


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
    expected = expected_counts(deg)
    assert sum(f.values.size for f in report.families.values()) == sum(
        expected[name] for name in report.families
    )
    # the pivots come from the same lag matrix
    assert len(report.pivots) == deg.m
    assert calls == {"inner_product": 0, "lag_matrix": 1}
    calls["lag_matrix"] = 0
    shifts = shift_orthogonality_report(p, deg, ks, table, shift_max=SHIFT_MAX, margin=MARGIN)
    assert sum(f.values.size for f in shifts.families.values()) == sum(
        expected[name] for name in shifts.families
    )
    # the window, the nested Gram, the projections, the complement Gram and
    # one matrix per shift
    assert calls == {"inner_product": 0, "lag_matrix": 4 + SHIFT_MAX}


def expected_counts(deg):
    """Each family's count from the index sets alone, without reading a report."""
    n, m = deg
    i_range, j_range = rectangle(deg)
    annihilated = [
        a_family(j, m)
        for k in range(m)
        for i in i_range
        for j in j_range
        if in_coefficient_orthogonality_set(i, j, k, deg)
    ]
    names = ("strip", "lower_quadrant", "upper_quadrant")
    counts = {name: annihilated.count(name) for name in names}
    counts["shift"] = (SHIFT_MAX + 1) * m * (2 * n + MARGIN) * (m + MARGIN + 1)
    # the complement of the one-step-smaller box has dimension m
    counts["complement_shift"] = SHIFT_MAX * m * m
    return counts


def both_reports(p, deg, ks, table):
    base = orthogonality_report(p, deg, ks, table, margin=MARGIN)
    shifts = shift_orthogonality_report(p, deg, ks, table, shift_max=SHIFT_MAX, margin=MARGIN)
    return base, shifts, {**base.families, **shifts.families}


def test_relation_families_partition_the_pairs(degree_eight):
    p, deg, ks, table = degree_eight
    base, shifts, families = both_reports(p, deg, ks, table)
    scale = min(norm(ak, table) for ak in ks.a)
    summaries = {name: f.summary(scale) for name, f in families.items()}
    assert {name: s["count"] for name, s in summaries.items()} == expected_counts(deg)
    # no pairing is in two families
    assert len(family_values(base)) + len(family_values(shifts)) == sum(
        s["count"] for s in summaries.values()
    )
    # the largest family maximum is the suites' normalized maximum, to the bit
    overall = max(base.max_violation, shifts.max_violation) / scale
    assert max(s["max"] for s in summaries.values()) == overall
    for name, s in summaries.items():
        family = families[name]
        labels = [family.label(*row) for row in family.index.tolist()]
        assert abs(family.values[labels.index(s["argmax"])]) / scale == s["max"]


def test_small_degrees_check_the_whole_rectangle():
    # below n = margin the rectangle is wider than -(n + margin) <= i <= 2n + margin
    p, deg, ks, table = draw(1, 1)
    _, _, families = both_reports(p, deg, ks, table)
    counts = {name: f.values.size for name, f in families.items()}
    assert counts == expected_counts(deg)
    assert (counts["strip"], counts["lower_quadrant"], counts["upper_quadrant"]) == (16, 40, 48)


def test_orthogonality_set_predicate_is_its_own_mask():
    deg = DegreePair(3, 2)
    i, j, k = np.meshgrid(range(-6, 10), range(-5, 8), range(2), indexing="ij")
    mask = in_coefficient_orthogonality_set(i, j, k, deg)
    scalar = [
        in_coefficient_orthogonality_set(int(a), int(b), int(c), deg)
        for a, b, c in zip(i.ravel(), j.ravel(), k.ravel())
    ]
    assert all(type(value) is bool for value in scalar)
    assert mask.ravel().tolist() == scalar


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


def pairwise_kernel_residual(p, deg, moments, functions, points):
    """The two maxima of :func:`closed_form_kernel_residual`, one
    :func:`closed_form_kernel_pairing` call per (function, point) pair."""
    n, m = deg
    reproducing_max = projection_max = 0.0
    for f in functions:
        box = f.support_box
        member = not f.coeffs[max(n - box[0], 0) :, max(m - box[2], 0) :].any()
        if not member:
            W = [
                (i, j)
                for i in range(box[1] + 1)
                for j in range(box[3] + 1)
                if not (i >= n and j >= m)
            ]
            B = subspaces._complement_coefficients(SubspaceSpec(tuple(W)), moments)
            support, coeffs = coefficient_matrix([f])
            r = (moments.lag_matrix(W, support) @ coeffs)[:, 0]
            x = B @ (B.conj().T @ r)
        for y in points:
            paired = closed_form_kernel_pairing(p, deg, f, y)
            if member:
                reproducing_max = np.maximum(reproducing_max, abs(paired - f(*y)))
            else:
                projected = sum(
                    coeff * complex(y[0]) ** i * complex(y[1]) ** j
                    for coeff, (i, j) in zip(x, W)
                )
                projection_max = np.maximum(projection_max, abs(paired - projected))
    return float(reproducing_max), float(projection_max)


@pytest.mark.parametrize("case", ["worked", "random_2_1"])
def test_batched_kernel_quadrature_matches_one_pair_at_a_time(
    case, worked_moments, random_family_with_moments
):
    if case == "worked":
        p, deg, table = WORKED, WORKED_DEG, worked_moments
    else:
        p, deg, table = random_family_with_moments[1]
        assert deg.n != deg.m
    functions = default_lshape_monomials(deg, 4)
    functions += [Poly.monomial(deg.n, deg.m), Poly.monomial(deg.n + 1, deg.m)]
    rng = np.random.default_rng(37)
    points = [
        (0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
         0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        for _ in range(3)
    ]
    result = closed_form_kernel_residual(p, deg, table, functions, points)
    reproducing_max, projection_max = pairwise_kernel_residual(p, deg, table, functions, points)
    assert result["reproducing_max"] == reproducing_max
    assert result["projection_max"] == projection_max
    assert 0.0 < projection_max and 0.0 < reproducing_max


def test_kernel_residual_builds_each_torus_grid_once(worked_moments, monkeypatch):
    built = []
    build = subspaces.torus_grid_values

    def counted(poly, size):
        built.append(poly)
        return build(poly, size)

    monkeypatch.setattr(subspaces, "torus_grid_values", counted)
    functions = default_lshape_monomials(WORKED_DEG, 3) + [Poly.monomial(1, 1)]
    points = [(0.3, 0.4), (-0.2j, 0.1), (0.5, -0.5)]
    closed_form_kernel_residual(WORKED, WORKED_DEG, worked_moments, functions, points)
    # p and its reflection once per call, each function once: 2 + F, not 2 + F P
    assert len(built) == 2 + len(functions)
