"""Reproducing kernels, reconstruction, orthogonality windows, CD formula."""

import numpy as np
import pytest

from bscd import measure, subspaces
from bscd.cd_kernel import CDKernelSet, cd_kernel_set
from bscd.cli import DEFAULT_TOLERANCES
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
    MARGIN,
    SHIFT_MAX,
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


def monomial_values(S, point):
    """The monomials of ``S`` at ``point = (z, w)``, along the last axis; ``z``
    and ``w`` may be arrays of one shape, whose axes come first."""
    z = np.asarray(point[0], dtype=complex)[..., None]
    w = np.asarray(point[1], dtype=complex)[..., None]
    exponents = np.asarray(S, dtype=int).reshape(-1, 2)
    return z ** exponents[:, 0] * w ** exponents[:, 1]


def span_kernel(spec, moments, x, y):
    """``K(x; y) = v(x) B B^H conj(v(y))``, with ``v`` the monomials of ``S1``
    and ``B`` the orthonormal basis of ``span(S1) - span(S2)`` over them."""
    B = subspaces._complement_coefficients(spec, moments)
    phi_x = monomial_values(spec.S1, x) @ B
    phi_y = monomial_values(spec.S1, y) @ B
    return np.sum(phi_x * np.conj(phi_y), axis=-1)


def kernel_section(spec, moments, y):
    """The polynomial ``K(., y)``; pairing with it reproduces."""
    B = subspaces._complement_coefficients(spec, moments)
    coeffs = B @ np.conj(monomial_values(spec.S1, y) @ B)
    return Poly(dict(zip(spec.S1, coeffs)))


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
    for x in ((0.3, 0.1), (0.9j, -0.4)):
        value = span_kernel(SubspaceSpec(((0, 0),)), table, x, (0.2, 0.7j))
        assert value == pytest.approx(1.0, abs=1e-14)


def test_reproducing_property_on_full_and_difference_spans(worked_moments):
    rng = np.random.default_rng(31)
    spec = SubspaceSpec(monomial_rect(0, 2, 0, 1), monomial_rect(0, 0, 0, 1))
    basis = orthonormal_complement_basis(spec, worked_moments)
    for _ in range(5):
        coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        f = Poly.zero()
        for c, phi in zip(coeffs, basis):
            f = f + phi.scale(c)
        y = (0.5 * np.exp(2j * np.pi * rng.uniform()), 0.6 * np.exp(2j * np.pi * rng.uniform()))
        paired = inner_product(f, kernel_section(spec, worked_moments, y), worked_moments)
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
    basis = orthonormal_complement_basis(spec, worked_moments)
    for _ in range(10):
        x = (rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
        y = (rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
        direct = span_kernel(spec, worked_moments, x, y)
        summed = sum(phi(*x) * np.conj(phi(*y)) for phi in basis)
        reference = difference_of_inverses_kernel(spec, worked_moments, x, y)
        assert abs(direct - summed) < 1e-10 * max(1.0, abs(direct))
        assert abs(direct - reference) < 1e-10 * max(1.0, abs(direct))


def test_corner_value_of_first_difference_kernel(worked_moments):
    # span{1, z} minus span{1}: exact moments give (9 - 3 sqrt 5) / 2 at the
    # origin; the frequently-guessed value a0(0)^2/9 = 1 is not the kernel
    # of this two-monomial span (it would need a z^2 component).
    spec = SubspaceSpec(monomial_rect(0, 1, 0, 0), monomial_rect(0, 0, 0, 0))
    expected = (9 - 3 * np.sqrt(5)) / 2
    value = span_kernel(spec, worked_moments, (0, 0), (0, 0))
    assert value == pytest.approx(expected, abs=1e-9)
    # the matrix form of the Christoffel-Darboux check holds the same value
    # as the coefficient of the pair (1, 1) of its first kernel
    E1 = cd_formula_residual(WORKED, WORKED_DEG, worked_moments)["E1"]
    assert E1[0, 0, 0, 0] == pytest.approx(expected, abs=1e-9)


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
        report = orthogonality_report(p, deg, ks, table)
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


def test_shift_orthogonality(random_family_with_moments):
    for p, deg, table in random_family_with_moments[:3]:
        report = shift_orthogonality_report(p, deg, table)
        assert list(report.families) == ["complement_shift"]
        assert report.max_violation < 1e-8


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

def draw(n, m):
    p, deg = random_stable_poly(n, m, np.random.default_rng(1))
    table = moments_from_grid(p, orthogonality_window(deg))
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
    i_low = min(-(n + MARGIN + SHIFT_MAX), n - 2 * MARGIN)
    i_range = range(i_low, max(2 * n + MARGIN, n + 2 * MARGIN) + 1)
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
    """``(s, k, i, j) -> <z^s a_k, z^i w^j>`` for ``i < n, j >= 0`` and shifts
    up to ``SHIFT_MAX``."""
    n, m = deg
    pairs = {}
    for s in range(SHIFT_MAX + 1):
        for k, ak in enumerate(ks.a):
            for i in range(-(n + MARGIN), n):
                for j in range(0, m + MARGIN + 1):
                    pairs[s, k, i, j] = inner_product(ak.shift(s, 0), Poly.monomial(i, j), table)
    return pairs


def reference_complement_pairs(deg, table):
    pairs = {}
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
    report = orthogonality_report(p, deg, ks, table)
    assert_same_pairs(report, reference_orthogonality_pairs(deg, ks, table), tol)
    shifts = shift_orthogonality_report(p, deg, table)
    assert_same_pairs(shifts, reference_complement_pairs(deg, table), tol)


@pytest.mark.parametrize("n", [2, 8])
def test_every_duality_relation_is_a_strip_pairing(n, degree_eight):
    # n = 2 < margin: the duality shifts reach past -(n + margin) <= i <= 2n + margin
    p, deg, ks, table = degree_eight if n == 8 else draw(n, n)
    strip = orthogonality_report(p, deg, ks, table).families["strip"]
    values = dict(zip(map(tuple, strip.index.tolist()), strip.values))
    tol = 1e-13 * min(norm(ak, table) for ak in ks.a)
    duals = reference_duality_pairs(deg, ks, table)
    assert len(duals) == ((2 * MARGIN + 1) * deg.m) ** 2 - (2 * MARGIN + 1) * deg.m
    for (j1, k1, j2, k2), value in duals.items():
        # <z^(j1+n) w^k1, z^j2 a_k2> = conj(<a_k2, z^(n+j1-j2) w^k1>)
        key = (k2, deg.n + j1 - j2, k1)
        assert key in values
        assert abs(value - np.conj(values[key])) < tol


@pytest.mark.parametrize("n", [1, 8])
def test_every_shift_relation_is_a_rectangle_pairing(n, degree_eight):
    # n = 1: the margin already reaches i = -(n + MARGIN + SHIFT_MAX); n = 8:
    # only the widened lower bound does
    p, deg, ks, table = degree_eight if n == 8 else draw(n, n)
    report = orthogonality_report(p, deg, ks, table)
    values = {key[1]: value for key, value in family_values(report).items()}
    tol = 1e-13 * min(norm(ak, table) for ak in ks.a)
    shifts = reference_shift_pairs(deg, ks, table)
    assert len(shifts) == (SHIFT_MAX + 1) * deg.m * (2 * deg.n + MARGIN) * (deg.m + MARGIN + 1)
    for (s, k, i, j), value in shifts.items():
        # <z^s a_k, z^i w^j> = <a_k, z^(i-s) w^j>, a strip or upper-quadrant pairing
        assert abs(value - values[k, i - s, j]) < tol


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
    report = orthogonality_report(p, deg, ks, table)
    expected = expected_counts(deg)
    assert sum(f.values.size for f in report.families.values()) == sum(
        expected[name] for name in report.families
    )
    # the pivots come from the same lag matrix
    assert len(report.pivots) == deg.m
    assert calls == {"inner_product": 0, "lag_matrix": 1}
    calls["lag_matrix"] = 0
    shifts = shift_orthogonality_report(p, deg, table)
    assert sum(f.values.size for f in shifts.families.values()) == sum(
        expected[name] for name in shifts.families
    )
    # the nested Gram, the projections, the complement Gram and one matrix
    # per shift
    assert calls == {"inner_product": 0, "lag_matrix": 3 + SHIFT_MAX}


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
    # the complement of the one-step-smaller box has dimension m
    counts["complement_shift"] = SHIFT_MAX * m * m
    return counts


def both_reports(p, deg, ks, table):
    base = orthogonality_report(p, deg, ks, table)
    shifts = shift_orthogonality_report(p, deg, table)
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
    A, B = orthogonality_window(deg)
    assert (A, B) == (12, 8)

    def run_both(window):
        table = moments_from_grid(p, window)
        orthogonality_report(p, deg, ks, table)
        shift_orthogonality_report(p, deg, table)

    run_both((A, B))
    for short in ((A - 1, B), (A, B - 1)):
        with pytest.raises(WindowTooSmall, match="needed"):
            run_both(short)


# ----------------------------------------------------------------------
# A weight outside the family, and the corner pairings
# ----------------------------------------------------------------------


CONTROL_DEGREES = [(1, 1), (2, 3), (3, 1), (4, 4)]


@pytest.fixture(scope="module")
def control_inputs():
    """The worked example and seed-1 draws, each with a grid table one wider
    in ``a`` than :func:`orthogonality_window`."""
    polys = [(WORKED, WORKED_DEG)]
    polys += [random_stable_poly(n, m, np.random.default_rng(1)) for n, m in CONTROL_DEGREES]
    out = []
    for p, deg in polys:
        A, B = orthogonality_window(deg)
        out.append((p, deg, moments_from_grid(p, (A + 1, B))))
    return out


def tilted_table(table, eps):
    """The table of the weight ``(1 + eps Re z) / |p|^2``, one narrower in ``a``:
    ``c'[a, b] = c[a, b] + (eps / 2)(c[a - 1, b] + c[a + 1, b])``."""
    A, B = table.window
    c = np.array([[table.get(a, b) for b in range(-B, B + 1)] for a in range(-A, A + 1)])
    tilted = c[1:-1] + 0.5 * eps * (c[:-2] + c[2:])
    return MomentTable((A - 1, B), tilted, table.grid_size, table.est_error)


def tilted_strip_max(p, deg, table, eps):
    """The ``strip`` maximum of the ``a_k`` rebuilt from the tilted table,
    relative to the smallest of their norms, as verify-orthogonality reports it."""
    tilted = tilted_table(table, eps)
    rebuilt = reconstruct_kernel_coefficients(p, deg, tilted, schur_cohn_matrix(p, deg))
    report = orthogonality_report(p, deg, CDKernelSet(rebuilt, deg=deg), tilted)
    scale = min(norm(ak, tilted) for ak in rebuilt)
    return report.families["strip"].summary(scale)["max"]


def test_a_tilted_weight_fails_the_strip_in_proportion(control_inputs):
    # (1 + eps Re z) / |p|^2 is not of the form 1/|q|^2: the a_k rebuilt from
    # its box relations stop annihilating the strip beyond the box, by O(eps)
    gate = DEFAULT_TOLERANCES["orthogonality"]
    for p, deg, table in control_inputs:
        assert tilted_strip_max(p, deg, table, 0.0) < 1e-15
        assert tilted_strip_max(p, deg, table, 1e-8) < gate
        once, twice = (tilted_strip_max(p, deg, table, eps) for eps in (1e-4, 2e-4))
        assert once > gate
        assert twice / once == pytest.approx(2.0, rel=0.01)


def test_corner_pairings_have_closed_forms(control_inputs):
    # <a_k, z^n w^m> = -p_{0,m-k} / p_00 and <a_k, z^n w^-1> = -conj(p_{0,k+1} / p_00);
    # neither corner is in a relation family
    for p, deg, table in control_inputs:
        n, m = deg
        k = np.arange(m)
        assert not np.any(in_coefficient_orthogonality_set(n, np.array([[m], [-1]]), k, deg))
        coeff = dict(p.items())
        ratio = np.array([coeff.get((0, j), 0) for j in range(m + 1)]) / coeff[0, 0]
        R = subspaces._window_pairings(cd_kernel_set(p, deg).a, table, n, n, -1, m)
        assert np.max(np.abs(R[0, m + 1] + ratio[m - k])) < 1e-13
        assert np.max(np.abs(R[0, 0] + np.conj(ratio[k + 1]))) < 1e-13


# ----------------------------------------------------------------------
# Christoffel-Darboux formula
# ----------------------------------------------------------------------


def cd_specs(deg):
    """The two one-step difference spans of the Christoffel-Darboux identity."""
    n, m = deg
    narrow_w = SubspaceSpec(monomial_rect(0, n, 0, m - 1), monomial_rect(0, n - 1, 0, m - 1))
    narrow_z = SubspaceSpec(monomial_rect(0, n - 1, 0, m), monomial_rect(0, n - 1, 1, m))
    return narrow_w, narrow_z


def sampled_cd_residual(p, deg, moments, points):
    """The identity at sampled points ``(z, w, z1, w1)``: the largest
    ``|lhs - rhs|``, with each kernel evaluated as ``v(x) B B^H conj(v(y))``."""
    z, w, z1, w1 = np.asarray(list(points), dtype=complex).reshape(-1, 4).T
    x, y = (z, w), (z1, w1)
    pr = p.reflect(deg)
    lhs = p(*x) * np.conj(p(*y)) - pr(*x) * np.conj(pr(*y))
    narrow_w, narrow_z = cd_specs(deg)
    rhs = (1 - w * np.conj(w1)) * span_kernel(narrow_w, moments, x, y)
    rhs += (1 - z * np.conj(z1)) * span_kernel(narrow_z, moments, x, y)
    return float(np.max(np.abs(lhs - rhs)))


def bidisk_points(rng, count):
    """``count`` points ``(z, w, z1, w1)``, each coordinate uniform on the disk."""
    radius, turn = rng.uniform(size=(2, count, 4))
    return np.sqrt(radius) * np.exp(2j * np.pi * turn)


def test_cd_formula_origin_value(worked_moments):
    pr = WORKED.reflect(WORKED_DEG)
    lhs = WORKED(0, 0) * np.conj(WORKED(0, 0)) - pr(0, 0) * np.conj(pr(0, 0))
    assert lhs == pytest.approx(9.0, abs=1e-12)
    result = cd_formula_residual(WORKED, WORKED_DEG, worked_moments)
    assert result["max_residual"] < 1e-10
    # at the origin each side is its coefficient of the pair (1, 1)
    origin = result["E1"][0, 0, 0, 0] + result["E2"][0, 0, 0, 0]
    assert origin == pytest.approx(9.0, abs=1e-10)
    assert sampled_cd_residual(WORKED, WORKED_DEG, worked_moments, [(0, 0, 0, 0)]) < 1e-10


def test_cd_formula_on_random_points(random_family_with_moments):
    # the acceptance cases: the worked example and the random family; the
    # sampled identity and the coefficient identity both hold on each
    rng = np.random.default_rng(34)
    cases = [(WORKED, WORKED_DEG, moments_from_grid(WORKED, (6, 6)))]
    cases += random_family_with_moments
    for p, deg, table in cases:
        assert sampled_cd_residual(p, deg, table, bidisk_points(rng, 100)) < 1e-9
        assert cd_formula_residual(p, deg, table)["max_residual"] < 1e-9


def test_cd_formula_coefficients_are_the_sampled_identity(random_family_with_moments):
    # E1 and E2 are the kernels on the box: summing them against monomials
    # gives the sampled kernels back
    rng = np.random.default_rng(36)
    for p, deg, table in random_family_with_moments:
        n, m = deg
        result = cd_formula_residual(p, deg, table)
        z, w, z1, w1 = bidisk_points(rng, 20).T
        box = monomial_rect(0, n, 0, m)
        vx = monomial_values(box, (z, w))
        vy = monomial_values(box, (z1, w1))
        for E, spec in zip((result["E1"], result["E2"]), cd_specs(deg)):
            summed = np.einsum("ka,ab,kb->k", vx, E.reshape(len(box), len(box)), np.conj(vy))
            direct = span_kernel(spec, table, (z, w), (z1, w1))
            assert np.max(np.abs(summed - direct)) < 1e-10 * max(1.0, np.max(np.abs(direct)))


def test_cd_formula_fails_on_the_table_of_another_polynomial(random_family):
    # a planted defect: the kernels of another stable polynomial's measure
    # against p, at the degree of p
    rng = np.random.default_rng(37)
    for p, deg in random_family:
        n, m = deg
        other, _ = random_stable_poly(n, m, rng)
        result = cd_formula_residual(p, deg, moments_from_grid(other, (n + 1, m + 1)))
        assert result["max_residual"] > 1e-3
        (i, j), (k, l) = result["argmax"]
        assert 0 <= i <= n and 0 <= k <= n and 0 <= j <= m and 0 <= l <= m


def test_cd_formula_needs_both_degrees(worked_moments):
    p = Poly({(0, 0): 2, (0, 1): -1})
    table = moments_from_grid(p, (2, 3))
    with pytest.raises(DegenerateDegree):
        cd_formula_residual(p, DegreePair(0, 1), table)


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
