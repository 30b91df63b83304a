"""Pivot-free LU, slice polynomials, norm laws, moment vanishing."""

import numpy as np
import pytest

from bscd.errors import IndexOutOfRange, NotPositiveDefinite
from bscd import cli, measure, parametric, schur_cohn
from bscd.cd_kernel import cd_kernel_set, slice_gram
from bscd.measure import check_stability, random_stable_poly, slice_inner_product, slice_moments
from bscd.parametric import (
    gram_schmidt_slice_polynomials,
    lu_no_pivot,
    moment_vanishing,
    orthogonality_check,
    parametric_polynomials,
)
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair, angle_grid
from bscd.schur_cohn import evaluate_on_circle, principal_determinants, schur_cohn_matrix

from conftest import WORKED, WORKED_DEG, variant_law_residual


def polynomials_at(p, deg, thetas, T=None):
    """The slice polynomials of ``p`` at the angles ``thetas``."""
    if T is None:
        T = schur_cohn_matrix(p, deg)
    return parametric_polynomials(principal_determinants(T, thetas))


# ----------------------------------------------------------------------
# LU factorization
# ----------------------------------------------------------------------


def test_lu_of_scalar():
    for theta in (0.0, 1.0, 3.0):
        L, U = lu_no_pivot(np.array([[9 - 6 * np.cos(theta)]]))
        assert L[0, 0] == 1.0
        assert U[0, 0] == pytest.approx(9 - 6 * np.cos(theta))


def test_lu_two_by_two():
    L, U = lu_no_pivot(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(L, [[1, 0], [0.5, 1]])
    assert np.allclose(U, [[2, 1], [0, 1.5]])


def test_lu_reconstruction_on_random_hpd():
    rng = np.random.default_rng(41)
    for size in (2, 3, 5):
        X = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        M = X @ X.conj().T + size * np.eye(size)
        L, U = lu_no_pivot(M)
        assert np.max(np.abs(L @ U - M)) < 1e-11 * np.max(np.abs(M))
        assert np.max(np.abs(np.diag(L) - 1)) == 0.0
        assert np.all(np.diag(U).real > 0)


def test_lu_rejects_indefinite_matrix():
    with pytest.raises(NotPositiveDefinite):
        lu_no_pivot(np.array([[1.0, 2.0], [2.0, 1.0]]))


def lu_loop(M):
    """The one-matrix Doolittle loop, row by row."""
    A = np.array(M, dtype=complex)
    size = A.shape[0]
    L = np.eye(size, dtype=complex)
    for k in range(size):
        pivot = A[k, k]
        for r in range(k + 1, size):
            f = A[r, k] / pivot
            L[r, k] = f
            A[r, k:] -= f * A[k, k:]
            A[r, k] = 0.0
    return L, np.triu(A)


def test_batched_lu_is_the_doolittle_loop_to_the_bit():
    thetas = 2.0 * np.pi * np.arange(40) / 40 + 0.3
    for n in range(1, 9):
        p, deg = random_stable_poly(n, n, np.random.default_rng(1))
        stack = evaluate_on_circle(schur_cohn_matrix(p, deg), thetas)
        L, U = lu_no_pivot(stack)
        assert L.shape == U.shape == stack.shape
        for k, M in enumerate(stack):
            L_ref, U_ref = lu_loop(M)
            assert np.array_equal(L[k], L_ref) and np.array_equal(U[k], U_ref)
            L_one, U_one = lu_no_pivot(M)
            assert np.array_equal(L_one, L_ref) and np.array_equal(U_one, U_ref)


def test_one_indefinite_matrix_fails_the_stack():
    p, deg = random_stable_poly(3, 3, np.random.default_rng(1))
    stack = evaluate_on_circle(schur_cohn_matrix(p, deg), np.linspace(0.0, 6.0, 7))
    stack[4, 2, 2] = -stack[4, 2, 2]
    with pytest.raises(NotPositiveDefinite, match="elimination step"):
        lu_no_pivot(stack)
    lu_no_pivot(np.delete(stack, 4, axis=0))


# ----------------------------------------------------------------------
# Parametric polynomials
# ----------------------------------------------------------------------


def test_worked_example_polynomial():
    for theta in (0.0, 0.9, np.pi):
        phi = polynomials_at(WORKED, WORKED_DEG, [theta]).phi[0][0]
        assert phi.shape == (1,)
        assert phi[0] == pytest.approx(9 - 6 * np.cos(theta), abs=1e-12)


def test_univariate_constant_polynomial():
    p = Poly({(0, 0): 2, (0, 1): -1})
    for theta in (0.0, 2.2):
        op = polynomials_at(p, DegreePair(0, 1), [theta])
        assert op.phi[0][0][0] == pytest.approx(3.0, abs=1e-13)


def test_structure_invariants(random_family):
    for p, deg in random_family:
        m = deg.m
        T = schur_cohn_matrix(p, deg)
        for theta in (0.3, 2.1):
            op = polynomials_at(p, deg, [theta], T)
            L, U, D, phi = op.L_factor[0], op.U[0], op.D.D[0], [f[0] for f in op.phi]
            M = evaluate_on_circle(T, [theta])[0]
            assert np.max(np.abs(L @ U - M)) < 1e-10 * max(
                1.0, np.max(np.abs(M))
            )
            assert np.all(np.diag(U).real > 0)
            for k in range(m):
                assert U[k, k].real == pytest.approx(
                    D[k + 1] / D[k], rel=1e-9
                )
            for i in range(m):
                assert phi[i].size == i + 1
                assert phi[i][-1] != 0
                assert phi[i][-1] == pytest.approx(
                    U[m - 1 - i, m - 1 - i], abs=1e-13
                )


def test_one_circle_evaluation_per_batch(random_family, monkeypatch):
    calls = []
    evaluate = schur_cohn.evaluate_on_circle
    monkeypatch.setattr(
        schur_cohn, "evaluate_on_circle", lambda *a: calls.append(a) or evaluate(*a)
    )
    thetas = 2.0 * np.pi * np.arange(64) / 64
    for p, deg in random_family:
        T = schur_cohn_matrix(p, deg)
        calls.clear()
        op = polynomials_at(p, deg, thetas, T)
        assert len(calls) == 1 and np.array_equal(calls[0][1], thetas)
        assert op.U.shape == op.L_factor.shape == (64, deg.m, deg.m)
        assert [phi.shape for phi in op.phi] == [(64, i + 1) for i in range(deg.m)]

    # a run evaluates its theta grid once for every suite on the circle, and
    # the vanishing check its own grid once
    profiles = []
    build = schur_cohn.principal_determinants
    for module in (schur_cohn, parametric):
        monkeypatch.setattr(
            module, "principal_determinants", lambda *a: profiles.append(a) or build(*a)
        )
    per_run = {"all": 2, "schur-cohn": 1, "cd-kernel": 1, "parametric": 2}
    for p, deg in [(WORKED, WORKED_DEG), random_stable_poly(3, 2, np.random.default_rng(1))]:
        for suite, count in per_run.items():
            suites = list(cli.SUITE_ORDER) if suite == "all" else [suite]
            calls.clear()
            profiles.clear()
            reports = cli.run(cli.RunConfig(p, deg, suites))
            assert [r.status for r in reports] == ["pass"] * len(suites)
            assert len(calls) == len(profiles) == count, suite
    # p = 2.0000000001 - z - w stops at the stability verdict, before the circle
    nearly = Poly({(0, 0): 2.0000000001, (1, 0): -1, (0, 1): -1})
    calls.clear()
    reports = cli.run(cli.RunConfig(nearly, WORKED_DEG, list(cli.SUITE_ORDER)))
    statuses = {r.suite: r.status for r in reports}
    assert cli.exit_code(reports) == 3 and calls == []
    for suite in ("schur-cohn", "cd-kernel", "parametric"):
        assert statuses[suite] == "inconclusive", suite


def check_at(p, deg, theta, op=None):
    """``orthogonality_check`` on the slice polynomials of ``p`` at ``theta``."""
    if op is None:
        op = polynomials_at(p, deg, theta)
    return orthogonality_check(op, slice_moments(check_stability(p, deg), theta, deg.m - 1))


def test_batched_polynomials_are_the_per_angle_ones(random_family):
    thetas = 2.0 * np.pi * np.arange(16) / 16 + 0.2
    for p, deg in random_family:
        T = schur_cohn_matrix(p, deg)
        op = polynomials_at(p, deg, thetas, T)
        check = check_at(p, deg, thetas, op)
        for k, theta in enumerate(thetas):
            one = polynomials_at(p, deg, [theta], T)
            for batched, single in zip(op.phi, one.phi):
                assert np.max(np.abs(batched[k] - single[0])) <= 1e-13 * np.max(np.abs(single[0]))
            single_check = check_at(p, deg, [theta], one)
            gram, residual = single_check["gram"][0], single_check["lu_law_residual"][0]
            scale = np.max(np.abs(gram))
            assert np.max(np.abs(check["gram"][k] - gram)) <= 1e-13 * scale
            assert abs(check["lu_law_residual"][k] - residual) <= 1e-13 * scale
            assert check["lu_law_residual"][k] < 1e-9 and residual < 1e-9
            if deg.m > 1:
                assert variant_law_residual(check, op)[k] == pytest.approx(
                    variant_law_residual(single_check, one)[0], rel=1e-9
                )


# ----------------------------------------------------------------------
# Orthogonality and the diagonal law
# ----------------------------------------------------------------------


def test_worked_example_diagonal_law():
    for theta in (0.0, 0.9):
        check = check_at(WORKED, WORKED_DEG, [theta])
        expected = 9 - 6 * np.cos(theta)
        assert check["gram"][0, 0, 0].real == pytest.approx(expected, abs=1e-10)
        assert check["lu_law_residual"][0] < 1e-9


def test_univariate_diagonal_law():
    p = Poly({(0, 0): 2, (0, 1): -1})
    check = check_at(p, DegreePair(0, 1), [0.4])
    assert check["gram"][0, 0, 0].real == pytest.approx(3.0, abs=1e-11)


def test_orthogonality_and_law_flags(random_family):
    for p, deg in random_family:
        op = polynomials_at(p, deg, [0.7])
        check = check_at(p, deg, [0.7], op)
        assert check["offdiag_max"][0] < 1e-9
        assert check["lu_law_residual"][0] < 1e-9
        if deg.m >= 2:
            # the variant subscripting disagrees wherever it is defined
            assert variant_law_residual(check, op)[0] > 1e-3


def gram_schmidt_loop(p, deg, theta):
    """The one-angle Gram-Schmidt: monic slice polynomials at ``theta``."""
    m = deg.m
    M = slice_moments(check_stability(p, deg), [theta], m - 1).lag_matrix(m, m)[0]
    basis = []
    for d in range(m):
        v = np.eye(m, dtype=complex)[d]
        for q in basis:
            v = v - (q.conj() @ M @ v) / (q.conj() @ M @ q) * q
        basis.append(v)
    return [v[: d + 1] for d, v in enumerate(basis)]


def test_uniqueness_via_gram_schmidt(random_family):
    thetas = np.array([1.3, 2.0, 5.1])
    for p, deg in random_family[:3]:
        op = polynomials_at(p, deg, thetas)
        sm = slice_moments(check_stability(p, deg), thetas, deg.m - 1)
        monic = gram_schmidt_slice_polynomials(sm)
        for i in range(deg.m):
            rescaled = monic[i] * op.phi[i][:, -1:]
            assert np.max(np.abs(rescaled - op.phi[i])) < 1e-8 * max(
                1.0, np.max(np.abs(op.phi[i]))
            )


def test_batched_gram_schmidt_is_the_per_angle_loop(random_family):
    thetas = angle_grid(32)
    for p, deg in random_family:
        sm = slice_moments(check_stability(p, deg), thetas, deg.m - 1)
        monic = gram_schmidt_slice_polynomials(sm)
        assert [q.shape for q in monic] == [(32, d + 1) for d in range(deg.m)]
        for k, theta in enumerate(thetas):
            for batched, one in zip(monic, gram_schmidt_loop(p, deg, theta)):
                assert np.max(np.abs(batched[k] - one)) <= 1e-13 * max(1.0, np.max(np.abs(one)))


# ----------------------------------------------------------------------
# Moment vanishing
# ----------------------------------------------------------------------


def test_worked_example_fourier_values():
    entry = moment_vanishing(check_stability(WORKED, WORKED_DEG), {0: [1, 2, 5]})["per_j"][0]
    values = dict(zip(entry["k_list"], entry["values"]))
    assert values[1] == pytest.approx(-3.0, abs=1e-10)
    assert abs(values[2]) < 1e-10
    assert abs(values[5]) < 1e-10


def test_vanishing_beyond_frequency_bound(random_family, monkeypatch):
    # the (8,8) integrands reach about 4e4, so roundoff exceeds an absolute 1e-11
    cases = random_family[:4] + [random_stable_poly(8, 8, np.random.default_rng(2))]
    calls = []
    build = parametric.parametric_polynomials
    monkeypatch.setattr(
        parametric, "parametric_polynomials", lambda *a: calls.append(a) or build(*a)
    )
    for p, deg in cases:
        n, m = deg
        k_lists = {j: [n * (m - j) + d for d in (1, 2, 3)] for j in range(m)}
        calls.clear()
        result = moment_vanishing(check_stability(p, deg), k_lists)
        # N: the smallest power of two above n m + (n m + 3), the j = 0 band
        N = 1
        while N <= 2 * n * m + 3:
            N *= 2
        # the angles evaluated, over every call: 2N of them, all distinct
        angles = np.concatenate([profile.theta for (profile,) in calls])
        assert angles.size == result["theta_grid"] == 2 * N
        assert np.unique(angles).size == angles.size
        assert sorted(result["per_j"]) == list(range(m))
        for entry in result["per_j"].values():
            assert all(abs(v) < 1e-8 for v in entry["values"])


def test_in_band_coefficients_stay_far_above_the_gate_relative_to_scale():
    # the normalization of the vanishing gate, |I_j(k)| / max(1, scale_j),
    # reads roundoff beyond the band k <= n (m - j) but not inside it (the
    # in-band coefficients decay fast, so the low ones are the ones to test)
    p, deg = random_stable_poly(12, 12, np.random.default_rng(1))
    n, m = deg
    k_lists = {j: [0, 1, n * (m - j) + 1] for j in (0, 5, m - 1)}
    for j, entry in moment_vanishing(check_stability(p, deg), k_lists)["per_j"].items():
        *inside, beyond = (abs(v) / max(1.0, entry["scale"]) for v in entry["values"])
        assert min(inside) > 1e-3, j
        assert beyond < 1e-15, j


def test_variant_weight_does_not_vanish(random_family):
    # with the variant multiplier D[m-j+1] in place of D[m-j-1] the integrand
    # is not a trig polynomial of the bounded degree, and its Fourier
    # coefficient beyond the bound stays visibly nonzero on the angles the
    # vanishing check samples
    p, deg = random_family[3]
    n, m = deg
    j = 1
    k = n * (m - j) + 1
    thetas = angle_grid(moment_vanishing(check_stability(p, deg), {j: [k]})["theta_grid"])
    op = polynomials_at(p, deg, thetas)
    check = orthogonality_check(op, slice_moments(check_stability(p, deg), thetas, m - 1))
    weighted = np.asarray(op.D.D)[:, m - j + 1] * check["gram"][:, j, j].real
    assert abs(np.fft.ifft(weighted)[k]) > 1e-4


def test_vanishing_index_validation():
    with pytest.raises(IndexOutOfRange):
        moment_vanishing(check_stability(WORKED, WORKED_DEG), {1: [2]})


# ----------------------------------------------------------------------
# Angle-Fourier structure of the slice Gram entries
# ----------------------------------------------------------------------


def test_slice_gram_entries_are_trig_polynomials(random_family, random_kernelsets):
    # <a_i, a_j> on the slice at angle theta has circle-Fourier support
    # bounded by the z-degree spread of the matrix entries, i.e. 2n
    (p, deg), ks = random_family[2], random_kernelsets[2]
    n, m = deg
    grid = 64
    samples = np.zeros((grid, m, m), dtype=complex)
    for idx in range(grid):
        theta = 2 * np.pi * idx / grid
        sm = slice_moments(check_stability(p, deg), [theta], m - 1)
        z = np.exp(1j * theta)
        sections = []
        for a in ks.a:
            coeffs = np.zeros(m, dtype=complex)
            for (i, j), c in a.items():
                coeffs[j] += c * z**i
            sections.append(coeffs)
        for i in range(m):
            for j in range(m):
                samples[idx, i, j] = slice_inner_product(
                    sections[j], sections[i], sm
                )[0]
    spectrum = np.fft.fft(samples, axis=0) / grid
    for freq in range(grid):
        shifted = freq if freq <= grid // 2 else freq - grid
        if abs(shifted) > 2 * n:
            assert np.max(np.abs(spectrum[freq])) < 1e-9


def fresh_lag_matrix(sm, rows, cols):
    """The slice lag matrix gathered anew on every call."""
    shifts = np.subtract.outer(np.arange(rows), np.arange(cols))
    return np.asarray(sm.values)[..., sm.lag - shifts]


def test_one_lag_matrix_gather_per_slice_stack(monkeypatch):
    p, deg = random_stable_poly(4, 4, np.random.default_rng(11))
    m = deg.m
    thetas = angle_grid(32)
    T = schur_cohn_matrix(p, deg)
    ks = cd_kernel_set(p, deg, T)
    stability = check_stability(p, deg)
    k_lists = {j: [deg.n * (m - j) + 1] for j in range(m)}

    def every_slice_pairing(sm):
        op = polynomials_at(p, deg, thetas, T)
        return [
            orthogonality_check(op, sm)["gram"],
            *gram_schmidt_slice_polynomials(sm),
            slice_gram(ks, sm),
            sm.lag_matrix(m, m),
            *(entry["values"] for entry in moment_vanishing(stability, k_lists, T)["per_j"].values()),
        ]

    gathered = []
    toeplitz = measure.SlicedMoments._toeplitz
    gather = toeplitz.func

    def counted(sm):
        gathered.append(sm)
        return gather(sm)

    monkeypatch.setattr(toeplitz, "func", counted)
    sm = slice_moments(stability, thetas, m - 1)
    shared = every_slice_pairing(sm)
    # one gather for the stack every pairing shares, one for the stack of the
    # vanishing check's own angles; gram-schmidt alone used to take m (m - 1)
    assert len(gathered) == 2 and gathered[0] is sm
    # a pure gather: the values are those of a fresh gather per pairing
    monkeypatch.setattr(measure.SlicedMoments, "lag_matrix", fresh_lag_matrix)
    fresh = every_slice_pairing(slice_moments(stability, thetas, m - 1))
    assert len(gathered) == 2
    for a, b in zip(shared, fresh, strict=True):
        assert np.array_equal(np.asarray(a), np.asarray(b))
