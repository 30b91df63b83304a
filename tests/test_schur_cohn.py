"""Schur-Cohn matrix construction, positivity and the inverse-moment identity."""

import numpy as np
import pytest

from bscd.errors import DegenerateDegree
from bscd.measure import check_stability, random_stable_poly, slice_moments
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair, angle_grid
from bscd.schur_cohn import (
    diagonal_average,
    evaluate_on_circle,
    principal_determinants,
    schur_cohn_matrix,
)

from conftest import RANDOM_SEED, WORKED, WORKED_DEG, make_random_family

PRODUCT = Poly({(0, 0): 4, (1, 0): -2, (0, 1): -2, (1, 1): 1})  # (2-z)(2-w)


@pytest.fixture(scope="module")
def high_degree_family():
    # random_family stops at (3,3); the dense tensor matters most above it
    rng = np.random.default_rng(RANDOM_SEED)
    return [random_stable_poly(n, m, rng) for (n, m) in [(6, 6), (8, 8)]]


def test_worked_example_matrix():
    T = schur_cohn_matrix(WORKED, WORKED_DEG)
    assert T.m == 1
    assert T.entry(0, 0) == Poly({(0, 0): 9, (1, 0): -3, (-1, 0): -3})


def test_univariate_w_matrix():
    T = schur_cohn_matrix(Poly({(0, 0): 2, (0, 1): -1}), DegreePair(0, 1))
    assert T.entry(0, 0) == Poly.constant(3)


def test_product_polynomial_matrix():
    T = schur_cohn_matrix(PRODUCT, DegreePair(1, 1))
    assert T.entry(0, 0) == Poly({(0, 0): 15, (1, 0): -6, (-1, 0): -6})


def test_degree_zero_in_w_is_degenerate():
    with pytest.raises(DegenerateDegree):
        schur_cohn_matrix(Poly({(0, 0): 2, (1, 0): -1}), DegreePair(1, 0))


def hermitian_structure_defect(T):
    """Largest coefficient deviation of entry(j, i) from entry(i, j)*."""
    mirrored = T.coeffs.transpose(1, 0, 2)[:, :, ::-1].conj()
    return float(np.max(np.abs(T.coeffs - mirrored)))


def test_hermitian_structure_for_random_polynomials(random_family, high_degree_family):
    for p, deg in random_family + high_degree_family:
        T = schur_cohn_matrix(p, deg)
        scale = max(1.0, max(T.entry(i, j).max_abs() for i in range(T.m) for j in range(T.m)))
        assert hermitian_structure_defect(T) <= 1e-13 * scale
        for theta in (0.0, 0.4, 2.9):
            M = evaluate_on_circle(T, [theta])[0]
            assert np.max(np.abs(M - M.conj().T)) == 0.0
            # exponents stay within [-n, n]
        for i in range(T.m):
            for j in range(T.m):
                box = T.entry(i, j).support_box
                if box is not None:
                    assert -deg.n <= box[0] and box[1] <= deg.n
                    assert box[2] == box[3] == 0


def test_circle_evaluation_values():
    T = schur_cohn_matrix(WORKED, WORKED_DEG)
    assert evaluate_on_circle(T, [0.0])[0, 0, 0] == pytest.approx(3.0, abs=1e-13)
    assert evaluate_on_circle(T, [np.pi])[0, 0, 0] == pytest.approx(15.0, abs=1e-13)
    # 2 - z - w vanishes at (1, 1); its matrix 4 - 4 cos(theta) is singular at theta = 0
    unstable = Poly({(0, 0): 2, (1, 0): -1, (0, 1): -1})
    T3 = schur_cohn_matrix(unstable, DegreePair(1, 1))
    assert evaluate_on_circle(T3, [0.0])[0, 0, 0] == pytest.approx(0.0, abs=1e-13)


def test_positive_definite_on_circle_for_stable_inputs(random_family):
    for p, deg in random_family[:3]:
        T = schur_cohn_matrix(p, deg)
        assert np.min(np.linalg.eigvalsh(evaluate_on_circle(T, angle_grid(64)))) > 0


def test_principal_determinant_profile():
    T = schur_cohn_matrix(WORKED, WORKED_DEG)
    for theta in (0.0, 0.5, np.pi):
        D = principal_determinants(T, [theta]).D[0]
        assert D[0] == 1.0
        assert D[1] == pytest.approx(9 - 6 * np.cos(theta), abs=1e-12)
    assert principal_determinants(T, [np.pi]).D[0, 1] == pytest.approx(15.0, abs=1e-12)


def test_matrix_inverts_slice_moment_matrix(random_family, high_degree_family):
    # pins the basis-ordering convention M[i, j] = m_{j-i}
    for p, deg in random_family + high_degree_family:
        T = schur_cohn_matrix(p, deg)
        m = deg.m
        for theta in (0.0, 1.1, 4.4):
            sm = slice_moments(check_stability(p, deg), [theta], m - 1)
            M = np.array([[sm.get(j - i)[0] for j in range(m)] for i in range(m)])
            residual = np.max(np.abs(evaluate_on_circle(T, [theta])[0] @ M - np.eye(m)))
            assert residual < 1e-8


def test_reversed_ordering_convention_fails():
    # the empirical pin-down: transposing the lag convention breaks the identity
    p, deg = make_random_family()[3]
    T = schur_cohn_matrix(p, deg)
    m = deg.m
    sm = slice_moments(check_stability(p, deg), [0.9], m - 1)
    wrong = np.array([[sm.get(i - j)[0] for j in range(m)] for i in range(m)])
    assert np.max(np.abs(evaluate_on_circle(T, [0.9])[0] @ wrong - np.eye(m))) > 1e-3


def test_diagonal_average_reads_constant_coefficient():
    T = schur_cohn_matrix(WORKED, WORKED_DEG)
    assert diagonal_average(T, 0) == pytest.approx(9.0, abs=1e-14)


def test_tensor_matches_laurent_products(random_family, high_degree_family):
    # entry (i, j) rebuilt from the defining sum of slice products
    for p, deg in random_family + high_degree_family:
        n, m = deg
        T = schur_cohn_matrix(p, deg)
        slices = [p.w_coefficient(i) for i in range(m + 1)]
        bars = [q.conj_reciprocal() for q in slices]
        for i in range(m):
            for j in range(m):
                entry = Poly.zero()
                for k in range(min(i, j) + 1):
                    entry = entry + slices[i - k] * bars[j - k]
                    entry = entry - bars[m - i + k] * slices[m - j + k]
                assert (T.entry(i, j) - entry).max_abs() <= 1e-13 * max(1.0, entry.max_abs())


def test_circle_values_match_the_tensor(random_family, high_degree_family):
    # the slice-value route of evaluate_on_circle against the coefficient tensor
    for p, deg in random_family + high_degree_family:
        n = deg.n
        T = schur_cohn_matrix(p, deg)
        for theta in (0.0, 0.7, 3.5):
            from_tensor = T.coeffs @ np.exp(1j * theta * np.arange(-n, n + 1))
            scale = max(1.0, np.max(np.abs(from_tensor)))
            assert np.max(np.abs(evaluate_on_circle(T, [theta])[0] - from_tensor)) <= 1e-13 * scale


def test_batched_circle_values_are_the_per_angle_values(random_family, high_degree_family):
    thetas = 2.0 * np.pi * np.arange(48) / 48 + 0.05
    for p, deg in random_family + high_degree_family:
        T = schur_cohn_matrix(p, deg)
        profile = principal_determinants(T, thetas)
        assert profile.matrix.shape == (48, deg.m, deg.m)
        assert profile.D.shape == (48, deg.m + 1)
        assert np.array_equal(profile.matrix, evaluate_on_circle(T, thetas))
        for k, theta in enumerate(thetas):
            one = principal_determinants(T, [theta])
            scale = np.max(np.abs(one.matrix[0]))
            assert np.max(np.abs(profile.matrix[k] - one.matrix[0])) <= 1e-15 * scale
            assert np.allclose(profile.D[k], one.D[0], rtol=1e-12, atol=0)
