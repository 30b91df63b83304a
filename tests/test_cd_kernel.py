"""Kernel coefficient family: three routes, structure, slice identities."""

import numpy as np
import pytest

from bscd import cd_kernel
from bscd.cd_kernel import (
    cd_kernel_set,
    cofactor_decomposition,
    kernel_by_divided_difference,
    kernel_coefficients,
    slice_gram,
)
from bscd.errors import DegenerateDegree, NonzeroRemainder
from bscd.measure import check_stability, slice_inner_product, slice_moments, w_slice
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair, angle_grid
from bscd.schur_cohn import evaluate_on_circle, schur_cohn_matrix

from conftest import WORKED, WORKED_DEG

A0_WORKED = Poly({(0, 0): -3, (1, 0): 9, (2, 0): -3})
UNIV = Poly({(0, 0): 2, (0, 1): -1})  # 2 - w
PRODUCT = Poly({(0, 0): 4, (1, 0): -2, (0, 1): -2, (1, 1): 1})  # (2-z)(2-w)


def test_matrix_route_worked_examples():
    assert kernel_coefficients(WORKED, WORKED_DEG)[0] == A0_WORKED
    assert kernel_coefficients(UNIV, DegreePair(0, 1))[0] == Poly.constant(3)
    assert kernel_coefficients(PRODUCT, DegreePair(1, 1))[0] == Poly(
        {(0, 0): -6, (1, 0): 15, (2, 0): -6}
    )


def divided_difference_at(p, deg, eta):
    """The kernel at parameter ``eta`` by one synthetic division: the numerator
    ``p(z,w) conj(p(1/conj z, eta)) - pr(z,w) conj(pr(1/conj z, eta))`` as a
    Laurent polynomial in (z, w), divided by ``1 - w conj(eta)``."""
    n, m = deg
    eta_bar = complex(eta).conjugate()
    pr = p.reflect(deg)
    powers = eta_bar ** np.arange(m + 1)

    def conjugated_section(q):
        column = q.coefficient_window((0, n, 0, m)).conj() @ powers
        return Poly.from_array(column[::-1, None], (-n, 0))

    numerator = p * conjugated_section(p) - pr * conjugated_section(pr)
    slices = numerator.coefficient_window((-n, n, 0, m))
    quotient = np.empty((2 * n + 1, m), dtype=complex)
    quotient[:, 0] = slices[:, 0]
    for t in range(1, m):
        quotient[:, t] = slices[:, t] + eta_bar * quotient[:, t - 1]
    remainder = np.max(np.abs(slices[:, m] + eta_bar * quotient[:, m - 1]))
    assert remainder < 1e-11 * max(numerator.max_abs(), 1.0)
    return Poly.from_array(quotient)


def test_divided_difference_is_parameter_free_when_m_is_one():
    assert kernel_by_divided_difference(WORKED, WORKED_DEG) == (A0_WORKED,)
    assert kernel_by_divided_difference(UNIV, DegreePair(0, 1)) == (Poly.constant(3),)
    assert kernel_by_divided_difference(PRODUCT, DegreePair(1, 1)) == (
        Poly({(0, 0): -6, (1, 0): 15, (2, 0): -6}),
    )
    for eta in (0.3 + 0.4j, 0.0, -0.9j):
        assert (divided_difference_at(WORKED, WORKED_DEG, eta) - A0_WORKED).max_abs() < 1e-12


def test_divided_difference_matches_matrix_route(random_family):
    for p, deg in random_family:
        ks = cd_kernel_set(p, deg)
        family = kernel_by_divided_difference(p, deg)
        assert len(family) == deg.m
        for direct, aj in zip(family, ks.a):
            assert (direct - aj).max_abs() < 1e-10


def test_family_at_a_parameter_is_the_per_parameter_division(random_family):
    rng = np.random.default_rng(21)
    for p, deg in random_family:
        family = cd_kernel.CDKernelSet(a=kernel_by_divided_difference(p, deg), deg=deg)
        for _ in range(20):
            eta = complex(rng.normal(), rng.normal()) * 0.6
            reference = divided_difference_at(p, deg, eta)
            assert (family.parameter_sum(eta) - reference).max_abs() < 1e-10


def test_numerator_of_a_wrong_reflection_leaves_a_remainder(random_family, monkeypatch):
    # reflecting in z alone: the numerator no longer vanishes at w conj(eta) = 1
    def wrong_numerator(p, deg):
        c = p.coefficient_window((0, deg.n, 0, deg.m))
        cr = c[::-1].conj()
        return np.multiply.outer(c, c.conj()) - np.multiply.outer(cr, cr.conj())

    monkeypatch.setattr(cd_kernel, "cd_numerator", wrong_numerator)
    for p, deg in [(WORKED, WORKED_DEG)] + random_family:
        with pytest.raises(NonzeroRemainder):
            kernel_by_divided_difference(p, deg)


def test_cofactor_decomposition_worked_examples():
    A, B = cofactor_decomposition(WORKED, WORKED_DEG)
    assert A[0] == Poly({(1, 0): 3, (0, 0): -1})
    assert B[0] == Poly.constant(1)
    assert WORKED * A[0] + WORKED.reflect(WORKED_DEG) * B[0] == A0_WORKED

    A, B = cofactor_decomposition(UNIV, DegreePair(0, 1))
    assert A[0] == Poly.constant(2)
    assert B[0] == Poly.constant(1)


def test_cofactor_degree_bounds_and_identity(random_family):
    for p, deg in random_family:
        n, m = deg
        ks = cd_kernel_set(p, deg)
        pr = p.reflect(deg)
        for j in range(m):
            for poly in (ks.A[j], ks.B[j]):
                box = poly.support_box
                assert box[0] >= 0 and box[1] <= n
                assert box[2] >= 0 and box[3] <= j
            recombined = p * ks.A[j] + pr * ks.B[j]
            assert (recombined - ks.a[j]).max_abs() < 1e-12 * max(1.0, ks.a[j].max_abs())



def cofactor_sums(p, deg):
    """The cofactor formulas summed term by term on the polynomials."""
    n, m = deg
    slices = [p.w_coefficient(j) for j in range(m + 1)]
    A, B = [], []
    for t in range(m):
        A.append(Poly.zero())
        B.append(Poly.zero())
        for s in range(t + 1):
            A[t] = A[t] + slices[t - s].reflect(DegreePair(n, 0)).shift(0, s)
            B[t] = B[t] - slices[m - t + s].shift(0, s)
    return A, B


def test_cofactor_arrays_are_the_term_sums_to_the_bit(random_family):
    # the report prints A and B, so even the signs of zero parts must agree
    for p, deg in random_family + [(WORKED, WORKED_DEG), (UNIV, DegreePair(0, 1))]:
        box = DegreePair(deg.n, deg.m - 1)
        for got, want in zip(cofactor_decomposition(p, deg), cofactor_sums(p, deg)):
            assert [repr(g.to_json_dict(box)) for g in got] == [
                repr(w.to_json_dict(box)) for w in want
            ]

def test_coefficient_support_and_symmetry(random_family):
    for p, deg in random_family:
        n, m = deg
        ks = cd_kernel_set(p, deg)
        for k in range(m):
            box = ks.a[k].support_box
            assert box[0] >= 0 and box[1] <= 2 * n
            assert box[2] >= 0 and box[3] <= m - 1
            mirrored = ks.a[m - k - 1].reflect(DegreePair(2 * n, m - 1))
            assert (mirrored - ks.a[k]).max_abs() < 1e-12 * max(1.0, ks.a[k].max_abs())


def test_coefficient_family_has_full_rank(random_family):
    for p, deg in random_family:
        n, m = deg
        ks = cd_kernel_set(p, deg)
        rows = np.array(
            [
                ks.a[k].coefficient_window((0, 2 * n, 0, m - 1)).ravel()
                for k in range(m)
            ]
        )
        assert np.linalg.svd(rows, compute_uv=False)[-1] > 1e-8


def test_degenerate_degree_raises():
    p = Poly({(0, 0): 2, (1, 0): -1})
    with pytest.raises(DegenerateDegree):
        kernel_coefficients(p, DegreePair(1, 0))
    with pytest.raises(DegenerateDegree):
        cofactor_decomposition(p, DegreePair(1, 0))
    with pytest.raises(DegenerateDegree):
        kernel_by_divided_difference(p, DegreePair(1, 0))


# ----------------------------------------------------------------------
# Slice identities
# ----------------------------------------------------------------------


def slice_gram_loop(p, deg, theta, ks):
    """The one-angle sliced Gram matrix ``G`` of the coefficient family."""
    m = deg.m
    z = np.exp(1j * float(theta))
    sections = np.array([w_slice(aj, z, m) for aj in ks.a])
    sm = slice_moments(check_stability(p, deg), [theta], m - 1)
    return slice_inner_product(sections[None, :, :], sections[:, None, :], sm)


def slice_gram_gap(p, deg, thetas, ks=None):
    """``G - T(e^{i theta})`` at ``thetas``, shape ``(K, m, m)``."""
    ks = ks if ks is not None else cd_kernel_set(p, deg)
    G = slice_gram(ks, slice_moments(check_stability(p, deg), thetas, deg.m - 1))
    return G - evaluate_on_circle(schur_cohn_matrix(p, deg), thetas)


def slice_norm_sides(p, deg, thetas, eta, ks=None):
    """Both sides of the slice-norm identity at each angle.

    The left side is the squared slice norm of ``L(., w; eta)``, ``v^H G v``
    with ``v_j = conj(eta)^j``; the right side is its diagonal value
    ``conj(z)^n L(z, eta; eta)``, read off the ``a_j`` directly.
    """
    ks = ks if ks is not None else cd_kernel_set(p, deg)
    thetas = np.asarray(thetas, dtype=float)
    G = slice_gram(ks, slice_moments(check_stability(p, deg), thetas, deg.m - 1))
    v = np.conj(eta) ** np.arange(deg.m)
    lhs = np.einsum("i,kij,j->k", np.conj(v), G, v)
    rhs = np.array([
        np.conj(z) ** deg.n * sum(aj(z, eta) * vj for aj, vj in zip(ks.a, v))
        for z in np.exp(1j * thetas)
    ])
    return lhs, rhs


def test_slice_norm_identity_worked_law():
    # m = 1: the kernel is a_0 for every parameter, and its squared slice
    # norm is G[0, 0] = 9 - 6 cos(theta), exactly the circle value of T
    thetas = np.array([0.0, 0.8, 2.5])
    for eta in (0.3 + 0.4j, -0.2j):
        lhs, rhs = slice_norm_sides(WORKED, WORKED_DEG, thetas, eta)
        assert np.max(np.abs(lhs - (9 - 6 * np.cos(thetas)))) < 1e-10
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_slice_norm_identity_univariate():
    lhs, rhs = slice_norm_sides(UNIV, DegreePair(0, 1), [1.234], 0.5)
    assert abs(lhs[0] - 3.0) < 1e-11
    assert abs(lhs[0] - rhs[0]) < 1e-11


def test_slice_norm_identity_random(random_family):
    rng = np.random.default_rng(22)
    for p, deg in random_family:
        ks = cd_kernel_set(p, deg)
        for _ in range(3):
            theta = rng.uniform(0, 2 * np.pi)
            eta = complex(rng.normal(), rng.normal()) * 0.5
            lhs, rhs = slice_norm_sides(p, deg, [theta], eta, ks)
            assert abs(lhs[0] - rhs[0]) < 1e-9


def test_slice_gram_matches_matrix(random_family):
    assert np.max(np.abs(slice_gram_gap(WORKED, WORKED_DEG, [0.6]))) < 1e-10
    assert np.max(np.abs(slice_gram_gap(UNIV, DegreePair(0, 1), [2.2]))) < 1e-11
    for p, deg in random_family:
        assert np.max(np.abs(slice_gram_gap(p, deg, [0.5, 3.3]))) < 1e-9


def test_batched_slice_gram_is_the_per_angle_loop(random_family):
    thetas = angle_grid(32)
    for p, deg in [(WORKED, WORKED_DEG)] + random_family:
        ks = cd_kernel_set(p, deg)
        batched = slice_gram(ks, slice_moments(check_stability(p, deg), thetas, deg.m - 1))
        assert batched.shape == (32, deg.m, deg.m)
        for k, theta in enumerate(thetas):
            one = slice_gram_loop(p, deg, theta, ks)
            assert np.max(np.abs(batched[k] - one)) <= 1e-14 * max(1.0, np.max(np.abs(one)))
