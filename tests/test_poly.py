"""Arithmetic layer: evaluation, products, reflection, windows, JSON."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bscd.errors import SupportOutsideBox, ZeroBaseNegativeExponent
from bscd.measure import random_stable_poly
from bscd.poly import BivariateLaurentPoly as Poly, DegreePair

from conftest import WORKED, WORKED_DEG


def test_eval_constant_term():
    assert WORKED(0, 0) == 3


def test_eval_direct_substitution():
    assert WORKED(1, 1) == 1


def test_eval_imaginary_cancellation():
    assert WORKED(1j, -1j) == 3


def test_eval_zero_base_negative_exponent():
    p = Poly({(-1, 0): 1})
    with pytest.raises(ZeroBaseNegativeExponent):
        p(0, 1)
    # fine when the offending variable is nonzero
    assert p(2, 0) == 0.5


def test_array_call_is_the_scalar_call():
    rng = np.random.default_rng(1)
    for n in range(1, 9):
        p, _ = random_stable_poly(n, n, rng)
        z = np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
        w = np.exp(2j * np.pi * rng.uniform(size=40))
        for zs, ws in ((z, w), (z, 1.0), (0.5j, w)):
            values = p(zs, ws)
            assert values.shape == (40,)
            for k, (zk, wk) in enumerate(np.broadcast(zs, ws)):
                expected = p(complex(zk), complex(wk))
                assert type(expected) is complex
                assert abs(values[k] - expected) <= 1e-15 * (1 + abs(expected))


def test_array_call_of_the_zero_polynomial_and_a_zero_base():
    assert np.array_equal(Poly.zero()(np.ones(3), 2.0), np.zeros(3))
    assert Poly.zero()(1, 2) == 0j
    p = Poly({(-1, 0): 1, (0, 1): 1})
    assert np.allclose(p(np.array([2.0, 4.0]), 1.0), [1.5, 1.25])
    with pytest.raises(ZeroBaseNegativeExponent):
        p(np.array([1.0, 0.0]), 1.0)


def test_mul_two_term_expansion():
    left = Poly({(0, 0): 2, (1, 0): -1})
    right = Poly({(0, 0): 2, (0, 1): -1})
    assert left * right == Poly({(0, 0): 4, (1, 0): -2, (0, 1): -2, (1, 1): 1})


def test_mul_identity_element():
    assert WORKED * Poly.constant(1) == WORKED


def test_mul_exponent_shift():
    shifted = Poly.monomial(-1, 0) * WORKED
    assert shifted == Poly({(-1, 0): 3, (0, 0): -1, (-1, 1): -1})


def test_mul_matches_pointwise_products():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = _random_sparse(rng)
        q = _random_sparse(rng)
        prod = p * q
        for _ in range(20):
            z = rng.normal() + 1j * rng.normal()
            w = rng.normal() + 1j * rng.normal()
            expected = p(z, w) * q(z, w)
            assert abs(prod(z, w) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_product_hull_is_minkowski_sum():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = _random_sparse(rng)
        q = _random_sparse(rng)
        pb, qb = p.support_box, q.support_box
        expected = (pb[0] + qb[0], pb[1] + qb[1], pb[2] + qb[2], pb[3] + qb[3])
        assert (p * q).support_box == expected


def _random_sparse(rng):
    coeffs = {}
    for _ in range(rng.integers(2, 6)):
        ij = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        coeffs[ij] = complex(rng.normal(), rng.normal())
    return Poly(coeffs)


def test_reflect_worked_example():
    assert WORKED.reflect(WORKED_DEG) == Poly({(1, 1): 3, (1, 0): -1, (0, 1): -1})


def test_reflect_univariate():
    p = Poly({(0, 0): 2, (1, 0): -1})
    assert p.reflect(DegreePair(1, 0)) == Poly({(1, 0): 2, (0, 0): -1})


def test_reflect_is_involution():
    rng = np.random.default_rng(5)
    for _ in range(10):
        deg = DegreePair(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        coeffs = {
            (i, j): complex(rng.normal(), rng.normal())
            for i in range(deg.n + 1)
            for j in range(deg.m + 1)
        }
        p = Poly(coeffs)
        assert p.reflect(deg).reflect(deg) == p


def test_reflect_preserves_magnitude_multiset():
    rng = np.random.default_rng(6)
    deg = DegreePair(3, 2)
    coeffs = {
        (i, j): complex(rng.normal(), rng.normal())
        for i in range(4)
        for j in range(3)
    }
    p = Poly(coeffs)
    before = sorted(abs(c) for _, c in p.items())
    after = sorted(abs(c) for _, c in p.reflect(deg).items())
    assert np.allclose(before, after)


def test_reflect_rejects_support_outside_box():
    with pytest.raises(SupportOutsideBox):
        WORKED.reflect(DegreePair(0, 1))
    with pytest.raises(SupportOutsideBox):
        Poly({(-1, 0): 1}).reflect(DegreePair(1, 1))


def test_coefficient_window_readoff():
    grid = WORKED.coefficient_window((0, 1, 0, 1))
    assert np.array_equal(grid, np.array([[3, -1], [-1, 0]], dtype=complex))


def test_coefficient_window_zero_polynomial():
    grid = Poly.zero().coefficient_window((-2, 2, -1, 1))
    assert grid.shape == (5, 3)
    assert not grid.any()


def test_coefficient_window_excludes_outside_support():
    grid = Poly.monomial(1, 1).coefficient_window((0, 0, 0, 0))
    assert np.array_equal(grid, np.array([[0]], dtype=complex))


def test_zero_coefficients_are_pruned():
    p = Poly({(0, 0): 1, (2, 2): 0.0})
    assert len(p) == 1
    assert p.support_box == (0, 0, 0, 0)
    assert Poly.zero().support_box is None


def test_json_round_trip():
    doc = WORKED.to_json_dict(WORKED_DEG)
    assert doc == {"n": 1, "m": 1, "coeffs": [[[3.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]}
    back, deg = Poly.from_json_dict(doc)
    assert back == WORKED and deg == WORKED_DEG


# ----------------------------------------------------------------------
# The dense array against the coefficient-table loops
# ----------------------------------------------------------------------


def table_add(p, q, sign):
    """Sum or difference by the coefficient table, term by term."""
    out = dict(p.items())
    for ij, c in q.items():
        out[ij] = out.get(ij, 0j) + c if sign > 0 else out.get(ij, 0j) - c
    return Poly(out)


def table_mul(p, q):
    """Product by the coefficient table: every pair of terms, in order."""
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            ij = (i1 + i2, j1 + j2)
            out[ij] = out.get(ij, 0j) + c1 * c2
    return Poly(out)


def table_call(p, z, w):
    """Horner's rule over the coefficient table, exponents descending."""
    table = dict(p.items())
    i0, i1, j0, j1 = p.support_box
    acc = 0j
    for i in range(i1, i0 - 1, -1):
        row = 0j
        for j in range(j1, j0 - 1, -1):
            row = row * w + table.get((i, j), 0j)
        acc = acc * z + row
    return acc * z**i0 * w**j0


parts = st.one_of(
    st.floats(-2, 2, allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 1.0])
)
laurent_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(complex, parts, parts),
    min_size=1,
    max_size=8,
).map(Poly)
points = st.tuples(
    st.complex_numbers(min_magnitude=0.5, max_magnitude=1.5),
    st.complex_numbers(min_magnitude=0.5, max_magnitude=1.5),
)


@settings(max_examples=100, deadline=None)
@given(p=laurent_polys.filter(lambda p: not p.is_zero), q=laurent_polys, point=points)
def test_dense_arithmetic_is_the_table_arithmetic(p, q, point):
    assert p + q == table_add(p, q, +1)
    assert p - q == table_add(p, q, -1)
    # products round like the table loops, not to the bit
    product = p * q
    bound = 1e-15 * len(p) * len(q) * max(1.0, p.max_abs() * q.max_abs())
    assert (product - table_mul(p, q)).max_abs() <= bound
    assert p.conj_reciprocal() == Poly({(-i, -j): c.conjugate() for (i, j), c in p.items()})
    i0, i1, j0, j1 = p.support_box
    inside, deg = p.shift(-i0, -j0), DegreePair(i1 - i0 + 1, j1 - j0)
    reflected = {(deg.n - i, deg.m - j): c.conjugate() for (i, j), c in inside.items()}
    assert inside.reflect(deg) == Poly(reflected)
    z, w = point
    assert p(z, w) == table_call(p, z, w)
    # with |z|, |w| in [0.5, 1.5] and exponents in [-6, 6] every monomial of the
    # product is at most 2^12 in modulus
    expected = p(z, w) * q(z, w)
    scale = sum(abs(c) for _, c in p.items()) * sum(abs(c) for _, c in q.items()) * 2.0**12
    assert abs(product(z, w) - expected) <= 1e-13 * scale
    # every zero part flipped to -0.0 leaves the polynomial and its hash alone
    flipped = p.coeffs.copy()
    parts_view = flipped.view(float)
    parts_view[parts_view == 0] = -0.0
    same = Poly.from_array(flipped, p.offset)
    assert same == p and hash(same) == hash(p)
    for r in (p, product, p + q, inside.reflect(deg)):
        assert not r.coeffs.flags.writeable
        with pytest.raises(ValueError):
            r.coeffs[...] = 0

