"""The parametrized Christoffel-Darboux kernel and its coefficient family.

The kernel attached to a stable ``p`` of degree (n, m) is a polynomial of
degree (2n, m-1) in (z, w) and degree m-1 in the conjugated parameter; its
parameter coefficients ``a_0 .. a_{m-1}`` are the central objects here.
Three independent construction routes are provided, and the ``cd-kernel``
suite of the command line checks them against each other:

1. :func:`kernel_coefficients` reads the family off the Schur-Cohn matrix.
2. :func:`kernel_by_divided_difference` divides the numerator of the
   Christoffel-Darboux formula by the parameter factor, with the parameter
   formal.
3. :func:`cofactor_decomposition` produces polynomials A_j, B_j with
   ``a_j = p * A_j + reflect(p) * B_j``.

A second route ties the family to the matrix: :func:`slice_gram`
integrates the ``a_j`` against the w-slice measures at a grid of angles,
and their Gram matrix there is ``T(e^{i theta})``.  The suite reports the
gap as ``slice_gram_max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDegree, NonzeroRemainder
from .measure import SlicedMoments, ensure_stable, slice_inner_product, w_slice
from .poly import BivariateLaurentPoly, DegreePair
from .schur_cohn import (
    LaurentMatrixPoly,
    evaluate_on_circle,  # unused; bench/test_bench_spans.py asserts this binding (ROADMAP item 6)
    schur_cohn_matrix,
)

DIVISION_REMAINDER_TOL = 1e-11


@dataclass(frozen=True)
class CDKernelSet:
    """Kernel coefficient family plus its cofactor decomposition.

    ``a[j]`` is supported in [0, 2n] x [0, m-1]; ``A[j]`` and ``B[j]`` in
    [0, n] x [0, j]; and ``a[j] = p A[j] + reflect(p) B[j]`` up to roundoff.
    """

    a: tuple[BivariateLaurentPoly, ...]
    A: tuple[BivariateLaurentPoly, ...] = field(default=())
    B: tuple[BivariateLaurentPoly, ...] = field(default=())
    deg: DegreePair = DegreePair(0, 0)

    def parameter_sum(self, eta: complex) -> BivariateLaurentPoly:
        """The kernel at parameter ``eta``: sum_j a_j * conj(eta)^j."""
        terms = (aj.scale(np.conj(eta) ** j) for j, aj in enumerate(self.a))
        return sum(terms, BivariateLaurentPoly.zero())


def kernel_coefficients(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    T: LaurentMatrixPoly | None = None,
) -> tuple[BivariateLaurentPoly, ...]:
    """Coefficient family from the Schur-Cohn matrix route.

    ``a_j(z, w) = z^n * sum_i w^i T[i][j](z)``; the prefactor clears every
    negative z-exponent, so the coefficient of ``z^e w^i`` in ``a_j`` is
    ``T.coeffs[i, j, e]`` and each ``a_j`` lands in [0, 2n] x [0, m-1].
    """
    if deg.m == 0:
        raise DegenerateDegree("kernel needs degree at least 1 in w")
    if T is None:
        T = schur_cohn_matrix(p, deg)
    return tuple(BivariateLaurentPoly.from_array(T.coeffs[:, j].T) for j in range(deg.m))


def cd_numerator(p: BivariateLaurentPoly, deg: DegreePair) -> np.ndarray:
    """Coefficients of ``p(x) conj(p(y)) - pr(x) conj(pr(y))``, ``pr`` the
    reflection of ``p``, ``x = (z, w)`` and ``y = (z1, w1)``: entry ``[i, j,
    k, l]`` is the coefficient of ``z^i w^j conj(z1^k w1^l)`` on the box."""
    box = (0, deg.n, 0, deg.m)
    c, cr = p.coefficient_window(box), p.reflect(deg).coefficient_window(box)
    return np.multiply.outer(c, c.conj()) - np.multiply.outer(cr, cr.conj())


def kernel_by_divided_difference(
    p: BivariateLaurentPoly,
    deg: DegreePair,
) -> tuple[BivariateLaurentPoly, ...]:
    """Coefficient family from the rational quotient route.

    At ``y = (1/conj z, eta)`` the :func:`cd_numerator` has the coefficient
    ``N[e + n, t, j]`` at ``z^e w^t conj(eta)^j``: the sum of its entries
    ``[i1, t, i2, j]`` with ``i1 - i2 = e``.  Dividing by ``1 - w conj(eta)``,
    ``conj(eta)`` formal, gives ``Q[:, t, j] = N[:, t, j] + Q[:, t-1, j-1]``,
    and ``Q[:, :m, j]`` is ``a_j``.  The division is exact in theory: the
    ``w^m`` row and ``conj(eta)^m`` column of ``Q`` are its remainder, and
    one above tolerance signals a bug upstream.
    """
    n, m = deg
    if m == 0:
        raise DegenerateDegree("kernel needs degree at least 1 in w")
    L = cd_numerator(p, deg)
    Q = np.zeros((2 * n + 1, m + 1, m + 1), dtype=complex)
    for i2 in range(n + 1):
        Q[n - i2 : 2 * n + 1 - i2] += L[:, :, i2, :]
    scale = max(float(np.max(np.abs(Q))), 1.0)
    for t in range(1, m + 1):
        Q[:, t, 1:] += Q[:, t - 1, :-1]
    remainder = max(np.max(np.abs(Q[:, m])), np.max(np.abs(Q[:, :, m])))
    if remainder > DIVISION_REMAINDER_TOL * scale:
        raise NonzeroRemainder(f"division remainder {remainder:.3e} (scale {scale:.3e})")
    return tuple(BivariateLaurentPoly.from_array(Q[:, :m, j]) for j in range(m))


def cofactor_decomposition(
    p: BivariateLaurentPoly,
    deg: DegreePair,
) -> tuple[tuple[BivariateLaurentPoly, ...], tuple[BivariateLaurentPoly, ...]]:
    """Polynomial pairs (A_j, B_j) with ``a_j = p A_j + reflect(p) B_j``.

    With ``r_j`` the degree-n reflection of the slice ``p_j(z)``,

        A_t = sum_{s=0}^{t} r_{t-s}(z) w^s
        B_t = -sum_{s=0}^{t} p_{m-t+s}(z) w^s

    so both have degree at most n in z and t in w.
    """
    n, m = deg
    if m == 0:
        raise DegenerateDegree("kernel needs degree at least 1 in w")
    p._require_support_in_box(deg)
    # column j of P is p_j and column j of R is r_j; each sum starts from 0,
    # which turns every -0.0 into 0.0
    P = p.coefficient_window((0, n, 0, m))
    R = 0.0 + P[::-1].conj()
    A = tuple(BivariateLaurentPoly.from_array(R[:, t::-1]) for t in range(m))
    B = tuple(BivariateLaurentPoly.from_array(0.0 - P[:, m - t :]) for t in range(m))
    return A, B


def cd_kernel_set(
    p: BivariateLaurentPoly, deg: DegreePair, T: LaurentMatrixPoly | None = None
) -> CDKernelSet:
    """Assemble the full kernel family for a stable polynomial, from its
    Schur-Cohn matrix ``T`` if one is given."""
    ensure_stable(p, deg)
    a = kernel_coefficients(p, deg, T)
    A, B = cofactor_decomposition(p, deg)
    return CDKernelSet(a=a, A=A, B=B, deg=deg)


# ----------------------------------------------------------------------
# Slice identity
# ----------------------------------------------------------------------


def slice_gram(kernelset: CDKernelSet, sm: SlicedMoments) -> np.ndarray:
    """Sliced Gram matrices of the coefficient family at the angles of ``sm``.

    Returns ``G`` with shape ``(K, m, m)``, where ``G[k, i, j]`` integrates
    ``conj(a_i) a_j`` against the w-slice measure at the k-th angle; the
    identity says ``G = T(e^{i theta})`` for stable ``p``.  ``sm`` needs
    lags up to ``m - 1``.
    """
    m = kernelset.deg.m
    z = np.exp(1j * np.atleast_1d(sm.theta))
    # sections[k, j] holds the w-coefficients of a_j at the k-th angle
    sections = np.stack([w_slice(aj, z, m) for aj in kernelset.a]).transpose(2, 0, 1)
    # integral of conj(a_i) a_j equals <a_j, a_i> on the slice
    return slice_inner_product(sections[:, None, :, :], sections[:, :, None, :], sm)
