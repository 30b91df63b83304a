"""The parametrized Christoffel-Darboux kernel and its coefficient family.

The kernel attached to a stable ``p`` of degree (n, m) is a polynomial of
degree (2n, m-1) in (z, w) and degree m-1 in the conjugated parameter; its
parameter coefficients ``a_0 .. a_{m-1}`` are the central objects here.
Three independent construction routes are provided and cross-checked by the
test suite:

1. :func:`kernel_coefficients` reads the family off the Schur-Cohn matrix.
2. :func:`kernel_by_divided_difference` forms the rational quotient
   directly and divides out the parameter factor synthetically.
3. :func:`cofactor_decomposition` produces polynomials A_j, B_j with
   ``a_j = p * A_j + reflect(p) * B_j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDegree, NonzeroRemainder
from .measure import (
    _slice_moments_unchecked,
    ensure_stable,
    slice_inner_product,
    w_slice,
)
from .poly import BivariateLaurentPoly, DegreePair
from .schur_cohn import LaurentMatrixPoly, evaluate_on_circle, schur_cohn_matrix

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
        acc = BivariateLaurentPoly.zero()
        for j, aj in enumerate(self.a):
            acc = acc + aj.scale(np.conj(eta) ** j)
        return acc


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
    m = deg.m
    if m == 0:
        raise DegenerateDegree("kernel needs degree at least 1 in w")
    if T is None:
        T = schur_cohn_matrix(p, deg)
    return tuple(
        BivariateLaurentPoly(
            {(e, i): c for i in range(m) for e, c in enumerate(T.coeffs[i, j])}
        )
        for j in range(m)
    )


def kernel_by_divided_difference(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    eta: complex,
) -> BivariateLaurentPoly:
    """Kernel at parameter ``eta`` from the rational quotient route.

    Builds the numerator ``p(z,w) * conj(p(1/conj z, eta)) - reflect(p)(z,w)
    * conj(reflect(p)(1/conj z, eta))`` as a Laurent polynomial in (z, w),
    divides synthetically by ``1 - w conj(eta)`` and clears ``z^n``.  The
    division is exact in theory; a remainder above tolerance signals a bug
    upstream.
    """
    n, m = deg
    if m == 0:
        raise DegenerateDegree("kernel needs degree at least 1 in w")
    p._require_support_in_box(deg)
    eta_bar = complex(eta).conjugate()
    pr = p.reflect(deg)

    # conj(q(1/conj z, eta)) as a z-only Laurent polynomial, for q in {p, pr}
    def conjugated_section(q: BivariateLaurentPoly) -> BivariateLaurentPoly:
        coeffs: dict[tuple[int, int], complex] = {}
        for (i, j), c in q.items():
            key = (-i, 0)
            coeffs[key] = coeffs.get(key, 0j) + c.conjugate() * eta_bar**j
        return BivariateLaurentPoly(coeffs)

    numerator = p * conjugated_section(p) - pr * conjugated_section(pr)

    # synthetic division by (1 - w*eta_bar), ascending in the w-degree
    slices = [numerator.w_coefficient(t) for t in range(m + 1)]
    quotient = [slices[0]]
    for t in range(1, m):
        quotient.append(slices[t] + quotient[t - 1].scale(eta_bar))
    remainder = slices[m] + quotient[m - 1].scale(eta_bar)
    scale = max(numerator.max_abs(), 1.0)
    if remainder.max_abs() > DIVISION_REMAINDER_TOL * scale:
        raise NonzeroRemainder(
            f"division remainder {remainder.max_abs():.3e} (scale {scale:.3e})"
        )

    acc = BivariateLaurentPoly.zero()
    for t, q in enumerate(quotient):
        acc = acc + q.shift(n, t)
    return acc


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
    slices = [p.w_coefficient(j) for j in range(m + 1)]
    reflected = [q.reflect(DegreePair(n, 0)) for q in slices]
    A_list, B_list = [], []
    for t in range(m):
        A = BivariateLaurentPoly.zero()
        B = BivariateLaurentPoly.zero()
        for s in range(t + 1):
            A = A + reflected[t - s].shift(0, s)
            B = B - slices[m - t + s].shift(0, s)
        A_list.append(A)
        B_list.append(B)
    return tuple(A_list), tuple(B_list)


def cd_kernel_set(p: BivariateLaurentPoly, deg: DegreePair) -> CDKernelSet:
    """Assemble the full kernel family for a stable polynomial."""
    ensure_stable(p, deg)
    a = kernel_coefficients(p, deg)
    A, B = cofactor_decomposition(p, deg)
    return CDKernelSet(a=a, A=A, B=B, deg=deg)


# ----------------------------------------------------------------------
# Slice identities
# ----------------------------------------------------------------------


def slice_norm_check(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    theta: float,
    eta: complex,
    kernelset: CDKernelSet | None = None,
) -> dict:
    """Compare the sliced squared norm of the kernel to its diagonal value.

    The left side integrates ``|L(z, w; eta)|^2`` against the w-slice measure
    at ``z = e^{i theta}`` via sliced quadrature; the right side is
    ``conj(z)^n L(z, eta; eta)`` read off the coefficient family directly.
    """
    ensure_stable(p, deg)
    n, m = deg
    ks = kernelset if kernelset is not None else cd_kernel_set(p, deg)
    z = np.exp(1j * float(theta))
    eta_bar = complex(eta).conjugate()

    section = np.zeros(m, dtype=complex)
    for j, aj in enumerate(ks.a):
        section += eta_bar**j * w_slice(aj, z, m)
    sm = _slice_moments_unchecked(p, deg, theta, m - 1 if m > 1 else 0)
    lhs = slice_inner_product(section, section, sm)

    rhs = np.conj(z) ** n * sum(
        aj(z, eta) * eta_bar**j for j, aj in enumerate(ks.a)
    )
    return {
        "lhs": float(lhs.real),
        "rhs": complex(rhs),
        "residual": float(abs(lhs - rhs)),
    }


def slice_gram_residual(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    theta: float,
    kernelset: CDKernelSet | None = None,
    T: LaurentMatrixPoly | None = None,
) -> np.ndarray:
    """Sliced Gram matrix of the coefficient family minus the matrix value.

    Returns ``G - T(e^{i theta})`` where ``G[i, j]`` integrates
    ``conj(a_i) a_j`` against the w-slice measure; the identity says this
    vanishes for stable ``p``.
    """
    ensure_stable(p, deg)
    n, m = deg
    ks = kernelset if kernelset is not None else cd_kernel_set(p, deg)
    if T is None:
        T = schur_cohn_matrix(p, deg)
    z = np.exp(1j * float(theta))
    sections = np.array([w_slice(aj, z, m) for aj in ks.a])
    sm = _slice_moments_unchecked(p, deg, theta, m - 1 if m > 1 else 0)
    # integral of conj(a_i) a_j equals <a_j, a_i> on the slice
    G = slice_inner_product(sections[None, :, :], sections[:, None, :], sm)
    return G - evaluate_on_circle(T, theta)
