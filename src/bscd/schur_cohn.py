"""The Schur-Cohn matrix of a stable polynomial.

Writing ``p(z, w) = sum_i p_i(z) w^i``, the m x m matrix combines two pairs
of triangular Toeplitz matrices in the slices ``p_i(z)`` and their
conjugate-reciprocal transforms: entry ``(i, j)`` is

    sum_{k <= min(i,j)}  p_{i-k}(z) * pbar_{j-k}(1/z)
                       - pbar_{m-i+k}(1/z) * p_{m-j+k}(z)

where ``pbar_j(1/z)`` has the conjugated coefficients of ``p_j`` with the
z-exponents negated.  Every entry is a Laurent polynomial with z-exponents
in ``[-n, n]``, so the coefficients are stored as one dense tensor of shape
``(m, m, 2n+1)``; each product above is a convolution of two coefficient
vectors.  On ``|z| = 1`` the matrix is Hermitian, and for stable ``p`` it is
positive definite and inverts the sliced moment matrix.

Values on the circle come from a second route that shares no code with the
tensor: with ``s_j = p_j(z)``, ``pbar_j(1/z) = conj(s_j)``, so the matrix is
``A A^H - B^H B`` for the triangular Toeplitz factors ``A[i, l] = s_{i-l}``
(``l <= i``) and ``B[k, j] = s_{m-j+k}`` (``k <= j``).  Checks that compare a
circle value with the coefficients therefore also check the convolution.

The circle functions take a 1-D array of ``K`` angles, one angle being an
array of one, and put the angle axis first in what they return.  A command
line run builds :func:`principal_determinants` on its theta grid once, and
every suite on the circle reads that one profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDegree, DegenerateMatrix
from .poly import BivariateLaurentPoly, DegreePair, as_angles


class LaurentMatrixPoly:
    """Square matrix whose entries are Laurent polynomials in z only.

    ``coeffs[i, j, e + n]`` is the coefficient of ``z^e`` in entry
    ``(i, j)`` for ``e = -n .. n``; the array is read-only.  Entry ``(j, i)``
    is the conjugate-reciprocal transform of entry ``(i, j)``.  ``slices``
    holds the ``m + 1`` z-polynomials ``p_0 .. p_m`` the matrix is built from,
    which :func:`evaluate_on_circle` evaluates.
    """

    __slots__ = ("n", "m", "coeffs", "slices")

    def __init__(self, coeffs, slices):
        coeffs = np.array(coeffs, dtype=complex)
        shape = coeffs.shape
        if len(shape) != 3 or shape[0] != shape[1] or shape[2] % 2 == 0:
            raise ValueError("coefficient tensor must have shape (m, m, 2n+1)")
        if len(slices) != shape[0] + 1:
            raise ValueError("an m x m matrix needs m + 1 slices")
        coeffs.setflags(write=False)
        self.m = coeffs.shape[0]
        self.n = coeffs.shape[2] // 2
        self.coeffs = coeffs
        self.slices = tuple(slices)

    def entry(self, i: int, j: int) -> BivariateLaurentPoly:
        return BivariateLaurentPoly.from_array(self.coeffs[i, j, :, None], (-self.n, 0))


@dataclass(frozen=True)
class DeterminantProfile:
    """Leading principal determinants, ``D[:, 0] == 1``, and the circle values
    at ``K`` angles: ``theta`` has shape ``(K,)``, ``D`` shape ``(K, m + 1)``
    and ``matrix`` shape ``(K, m, m)``."""

    theta: np.ndarray
    D: np.ndarray
    matrix: np.ndarray


def schur_cohn_matrix(p: BivariateLaurentPoly, deg: DegreePair) -> LaurentMatrixPoly:
    n, m = deg
    if m == 0:
        raise DegenerateDegree("the construction needs degree at least 1 in w")
    p._require_support_in_box(deg)
    # column i holds p_i(z) over z^0 .. z^n; its conjugate reversal holds
    # pbar_i(1/z) over z^-n .. z^0, so each product lands on z^-n .. z^n
    slices = p.coefficient_window((0, n, 0, m)).T
    bars = slices[:, ::-1].conj()
    coeffs = np.zeros((m, m, 2 * n + 1), dtype=complex)
    # the products scale as |p|^2: a scale past the float range overflows or
    # underflows them, which the check below names in place of numpy's warnings
    with np.errstate(all="ignore"):
        for i in range(m):
            for j in range(m):
                for k in range(min(i, j) + 1):
                    coeffs[i, j] += np.convolve(slices[i - k], bars[j - k])
                    coeffs[i, j] -= np.convolve(bars[m - i + k], slices[m - j + k])
    finite = np.isfinite(coeffs).all()
    if not finite or not coeffs.any():
        state = "all zero" if finite else "not finite"
        raise DegenerateMatrix(f"Schur-Cohn tensor is {state}: |p|^2 leaves the float range")
    return LaurentMatrixPoly(coeffs, [p.w_coefficient(i) for i in range(m + 1)])


def evaluate_on_circle(T: LaurentMatrixPoly, theta) -> np.ndarray:
    """Values at ``z = e^{i theta}`` as ``A A^H - B^H B``, symmetrized to exact
    Hermitian; for ``K`` angles the result has shape ``(K, m, m)``."""
    z = np.exp(1j * as_angles(theta))
    s = np.stack([q(z, 1.0) for q in T.slices], axis=-1)
    lag = np.subtract.outer(np.arange(T.m), np.arange(T.m))
    A = np.tril(s[..., lag])
    B = np.triu(s[..., T.m + np.minimum(lag, 0)])
    # the values scale as |p|^2, which can overflow where the tensor did not
    with np.errstate(all="ignore"):
        M = A @ _adjoint(A) - _adjoint(B) @ B
        M = 0.5 * (M + _adjoint(M))
    if not np.isfinite(M).all():
        raise DegenerateMatrix("circle values are not finite: |p|^2 leaves the float range")
    return M


def _adjoint(X: np.ndarray) -> np.ndarray:
    return X.conj().swapaxes(-1, -2)


def principal_determinants(T: LaurentMatrixPoly, theta) -> DeterminantProfile:
    """Leading principal determinants of the circle values at an array of angles."""
    theta = as_angles(theta)
    M = evaluate_on_circle(T, theta)
    D = np.ones((len(theta), T.m + 1))
    # D[i] scales as |p|^{2i}, which can overflow where the circle values did
    # not; the schur-cohn suite names a D that is not finite, and
    # moment_vanishing an integrand that is not finite
    with np.errstate(all="ignore"):
        for i in range(1, T.m + 1):
            D[:, i] = np.linalg.det(M[:, :i, :i]).real
    return DeterminantProfile(theta, D, M)


def diagonal_average(T: LaurentMatrixPoly, k: int) -> float:
    """Angle average of the diagonal entry ``(k, k)`` over the circle.

    Equals the constant Laurent coefficient of that entry, so no quadrature
    is involved.
    """
    return float(T.coeffs[k, k, T.n].real)
