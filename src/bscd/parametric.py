"""Orthogonal polynomials of the sliced circle measures via pivot-free LU.

At a fixed first angle the Schur-Cohn matrix is Hermitian positive definite,
so Doolittle elimination needs no row exchanges.  Reading the rows of the
upper factor against the reversed monomial vector ``[w^{m-1}, ..., 1]``
produces one polynomial per degree ``0 .. m-1``; their leading coefficients
and squared slice norms both equal the pivot ratio ``D[m-i] / D[m-i-1]`` of
the leading principal determinants.  :func:`orthogonality_check` returns
the residuals of orthogonality and of that norm law; the ``parametric``
suite of the CLI gates them under its ``identity`` tolerance.

Every object here lives on an array of ``K`` angles, angle axis first.
:func:`parametric_polynomials` factors the circle values of a
:class:`~bscd.schur_cohn.DeterminantProfile` it is given, so a run that
already holds the profile on its theta grid evaluates the matrix there once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrix, IndexOutOfRange, NoConvergence, NotPositiveDefinite
from .measure import SlicedMoments, StabilityReport, slice_inner_product, slice_moments
from .poly import angle_grid
from .schur_cohn import (
    DeterminantProfile,
    LaurentMatrixPoly,
    evaluate_on_circle,  # unused; bench/test_bench_spans.py asserts this binding (ROADMAP item 6)
    principal_determinants,
    schur_cohn_matrix,
)

PIVOT_TOL = 1e-12


def lu_no_pivot(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doolittle factorization without row exchanges, over any leading axes.

    Returns ``(L, U)`` with ``L`` unit lower triangular and ``L @ U == M`` for
    every matrix of the stack; each elimination step is taken for all of them
    at once, with the arithmetic of the one-matrix loop.  Raises
    :class:`NotPositiveDefinite` when a pivot of any matrix falls below
    tolerance, which for Hermitian input is equivalent to failing positive
    definiteness.
    """
    A = np.array(M, dtype=complex)
    size = A.shape[-1]
    if A.ndim < 2 or A.shape[-2] != size:
        raise ValueError("matrix must be square")
    L = np.zeros_like(A)
    L[..., np.arange(size), np.arange(size)] = 1.0
    for k in range(size):
        pivot = A[..., k, k]
        low = pivot.real < PIVOT_TOL
        if np.any(low):
            raise NotPositiveDefinite(
                f"pivot {pivot[low][0]:.3e} at elimination step {k}"
            )
        f = A[..., k + 1 :, k] / pivot[..., None]
        L[..., k + 1 :, k] = f
        A[..., k + 1 :, k:] -= f[..., None] * A[..., None, k, k:]
        A[..., k + 1 :, k] = 0.0
    return L, np.triu(A)


@dataclass(frozen=True)
class ParametricOPUC:
    """LU data and degree-graded polynomials at the ``K`` angles of ``D``.

    ``phi[i]``, shape ``(K, i + 1)``, holds ascending w-coefficients of the
    degree-i polynomial at each angle; its leading coefficient is the matching
    diagonal entry of ``U``.  ``U`` and ``L_factor`` have shape ``(K, m, m)``.
    """

    phi: tuple[np.ndarray, ...]
    U: np.ndarray
    L_factor: np.ndarray
    D: DeterminantProfile


def parametric_polynomials(profile: DeterminantProfile) -> ParametricOPUC:
    """Build the slice polynomials at the angles of ``profile``, factoring its
    circle values as one stack; :func:`lu_no_pivot` refuses a stack that is
    not positive definite."""
    m = profile.matrix.shape[-1]
    L, U = lu_no_pivot(profile.matrix)
    phi = tuple(U[:, m - 1 - i, m - 1 - i :][:, ::-1].copy() for i in range(m))
    return ParametricOPUC(phi, U, L, profile)


def _phi_rows(op: ParametricOPUC) -> np.ndarray:
    """Row ``i`` holds ``phi[i]`` padded with zeros to length m: ``U`` reversed."""
    return op.U[..., ::-1, ::-1]


def orthogonality_check(op: ParametricOPUC, sm: SlicedMoments) -> dict:
    """Sliced inner products of the polynomials and their two residuals.

    ``sm`` holds the slice moments at the angles of ``op``, with lags up to
    ``m - 1``.  Returns the Gram matrices ``gram``, shape ``(K, m, m)``, and
    per angle the largest off-diagonal modulus ``offdiag_max`` and the
    largest distance ``lu_law_residual`` of the diagonal from the pivot ratio
    ``D[m-i]/D[m-i-1]``.
    """
    m = op.U.shape[-1]
    rows = _phi_rows(op)
    gram = slice_inner_product(rows[:, :, None, :], rows[:, None, :, :], sm)
    off = np.max(np.where(np.eye(m, dtype=bool), 0.0, np.abs(gram)), axis=(1, 2))
    D = op.D.D
    diag = np.diagonal(gram, axis1=1, axis2=2)
    i = np.arange(m)
    lu_residual = np.max(np.abs(diag - D[:, m - i] / D[:, m - i - 1]), axis=1)
    return {"gram": gram, "offdiag_max": off, "lu_law_residual": lu_residual}


def moment_vanishing(
    stability: StabilityReport,
    k_lists,
    T: LaurentMatrixPoly | None = None,
) -> dict:
    """Angle-Fourier coefficients of the weighted squared slice norms of the
    ``p`` and ``deg`` of a stable ``stability``.

    ``k_lists`` maps each ``j`` to its frequencies ``k``.  Computes ``I_j(k) =
    (1/2pi) int e^{ik theta} D[m-j-1](theta) <phi_j, phi_j>_theta d theta``; the
    integrand equals ``D[m-j](theta)``, a trigonometric polynomial of degree at
    most ``n (m - j)``, so ``I_j`` vanishes beyond that frequency.  With ``N``
    the smallest power of two above every ``n (m - j) + |k|`` the N-angle sum
    is free of aliasing.  The 2N angles are sampled once for all ``j``; the N
    grid among them must give the same values to ``1e-11`` of the largest
    integrand, else :class:`NoConvergence`.  That largest integrand modulus
    is returned as each ``j``'s ``scale``: the vanishing values are roundoff
    of sums of that size.  An integrand that is not finite raises
    :class:`DegenerateMatrix`.  ``T`` is the Schur-Cohn matrix of ``p``, built
    here if not given.  The verdict is read first, so an unstable ``p``
    raises :class:`NotStable`, not the LU's error.
    """
    stability.require_stable()
    p, deg = stability.p, stability.deg
    n, m = deg
    k_lists = {int(j): [int(k) for k in ks] for j, ks in sorted(k_lists.items())}
    if any(not 0 <= j <= m - 1 for j in k_lists):
        raise IndexOutOfRange(f"indices {list(k_lists)} not all in 0..{m - 1}")
    bands = [n * (m - j) + max(map(abs, ks), default=0) for j, ks in k_lists.items()]
    half = 1 << max(bands, default=0).bit_length()
    size = 2 * half
    js = np.array(list(k_lists), dtype=int)
    thetas = angle_grid(size)
    sm = slice_moments(stability, thetas, m - 1)
    if T is None:
        T = schur_cohn_matrix(p, deg)
    op = parametric_polynomials(principal_determinants(T, thetas))
    rows = _phi_rows(op)[:, js]
    norms = slice_inner_product(rows, rows, sm).real.T
    D = op.D.D
    # D[m-j-1] scales as |p|^{2(m-j-1)}: past the float range the integrand
    # is not finite, which is named here in place of numpy's warnings
    with np.errstate(all="ignore"):
        main = D[:, m - js - 1].T * norms
        fine, coarse = np.fft.ifft(main), np.fft.ifft(main[:, ::2])
    if not np.isfinite(main).all():
        raise DegenerateMatrix("vanishing integrand is not finite: |p|^2 leaves the float range")
    per_j = {}
    # |k| < N, so a negative k indexes the FFT from the end, as it should
    for row, (j, ks) in enumerate(k_lists.items()):
        change = float(np.max(np.abs(fine[row, ks] - coarse[row, ks]), initial=0.0))
        scale = float(np.max(np.abs(main[row])))
        # a NaN change fails the check too
        if not change <= 1e-11 * max(1.0, scale):
            raise NoConvergence(
                f"vanishing check for j={j}: grids {half} and {size} differ by "
                f"{change:.3e} at integrand scale {scale:.3e}"
            )
        per_j[j] = {
            "k_list": ks,
            "values": [complex(v) for v in fine[row, ks]],
            "scale": scale,
        }
    return {"theta_grid": size, "per_j": per_j}


def gram_schmidt_slice_polynomials(sm: SlicedMoments) -> list[np.ndarray]:
    """Independent construction path: Gram-Schmidt on ``1, w, ..., w^{m-1}``.

    ``m`` is ``sm.lag + 1``.  Returns the monic polynomials orthogonal on the
    slice, for comparison with the LU route after rescaling to matching
    leading coefficients: at ``K`` angles ``monic[d]`` has shape
    ``(K, d + 1)``, and every step runs over the whole stack of lag matrices
    at once (:func:`slice_inner_product`).
    """
    m = sm.lag + 1
    basis: list[np.ndarray] = []
    for d in range(m):
        v = np.zeros((len(sm.theta), m), dtype=complex)
        v[:, d] = 1.0
        for q in basis:
            ratio = slice_inner_product(v, q, sm) / slice_inner_product(q, q, sm)
            v = v - ratio[:, None] * q
        basis.append(v)
    return [v[:, : d + 1] for d, v in enumerate(basis)]
