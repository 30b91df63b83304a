"""Orthogonal polynomials of the sliced circle measures via pivot-free LU.

At a fixed first angle the Schur-Cohn matrix is Hermitian positive definite,
so Doolittle elimination needs no row exchanges.  Reading the rows of the
upper factor against the reversed monomial vector ``[w^{m-1}, ..., 1]``
produces one polynomial per degree ``0 .. m-1``; their leading coefficients
and squared slice norms both equal the pivot ratio ``D[m-i] / D[m-i-1]`` of
the leading principal determinants.  (The variant subscripting
``D[m-i] / D[m-i+1]``, which shifts the denominator index the other way, is
inconsistent with the factorization; it is computed and reported alongside
for comparison wherever it is defined.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDegree, IndexOutOfRange, NoConvergence, NotPositiveDefinite
from .measure import _slice_moments_unchecked, ensure_stable, slice_inner_product
from .poly import BivariateLaurentPoly, DegreePair
from .schur_cohn import (
    DeterminantProfile,
    LaurentMatrixPoly,
    evaluate_on_circle,
    principal_determinants,
    schur_cohn_matrix,
)

PIVOT_TOL = 1e-12
LAW_TOL = 1e-9


def lu_no_pivot(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doolittle factorization without row exchanges.

    Returns ``(L, U)`` with ``L`` unit lower triangular and ``L @ U == M``.
    Raises :class:`NotPositiveDefinite` when a pivot falls below tolerance,
    which for Hermitian input is equivalent to failing positive definiteness.
    """
    A = np.array(M, dtype=complex)
    size = A.shape[0]
    if A.shape != (size, size):
        raise ValueError("matrix must be square")
    L = np.eye(size, dtype=complex)
    for k in range(size):
        pivot = A[k, k]
        if pivot.real < PIVOT_TOL:
            raise NotPositiveDefinite(f"pivot {pivot:.3e} at elimination step {k}")
        for r in range(k + 1, size):
            f = A[r, k] / pivot
            L[r, k] = f
            A[r, k:] -= f * A[k, k:]
            A[r, k] = 0.0
    return L, np.triu(A)


@dataclass(frozen=True)
class ParametricOPUC:
    """LU data and degree-graded polynomials at one angle.

    ``phi[i]`` holds ascending w-coefficients of the degree-i polynomial;
    its leading coefficient is the matching diagonal entry of ``U``.
    """

    theta: float
    phi: tuple[np.ndarray, ...]
    U: np.ndarray
    L_factor: np.ndarray
    D: DeterminantProfile


def parametric_polynomials(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    theta: float,
    T: LaurentMatrixPoly | None = None,
) -> ParametricOPUC:
    """Build the slice polynomials at ``z = e^{i theta}``."""
    n, m = deg
    if m == 0:
        raise DegenerateDegree("need degree at least 1 in w")
    ensure_stable(p, deg)
    if T is None:
        T = schur_cohn_matrix(p, deg)
    M = evaluate_on_circle(T, theta)
    L, U = lu_no_pivot(M)
    phi = []
    for i in range(m):
        row = m - 1 - i
        coeffs = np.zeros(i + 1, dtype=complex)
        for col in range(row, m):
            coeffs[m - 1 - col] = U[row, col]
        phi.append(coeffs)
    return ParametricOPUC(
        float(theta), tuple(phi), U, L, principal_determinants(T, theta)
    )


def orthogonality_check(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    theta: float,
    opuc: ParametricOPUC | None = None,
) -> dict:
    """Sliced inner products of the polynomials against both diagonal laws.

    Off-diagonal entries must vanish; diagonal entries are compared to the
    pivot-consistent ratio ``D[m-i]/D[m-i-1]`` and, where defined (i >= 1),
    to the variant ``D[m-i]/D[m-i+1]``.
    """
    ensure_stable(p, deg)
    n, m = deg
    op = opuc if opuc is not None else parametric_polynomials(p, deg, theta)
    sm = _slice_moments_unchecked(p, deg, theta, m - 1)
    gram = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            gram[i, j] = slice_inner_product(op.phi[i], op.phi[j], sm)
    off = 0.0
    if m > 1:
        off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    D = op.D.D
    lu_residual = 0.0
    variant_residual = None
    for i in range(m):
        lu_law = D[m - i] / D[m - i - 1]
        lu_residual = max(lu_residual, abs(gram[i, i] - lu_law))
        if m - i + 1 <= m:
            variant = D[m - i] / D[m - i + 1]
            dev = abs(gram[i, i] - variant)
            variant_residual = dev if variant_residual is None else max(
                variant_residual, dev
            )
    return {
        "gram": gram,
        "profile": D,
        "offdiag_max": off,
        "lu_law_residual": float(lu_residual),
        "variant_law_residual": (
            None if variant_residual is None else float(variant_residual)
        ),
        "matches_lu_law": bool(lu_residual < LAW_TOL),
        "matches_variant_law": (
            None if variant_residual is None else bool(variant_residual < LAW_TOL)
        ),
    }


def moment_vanishing(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    k_lists,
) -> dict:
    """Angle-Fourier coefficients of the weighted squared slice norms.

    ``k_lists`` maps each ``j`` to its frequencies ``k``.  Computes ``I_j(k) =
    (1/2pi) int e^{ik theta} D[m-j-1](theta) <phi_j, phi_j>_theta d theta``; the
    integrand equals ``D[m-j](theta)``, a trigonometric polynomial of degree at
    most ``n (m - j)``, so ``I_j`` vanishes beyond that frequency.  With ``N``
    the smallest power of two above every ``n (m - j) + |k|`` the N-angle sum
    is free of aliasing.  The 2N angles are sampled once for all ``j``; the N
    grid among them must give the same values to ``1e-11`` of the largest
    integrand, else :class:`NoConvergence`.  The variant weight ``D[m-j+1]``
    is tabulated too where defined (``j >= 1``).
    """
    n, m = deg
    k_lists = {int(j): [int(k) for k in ks] for j, ks in sorted(k_lists.items())}
    if any(not 0 <= j <= m - 1 for j in k_lists):
        raise IndexOutOfRange(f"indices {list(k_lists)} not all in 0..{m - 1}")
    ensure_stable(p, deg)
    T = schur_cohn_matrix(p, deg)
    bands = [n * (m - j) + max(map(abs, ks), default=0) for j, ks in k_lists.items()]
    half = 1 << max(bands, default=0).bit_length()
    size = 2 * half
    js = np.array(list(k_lists), dtype=int)
    D = np.empty((size, m + 1))
    norms = np.empty((js.size, size))
    for idx in range(size):
        theta = 2.0 * np.pi * idx / size
        op = parametric_polynomials(p, deg, theta, T)
        sm = _slice_moments_unchecked(p, deg, theta, m - 1)
        D[idx] = op.D.D
        norms[:, idx] = [slice_inner_product(op.phi[j], op.phi[j], sm).real for j in js]
    main = D[:, m - js - 1].T * norms
    fine, coarse = np.fft.ifft(main), np.fft.ifft(main[:, ::2])
    variant = np.fft.ifft(D[:, np.minimum(m - js + 1, m)].T * norms)  # j = 0: unused
    per_j = {}
    # |k| < N, so a negative k indexes the FFT from the end, as it should
    for row, (j, ks) in enumerate(k_lists.items()):
        change = float(np.max(np.abs(fine[row, ks] - coarse[row, ks]), initial=0.0))
        scale = float(np.max(np.abs(main[row])))
        if change > 1e-11 * max(1.0, scale):
            raise NoConvergence(
                f"vanishing check for j={j}: grids {half} and {size} differ by "
                f"{change:.3e} at integrand scale {scale:.3e}"
            )
        per_j[j] = {
            "k_list": ks,
            "values": [complex(v) for v in fine[row, ks]],
            "variant_values": [complex(v) for v in variant[row, ks]] if j else None,
        }
    return {"theta_grid": size, "per_j": per_j}


def gram_schmidt_slice_polynomials(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    theta: float,
) -> list[np.ndarray]:
    """Independent construction path: Gram-Schmidt on ``1, w, ..., w^{m-1}``.

    Returns monic polynomials orthogonal on the slice, for comparison with
    the LU route after rescaling to matching leading coefficients.
    """
    ensure_stable(p, deg)
    m = deg.m
    sm = _slice_moments_unchecked(p, deg, theta, m - 1)
    basis: list[np.ndarray] = []
    for d in range(m):
        v = np.zeros(d + 1, dtype=complex)
        v[d] = 1.0
        for q in basis:
            coeff = slice_inner_product(v, q, sm) / slice_inner_product(q, q, sm)
            v[: q.size] -= coeff * q
        basis.append(v)
    return basis
