"""Gram-based reproducing kernels and orthogonality verification suites.

A finite monomial span, or the orthogonal complement of a nested span inside
a larger one, has a reproducing kernel expressible through an orthonormal
basis of it.  With ``v(x)`` the monomials of the enclosing span at ``x`` and
``B`` the basis coefficients over them, one column per basis polynomial,

    K(x; y) = sum_c (v(x) B)_c conj((v(y) B)_c).

Every Gram solve goes through such a basis: ``B`` comes from one
condition-checked Cholesky factor (:func:`_complement_coefficients`), and for
a whole span ``G^{-1} = B B^H``.

The kernel coefficients ``a_k`` satisfy more orthogonality relations than
the ones that define them.  :func:`orthogonality_report` checks those
relations over one rectangle, fixed by ``MARGIN`` and ``SHIFT_MAX``, from one
array of pairings, and returns them split into relation families: the values
plus the integer indices that name each pairing, picked by masks built from
:func:`in_coefficient_orthogonality_set`.  It also reads the one pairing each
``a_k`` keeps.  :func:`shift_orthogonality_report` checks that the complement
space behind the span identities is orthogonal to its own z-shifts.
:func:`reconstruct_kernel_coefficients` runs the converse, recovering every
``a_k`` from the defining relations alone.  The ``verify-orthogonality``
suite of the command line reports all three.

Everything in this module reduces statements about infinite monomial families
to explicit finite windows with margins; residuals decay geometrically in the
margin because the underlying measures have analytic densities.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cd_kernel import CDKernelSet, cd_numerator
from .errors import DegenerateDegree, IllConditionedGram
from .measure import MomentTable, ensure_stable, torus_grid_values
from .poly import BivariateLaurentPoly, DegreePair, coefficient_matrix
from .schur_cohn import LaurentMatrixPoly, diagonal_average

GRAM_CONDITION_CAP = 1e12
# the orthogonality rectangle reaches MARGIN past the index sets it checks,
# and the shift relations run up to z^SHIFT_MAX
MARGIN = 4
SHIFT_MAX = 2


# ----------------------------------------------------------------------
# Index-set predicates and span descriptions
# ----------------------------------------------------------------------


def in_coefficient_orthogonality_set(i, j, k, deg: DegreePair):
    """Membership in the annihilated index set of the k-th kernel coefficient.

    The set is everything in the strip ``0 <= j < m`` except the single
    monomial ``(n, k)``, together with the two quadrant pieces
    ``{i > n, j < 0}`` and ``{i < n, j >= m}``.  Integer indices give a
    bool; integer arrays, broadcast together, give the mask over them.
    """
    n, m = deg
    return (
        ((i > n) & (j < 0))
        | ((j >= 0) & (j < m) & (j != k))
        | ((i < n) & (j >= m))
        | ((j == k) & (i != n))
    )


def monomial_rect(i0: int, i1: int, j0: int, j1: int) -> tuple[tuple[int, int], ...]:
    """All exponent pairs of the rectangle, row-major by z-exponent."""
    return tuple((i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1))


@dataclass(frozen=True)
class SubspaceSpec:
    """Monomials of an enclosing span and of a nested span to subtract."""

    S1: tuple[tuple[int, int], ...]
    S2: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if len(set(self.S1)) != len(self.S1) or len(set(self.S2)) != len(self.S2):
            raise ValueError("duplicate exponents in subspace spec")
        if not set(self.S2) <= set(self.S1):
            raise ValueError("S2 must be contained in S1")


# ----------------------------------------------------------------------
# Gram machinery
# ----------------------------------------------------------------------


def gram_matrix(S, moments: MomentTable) -> np.ndarray:
    """Hermitian Gram matrix ``G[a, b] = <m_b, m_a>`` over the monomial list."""
    G = moments.lag_matrix(S, S)
    return 0.5 * (G + G.conj().T)


def _require_conditioned(G: np.ndarray, label: str) -> None:
    """Raise :class:`IllConditionedGram` unless ``G`` is positive definite
    within the condition cap."""
    eigs = np.linalg.eigvalsh(G)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > GRAM_CONDITION_CAP:
        raise IllConditionedGram(f"{label} spectrum [{eigs[0]:.3e}, {eigs[-1]:.3e}]")


def _complement_coefficients(spec: SubspaceSpec, moments: MomentTable) -> np.ndarray:
    """Orthonormal basis of ``span(S1) - span(S2)``, one column over ``S1`` each.

    Each monomial of ``S1`` outside ``S2`` minus its projection onto
    ``span(S2)`` is a residual; the residuals are orthonormalized through the
    Cholesky factor of their Gram matrix.  With ``S2`` empty the residuals
    are the monomials themselves, so the basis ``B`` of ``span(S1)`` gives
    ``G^{-1} = B B^H``.  Both Gram matrices are checked against
    ``GRAM_CONDITION_CAP`` first.  An empty span has no Gram matrix to check
    and a basis of no columns, so every projection onto it is zero.
    """
    S1 = list(spec.S1)
    extra = [mu for mu in S1 if mu not in set(spec.S2)]
    if not extra:
        return np.zeros((len(S1), 0), dtype=complex)
    residuals = np.zeros((len(S1), len(extra)), dtype=complex)
    residuals[[S1.index(mu) for mu in extra], np.arange(len(extra))] = 1.0
    if spec.S2:
        G2 = gram_matrix(spec.S2, moments)
        _require_conditioned(G2, "nested-span Gram")
        # column c holds <z^mu, z^alpha> over alpha in S2, for mu = extra[c]
        projection = np.linalg.solve(G2, moments.lag_matrix(spec.S2, extra))
        residuals[[S1.index(alpha) for alpha in spec.S2]] = -projection
    Gb = residuals.conj().T @ moments.lag_matrix(S1, S1) @ residuals
    Gb = 0.5 * (Gb + Gb.conj().T)
    _require_conditioned(Gb, "complement Gram" if spec.S2 else "Gram")
    C = np.linalg.inv(np.linalg.cholesky(Gb)).conj().T
    return residuals @ C


# ----------------------------------------------------------------------
# Reconstruction from orthogonality
# ----------------------------------------------------------------------


def reconstruct_kernel_coefficients(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    moments: MomentTable,
    T: LaurentMatrixPoly,
) -> tuple[BivariateLaurentPoly, ...]:
    """Recover every kernel coefficient from its orthogonality relations.

    The k-th is the element of span{z^i w^j : 0 <= i <= 2n, 0 <= j < m}
    orthogonal to every monomial of the box except ``z^n w^k``, normalized
    so that the pairing against ``z^n w^k`` is real positive and the squared
    norm equals the circle average of the diagonal entry ``(k, k)`` of the
    Schur-Cohn matrix ``T`` of ``p``.  All ``m`` of them come from one
    orthonormal basis of the box.
    """
    ensure_stable(p, deg)
    n, m = deg
    S = monomial_rect(0, 2 * n, 0, m - 1)
    B = _complement_coefficients(SubspaceSpec(S), moments)
    pivots = [S.index((n, k)) for k in range(m)]
    # column k is G^{-1} e_k = B B^H e_k, with e_k the indicator of z^n w^k
    X = B @ B[pivots].conj().T
    raw_norm2 = X[pivots, np.arange(m)].real
    target = np.array([diagonal_average(T, k) for k in range(m)])
    X = X * np.sqrt(target / raw_norm2)
    # S runs row-major over the box, so column k reshapes to the array of a_k
    return tuple(BivariateLaurentPoly.from_array(x.reshape(2 * n + 1, m)) for x in X.T)


# ----------------------------------------------------------------------
# Orthogonality reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RelationFamily:
    """Pairings the theory says vanish: ``values[r]`` is the one named by the
    integer row ``index[r]``, which ``label`` turns into ``[label, i, j]``."""

    values: np.ndarray
    index: np.ndarray
    label: Callable[..., list]

    def summary(self, scale: float) -> dict:
        """``count``, the largest ``|value| / scale`` (NaN if any value is
        NaN) and the label of the first pairing that reaches it."""
        size = np.abs(self.values)
        at = int(np.argmax(size)) if size.size else None
        return {
            "count": size.size,
            "max": 0.0 if at is None else float(size[at] / scale),
            "argmax": None if at is None else self.label(*self.index[at].tolist()),
        }


@dataclass(frozen=True)
class OrthReport:
    """Relation families by name, and the pivots ``<a_k, z^n w^k>`` (observed
    to be 1, not assumed) where the report reads them."""

    families: dict[str, RelationFamily]
    pivots: np.ndarray | None = None

    @property
    def max_violation(self) -> float:
        values = np.concatenate([f.values for f in self.families.values()])
        return float(np.max(np.abs(values), initial=0.0))


def _index_grid(*axes) -> np.ndarray:
    """Every index tuple of the product of the ranges ``axes``, one row each,
    in lexicographic order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _window_pairings(polys, moments: MomentTable, i0: int, i1: int, j0: int, j1: int):
    """``R[i - i0, j - j0, k] = <polys[k], z^i w^j>`` over a rectangle, at once.

    The lag matrix between the rectangle and the union of the supports holds
    every moment the pairings read, so its window check covers them all.
    """
    support, F = coefficient_matrix(polys)
    R = moments.lag_matrix(monomial_rect(i0, i1, j0, j1), support) @ F
    return R.reshape(i1 - i0 + 1, j1 - j0 + 1, F.shape[1])


def orthogonality_window(deg: DegreePair) -> tuple[int, int]:
    """The moment window ``(max |a|, max |b|)`` that :func:`orthogonality_report`
    reads; :func:`shift_orthogonality_report` reads inside it."""
    n, m = deg
    return (max(3 * n + MARGIN + SHIFT_MAX, n + 2 * MARGIN), 2 * m + MARGIN)


def orthogonality_report(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    kernelset: CDKernelSet,
    moments: MomentTable,
) -> OrthReport:
    """Check every annihilated monomial of each ``a_k`` over one rectangle.

    The rectangle, ``min(-(n+MARGIN+SHIFT_MAX), n-2 MARGIN) <= i <=
    max(2n+MARGIN, n+2 MARGIN)`` by ``-(m+MARGIN) <= j <= 2m+MARGIN``, holds
    each duality relation ``<z^{j1+n} w^{k1}, z^{j2} a_{k2}> = 0`` with shifts
    up to the margin, as its conjugate ``<a_{k2}, z^{n+j1-j2} w^{k1}>``: a
    strip pairing.  It also holds each shift relation ``<z^s a_k, z^i w^j> =
    <a_k, z^{i-s} w^j> = 0`` with ``s <= SHIFT_MAX``, ``-(n+MARGIN) <= i < n``
    and ``0 <= j <= m+MARGIN``: a strip or upper-quadrant pairing.  The
    families ``strip`` (``0 <= j < m``), ``lower_quadrant`` (``j < 0``) and
    ``upper_quadrant`` (``j >= m``) are indexed by ``(k, i, j)``.
    """
    ensure_stable(p, deg)
    n, m = deg
    i0 = min(-(n + MARGIN + SHIFT_MAX), n - 2 * MARGIN)
    i1 = max(2 * n + MARGIN, n + 2 * MARGIN)
    j0, j1 = -(m + MARGIN), 2 * m + MARGIN
    R = _window_pairings(kernelset.a, moments, i0, i1, j0, j1)
    index = _index_grid(range(m), range(i0, i1 + 1), range(j0, j1 + 1))
    k, i, j = index.T
    values, keep = R[i - i0, j - j0, k], in_coefficient_orthogonality_set(i, j, k, deg)
    masks = {
        "strip": keep & (j >= 0) & (j < m),
        "lower_quadrant": keep & (j < 0),
        "upper_quadrant": keep & (j >= m),
    }
    families = {
        name: RelationFamily(values[mask], index[mask], lambda k, i, j: [f"a_{k}", i, j])
        for name, mask in masks.items()
    }
    return OrthReport(families, pivots=R[n - i0, np.arange(m) - j0, np.arange(m)])


def shift_orthogonality_report(
    p: BivariateLaurentPoly, deg: DegreePair, moments: MomentTable
) -> OrthReport:
    """Shift invariance of the complement behind the span identities.

    ``complement_shift``, indexed by ``(s, bi, bj)``: the complement space
    spanned against the one-step-smaller box is orthogonal to its own
    z-shifts, ``<z^s phi_bi, phi_bj> = 0`` for ``1 <= s <= SHIFT_MAX`` on an
    orthonormalized basis.
    """
    ensure_stable(p, deg)
    n, m = deg
    spec = SubspaceSpec(monomial_rect(0, n, 0, m - 1), monomial_rect(0, n - 1, 0, m - 1))
    basis = _complement_coefficients(spec, moments)
    # P[s - 1, bi, bj] = <z^s phi_bi, phi_bj>
    shifted = [[(i + s, j) for i, j in spec.S1] for s in range(1, SHIFT_MAX + 1)]
    P = np.array([(basis.conj().T @ moments.lag_matrix(spec.S1, S) @ basis).T for S in shifted])
    dim = basis.shape[1]
    complement = RelationFamily(
        P.reshape(-1),
        _index_grid(range(1, SHIFT_MAX + 1), range(dim), range(dim)),
        lambda s, bi, bj: [f"z^{s}H[{bi}]|H[{bj}]", s, 0],
    )
    return OrthReport({"complement_shift": complement})


# ----------------------------------------------------------------------
# Christoffel-Darboux formula
# ----------------------------------------------------------------------


def cd_formula_residual(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    moments: MomentTable,
) -> dict:
    """Coefficient check of the bivariate Christoffel-Darboux identity

        p(x) conj(p(y)) - pr(x) conj(pr(y))
            = (1 - w conj(w1)) K1(x; y) + (1 - z conj(z1)) K2(x; y)

    with ``x = (z, w)``, ``y = (z1, w1)`` and ``pr`` the reflection of ``p``.
    Both sides are polynomials in ``x`` and ``conj(y)`` over the box
    ``[0, n] x [0, m]``, so the identity is one Hermitian equation between
    coefficient arrays ``[i, j, k, l]``, the coefficient of
    ``z^i w^j conj(z1^k w1^l)``:

        c c^H - c_r c_r^H = E1 - S_w E1 S_w^H + E2 - S_z E2 S_z^H.

    The left side comes from ``p`` alone.  ``E1`` and ``E2`` are the kernels
    ``B B^H`` of the two one-step difference spans, placed on the box, and
    come from the moments alone; a shift ``S`` moves an array one index up
    in its variable on both sides.  Returns the largest entry difference
    ``max_residual``, the monomial pair ``argmax`` where it sits (the first
    one, or the first NaN), and ``E1`` and ``E2``.
    """
    n, m = deg
    if n == 0 or m == 0:
        raise DegenerateDegree("the identity needs degree at least 1 in each variable")
    ensure_stable(p, deg)
    B1 = _complement_coefficients(
        SubspaceSpec(monomial_rect(0, n, 0, m - 1), monomial_rect(0, n - 1, 0, m - 1)),
        moments,
    )
    B2 = _complement_coefficients(
        SubspaceSpec(monomial_rect(0, n - 1, 0, m), monomial_rect(0, n - 1, 1, m)),
        moments,
    )
    # each S1 runs row-major over its rectangle, so B B^H reshapes to [i, j, k, l]
    K1 = (B1 @ B1.conj().T).reshape(n + 1, m, n + 1, m)
    K2 = (B2 @ B2.conj().T).reshape(n, m + 1, n, m + 1)
    E1 = np.zeros((n + 1, m + 1, n + 1, m + 1), dtype=complex)
    E2 = np.zeros_like(E1)
    E1[:, :m, :, :m] = K1
    E2[:n, :, :n, :] = K2
    rhs = E1 + E2
    rhs[:, 1:, :, 1:] -= K1
    rhs[1:, :, 1:, :] -= K2
    gap = np.abs(cd_numerator(p, deg) - rhs)
    at = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return {
        "max_residual": float(gap[at]),
        "argmax": [[int(at[0]), int(at[1])], [int(at[2]), int(at[3])]],
        "E1": E1,
        "E2": E2,
    }


# ----------------------------------------------------------------------
# Closed-form kernel of the L-shaped span
# ----------------------------------------------------------------------


class _CornerKernelQuadrature:
    """Quadrature of the closed-form corner kernel at a fixed list of points.

    What depends on the grid alone (``conj(p)``, ``conj(refl)`` and
    ``|p|^2`` on it) is built once, and what depends on a point alone
    (``p(y)``, ``refl(y)`` and the two denominator factors) once per point.
    Every pairing then evaluates the same expression from the same operands
    in the same order, so batching changes no bit of it.
    """

    __slots__ = ("grid", "conj_V", "conj_Vr", "weight", "at_points")

    def __init__(self, p: BivariateLaurentPoly, deg: DegreePair, points, grid: int):
        pr = p.reflect(deg)
        V = torus_grid_values(p, grid)
        self.grid = grid
        self.conj_V = np.conj(V)
        self.conj_Vr = np.conj(torus_grid_values(pr, grid))
        self.weight = np.abs(V) ** 2
        conj_circle = np.conj(np.exp(2j * np.pi * np.arange(grid) / grid))
        self.at_points = []
        for y in points:
            yz, yw = complex(y[0]), complex(y[1])
            self.at_points.append(
                (p(yz, yw), pr(yz, yw), 1.0 - conj_circle * yz, 1.0 - conj_circle * yw)
            )

    def pairings(self, f: BivariateLaurentPoly) -> list[complex]:
        """``<f, K(., y)>`` at every point ``y``, in order."""
        f_vals = torus_grid_values(f, self.grid)
        return [self._pairing(f_vals, *at) for at in self.at_points]

    def _pairing(self, f_vals, py, pry, denom_z, denom_w) -> complex:
        # the grids of one pair are freed on return, before the next pair's
        K_conj = (self.conj_V * py - self.conj_Vr * pry) / np.outer(denom_z, denom_w)
        integrand = f_vals * K_conj / self.weight
        return complex(integrand.mean())


def closed_form_kernel_pairing(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    f: BivariateLaurentPoly,
    y,
    grid: int = 512,
) -> complex:
    """Quadrature of ``<f, K(., y)>`` for the closed-form corner kernel

        K(x; y) = [p(x) conj(p(y)) - refl(x) conj(refl(y))]
                  / [(1 - z conj(yz)) (1 - w conj(yw))]

    on the uniform ``grid x grid`` torus grid.  The integrand is analytic
    near the torus for ``y`` in the open bidisk, so the grid sum converges
    spectrally.  One pair builds the grid values of ``p``, its reflection
    and ``f`` for itself; :func:`closed_form_kernel_residual` builds those
    of ``p`` once for all its pairs and gets the same values to the bit.
    """
    return _CornerKernelQuadrature(p, deg, [y], grid).pairings(f)[0]


def closed_form_kernel_residual(
    p: BivariateLaurentPoly,
    deg: DegreePair,
    moments: MomentTable,
    test_functions,
    points,
    grid: int = 512,
) -> dict:
    """Reproducing-property check for the corner-span kernel.

    Functions supported on the L-shaped index set must be reproduced at
    every interior point.  Functions with a component in the removed corner
    are compared against the Gram projection onto the L-shaped monomials of
    their own coefficient box, which the closed form must match exactly.
    The quadrature builds the grid values of ``p`` and its reflection once
    per call and those of each function once.
    """
    ensure_stable(p, deg)
    n, m = deg
    points = list(points)
    quadrature = _CornerKernelQuadrature(p, deg, points, grid)
    reproducing_max = 0.0
    projection_max = 0.0
    for f in test_functions:
        if f.is_zero:
            continue
        box = f.support_box
        if box[0] < 0 or box[2] < 0:
            raise ValueError("test functions must be genuine polynomials")
        # f lies in the L-shaped span unless it has a term in the corner i >= n, j >= m
        member = not f.coeffs[max(n - box[0], 0) :, max(m - box[2], 0) :].any()
        if not member:
            W = [
                (i, j)
                for i in range(box[1] + 1)
                for j in range(box[3] + 1)
                if not (i >= n and j >= m)
            ]
            B = _complement_coefficients(SubspaceSpec(tuple(W)), moments)
            support, coeffs = coefficient_matrix([f])
            # r[(i, j)] = <f, z^i w^j>; the projection is G^{-1} r = B B^H r
            r = (moments.lag_matrix(W, support) @ coeffs)[:, 0]
            x = B @ (B.conj().T @ r)
        for y, paired in zip(points, quadrature.pairings(f)):
            # np.maximum keeps a NaN pairing, where max(0.0, nan) is 0.0
            if member:
                reproducing_max = np.maximum(reproducing_max, abs(paired - f(*y)))
            else:
                projected = sum(
                    coeff * complex(y[0]) ** i * complex(y[1]) ** j
                    for coeff, (i, j) in zip(x, W)
                )
                projection_max = np.maximum(projection_max, abs(paired - projected))
    return {
        "max_residual": float(np.maximum(reproducing_max, projection_max)),
        "reproducing_max": float(reproducing_max),
        "projection_max": float(projection_max),
    }


def default_lshape_monomials(
    deg: DegreePair, count: int = 10, margin: int = 4
) -> list[BivariateLaurentPoly]:
    """A graded list of monomials from the L-shaped span, for kernel tests."""
    n, m = deg
    picked = []
    for total in range(0, 2 * (max(n, m) + margin) + 1):
        for i in range(0, total + 1):
            j = total - i
            if i > n + margin or j > m + margin:
                continue
            if not (i >= n and j >= m):
                picked.append(BivariateLaurentPoly.monomial(i, j))
                if len(picked) == count:
                    return picked
    return picked
