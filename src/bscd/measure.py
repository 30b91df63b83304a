"""Measures of the form dsigma / |p|^2 on the two-torus.

For a polynomial ``p`` that is zero-free on the closed bidisk the density
``1 / |p|^2`` is analytic in a neighbourhood of the torus, so its Fourier
coefficients decay geometrically and uniform-grid DFT sums converge
spectrally.  Two independent moment pipelines are provided:

* :func:`moments_from_grid` integrates ``1/|p(z, .)|^2`` over ``w`` on each
  of N circle angles (the slice moments) and takes their inverse DFT over
  the angles, doubling N until the window is stable; each angle refines its
  own w-grid.
* :func:`moments_from_series` expands ``1/p`` as a power series by the
  recursion forced by ``p * (1/p) = 1``, one total degree (anti-diagonal)
  at a time, and correlates the series with itself, doubling the truncation
  order until the window is stable.  The correlation is one FFT of the
  zero-padded coefficient array: the padding leaves no wrapped term at any
  lag of the window, so it is the exact finite sum.  This route never
  evaluates ``p`` or the density on the torus and serves as an oracle for
  the grid path.

All DFT reductions are ``numpy.fft`` butterflies, numpy pairwise sums or
left folds, so results are deterministic.  The series transform runs in
place in the buffer it reads, its power spectrum is formed and reduced a
block of rows at a time, and each one-axis pass covers only the rows or
columns that hold a nonzero input or whose output is read; every 1-D
transform sees the input it would see in the full pass, so the pruning moves
no bit.  Neither route holds a torus grid, and the series route holds no
second array the size of its padded series.
The angle grid, the series order and the slice grids all double in one
loop (:func:`_refine`), and slice samples become moments through one
transform (:func:`_density_window`).  :func:`torus_grid_values` evaluates
``p`` on the torus for the closed-form kernel quadrature.  Pairings of
polynomials against a moment table are matrix products with its lag matrix
(:meth:`MomentTable.lag_matrix`).
Every published value is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InconclusiveNearBoundary,
    NoConvergence,
    NotStable,
    WindowTooSmall,
    ZeroPolynomial,
)
from .poly import BivariateLaurentPoly, DegreePair, angle_grid, as_angles, coefficient_matrix

BOUNDARY_TOL = 1e-9
GRID_START = 256
GRID_CAP = 8192
SERIES_START = 64
SERIES_CAP = 4096
MOMENT_TOL = 1e-11
DEFAULT_SLICE_TOL = 1e-12
# angles per batch of slice FFTs, and rows per batch of the series power
# spectrum; it bounds their memory, not their results
SLICE_BLOCK = 128
# series entries per gather of the recurrence; it bounds its memory, not its results
SERIES_GATHER = 1 << 16
STABILITY_GRID = 1024


# ----------------------------------------------------------------------
# Stability
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """The checked value of :func:`check_stability`: ``p``, its degree ``deg``
    and the verdict of the root scan, for every verdict.

    ``stable`` is True, False, or None when the scan cannot decide.
    ``min_root_modulus`` is the smallest root modulus found (``inf`` for no
    root), the number the verdict compares with 1 and ``1 + BOUNDARY_TOL``;
    ``witness``, that root as ``(z, w)``, is present unless ``stable``.
    Every function that forms ``1 / |p|^2`` takes this value and reads its
    verdict through :meth:`require_stable`, so none scans again.
    """

    p: BivariateLaurentPoly
    deg: DegreePair
    stable: bool | None
    witness: tuple[complex, complex] | None
    min_root_modulus: float

    @property
    def message(self) -> str:
        """Why the verdict is not stable."""
        if self.stable is None:
            return f"root modulus {self.min_root_modulus!r} within {BOUNDARY_TOL} of the unit circle"
        return f"zero of p at {self.witness} inside the closed bidisk"

    def require_stable(self) -> "StabilityReport":
        """This report if stable; else raise :class:`NotStable`, or
        :class:`InconclusiveNearBoundary` when the scan cannot decide.  The
        one place either is raised."""
        if self.stable is None:
            raise InconclusiveNearBoundary(self.message)
        if not self.stable:
            raise NotStable(self.message)
        return self


def torus_grid_values(p: BivariateLaurentPoly, size: int) -> np.ndarray:
    """Evaluate ``p`` at ``(e^{2 pi i k / size}, e^{2 pi i l / size})``.

    Index ``[k, l]`` of the result is the value at angles ``(k, l)``.  Works
    for Laurent support as well since exponents only matter modulo ``size``.
    The first (axis-1) pass runs over the rows that hold a coefficient only:
    every other row of the coefficient grid is zero and transforms to zero.
    """
    (i0, j0), (rows, cols) = p.offset, p.coeffs.shape
    # band row r is grid row (i0 + r) % size; aliased exponents add up there,
    # and a -0.0 coefficient enters as +0.0
    band = np.zeros((min(rows, size), size), dtype=complex)
    np.add.at(band, np.ix_(np.arange(rows) % size, (j0 + np.arange(cols)) % size), p.coeffs)
    # unnormalized inverse transforms; for a power-of-two size this is
    # ifft2(coefficient grid) * size**2 to the bit
    np.fft.ifft(band, axis=1, norm="forward", out=band)
    grid = np.zeros((size, size), dtype=complex)
    grid[(i0 + np.arange(len(band))) % size] = band
    del band
    np.fft.ifft(grid, axis=0, norm="forward", out=grid)
    return grid


def w_slice(p: BivariateLaurentPoly, z, size: int) -> np.ndarray:
    """Coefficients of ``w -> p(z, w)`` in ascending w-degree, ``size`` of them.

    ``z`` may be a scalar or an array; for an array the w-degree runs along
    the first axis of the result, followed by the shape of ``z``.  The
    w-support of ``p`` must lie in ``[0, size)``.
    """
    z = np.asarray(z, dtype=complex)
    out = np.zeros((size,) + z.shape, dtype=complex)
    (i0, j0), cols = p.offset, p.coeffs.shape[1]
    for i, row in enumerate(p.coeffs, start=i0):
        out[j0 : j0 + cols] += np.multiply.outer(row, z**i)
    return out


def check_stability(p: BivariateLaurentPoly, deg: DegreePair) -> StabilityReport:
    """Root-scan zero-freeness test on the closed bidisk.

    ``p`` must be nonzero with its support in ``[0, n] x [0, m]``.  For every
    ``z`` on a uniform circle grid of ``STABILITY_GRID`` points the roots of
    ``w -> p(z, w)`` must lie strictly outside the closed unit disk, and so
    must the roots of ``z -> p(z, 1)``.  The smallest root modulus decides:
    at most 1 is unstable, within ``BOUNDARY_TOL`` outside the circle
    inconclusive, since the scan cannot certify the boundary, and larger
    stable.  Every verdict is returned as a :class:`StabilityReport` that
    carries ``p`` and ``deg``.  This is a practical test, not an algebraic
    decision procedure.
    """
    if p.is_zero:
        raise ZeroPolynomial("stability is undefined for the zero polynomial")
    p._require_support_in_box(deg)
    box = p.support_box
    # keyed by the support box: the zero rows and columns of a wider deg add no root
    return StabilityReport(p, deg, *_cached_stability(p, box[1], box[3]))


@lru_cache(maxsize=128)
def _cached_stability(p, n, m):
    # the verdict fields of a StabilityReport: stable, witness, min_root_modulus.
    # The scan reads 2^e p, max|coeff| in [1, 2): the same roots, and no subnormal
    # slice coefficient to overflow a complex division; 2^e goes in two halves
    e = 1 - np.frexp(p.max_abs())[1]
    halves = np.ldexp(np.ldexp(p.coeffs.view(float), e // 2), e - e // 2)
    p = BivariateLaurentPoly.from_array(halves.view(complex), p.offset)

    zs = np.exp(2j * np.pi * np.arange(STABILITY_GRID) / STABILITY_GRID)
    min_root, witness = _min_w_root(w_slice(p, zs, m + 1), zs)
    # z -> p(z, 1) is one more slice, with the roles of z and w swapped;
    # a tie goes to the w-slices
    z_coeffs = p.coefficient_window((0, n, 0, m)).sum(axis=1)
    z_root, z_witness = _min_w_root(z_coeffs[:, None], np.ones(1))
    if z_root < min_root:
        min_root, witness = z_root, z_witness[::-1]

    stable = False if min_root <= 1.0 else None if min_root < 1.0 + BOUNDARY_TOL else True
    return stable, None if stable else witness, float(min_root)


def _min_w_root(slice_vals: np.ndarray, zs: np.ndarray):
    """Smallest root modulus of ``w -> p(z_k, w)`` over the sampled ``z_k``.

    ``slice_vals[:, k]`` holds the ascending w-coefficients at ``zs[k]``.
    Returns the modulus and its ``(z, w)``, or ``inf`` and a point that is no
    root when no slice has one; ties go to the first slice, then to the
    first root.  A slice that vanishes reports the root ``w = 0``.
    Slices of full degree with a nonzero constant term share one batched
    eigenvalue call on companion matrices built as ``np.roots`` builds them,
    so their roots are the ``np.roots`` roots to the bit; a slice whose
    leading or trailing coefficient is zero goes through ``np.roots`` itself.
    """
    m = slice_vals.shape[0] - 1
    best = np.full(slice_vals.shape[1], np.inf)
    best_root = np.zeros(slice_vals.shape[1], dtype=complex)
    full = (slice_vals[m] != 0) & (slice_vals[0] != 0)
    if m >= 1 and full.any():
        desc = slice_vals[::-1, full].T
        companion = np.zeros((desc.shape[0], m, m), dtype=complex)
        companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1
        roots = np.linalg.eigvals(companion)
        rows = np.arange(roots.shape[0])
        idx = np.argmin(np.abs(roots), axis=1)
        best_root[full] = roots[rows, idx]
        best[full] = np.abs(best_root[full])
    for k in np.flatnonzero(~full):
        roots = np.roots(slice_vals[::-1, k]) if slice_vals[:, k].any() else np.zeros(1)
        if roots.size:
            idx = int(np.argmin(np.abs(roots)))
            best[k], best_root[k] = np.abs(roots[idx]), roots[idx]
    k = int(np.argmin(best))
    return best[k], (complex(zs[k]), complex(best_root[k]))


# ----------------------------------------------------------------------
# Moment tables
# ----------------------------------------------------------------------


class MomentTable:
    """Fourier coefficients ``c[a, b]`` of the measure over a centered window.

    Entries satisfy ``c[-a, -b] == conj(c[a, b])`` (enforced by averaging)
    and ``c[0, 0]`` is real positive.  ``grid_size`` records the resolution
    of the final refinement step (the number of angles for the grid
    pipeline, the truncation order for the series pipeline) and
    ``est_error`` the last-doubling discrepancy.
    """

    __slots__ = ("window", "_values", "grid_size", "est_error")

    def __init__(self, window, values, grid_size, est_error):
        A, B = int(window[0]), int(window[1])
        values = np.asarray(values, dtype=complex)
        if values.shape != (2 * A + 1, 2 * B + 1):
            raise ValueError("value grid does not match window")
        self.window = (A, B)
        self._values = _hermitianize(values, (0, 1))
        self._values.setflags(write=False)
        self.grid_size = int(grid_size)
        self.est_error = float(est_error)

    def get(self, a: int, b: int) -> complex:
        A, B = self.window
        if abs(a) > A or abs(b) > B:
            raise WindowTooSmall((a, b), self.window)
        return complex(self._values[a + A, b + B])

    def require(self, window) -> None:
        """Raise :class:`WindowTooSmall` unless the table holds every moment
        with ``|a| <= window[0]`` and ``|b| <= window[1]``."""
        if window[0] > self.window[0] or window[1] > self.window[1]:
            raise WindowTooSmall(window, self.window, needed=True)

    def lag_matrix(self, rows, cols) -> np.ndarray:
        """The moments ``M[r, c] = c[cols[c] - rows[r]]`` between two exponent lists.

        For ``f`` with coefficients ``fv`` on ``cols`` and ``g`` with ``gv`` on
        ``rows``, ``<f, g> = conj(gv) @ M @ fv``.  Every lag is checked before
        any is read, so a short window is reported as the window all of them
        need.
        """
        rows = np.asarray(rows, dtype=np.intp).reshape(-1, 2)
        cols = np.asarray(cols, dtype=np.intp).reshape(-1, 2)
        if rows.size == 0 or cols.size == 0:
            return np.zeros((len(rows), len(cols)), dtype=complex)
        lo = cols.min(axis=0) - rows.max(axis=0)
        hi = cols.max(axis=0) - rows.min(axis=0)
        self.require(tuple(int(x) for x in np.maximum(-lo, hi)))
        # flat index of lag (a, b) in the row-major value array, split into a
        # column part and a row part so that one index array is allocated
        A, B = self.window
        width = 2 * B + 1
        col_key = (cols[:, 0] + A) * width + cols[:, 1] + B
        row_key = rows[:, 0] * width + rows[:, 1]
        return self._values.ravel()[col_key - row_key[:, None]]

    def max_difference(self, other: "MomentTable") -> float:
        """Largest entrywise discrepancy over the common window."""
        A = min(self.window[0], other.window[0])
        B = min(self.window[1], other.window[1])
        sA, sB = self.window
        oA, oB = other.window
        mine = self._values[sA - A : sA + A + 1, sB - B : sB + B + 1]
        theirs = other._values[oA - A : oA + A + 1, oB - B : oB + B + 1]
        return float(np.max(np.abs(mine - theirs)))

    def to_json_dict(self) -> dict:
        A, B = self.window
        values = []
        for a in range(-A, A + 1):
            for b in range(-B, B + 1):
                c = self._values[a + A, b + B]
                values.append([a, b, c.real, c.imag])
        return {
            "window": [A, B],
            "values": values,
            "grid_size": self.grid_size,
            "est_error": self.est_error,
        }


def _hermitianize(values: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Average ``values`` with its conjugate reversed along ``axes``; the
    center along those axes becomes real."""
    sym = 0.5 * (values + np.conj(np.flip(values, axes)))
    center = tuple(
        size // 2 if axis in axes else slice(None) for axis, size in enumerate(values.shape)
    )
    sym[center] = sym[center].real
    return sym


def _refine(compute, count: int, start: int, cap: int, tol: float, what: str):
    """Double a resolution from ``start`` until the window of every row settles.

    ``compute(size, rows)`` gives the windows of the rows ``rows`` (an index
    array into ``range(count)``) at resolution ``size``, stacked along the
    first axis.  Each row stops on its own, at the first doubling where its
    window moves by less than ``tol * max(1, max|window|)``, with ``window``
    its values at the new size: relative for windows above 1, such as the
    moments of a scaled-down ``p``, which grow as ``1/|c|^2`` for ``c p``,
    and absolute below.  Only the rows still open are computed at the next
    size.  Returns the windows, the stopping sizes and the last (absolute)
    changes, one per row.  Raises :class:`NoConvergence` once a row is still
    open at ``cap``, naming ``what``, the size and the largest open change.
    A change that is not finite raises at once: a doubled resolution keeps
    every earlier sample or term, so a window that overflowed stays so.
    """
    rows = np.arange(count)
    size = start
    prev = compute(size, rows)
    # a row's whole window, also when there are no rows
    window_axes = tuple(range(1, prev.ndim))
    values = np.empty_like(prev)
    sizes = np.empty(count, dtype=int)
    changes = np.empty(count)
    while True:
        size *= 2
        cur = compute(size, rows)
        with np.errstate(invalid="ignore"):
            change = np.max(np.abs(cur - prev), axis=window_axes)
        if not np.isfinite(change).all():
            bad = change[~np.isfinite(change)][0]
            raise NoConvergence(f"{what} {size} not finite (change {bad:.3e})")
        scale = np.maximum(1.0, np.max(np.abs(cur), axis=window_axes))
        done = change < tol * scale
        values[rows[done]] = cur[done]
        sizes[rows[done]] = size
        changes[rows[done]] = change[done]
        rows, prev, change = rows[~done], cur[~done], change[~done]
        if rows.size == 0:
            return values, sizes, changes
        if size >= cap:
            raise NoConvergence(f"{what} {size} not stable (change {change.max():.3e})")


def _density_window(values: np.ndarray, lag: int) -> np.ndarray:
    """The Fourier coefficients ``|k| <= lag`` of ``1 / |values|^2`` along the last axis.

    Each row of ``values`` holds samples on a uniform circle grid; it is
    overwritten.  The density is formed in one real array and the transform
    runs in the buffer of the values, so that real array is the only other
    one of their size.
    """
    # a window that overflowed is reported by _refine, so numpy's warnings are off
    with np.errstate(all="ignore"):
        density = np.abs(values)
        density **= 2
        np.divide(1.0, density, out=density)
        values[...] = density
        del density
        np.fft.ifft(values, axis=-1, out=values)
    return values[..., np.arange(-lag, lag + 1) % values.shape[-1]]


def moments_from_grid(stability: StabilityReport, window: tuple[int, int]) -> MomentTable:
    """Moment window as the inverse angle DFT of the slice moments, with doubling.

    ``stability`` carries ``p`` and must be stable (see
    :meth:`StabilityReport.require_stable`).  On ``N`` angles ``theta_k`` the
    row ``a`` of the window is the inverse DFT over ``k`` of the slice
    moments ``m_b(theta_k)``, ``|b| <= window[1]``, each on its own w-grid
    (:func:`slice_moments`).  ``N`` starts at 256 and doubles until the window
    changes by less than ``MOMENT_TOL * max(1, max|window|)``; raises
    :class:`NoConvergence` at the 8192 cap.  The slices of one size sit at
    the even angles of the next, so each doubling computes the odd ones only.
    """
    p, deg = stability.require_stable().p, stability.deg
    A, B = int(window[0]), int(window[1])
    slices = np.empty((0, 2 * B + 1), dtype=complex)

    def compute(size, rows):
        nonlocal slices
        thetas = angle_grid(size)
        if len(slices):
            odd = _slice_moments_unchecked(p, deg, thetas[1::2], B).values
            slices = np.stack([slices, odd], axis=1).reshape(size, -1)
        else:
            slices = _slice_moments_unchecked(p, deg, thetas, B).values
        return np.fft.ifft(slices, axis=0)[np.arange(-A, A + 1) % size][None]

    values, sizes, changes = _refine(
        compute, 1, GRID_START, GRID_CAP, MOMENT_TOL, "moment window at grid"
    )
    return MomentTable((A, B), values[0], sizes[0], changes[0])


def _reciprocal_series(
    p: BivariateLaurentPoly, order: int, shape: tuple[int, int]
) -> np.ndarray:
    """Power-series coefficients ``d`` of ``1/p`` up to total order ``order``.

    ``p * d = 1`` fixes ``d`` one total degree at a time: every term
    ``c z^k w^l`` of ``p`` but the constant reaches back to a lower
    anti-diagonal, so ``d[i, s - i]`` is ``-sum c d[i - k, s - i - l]`` over
    the terms, divided by ``p(0, 0)``.  The last anti-diagonals are kept
    contiguous too, one per row of a small ring with ``n`` zeros in front,
    so the sources of a term are one run of that ring.  Each anti-diagonal
    is then one gather of every term's run, one multiply and one
    ``np.subtract.reduce`` over the terms: a left fold in term order, which
    rounds as subtracting the terms one by one does.  Every source off the
    triangle subtracts zero: for ``i < k`` it is one of the zeros in front
    of a row, for ``i > s - l`` it lies past the end of its anti-diagonal,
    where the ring has only ever held shorter ones, and for ``k + l > s``
    its row is not yet written.  The coefficients fill the triangle
    ``i + j <= order`` of a zero array of the given ``shape``, which needs
    ``shape >= (order + 1, order + 1)``; the padding the correlation needs
    costs no copy.
    """
    d = np.zeros(shape, dtype=complex)
    flat = d.reshape(-1)
    step = shape[1] - 1
    constant = p.coefficient(0, 0)
    if constant == 0:
        raise NotStable("p(0, 0) = 0")
    # the nonzero coefficients of p row-major, less the first: the constant
    rows, cols = (index[1:] for index in np.nonzero(p.coeffs))
    coeffs = p.coeffs[rows, cols][:, None]
    degrees = rows + cols
    # row s % slots of the ring holds d[i, s - i] at column pad + i
    slots, pad = int(degrees.max(initial=0)) + 1, p.coeffs.shape[0] - 1
    width = pad + order + 1
    ring = np.zeros(slots * width + order + 1, dtype=complex)
    runs = np.lib.stride_tricks.sliding_window_view(ring, order + 1)
    # where each term's run starts in the ring, one row per value of s % slots
    offsets = ((np.arange(slots)[:, None] - degrees) % slots) * width + pad - rows
    # one buffer for every gather: row 0 carries the fold, the rest hold terms
    room = max(SERIES_GATHER, order + 1)
    fold_buffer = np.empty(min(room, len(coeffs) * (order + 1)) + order + 1, dtype=complex)
    d[0, 0] = ring[pad] = 1.0 / constant
    for s in range(1, order + 1):
        diag = ring[(s % slots) * width + pad :][: s + 1]
        diag[...] = 0
        block = room // (s + 1)
        for start in range(0, len(coeffs), block):
            terms = slice(start, start + block)
            fold = fold_buffer[: (len(coeffs[terms]) + 1) * (s + 1)].reshape(-1, s + 1)
            fold[0] = diag
            # d[i - k, s - i - l] for i = 0 .. s, from anti-diagonal s - k - l;
            # the coefficient is the first factor, as in c * d: numpy's
            # vectorized complex product can round differently when swapped
            sources = runs[offsets[s % slots, terms], : s + 1]
            np.multiply(coeffs[terms], sources, out=fold[1:])
            np.subtract.reduce(fold, axis=0, out=diag)
        diag /= constant
        flat[s : s * shape[1] + 1 : step] = diag
    return d


def _fast_len(target: int) -> int:
    """The least 5-smooth integer ``>= target``, a fast FFT length."""
    n = max(target, 1)
    while True:
        rest = n
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return n
        n += 1


def _series_shape(order: int, A: int, B: int) -> tuple[int, int]:
    """Padded shape on which the circular correlation of an order-``order``
    series equals the linear one for every lag ``|a| <= A``, ``|b| <= B``."""
    return (_fast_len(order + 1 + A), _fast_len(order + 1 + B))


def _series_window(d: np.ndarray, A: int, B: int) -> np.ndarray:
    """The lags ``c[a, b] = sum d[i, j] conj(d[i+a, j+b])``, ``|a| <= A, |b| <= B``.

    ``d`` is a series of total order ``T`` zero-padded to ``_series_shape(T,
    A, B)``; it is overwritten.  With ``d`` nonzero only for ``i, j <= T``,
    the circular correlation on ``P x Q >= (T+1+A) x (T+1+B)`` has no
    wrapped term at these lags, so it is the finite sum exactly.  It is
    ``fft2(|F|^2) / (P Q)`` at ``(a, b)`` with ``F = fft2(d)``; the power is
    real, so ``rfft2`` gives the columns ``0 <= b <= Q//2`` and the rest
    are the conjugates of ``(-a, -b)``.  Either way the window reads only the
    columns ``b <= min(B, Q//2)``, so the power and its row transform are
    formed ``SLICE_BLOCK`` rows at a time and only those columns are kept
    for the last (column) pass.
    """
    P, Q = d.shape
    kept = min(B, Q // 2) + 1
    half = np.empty((P, kept), dtype=complex)
    # the transform runs in the buffer of d, so the blocks are the only
    # other arrays that grow with Q
    with np.errstate(all="ignore"):  # as in _density_window
        np.fft.fft(d, axis=1, out=d)
        np.fft.fft(d, axis=0, out=d)
        for start in range(0, P, SLICE_BLOCK):
            block = d[start : start + SLICE_BLOCK]
            power = block.real * block.real
            power += block.imag * block.imag
            half[start : start + SLICE_BLOCK] = np.fft.rfft(power, axis=1)[:, :kept]
        np.fft.fft(half, axis=0, out=half)
        half /= P * Q
    rows = np.arange(-A, A + 1) % P
    cols = np.arange(-B, B + 1) % Q
    folded = cols > Q // 2
    out = np.empty((2 * A + 1, 2 * B + 1), dtype=complex)
    out[:, ~folded] = half[np.ix_(rows, cols[~folded])]
    out[:, folded] = np.conj(half[np.ix_(-rows % P, Q - cols[folded])])
    return out


def _series_moments(p: BivariateLaurentPoly, order: int, A: int, B: int):
    shape = _series_shape(order, A, B)
    return _series_window(_reciprocal_series(p, order, shape), A, B)


def moments_from_series(stability: StabilityReport, window: tuple[int, int]) -> MomentTable:
    """Moment window from the power series of ``1/p`` (grid-free oracle).

    ``stability`` carries ``p`` and must be stable.  ``c[a, b] = sum_{i,j}
    d[i, j] * conj(d[i+a, j+b])`` where ``d`` holds the series coefficients
    of ``1/p`` truncated at total order ``T``.  ``T`` doubles from
    ``SERIES_START`` until the window moves by less than ``MOMENT_TOL *
    max(1, max|window|)``, the grid route's rule; raises
    :class:`NoConvergence` at ``SERIES_CAP``.
    """
    p = stability.require_stable().p
    A, B = int(window[0]), int(window[1])

    def compute(order, rows):
        return _series_moments(p, order, A, B)[None]

    values, orders, changes = _refine(
        compute, 1, SERIES_START, SERIES_CAP, MOMENT_TOL, "series window at order"
    )
    return MomentTable((A, B), values[0], orders[0], changes[0])


def inner_product(
    f: BivariateLaurentPoly,
    g: BivariateLaurentPoly,
    moments: MomentTable,
) -> complex:
    """Inner product ``<f, g>`` in L^2 of the measure behind ``moments``.

    It is ``conj(g) @ M @ f`` over the two supports, with ``M`` their lag
    matrix in ``moments``.
    """
    f_support, f_coeffs = coefficient_matrix([f])
    g_support, g_coeffs = coefficient_matrix([g])
    M = moments.lag_matrix(g_support, f_support)
    return complex((g_coeffs.conj().T @ M @ f_coeffs)[0, 0])


def norm(f: BivariateLaurentPoly, moments: MomentTable) -> float:
    value = inner_product(f, f, moments)
    return float(np.sqrt(max(value.real, 0.0)))


# ----------------------------------------------------------------------
# Sliced one-variable measures
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SlicedMoments:
    """Trigonometric moments of the circle measures at ``K`` first angles.

    ``theta`` has shape ``(K,)``; row ``k`` of ``values``, shape ``(K, 2 lag +
    1)``, holds the moments ``m_{-lag} .. m_lag`` at the k-th angle, and
    ``grid[k]`` the circle grid they stopped on.
    """

    theta: np.ndarray
    lag: int
    values: np.ndarray
    grid: np.ndarray

    def get(self, k: int) -> np.ndarray:
        """The moment ``m_k`` at every angle."""
        if abs(k) > self.lag:
            raise WindowTooSmall((0, k), (0, self.lag))
        return self.values[:, k + self.lag]

    def lag_matrix(self, rows: int, cols: int) -> np.ndarray:
        """The moments ``M[t, s] = m_{s-t}`` for ``t < rows`` and ``s < cols``.

        For ascending coefficient vectors ``f`` (length ``cols``) and ``g``
        (length ``rows``), ``<f, g> = conj(g) @ M @ f``; the result has shape
        ``(K, rows, cols)``, one matrix per angle.  It is a read-only
        view of the leading block of :attr:`_toeplitz`, so every pairing on
        these moments reads the one gather.
        """
        need = max(rows, cols) - 1
        if need > self.lag:
            raise WindowTooSmall((0, need), (0, self.lag))
        return self._toeplitz[..., :rows, :cols]

    @cached_property
    def _toeplitz(self) -> np.ndarray:
        """The whole lag matrix, ``t, s <= lag``, gathered on first use."""
        shifts = np.subtract.outer(np.arange(self.lag + 1), np.arange(self.lag + 1))
        toeplitz = self.values[:, self.lag - shifts]
        toeplitz.setflags(write=False)
        return toeplitz


def slice_moments(stability: StabilityReport, theta, lag: int) -> SlicedMoments:
    """Moments ``m_k``, ``|k| <= lag``, of ``|dw| / (2 pi |p(e^{i theta}, w)|^2)``
    at each of a 1-D array of angles ``theta``, for the ``p`` and ``deg`` of
    a stable ``stability``; an empty array gives no rows."""
    stability.require_stable()
    return _slice_moments_unchecked(stability.p, stability.deg, theta, lag)


def _slice_moments_unchecked(p, deg, theta, lag):
    """Slice moments at a 1-D array of angles, for a ``p`` known to be stable.

    The circle grid doubles from ``GRID_START``, with row-wise FFTs over the
    angles still open, ``SLICE_BLOCK`` rows at a time; each angle takes its
    values from the first doubling where its own window moves by less than
    ``DEFAULT_SLICE_TOL * max(1, max|window|)``.
    """
    theta = as_angles(theta)
    w_coeffs = w_slice(p, np.exp(1j * theta), deg.m + 1).T

    def compute(size, rows):
        windows = np.empty((rows.size, 2 * lag + 1), dtype=complex)
        for start in range(0, rows.size, SLICE_BLOCK):
            block = w_coeffs[rows[start : start + SLICE_BLOCK]]
            samples = np.zeros((block.shape[0], size), dtype=complex)
            samples[:, : block.shape[1]] = block
            # unnormalized inverse transform: the slice values on the circle grid
            np.fft.ifft(samples, axis=1, norm="forward", out=samples)
            windows[start : start + SLICE_BLOCK] = _density_window(samples, lag)
        return windows

    values, grids, _ = _refine(
        compute, len(w_coeffs), GRID_START, GRID_CAP, DEFAULT_SLICE_TOL, "slice moments at grid"
    )
    return SlicedMoments(theta, lag, _hermitianize(values, (1,)), grids)


def slice_inner_product(f_coeffs, g_coeffs, moments: SlicedMoments):
    """Inner product ``<f, g>`` of w-polynomials on a slice, ``conj(g) · Toep · f``.

    ``Toep[t, s] = m_{s-t}`` is the one-variable lag matrix at each angle
    (:meth:`SlicedMoments.lag_matrix`).  Coefficients run ascending along the
    last axis and the other axes broadcast, so a Gram matrix is one call on
    stacked coefficient vectors.  The first axis of ``f`` and ``g`` is the
    angle axis, and so is the first axis of the result.
    """
    f = np.asarray(f_coeffs, dtype=complex)
    g = np.asarray(g_coeffs, dtype=complex)
    toep = moments.lag_matrix(g.shape[-1], f.shape[-1])
    # line the angle axis up with the first axis of f and g
    axes = max(f.ndim, g.ndim, 2) - 2
    toep = toep.reshape(toep.shape[:1] + (1,) * axes + toep.shape[1:])
    return (g.conj()[..., None, :] @ toep @ f[..., :, None])[..., 0, 0]


# ----------------------------------------------------------------------
# Test-polynomial generator
# ----------------------------------------------------------------------


def random_stable_poly(
    n: int, m: int, rng: np.random.Generator
) -> tuple[BivariateLaurentPoly, DegreePair]:
    """Random polynomial that is zero-free on the closed bidisk by construction.

    Draws a random ``q`` with zero constant term on ``[0, n] x [0, m]`` and
    returns ``p = (1 + sum |q coefficients|) - q``; the triangle inequality
    gives ``|p| >= 1`` there.  ``q`` is rescaled to a coefficient sum drawn
    from ``U(0.8, 1.6)``, which bounds how slowly the moments decay.
    """
    mass = float(rng.uniform(0.8, 1.6))
    coeffs = {}
    for i in range(n + 1):
        for j in range(m + 1):
            if (i, j) == (0, 0):
                continue
            coeffs[(i, j)] = complex(rng.normal(), rng.normal())
    total = sum(abs(c) for c in coeffs.values())
    coeffs = {ij: c * (mass / total) for ij, c in coeffs.items()}
    coeffs[(0, 0)] = 1.0 + sum(abs(c) for c in coeffs.values())
    p = BivariateLaurentPoly({ij: -c for ij, c in coeffs.items() if ij != (0, 0)})
    p = p + BivariateLaurentPoly.constant(coeffs[(0, 0)])
    return p, DegreePair(n, m)
