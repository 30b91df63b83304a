"""Bivariate Laurent polynomials with complex coefficients.

A polynomial is one dense complex array ``coeffs`` cropped to the tight box
of its nonzero entries, plus the exponents ``offset = (i0, j0)`` of its first
entry: ``coeffs[a, b]`` multiplies ``z^(i0 + a) w^(j0 + b)``.  Only exact
zeros are trimmed (and stored as ``0``); no epsilon-pruning is ever applied,
so constructed cancellations survive to be checked against explicit
tolerances downstream.  Sums, shifts and reflections are slicing and offset
arithmetic, products direct 2-D convolutions, evaluation Horner's rule.

Instances are immutable (the array is read-only), hashable and safe to share
between threads.  All arithmetic returns new objects.
"""

from __future__ import annotations

import numbers
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errors import SupportOutsideBox, ZeroBaseNegativeExponent


class DegreePair(NamedTuple):
    """Declared degree of a polynomial: ``n`` in z and ``m`` in w."""

    n: int
    m: int


def _real(value) -> float:
    """``value`` as a float if it is a real number and not a boolean."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"a coefficient part must be a real number, got {value!r}")


class BivariateLaurentPoly:
    """Finitely supported Laurent polynomial in two variables."""

    __slots__ = ("_array", "_offset")

    def __init__(self, coeffs: Mapping[tuple[int, int], complex] = ()):
        table = dict(coeffs)
        grid, low = np.zeros((0, 0), dtype=complex), (0, 0)
        if table:
            exponents = np.array(list(table), dtype=np.intp)
            low = exponents.min(axis=0)
            grid = np.zeros(exponents.max(axis=0) - low + 1, dtype=complex)
            grid[tuple((exponents - low).T)] = [complex(c) for c in table.values()]
        self._set(grid, low)

    def _set(self, array: np.ndarray, offset) -> None:
        """Store ``array`` at ``offset`` cropped to its nonzero entries, as a
        read-only copy whose zero entries are exactly ``0``."""
        rows = np.flatnonzero(array.any(axis=1))
        if rows.size == 0:
            array, offset = np.zeros((0, 0), dtype=complex), (0, 0)
        else:
            cols = np.flatnonzero(array.any(axis=0))
            array = array[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
            array = np.where(array == 0, 0j, array)
            offset = (int(offset[0]) + int(rows[0]), int(offset[1]) + int(cols[0]))
        array.setflags(write=False)
        self._array = array
        self._offset = offset

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_array(cls, array, offset: tuple[int, int] = (0, 0)) -> "BivariateLaurentPoly":
        """The polynomial with coefficient ``array[a, b]`` at ``z^(i0 + a) w^(j0 + b)``."""
        poly = cls.__new__(cls)
        poly._set(np.asarray(array, dtype=complex), offset)
        return poly

    @classmethod
    def zero(cls) -> "BivariateLaurentPoly":
        return cls({})

    @classmethod
    def constant(cls, c: complex) -> "BivariateLaurentPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c: complex = 1.0) -> "BivariateLaurentPoly":
        return cls({(i, j): c})

    @classmethod
    def from_json_dict(cls, doc: dict) -> tuple["BivariateLaurentPoly", DegreePair]:
        """Parse the interchange form ``{"n", "m", "coeffs"}``.

        ``coeffs[i][j]`` is the ``[re, im]`` pair for the coefficient of
        ``z^i w^j``; rows are indexed by the z-exponent.  ``n`` and ``m`` must
        be integers and ``re``, ``im`` real numbers, booleans excluded.
        """
        n, m = doc["n"], doc["m"]
        if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) for d in (n, m)):
            raise TypeError(f"'n' and 'm' must be integers, got {n!r} and {m!r}")
        rows = doc["coeffs"]
        if len(rows) != n + 1 or any(len(row) != m + 1 for row in rows):
            raise ValueError(f"coefficient grid must be {n + 1} x {m + 1}")
        grid = [[complex(_real(re), _real(im)) for re, im in row] for row in rows]
        grid = np.array(grid, dtype=complex).reshape(n + 1, m + 1)
        return cls.from_array(grid), DegreePair(n, m)

    def to_json_dict(self, deg: DegreePair) -> dict:
        """Serialize to the interchange form; support must fit in the box."""
        self._require_support_in_box(deg)
        n, m = deg
        pairs = self.coefficient_window((0, n, 0, m)).view(float).reshape(n + 1, m + 1, 2)
        return {"n": n, "m": m, "coeffs": pairs.tolist()}

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """The read-only coefficient array over the tight box; ``(0, 0)``-shaped for 0."""
        return self._array

    @property
    def offset(self) -> tuple[int, int]:
        """Exponents ``(i0, j0)`` of ``coeffs[0, 0]``; ``(0, 0)`` for the zero polynomial."""
        return self._offset

    @property
    def support_box(self) -> tuple[int, int, int, int] | None:
        """Tight hull ``(i_min, i_max, j_min, j_max)``; None for the zero polynomial."""
        if self.is_zero:
            return None
        (i0, j0), (rows, cols) = self._offset, self._array.shape
        return (i0, i0 + rows - 1, j0, j0 + cols - 1)

    @property
    def is_zero(self) -> bool:
        return self._array.size == 0

    def coefficient(self, i: int, j: int) -> complex:
        return complex(self.coefficient_window((i, i, j, j))[0, 0])

    def items(self) -> Iterator[tuple[tuple[int, int], complex]]:
        """The nonzero coefficients as ``((i, j), c)``, row-major by z-exponent."""
        rows, cols = np.nonzero(self._array)
        exponents = zip((rows + self._offset[0]).tolist(), (cols + self._offset[1]).tolist())
        return zip(exponents, self._array[rows, cols].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._array))

    def max_abs(self) -> float:
        """Largest coefficient magnitude (0 for the zero polynomial)."""
        return float(np.max(np.abs(self._array), initial=0.0))

    def coefficient_window(self, box: tuple[int, int, int, int]) -> np.ndarray:
        """Dense grid over ``(i_min, i_max, j_min, j_max)``, zeros filled in.

        Row-major with rows indexed by the z-exponent; entries outside the
        requested box are simply not reported.
        """
        i0, i1, j0, j1 = box
        if i1 < i0 or j1 < j0:
            raise ValueError("empty coefficient window")
        grid = np.zeros((i1 - i0 + 1, j1 - j0 + 1), dtype=complex)
        # coeffs[0, 0] sits at grid[a, b]; copy the overlap of the two
        a, b = self._offset[0] - i0, self._offset[1] - j0
        source = self._array[max(-a, 0) :, max(-b, 0) :]
        target = grid[max(a, 0) :, max(b, 0) :]
        rows, cols = np.minimum(source.shape, target.shape)
        target[:rows, :cols] = source[:rows, :cols]
        return grid

    def w_coefficient(self, j: int) -> "BivariateLaurentPoly":
        """The z-polynomial multiplying ``w^j``."""
        b = j - self._offset[1]
        column = self._array[:, max(b, 0) : b + 1]
        return BivariateLaurentPoly.from_array(column, (self._offset[0], 0))

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: "BivariateLaurentPoly") -> "BivariateLaurentPoly":
        return self._combine(other, np.add)

    def __sub__(self, other: "BivariateLaurentPoly") -> "BivariateLaurentPoly":
        return self._combine(other, np.subtract)

    def _combine(self, other: "BivariateLaurentPoly", op) -> "BivariateLaurentPoly":
        """``op`` of the two over the union of their boxes.  Entries of this
        polynomial that ``other`` does not cover are copied, not computed."""
        if other.is_zero:
            return self
        box = _union_box((self, other))
        grid = self.coefficient_window(box)
        a, b = other._offset[0] - box[0], other._offset[1] - box[2]
        region = grid[a : a + other._array.shape[0], b : b + other._array.shape[1]]
        op(region, other._array, out=region)
        return BivariateLaurentPoly.from_array(grid, (box[0], box[2]))

    def __neg__(self) -> "BivariateLaurentPoly":
        return BivariateLaurentPoly.from_array(-self._array, self._offset)

    def __mul__(self, other) -> "BivariateLaurentPoly":
        """Direct 2-D convolution: a shifted copy of the larger operand per
        nonzero coefficient of the smaller one."""
        if not isinstance(other, BivariateLaurentPoly):
            return self.scale(other)
        small, large = (other, self) if len(other) < len(self) else (self, other)
        if small.is_zero:
            return BivariateLaurentPoly.zero()
        rows, cols = large._array.shape
        grid = np.zeros(np.add(small._array.shape, (rows - 1, cols - 1)), dtype=complex)
        a, b = np.nonzero(small._array)
        for i, j, c in zip(a.tolist(), b.tolist(), small._array[a, b].tolist()):
            grid[i : i + rows, j : j + cols] += c * large._array
        offset = (self._offset[0] + other._offset[0], self._offset[1] + other._offset[1])
        return BivariateLaurentPoly.from_array(grid, offset)

    def scale(self, c: complex) -> "BivariateLaurentPoly":
        return BivariateLaurentPoly.from_array(complex(c) * self._array, self._offset)

    __rmul__ = scale

    def shift(self, di: int, dj: int) -> "BivariateLaurentPoly":
        """Multiply by the monomial ``z^di w^dj``."""
        offset = (self._offset[0] + di, self._offset[1] + dj)
        return BivariateLaurentPoly.from_array(self._array, offset)

    def conj_reciprocal(self) -> "BivariateLaurentPoly":
        """Conjugate coefficients and invert both variables.

        This is the Laurent polynomial equal to ``conj(p(1/conj(z), 1/conj(w)))``.
        """
        return self._conj_reversed(0, 0)

    def reflect(self, deg: DegreePair) -> "BivariateLaurentPoly":
        """Conjugate-reverse the coefficients with respect to the degree box.

        The coefficient at ``(i, j)`` of the result is the conjugate of this
        polynomial's coefficient at ``(n - i, m - j)``.  The support must lie
        inside ``[0, n] x [0, m]``.
        """
        self._require_support_in_box(deg)
        return self._conj_reversed(*deg)

    def _conj_reversed(self, n: int, m: int) -> "BivariateLaurentPoly":
        """The polynomial with coefficient ``conj(c[n - i, m - j])`` at ``(i, j)``."""
        (i0, j0), (rows, cols) = self._offset, self._array.shape
        offset = (n - i0 - rows + 1, m - j0 - cols + 1)
        return BivariateLaurentPoly.from_array(self._array[::-1, ::-1].conj(), offset)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def __call__(self, z, w):
        """Evaluate at ``(z, w)`` by Horner accumulation in each variable.

        Exponents descend in both loops.  Scalars give a complex number;
        arrays broadcast against each other and give an array of values, by
        the same Horner steps elementwise.
        """
        z, w = _point(z), _point(w)
        if self.is_zero:
            shape = np.broadcast(z, w).shape
            return np.zeros(shape, dtype=complex) if shape else 0j
        i0, j0 = self._offset
        if i0 < 0 and np.any(z == 0):
            raise ZeroBaseNegativeExponent("z = 0 with negative z-exponent")
        if j0 < 0 and np.any(w == 0):
            raise ZeroBaseNegativeExponent("w = 0 with negative w-exponent")
        acc = 0j
        for coeffs in self._array[::-1].tolist():
            row = 0j
            for c in reversed(coeffs):
                row = row * w + c
            acc = acc * z + row
        return acc * z**i0 * w**j0

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariateLaurentPoly):
            return NotImplemented
        return self._offset == other._offset and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        # adding 0 turns every -0.0 into 0.0, which compares equal to it
        return hash((self._offset, self._array.shape, (self._array + 0.0).tobytes()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "BivariateLaurentPoly(0)"
        (i0, j0), (rows, cols) = self._offset, np.nonzero(self._array)
        values = self._array[rows, cols].tolist()
        terms = [f"({c:.6g})*z^{i + i0}*w^{j + j0}" for i, j, c in zip(rows, cols, values)]
        return "BivariateLaurentPoly(" + " + ".join(terms) + ")"

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _require_support_in_box(self, deg: DegreePair) -> None:
        (n, m), box = deg, self.support_box
        if box and (box[0] < 0 or box[2] < 0 or box[1] > n or box[3] > m):
            raise SupportOutsideBox(f"support hull {box} outside [0, {n}] x [0, {m}]")


def angle_grid(count: int) -> np.ndarray:
    """The ``count`` uniform angles ``2 pi k / count`` on the circle."""
    return 2.0 * np.pi * np.arange(count) / count


def as_angles(theta) -> np.ndarray:
    """The angles as a 1-D float array; one angle is an array of one."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError("angles must be a 1-D array")
    return theta


def _point(x):
    """A scalar coordinate as a Python complex, an array one as a complex array."""
    return complex(x) if np.ndim(x) == 0 else np.asarray(x, dtype=complex)


def coefficient_matrix(polys) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of the supports, and each polynomial as a column over it.

    The support comes as an integer array of ``(i, j)`` rows; row ``r`` of the
    matrix holds the coefficients of ``z^i w^j`` for the ``r``-th of them, zero
    for a polynomial without that monomial.
    """
    polys = list(polys)
    box = _union_box(polys)
    if box is None:
        return np.zeros((0, 2), dtype=np.intp), np.zeros((0, len(polys)), dtype=complex)
    # row-major positions in the union box are the sorted exponent pairs
    stack = np.stack([p.coefficient_window(box) for p in polys], axis=-1)
    rows, cols = np.nonzero(stack.any(axis=-1))
    return np.stack([rows + box[0], cols + box[2]], axis=1), stack[rows, cols]


def _union_box(polys) -> tuple[int, int, int, int] | None:
    """The smallest ``(i_min, i_max, j_min, j_max)`` holding every support;
    None when every polynomial is zero."""
    boxes = np.array([p.support_box for p in polys if not p.is_zero]).reshape(-1, 4)
    if not len(boxes):
        return None
    low, high = boxes.min(axis=0).tolist(), boxes.max(axis=0).tolist()
    return (low[0], high[1], low[2], high[3])
