"""Bivariate Laurent polynomials with complex coefficients.

A polynomial is a finitely supported table mapping integer exponent pairs
``(i, j)`` to complex coefficients, so ``(i, j)`` stands for the monomial
``z^i w^j``.  Coefficients that are exactly zero are pruned on construction;
no epsilon-pruning is ever applied, so constructed cancellations survive to
be checked against explicit tolerances downstream.

Instances are immutable, hashable and safe to share between threads.  All
arithmetic returns new objects.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errors import SupportOutsideBox, ZeroBaseNegativeExponent


class DegreePair(NamedTuple):
    """Declared degree of a polynomial: ``n`` in z and ``m`` in w."""

    n: int
    m: int


class BivariateLaurentPoly:
    """Finitely supported Laurent polynomial in two variables."""

    __slots__ = ("_coeffs", "_box", "_hash")

    def __init__(self, coeffs: Mapping[tuple[int, int], complex] = ()):
        table: dict[tuple[int, int], complex] = {}
        for (i, j), c in dict(coeffs).items():
            c = complex(c)
            if c != 0:
                table[(int(i), int(j))] = c
        self._coeffs = table
        if table:
            i_list = [ij[0] for ij in table]
            j_list = [ij[1] for ij in table]
            self._box = (min(i_list), max(i_list), min(j_list), max(j_list))
        else:
            self._box = None
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

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
        ``z^i w^j``; rows are indexed by the z-exponent.
        """
        n, m = int(doc["n"]), int(doc["m"])
        rows = doc["coeffs"]
        if len(rows) != n + 1 or any(len(row) != m + 1 for row in rows):
            raise ValueError(f"coefficient grid must be {n + 1} x {m + 1}")
        table = {}
        for i, row in enumerate(rows):
            for j, (re, im) in enumerate(row):
                table[(i, j)] = complex(float(re), float(im))
        return cls(table), DegreePair(n, m)

    def to_json_dict(self, deg: DegreePair) -> dict:
        """Serialize to the interchange form; support must fit in the box."""
        self._require_support_in_box(deg)
        n, m = deg
        rows = []
        for i in range(n + 1):
            row = []
            for j in range(m + 1):
                c = self._coeffs.get((i, j), 0j)
                row.append([c.real, c.imag])
            rows.append(row)
        return {"n": n, "m": m, "coeffs": rows}

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def support_box(self) -> tuple[int, int, int, int] | None:
        """Tight hull ``(i_min, i_max, j_min, j_max)``; None for the zero polynomial."""
        return self._box

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, i: int, j: int) -> complex:
        return self._coeffs.get((i, j), 0j)

    def items(self) -> Iterator[tuple[tuple[int, int], complex]]:
        return iter(self._coeffs.items())

    def __len__(self) -> int:
        return len(self._coeffs)

    def max_abs(self) -> float:
        """Largest coefficient magnitude (0 for the zero polynomial)."""
        if not self._coeffs:
            return 0.0
        return max(abs(c) for c in self._coeffs.values())

    def coefficient_window(self, box: tuple[int, int, int, int]) -> np.ndarray:
        """Dense grid over ``(i_min, i_max, j_min, j_max)``, zeros filled in.

        Row-major with rows indexed by the z-exponent; entries outside the
        requested box are simply not reported.
        """
        i0, i1, j0, j1 = box
        if i1 < i0 or j1 < j0:
            raise ValueError("empty coefficient window")
        grid = np.zeros((i1 - i0 + 1, j1 - j0 + 1), dtype=complex)
        for (i, j), c in self._coeffs.items():
            if i0 <= i <= i1 and j0 <= j <= j1:
                grid[i - i0, j - j0] = c
        return grid

    def w_coefficient(self, j: int) -> "BivariateLaurentPoly":
        """The z-polynomial multiplying ``w^j``."""
        return BivariateLaurentPoly(
            {(i, 0): c for (i, jj), c in self._coeffs.items() if jj == j}
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: "BivariateLaurentPoly") -> "BivariateLaurentPoly":
        out = dict(self._coeffs)
        for ij, c in other._coeffs.items():
            out[ij] = out.get(ij, 0j) + c
        return BivariateLaurentPoly(out)

    def __sub__(self, other: "BivariateLaurentPoly") -> "BivariateLaurentPoly":
        out = dict(self._coeffs)
        for ij, c in other._coeffs.items():
            out[ij] = out.get(ij, 0j) - c
        return BivariateLaurentPoly(out)

    def __neg__(self) -> "BivariateLaurentPoly":
        return BivariateLaurentPoly({ij: -c for ij, c in self._coeffs.items()})

    def __mul__(self, other) -> "BivariateLaurentPoly":
        if isinstance(other, BivariateLaurentPoly):
            out: dict[tuple[int, int], complex] = {}
            for (i1, j1), c1 in self._coeffs.items():
                for (i2, j2), c2 in other._coeffs.items():
                    ij = (i1 + i2, j1 + j2)
                    out[ij] = out.get(ij, 0j) + c1 * c2
            return BivariateLaurentPoly(out)
        return self.scale(other)

    def __rmul__(self, other) -> "BivariateLaurentPoly":
        return self.scale(other)

    def scale(self, c: complex) -> "BivariateLaurentPoly":
        c = complex(c)
        return BivariateLaurentPoly({ij: c * v for ij, v in self._coeffs.items()})

    def shift(self, di: int, dj: int) -> "BivariateLaurentPoly":
        """Multiply by the monomial ``z^di w^dj``."""
        return BivariateLaurentPoly(
            {(i + di, j + dj): c for (i, j), c in self._coeffs.items()}
        )

    def conj_reciprocal(self) -> "BivariateLaurentPoly":
        """Conjugate coefficients and invert both variables.

        This is the Laurent polynomial equal to ``conj(p(1/conj(z), 1/conj(w)))``.
        """
        return BivariateLaurentPoly(
            {(-i, -j): c.conjugate() for (i, j), c in self._coeffs.items()}
        )

    def reflect(self, deg: DegreePair) -> "BivariateLaurentPoly":
        """Conjugate-reverse the coefficients with respect to the degree box.

        The coefficient at ``(i, j)`` of the result is the conjugate of this
        polynomial's coefficient at ``(n - i, m - j)``.  The support must lie
        inside ``[0, n] x [0, m]``.
        """
        self._require_support_in_box(deg)
        n, m = deg
        return BivariateLaurentPoly(
            {(n - i, m - j): c.conjugate() for (i, j), c in self._coeffs.items()}
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def __call__(self, z, w):
        """Evaluate at ``(z, w)`` by Horner accumulation in each variable.

        Scalars give a complex number; arrays broadcast against each other
        and give an array of values, by the same Horner steps elementwise.
        """
        z, w = _point(z), _point(w)
        if not self._coeffs:
            shape = np.broadcast(z, w).shape
            return np.zeros(shape, dtype=complex) if shape else 0j
        i0, i1, j0, j1 = self._box
        if i0 < 0 and np.any(z == 0):
            raise ZeroBaseNegativeExponent("z = 0 with negative z-exponent")
        if j0 < 0 and np.any(w == 0):
            raise ZeroBaseNegativeExponent("w = 0 with negative w-exponent")
        acc = 0j
        for i in range(i1, i0 - 1, -1):
            row = 0j
            for j in range(j1, j0 - 1, -1):
                row = row * w + self._coeffs.get((i, j), 0j)
            acc = acc * z + row
        return acc * z**i0 * w**j0

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariateLaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._coeffs:
            return "BivariateLaurentPoly(0)"
        terms = []
        for (i, j), c in sorted(self._coeffs.items()):
            terms.append(f"({c:.6g})*z^{i}*w^{j}")
        return "BivariateLaurentPoly(" + " + ".join(terms) + ")"

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _require_support_in_box(self, deg: DegreePair) -> None:
        if not self._coeffs:
            return
        n, m = deg
        i0, i1, j0, j1 = self._box
        if i0 < 0 or j0 < 0 or i1 > n or j1 > m:
            raise SupportOutsideBox(
                f"support hull {self._box} outside [0, {n}] x [0, {m}]"
            )


def angle_grid(count: int) -> np.ndarray:
    """The ``count`` uniform angles ``2 pi k / count`` on the circle."""
    return 2.0 * np.pi * np.arange(count) / count


def as_angles(theta):
    """A scalar angle as a float, an array of angles as a 1-D float array."""
    if np.ndim(theta) == 0:
        return float(theta)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError("angles must be a scalar or a 1-D array")
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
    support = sorted(set().union(*(p._coeffs for p in polys)))
    row = {ij: r for r, ij in enumerate(support)}
    matrix = np.zeros((len(support), len(polys)), dtype=complex)
    for k, p in enumerate(polys):
        size = len(p._coeffs)
        rows = np.fromiter((row[ij] for ij in p._coeffs), np.intp, size)
        matrix[rows, k] = np.fromiter(p._coeffs.values(), complex, size)
    flat = np.fromiter((e for ij in support for e in ij), np.intp, 2 * len(support))
    return flat.reshape(-1, 2), matrix
