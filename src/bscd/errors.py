"""Exception types shared across the package."""


class BscdError(Exception):
    """Base class for all library-specific errors."""

    artifact: str | None = None  # the shared artifact whose build raised it


class ZeroBaseNegativeExponent(BscdError):
    """Evaluation hit a negative exponent at a zero argument."""


class SupportOutsideBox(BscdError):
    """A polynomial has exponents outside the declared degree box."""


class ZeroPolynomial(BscdError):
    """The operation requires a nonzero polynomial."""


class InconclusiveNearBoundary(BscdError):
    """A root modulus is too close to 1 for the root scan to decide."""


class NotStable(BscdError):
    """The polynomial is not zero-free on the closed bidisk."""


class NoConvergence(BscdError):
    """A doubling refinement hit its cap before reaching the tolerance."""


class WindowTooSmall(BscdError):
    """A required moment index lies outside the available window.

    With ``needed`` set, ``index`` is the corner ``(max |a|, max |b|)`` of the
    window that a whole computation needs, checked before any moment is read.
    """

    def __init__(self, index, window, needed: bool = False):
        self.index = tuple(index)
        self.window = tuple(window)
        have = f"|a| <= {self.window[0]}, |b| <= {self.window[1]}"
        if needed:
            message = (
                f"moment window |a| <= {self.index[0]}, |b| <= {self.index[1]} "
                f"needed, table has {have}"
            )
        else:
            message = f"moment index {self.index} outside window {have}"
        super().__init__(message)


class DegenerateMoments(BscdError):
    """A moment table's mass ``c[0, 0]`` is not a positive normal float."""


class DegenerateMatrix(BscdError):
    """The Schur-Cohn tensor is not finite or is all zero."""


class DegenerateDegree(BscdError):
    """The declared degree is too small for the requested construction."""


class NonzeroRemainder(BscdError):
    """Synthetic division left a remainder above tolerance."""


class IllConditionedGram(BscdError):
    """A Gram matrix is too ill conditioned to invert reliably."""


class NotPositiveDefinite(BscdError):
    """A pivot fell below threshold during factorization."""


class IndexOutOfRange(BscdError):
    """An index argument is outside its valid range."""


class ConfigInvalid(BscdError):
    """A run configuration failed validation."""


class IoFailure(BscdError):
    """Writing a report failed."""
