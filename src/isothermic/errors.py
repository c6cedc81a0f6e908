"""Exception hierarchy shared by the geometry modules, and their finiteness check."""

import numpy as np


class GeometryError(Exception):
    """Base class for all geometric failure modes raised by this package."""


class DimensionError(GeometryError):
    """Operands live in incompatible or unsupported dimensions."""


class DegenerateSecantError(GeometryError):
    """A vector that must be inverted is numerically zero.

    Raised by Clifford inversion and by cross ratios of nearly
    coincident points.
    """


class PointAtInfinityError(GeometryError):
    """A null line has no finite affine representative in the chosen chart."""


class NonComplementaryLinesError(GeometryError):
    """Two null lines that must span an R^{1,1} are orthogonal or equal."""


class SingularEncounterError(GeometryError):
    """An integrated transform collided with the base curve.

    Carries the curve parameter at which the secant degenerated.
    """

    def __init__(self, s: float, message: str | None = None):
        self.s = s
        super().__init__(message or f"transform collided with base curve near s = {s:.6g}")


class NonConcircularError(GeometryError):
    """Four points expected on a common circle are not concircular."""


class DegenerateEdgeError(GeometryError):
    """An edge area element vanishes, so no ratio can be extracted from it."""


class NonConjugateError(GeometryError):
    """Mixed area elements that must be parallel are not.

    Carries the relative misalignment of the two area elements.
    """

    def __init__(self, misalignment: float, message: str | None = None):
        self.misalignment = misalignment
        super().__init__(
            message or f"area elements misaligned by relative residual {misalignment:.3g}"
        )


class PolarizationError(GeometryError):
    """The quadratic differential ds^2/m is unusable (m vanishing or wrong sign)."""


class SignPropagationError(GeometryError):
    """No consistent sign choice exists for a lift along the layer path."""


class VerificationError(GeometryError):
    """A numerical certificate exceeded its tolerance."""


def require_finite(value, what: str) -> np.ndarray:
    """``value`` as a float array, or a GeometryError naming ``what``.

    Raises when any entry is nan or infinite.  No arithmetic runs on the
    entries first, so no floating-point warning can fire before the error.
    """
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{what} contains non-finite numbers")
    return arr
