"""Products of vectors in the Clifford algebra of Euclidean R^n, any n.

The geometry only ever multiplies vectors.  A sandwich v w v is again a
vector, so every Clifford product it needs reduces to a product of two
vectors,

    a b = a.b + a^b,

a scalar plus a 2-vector.  The 2-vector is returned by its n(n-1)/2
coefficients a_i b_j - a_j b_i on e_i e_j (i < j), in the blade order of
the bitmask basis: (0,1), (0,2), (1,2), (0,3), ...  For n = 1 it is
empty.  The four-point cross ratio

    cr(p1, p2, p3, p4) = (p1-p2)(p2-p3)^{-1}(p3-p4)(p4-p1)^{-1}

is a product of four vectors.  An inversion sending p4 to infinity
turns it into a conjugate of one product of two vectors, which has the
same scalar part and the same 2-vector norm; only these two numbers of
``cross_ratio``'s value are defined, the direction of its 2-vector
depends on the inversion.  ``wedge_norm`` and ``reality_residual`` are
the one place that reduces a 2-vector to a number.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSecantError, DimensionError

# Relative scale below which a vector is refused inversion.
DEGENERACY_TOL = 1e-12


def vector_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clifford product a b of R^n vectors as (a.b, a^b), broadcast over leading axes.

    Returns the scalar part (...) and the 2-vector coefficients
    (..., n(n-1)/2); both parts are real-valued arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise DimensionError(f"vectors of R^{a.shape[-1]} and R^{b.shape[-1]}")
    j, i = np.tril_indices(a.shape[-1], -1)  # i < j, in blade order
    return np.sum(a * b, axis=-1), a[..., i] * b[..., j] - a[..., j] * b[..., i]


def wedge_norm(wedge: np.ndarray) -> np.ndarray:
    """Norm |a^b| of 2-vectors (..., n(n-1)/2); 0 for n = 1."""
    return np.linalg.norm(wedge, axis=-1)


def reality_residual(real: np.ndarray, wedge: np.ndarray) -> float:
    """Worst |2-vector| / |scalar| of products (real, wedge); 0 for n = 1."""
    return float(np.max(wedge_norm(wedge) / np.maximum(np.abs(real), 1e-300)))


def vector_inverse(x: np.ndarray, ref_scale: float | np.ndarray = 1.0) -> np.ndarray:
    """Inverse x / (x,x) of R^n vectors, refusing degenerate input.

    ``ref_scale`` sets the length scale of the surrounding computation;
    vectors shorter than DEGENERACY_TOL times it raise.
    """
    x = np.asarray(x, dtype=float)
    xx = np.sum(x * x, axis=-1)
    threshold = DEGENERACY_TOL * np.maximum(np.asarray(ref_scale, dtype=float), 1e-300)
    if np.any(np.sqrt(xx) <= threshold):
        raise DegenerateSecantError("vector too short to invert")
    return x / xx[..., None]


def sandwich(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vector v w v = 2 (v.w) v - (v.v) w of R^n vectors."""
    vw = np.sum(v * w, axis=-1)[..., None]
    vv = np.sum(v * v, axis=-1)[..., None]
    return 2.0 * vw * v - vv * w


def cross_ratio(
    p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, p4: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clifford cross ratio of four points of R^n as (scalar, 2-vector).

    Broadcasts over leading axes.  The inversion x -> (x-p4)/|x-p4|^2
    sends p4 to infinity and the other points to a, b, c, where the
    value is -(a-b)(b-c)^{-1}.  This is a conjugate of the product of
    four vectors: its scalar part and its 2-vector norm are the cross
    ratio's, the direction of its 2-vector is not (for n = 2 it has the
    opposite sign, in general it is also rotated).  The 2-vector
    vanishes exactly when the points are concircular or collinear.
    """
    p1, p2, p3, p4 = (np.asarray(p, dtype=float) for p in (p1, p2, p3, p4))
    scale = max(float(np.max(np.abs(p))) for p in (p1, p2, p3, p4))
    a, b, c = (vector_inverse(p - p4, ref_scale=scale) for p in (p1, p2, p3))
    scale = max(float(np.max(np.abs(p))) for p in (a, b, c))
    real, wedge = vector_product(a - b, vector_inverse(b - c, ref_scale=scale))
    return -real, -wedge
