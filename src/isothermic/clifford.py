"""Dense Clifford algebra of Euclidean R^n for small n.

Multivectors are arrays of 2^n coefficients indexed by basis blades
e_S = e_{i_1} .. e_{i_k} (i_1 < .. < i_k), where the index of S is its
bitmask.  The generators square to +1 and anticommute, so the geometric
product of blades is a signed XOR of bitmasks; the full product is a
bilinear contraction against a precomputed 2^n x 2^n x 2^n tensor.

Products of vectors, inverses of vectors and the cross ratio

    cr(p1, p2, p3, p4) = (p1-p2)(p2-p3)^{-1}(p3-p4)(p4-p1)^{-1}

are all that the geometry needs; n is capped at 4 so the dense tensor
stays trivially small.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DegenerateSecantError, DimensionError

MAX_DIM = 4

# Relative scale below which a vector is refused inversion.
DEGENERACY_TOL = 1e-12


def _reorder_sign(a: int, b: int) -> float:
    """Sign from moving the generators of blade b past those of blade a."""
    a >>= 1
    total = 0
    while a:
        total += bin(a & b).count("1")
        a >>= 1
    return -1.0 if total & 1 else 1.0


@lru_cache(maxsize=None)
def product_tensor(n: int) -> np.ndarray:
    """M[i, j, k] with (x y)_k = sum_ij M[i, j, k] x_i y_j."""
    if not 1 <= n <= MAX_DIM:
        raise DimensionError(f"Clifford algebra supported for 1 <= n <= {MAX_DIM}, got {n}")
    dim = 1 << n
    m = np.zeros((dim, dim, dim))
    for a in range(dim):
        for b in range(dim):
            m[a, b, a ^ b] = _reorder_sign(a, b)
    return m


@lru_cache(maxsize=None)
def grade_masks(n: int) -> tuple[np.ndarray, ...]:
    grades = np.array([bin(i).count("1") for i in range(1 << n)])
    return tuple(grades == k for k in range(n + 1))


def geometric_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Geometric product on coefficient arrays of shape (..., 2^n)."""
    return np.einsum("...i,...j,ijk->...k", a, b, product_tensor(n))


def vector_coeffs(x: np.ndarray) -> np.ndarray:
    """Embed R^n vectors (..., n) as grade-1 coefficient arrays (..., 2^n)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if not 1 <= n <= MAX_DIM:
        raise DimensionError(f"Clifford algebra supported for 1 <= n <= {MAX_DIM}, got {n}")
    out = np.zeros(x.shape[:-1] + (1 << n,))
    for i in range(n):
        out[..., 1 << i] = x[..., i]
    return out


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
    """Grade-1 product v w v = 2 (v.w) v - (v.v) w of R^n vectors.

    Equals the geometric product; kept closed-form because integrators
    call it per step.
    """
    vw = np.sum(v * w, axis=-1)[..., None]
    vv = np.sum(v * v, axis=-1)[..., None]
    return 2.0 * vw * v - vv * w


def cross_ratio(
    p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, p4: np.ndarray
) -> np.ndarray:
    """Clifford cross ratio of four points of R^n, as coefficient arrays.

    Broadcasts over leading axes.  The result is a scalar (grade 0)
    exactly when the four points are concircular or collinear; the
    grade-2 part measures the failure.
    """
    p1, p2, p3, p4 = (np.asarray(p, dtype=float) for p in (p1, p2, p3, p4))
    n = p1.shape[-1]
    scale = max(float(np.max(np.abs(p))) for p in (p1, p2, p3, p4))
    a = p1 - p2
    b = vector_inverse(p2 - p3, ref_scale=scale)
    c = p3 - p4
    d = vector_inverse(p4 - p1, ref_scale=scale)
    left = geometric_product(vector_coeffs(a), vector_coeffs(b), n)
    right = geometric_product(vector_coeffs(c), vector_coeffs(d), n)
    return geometric_product(left, right, n)


def scalar_part(coeffs: np.ndarray) -> np.ndarray:
    return np.asarray(coeffs)[..., 0]


def grade_part(coeffs: np.ndarray, k: int, n: int) -> np.ndarray:
    mask = grade_masks(n)[k]
    out = np.zeros_like(coeffs)
    out[..., mask] = coeffs[..., mask]
    return out


def nonscalar_norm(coeffs: np.ndarray) -> np.ndarray:
    """Euclidean norm of all coefficients above grade 0."""
    return np.linalg.norm(np.asarray(coeffs)[..., 1:], axis=-1)

