"""Clifford algebra of Euclidean R^n for small n.

Multivectors are arrays of 2^n coefficients indexed by basis blades
e_S = e_{i_1} .. e_{i_k} (i_1 < .. < i_k), where the index of S is its
bitmask.  The generators square to +1 and anticommute, so the geometric
product of blades is a signed XOR of bitmasks, and the full product is
a sum over the blades of one factor against cached sign tables.

Products of vectors, inverses of vectors and the cross ratio

    cr(p1, p2, p3, p4) = (p1-p2)(p2-p3)^{-1}(p3-p4)(p4-p1)^{-1}

are all that the geometry needs; n is capped at 4.
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
def _blade_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Per blade i: the axes to flip so b_{k ^ i} lands at k, and sign(i, k ^ i).

    Both refer to coefficients viewed as (..., 2, .., 2), one axis per
    generator, e_0 last: XOR with i reverses the axes of i's generators,
    so the permuted factor is a view, not a copy.
    """
    if not 1 <= n <= MAX_DIM:
        raise DimensionError(f"Clifford algebra supported for 1 <= n <= {MAX_DIM}, got {n}")
    dim = 1 << n
    flips = tuple(tuple(-1 - g for g in range(n) if i >> g & 1) for i in range(dim))
    signs = np.array([[_reorder_sign(i, i ^ k) for k in range(dim)] for i in range(dim)])
    signs.setflags(write=False)
    return flips, signs.reshape((dim,) + (2,) * n)


@lru_cache(maxsize=None)
def grade_masks(n: int) -> tuple[np.ndarray, ...]:
    grades = np.array([bin(i).count("1") for i in range(1 << n)])
    return tuple(grades == k for k in range(n + 1))


def geometric_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Geometric product on coefficient arrays of shape (..., 2^n).

    (a b)_k = sum_i a_i sign(i, k ^ i) b_{k ^ i}, accumulated from zero
    in blade order i with output-sized temporaries: the dense product
    tensor contraction without its zero terms, equal to it bit for bit.
    """
    flips, signs = _blade_tables(n)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    b = b.reshape(b.shape[:-1] + (2,) * n)
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-n]) + (2,) * n)
    for i in range(1 << n):
        out += (a[(..., i) + (None,) * n] * signs[i]) * np.flip(b, flips[i])
    return out.reshape(out.shape[:-n] + (1 << n,))


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

    Equals the geometric product; kept closed-form because it needs no
    2^n coefficients.
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

