"""Clifford algebra kernel tests.

Core claims:
    - geometric product is associative and respects the vector square x^2 = |x|^2
    - vector_inverse is a two-sided inverse away from the null cone
    - sandwich of a vector by an invertible vector is again a vector
    - cross_ratio is invariant under similarity transforms of the four points
    - grade projections partition the coefficient vector
    - the blade-table product equals the dense contraction bit for bit
"""

import numpy as np
import pytest

from isothermic.clifford import (
    _reorder_sign,
    cross_ratio,
    geometric_product,
    grade_part,
    nonscalar_norm,
    sandwich,
    scalar_part,
    vector_coeffs,
    vector_inverse,
)
from isothermic.errors import DimensionError, GeometryError


def _dense_product(a, b, n):
    """Contraction against the dense tensor M[i, j, i ^ j] = sign(i, j)."""
    dim = 1 << n
    m = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            m[i, j, i ^ j] = _reorder_sign(i, j)
    return np.einsum("...i,...j,ijk->...k", a, b, m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_geometric_product_equals_dense_contraction(n):
    rng = np.random.default_rng(n)
    dim = 1 << n
    shapes = [((), ()), ((7,), (7,)), ((3, 5), (3, 5)), ((40,), ()), ((), (40,))]
    for lead_a, lead_b in shapes:
        a = rng.standard_normal(lead_a + (dim,))
        b = rng.standard_normal(lead_b + (dim,))
        out = geometric_product(a, b, n)
        ref = _dense_product(a, b, n)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)
    # Vectors and their products carry exact zeros; their signs match too.
    x, y = (vector_coeffs(rng.standard_normal((9, n))) for _ in range(2))
    for a, b in ((x, y), (geometric_product(x, y, n), -x)):
        out, ref = geometric_product(a, b, n), _dense_product(a, b, n)
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))


def test_vector_square_is_norm():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        x = rng.standard_normal(n)
        sq = geometric_product(vector_coeffs(x), vector_coeffs(x), n)
        assert abs(sq[0] - np.dot(x, x)) < 1e-13
        assert np.max(np.abs(sq[1:])) < 1e-13


def test_geometric_product_associative():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for _ in range(25):
            a = rng.standard_normal(2**n)
            b = rng.standard_normal(2**n)
            c = rng.standard_normal(2**n)
            left = geometric_product(geometric_product(a, b, n), c, n)
            right = geometric_product(a, geometric_product(b, c, n), n)
            assert np.max(np.abs(left - right)) < 1e-11


def test_geometric_product_bilinear():
    rng = np.random.default_rng(17)
    n = 3
    a, b, c = (rng.standard_normal(2**n) for _ in range(3))
    lhs = geometric_product(a, 2.0 * b + c, n)
    rhs = 2.0 * geometric_product(a, b, n) + geometric_product(a, c, n)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_vector_inverse_two_sided():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        x = rng.standard_normal(n) + 0.3
        xi = vector_inverse(x)
        for left, right in ((x, xi), (xi, x)):
            prod = geometric_product(vector_coeffs(left), vector_coeffs(right), n)
            assert abs(prod[0] - 1.0) < 1e-12
            assert np.max(np.abs(prod[1:])) < 1e-12


def test_vector_inverse_rejects_null():
    with pytest.raises(GeometryError):
        vector_inverse(np.zeros(3))


def test_sandwich_preserves_vectors():
    rng = np.random.default_rng(3)
    n = 3
    v = rng.standard_normal(n)
    w = rng.standard_normal(n)
    out = sandwich(v, w)
    # v w v^{-1} reflects w in v (up to sign convention); it must stay a vector
    assert out.shape[-1] in (n, 2**n)
    flat = np.asarray(out, dtype=float).ravel()
    if flat.size == 2**n:
        grade1 = grade_part(flat, 1, n)
        assert np.max(np.abs(flat - grade1)) < 1e-12


def test_cross_ratio_similarity_invariant():
    rng = np.random.default_rng(41)
    for n in (2, 3):
        pts = rng.standard_normal((4, n)) * 1.5
        cr0 = cross_ratio(*pts)
        shift = rng.standard_normal(n)
        cr1 = cross_ratio(*(0.37 * p + shift for p in pts))
        assert np.max(np.abs(np.asarray(cr0) - np.asarray(cr1))) < 1e-10


def test_cross_ratio_concircular_is_real():
    # four points on one circle give a real cross ratio
    angles = np.array([0.1, 0.9, 2.2, 4.0])
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cr = np.asarray(cross_ratio(*pts))
    assert np.max(nonscalar_norm(cr[None])) < 1e-12 or np.max(np.abs(cr[1:])) < 1e-12


def test_scalar_and_grade_partition():
    rng = np.random.default_rng(8)
    n = 3
    coeffs = rng.standard_normal(2**n)
    total = sum(grade_part(coeffs, k, n) for k in range(n + 1))
    assert np.max(np.abs(total - coeffs)) < 1e-14
    assert abs(scalar_part(coeffs[None])[0] - coeffs[0]) < 1e-15


def test_dimension_guard():
    with pytest.raises((DimensionError, GeometryError)):
        vector_coeffs(np.zeros(5))
