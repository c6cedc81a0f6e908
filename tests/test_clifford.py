"""Vector products of the Clifford algebra, pinned against the full algebra.

Core claims:
    - the reference algebra (dense 2^n product tensor) is associative,
      bilinear and squares vectors to |x|^2
    - the two-vector product equals the reference product bit for bit
    - vector_inverse is a two-sided inverse away from zero
    - sandwich is the vector v w v of the reference algebra
    - cross_ratio agrees with the reference four-vector product in its
      scalar part and 2-vector norm, and is invariant under similarities
      and inversions
    - the tangent cross ratio and the dual defect agree with their
      reference products for n = 1..4 and run for n = 5
"""

from functools import lru_cache

import numpy as np
import pytest

from isothermic.clifford import (
    cross_ratio,
    reality_residual,
    sandwich,
    vector_inverse,
    vector_product,
    wedge_norm,
)
from isothermic.curves import Grid, PolarizedCurve
from isothermic.darboux import integrate_riccati, tangent_cross_ratio
from isothermic.errors import DimensionError, GeometryError
from isothermic.transforms import christoffel_dual, dual_defect

# ----------------------------------------------------- reference algebra
#
# Multivectors are arrays of 2^n coefficients indexed by basis blades
# e_S = e_{i_1} .. e_{i_k} (i_1 < .. < i_k), where the index of S is its
# bitmask.  The generators square to +1 and anticommute, so the product
# of blades is a signed XOR of bitmasks.


def _reorder_sign(a: int, b: int) -> float:
    """Sign from moving the generators of blade b past those of blade a."""
    a >>= 1
    total = 0
    while a:
        total += bin(a & b).count("1")
        a >>= 1
    return -1.0 if total & 1 else 1.0


@lru_cache(maxsize=None)
def _product_tensor(n):
    dim = 1 << n
    m = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            m[i, j, i ^ j] = _reorder_sign(i, j)
    return m


def geometric_product(a, b, n):
    """Contraction against the dense tensor M[i, j, i ^ j] = sign(i, j)."""
    return np.einsum("...i,...j,ijk->...k", a, b, _product_tensor(n))


def grade_part(coeffs, k, n):
    mask = np.array([bin(i).count("1") == k for i in range(1 << n)])
    return np.where(mask, coeffs, 0.0)


def vector_coeffs(x):
    """Embed R^n vectors (..., n) as grade-1 coefficient arrays (..., 2^n)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    out = np.zeros(x.shape[:-1] + (1 << n,))
    for i in range(n):
        out[..., 1 << i] = x[..., i]
    return out


def bivector_coeffs(coeffs, n):
    """The grade-2 coefficients (..., n(n-1)/2), in blade order."""
    return coeffs[..., [i for i in range(1 << n) if bin(i).count("1") == 2]]


def product_of_vectors(*vectors):
    n = np.shape(vectors[0])[-1]
    out = vector_coeffs(vectors[0])
    for v in vectors[1:]:
        out = geometric_product(out, vector_coeffs(v), n)
    return out


def _relative_gap(real, wedge, ref, n):
    """Worst gap of (real, wedge) to a reference product, relative to its size."""
    size = np.linalg.norm(ref, axis=-1)
    gap = np.maximum(
        np.abs(real - ref[..., 0]),
        np.max(np.abs(wedge - bivector_coeffs(ref, n)), axis=-1, initial=0.0),
    )
    return float(np.max(gap / size))


# ---------------------------------------------------- reference's own laws


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_geometric_product_equals_dense_contraction(n):
    # The two-vector product is the reference product on vectors, bit for
    # bit: each coefficient is the same sum in the same order.
    rng = np.random.default_rng(n)
    shapes = [((), ()), ((7,), (7,)), ((3, 5), (3, 5)), ((40,), ()), ((), (40,))]
    for lead_a, lead_b in shapes:
        a = rng.standard_normal(lead_a + (n,))
        b = rng.standard_normal(lead_b + (n,))
        ref = geometric_product(vector_coeffs(a), vector_coeffs(b), n)
        real, wedge = vector_product(a, b)
        assert real.shape == ref.shape[:-1]
        assert wedge.shape == ref.shape[:-1] + (n * (n - 1) // 2,)
        assert np.array_equal(real, ref[..., 0])
        assert np.array_equal(wedge, bivector_coeffs(ref, n))
        assert np.array_equal(np.signbit(wedge), np.signbit(bivector_coeffs(ref, n)))
        for k in range(3, n + 1):
            assert not np.any(grade_part(ref, k, n))


def test_vector_square_is_norm():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        x = rng.standard_normal(n)
        sq = geometric_product(vector_coeffs(x), vector_coeffs(x), n)
        assert abs(sq[0] - np.dot(x, x)) < 1e-13
        assert np.max(np.abs(sq[1:])) < 1e-13
    for n in (1, 2, 3, 4, 5):
        x = rng.standard_normal(n)
        real, wedge = vector_product(x, x)
        assert abs(real - np.dot(x, x)) < 1e-13
        assert not np.any(wedge)


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


def test_scalar_and_grade_partition():
    rng = np.random.default_rng(8)
    n = 3
    coeffs = rng.standard_normal(2**n)
    total = sum(grade_part(coeffs, k, n) for k in range(n + 1))
    assert np.max(np.abs(total - coeffs)) < 1e-14
    assert np.array_equal(grade_part(coeffs, 0, n)[1:], np.zeros(2**n - 1))


# ----------------------------------------------------------- vector formulas


def test_vector_inverse_two_sided():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4, 5):
        x = rng.standard_normal(n) + 0.3
        xi = vector_inverse(x)
        for left, right in ((x, xi), (xi, x)):
            real, wedge = vector_product(left, right)
            assert abs(real - 1.0) < 1e-12
            assert np.max(np.abs(wedge), initial=0.0) < 1e-12


def test_vector_inverse_rejects_null():
    with pytest.raises(GeometryError):
        vector_inverse(np.zeros(3))


def test_sandwich_preserves_vectors():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        v = rng.standard_normal(n)
        w = rng.standard_normal(n)
        ref = product_of_vectors(v, w, v)
        assert np.max(np.abs(ref - grade_part(ref, 1, n))) < 1e-12
        assert np.max(np.abs(vector_coeffs(sandwich(v, w)) - ref)) < 1e-12


def test_cross_ratio_similarity_invariant():
    rng = np.random.default_rng(41)
    for n in (2, 3, 5):
        pts = rng.standard_normal((4, n)) * 1.5
        real0, wedge0 = cross_ratio(*pts)
        shift = rng.standard_normal(n)
        real1, wedge1 = cross_ratio(*(0.37 * p + shift for p in pts))
        assert abs(real0 - real1) < 1e-10
        assert np.max(np.abs(wedge0 - wedge1)) < 1e-10
        # An inversion conjugates the cross ratio: scalar part and
        # 2-vector norm stay.
        c = rng.standard_normal(n)
        images = [c + 2.0 * (p - c) / np.sum((p - c) ** 2) for p in pts]
        real2, wedge2 = cross_ratio(*images)
        assert abs(real0 - real2) < 1e-10
        assert abs(wedge_norm(wedge0) - wedge_norm(wedge2)) < 1e-10


def test_cross_ratio_concircular_is_real():
    # four points on one circle give a real cross ratio
    angles = np.array([0.1, 0.9, 2.2, 4.0])
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    real, wedge = cross_ratio(*pts)
    assert np.max(np.abs(wedge)) < 1e-12
    # the same circle in a plane of R^5
    rot, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((5, 5)))
    real5, wedge5 = cross_ratio(*(np.concatenate([p, np.zeros(3)]) @ rot.T for p in pts))
    assert abs(real5 - real) < 1e-12
    assert np.max(np.abs(wedge5)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cross_ratio_matches_reference_product(n):
    # Inversion at p4 conjugates the four-vector product, so its scalar
    # part and 2-vector norm are compared.  The two routes round
    # differently; 20 000 random quadruples with pairwise distances
    # above 0.5 stayed within 2.5e-15 of the product's size.
    rng = np.random.default_rng(60 + n)
    pts = rng.standard_normal((4, 2000, n))
    gaps = [np.linalg.norm(pts[i] - pts[j], axis=-1) for i in range(4) for j in range(i)]
    pts = pts[:, np.min(gaps, axis=0) > 0.5]
    p1, p2, p3, p4 = pts
    ref = product_of_vectors(p1 - p2, vector_inverse(p2 - p3), p3 - p4, vector_inverse(p4 - p1))
    real, wedge = cross_ratio(*pts)
    size = np.linalg.norm(ref, axis=-1)
    assert np.max(np.abs(real - ref[:, 0]) / size) < 5e-15
    ref_norm = np.linalg.norm(ref[:, 1:], axis=-1)
    assert np.max(np.abs(wedge_norm(wedge) - ref_norm) / size) < 5e-15


def _darboux_pair(n):
    """A curve in R^n (an exponential for n = 1) and its Riccati transform."""
    grid = Grid(0.5, 2.0, 151)
    s = grid.nodes()
    columns = [  # (coordinate, its derivative)
        (np.cos(s), -np.sin(s)),
        (np.sin(s), np.cos(s)),
        (0.3 * s, np.full_like(s, 0.3)),
        (0.2 * np.sin(3 * s), 0.6 * np.cos(3 * s)),
        (0.25 * np.sin(2 * s), 0.5 * np.cos(2 * s)),
    ][:n]
    if n == 1:
        columns = [(np.exp(s), np.exp(s))]
    x = np.stack([f for f, _ in columns], axis=1)
    xp = np.stack([df for _, df in columns], axis=1)
    curve = PolarizedCurve(n=n, grid=grid, x=x, xprime=xp, m=np.ones(grid.num))
    return curve, integrate_riccati(curve, -2.0, x[0] + np.linspace(1.0, 0.3, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tangent_cross_ratio_matches_reference_product(n):
    curve, hat = _darboux_pair(n)
    sec_inv = vector_inverse(curve.x - hat.x)
    ref = product_of_vectors(curve.xprime, sec_inv, hat.xprime, sec_inv)
    real, wedge = tangent_cross_ratio(curve, hat)
    assert _relative_gap(real, wedge, ref, n) < 1e-15
    # On random secants and tangents too, where the 2-vector is large.
    rng = np.random.default_rng(n)
    a = PolarizedCurve(n=n, grid=curve.grid, x=rng.standard_normal(curve.x.shape),
                       xprime=rng.standard_normal(curve.x.shape), m=curve.m)
    b = PolarizedCurve(n=n, grid=curve.grid, x=a.x + rng.standard_normal(a.x.shape) + 0.5,
                       xprime=rng.standard_normal(a.x.shape), m=curve.m)
    sec_inv = vector_inverse(a.x - b.x)
    ref = product_of_vectors(a.xprime, sec_inv, b.xprime, sec_inv)
    assert _relative_gap(*tangent_cross_ratio(a, b), ref, n) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dual_defect_equals_reference_product(n):
    curve, _ = _darboux_pair(n)
    dual = christoffel_dual(curve)
    ref = product_of_vectors(dual.xprime, curve.m[:, None] * curve.xprime)
    wedge = np.linalg.norm(bivector_coeffs(ref, n), axis=-1)
    assert dual_defect(curve, dual) == max(np.max(np.abs(ref[:, 0] - 1.0)), np.max(wedge))


def test_line_reality_residual_reads_zero():
    # n = 1 has no 2-vector: the residual is 0, not a reduction of an
    # empty array.
    curve, hat = _darboux_pair(1)
    real, wedge = tangent_cross_ratio(curve, hat)
    assert wedge.shape == (curve.grid.num, 0)
    assert reality_residual(real, wedge) == 0.0
    assert np.array_equal(wedge_norm(wedge), np.zeros(curve.grid.num))
    assert dual_defect(curve, christoffel_dual(curve)) < 1e-12


def test_dimension_guard():
    # No dimension cap: n = 5 runs; vectors of different R^n are refused.
    real, wedge = vector_product(np.ones(5), np.arange(5.0))
    assert real == 10.0 and wedge.shape == (10,)
    with pytest.raises(DimensionError):
        vector_product(np.zeros(1), np.ones(3))
    with pytest.raises(DimensionError):
        tangent_cross_ratio(_darboux_pair(3)[0], _darboux_pair(2)[1])
