"""Light-cone model tests.

Core claims:
    - euclidean lifts are null and reproduce -|x_i - x_j|^2 / 2 as pairings
    - lift derivatives are tangent to the cone
    - lifts written column by column equal the padded frame sums bit for
      bit (references in padded_forms.py)
    - the metric has signature (n+1, 1)
    - projection and wedge operators act as their defining formulas
    - chart_avoiding returns a frame whose chart keeps all points finite
"""

import numpy as np
import pytest

import isothermic.minkowski as mk
import padded_forms
from isothermic.errors import PointAtInfinityError


def test_metric_signature():
    for n in (2, 3, 4):
        G = mk.metric_matrix(n)
        eigs = np.sort(np.linalg.eigvalsh(G))
        assert np.sum(eigs < 0) == 1
        assert np.sum(eigs > 0) == n + 1
        assert np.max(np.abs(np.diag(mk.metric_diagonal(n)) - G)) < 1e-15


def test_lift_is_null():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((128, 3)) * 3.0
    xi = mk.euclidean_lift(x)
    assert np.max(np.abs(mk.norm2(xi))) < 1e-11
    assert np.all(mk.is_lightlike(xi, tol=1e-9))


def test_lift_pairing_is_squared_distance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((64, 2)) * 2.0
    y = rng.standard_normal((64, 2)) * 2.0
    lhs = mk.inner(mk.euclidean_lift(x), mk.euclidean_lift(y))
    rhs = -0.5 * np.sum((x - y) ** 2, axis=1)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_lift_derivative_tangency():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((32, 3))
    xp = rng.standard_normal((32, 3))
    xi = mk.euclidean_lift(x)
    xip = mk.lift_derivative(x, xp)
    assert np.max(np.abs(mk.inner(xi, xip))) < 1e-12
    # the derivative of the lift is linear in xp
    xip2 = mk.lift_derivative(x, 2.0 * xp)
    assert np.max(np.abs(xip2 - 2.0 * xip)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lifts_equal_the_padded_frame_sums(n):
    # Batches, a single point, and a derivative broadcast against one point;
    # exact zeros and a negative zero among the coordinates.
    rng = np.random.default_rng(n)
    x = rng.standard_normal((64, n)) * 2.0
    xp = rng.standard_normal((64, n))
    x[:4] = 0.0
    x[4, 0] = -0.0
    xp[5] = 0.0
    for args in ((x, xp), (x[7], xp[7]), (x[7], xp)):
        assert np.array_equal(mk.euclidean_lift(args[0]), padded_forms.euclidean_lift(args[0]))
        assert np.array_equal(mk.lift_derivative(*args), padded_forms.lift_derivative(*args))


def test_affine_point_round_trip():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((16, 3)) * 1.7
    xi = mk.euclidean_lift(x)
    # scale invariance of the projective point
    back = mk.affine_point(3.7 * xi)
    assert np.max(np.abs(back - x)) < 1e-12


def test_affine_point_at_infinity():
    frame = mk.canonical_frame(2)
    with pytest.raises(PointAtInfinityError):
        mk.affine_point(frame.q[None])


def test_projection_matrix_action():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(2)
    y = rng.standard_normal(2) + 4.0
    xi = mk.euclidean_lift(x)
    eta = mk.euclidean_lift(y)
    P = mk.projection_matrix(xi, eta)
    v = rng.standard_normal(4)
    expected = mk.inner(eta[None], v[None])[0] / mk.inner(eta[None], xi[None])[0] * xi
    assert np.max(np.abs(P @ v - expected)) < 1e-12
    # idempotent
    assert np.max(np.abs(P @ P - P)) < 1e-12


def wedge_action(xi, eta, y):
    """Reference for wedge_matrix: the skew map xi ^ eta applied to y."""
    return mk.inner(y, xi)[..., None] * eta - mk.inner(y, eta)[..., None] * xi


def test_wedge_action_matches_matrix():
    rng = np.random.default_rng(31)
    xi = rng.standard_normal(5)
    eta = rng.standard_normal(5)
    y = rng.standard_normal(5)
    direct = wedge_action(xi, eta, y)
    via_matrix = mk.wedge_matrix(xi, eta) @ y
    assert np.max(np.abs(direct - via_matrix)) < 1e-12
    # defining identity (xi ^ eta) y = (xi, y) eta - (eta, y) xi
    expected = mk.inner(xi[None], y[None])[0] * eta - mk.inner(eta[None], y[None])[0] * xi
    assert np.max(np.abs(direct - expected)) < 1e-12


def test_projective_gap():
    rng = np.random.default_rng(37)
    v = rng.standard_normal(4)
    assert mk.projective_gap(v, -2.5 * v) < 1e-14
    w = v + 0.1 * rng.standard_normal(4)
    assert mk.projective_gap(v, w) > 1e-3


def test_chart_avoiding_keeps_points_finite():
    rng = np.random.default_rng(43)
    pts = mk.euclidean_lift(rng.standard_normal((40, 2)) * 2.0)
    frame, basis = mk.chart_avoiding(pts)
    coords = mk.chart_coordinates(pts, frame, basis)
    assert np.all(np.isfinite(coords))
