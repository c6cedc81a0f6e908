"""Darboux transform tests.

Core claims:
    - the Riccati route and the parallel-section route produce the same
      transform, with fourth-order agreement in the step size
    - closed-form pairs (concentric circles, tractrix companion) are
      certified by a constant real tangent cross ratio
    - is_darboux_pair recovers mu, is_ribaucour certifies tangent circle
      contact, and the gauge relation ties the two flat connections
    - parallel sections stay on the light cone and detect degenerate data
"""

import numpy as np
import pytest

import isothermic.minkowski as mk
from isothermic.clifford import nonscalar_norm, sandwich, scalar_part
from isothermic.curves import Grid, PolarizedCurve, make_circle, make_helix
from isothermic.darboux import (
    SECANT_TOL,
    connection_matrix,
    connection_samples,
    euclidean_section,
    gauge_matrix,
    half_step_samples,
    integrate_parallel_section,
    integrate_riccati,
    is_darboux_pair,
    inverse_tangent,
    is_ribaucour,
    lightcone_restore,
    parallel_residual,
    tangent_cross_ratio,
    verify_gauge_relation,
)
from isothermic.errors import DimensionError, GeometryError, SingularEncounterError
from isothermic.fixtures import concentric_pair, tractrix_circle_pair, unit_circle


# Polarizations of either sign that the Darboux routes must agree for.
POLARIZATIONS = (1.0, -1.0, -0.5)


def _route_agreement(num: int, m: float) -> float:
    grid = Grid(0.0, 1.0, num)
    c = make_circle(1.0, grid).with_polarization(m)
    p0 = np.array([2.0, 0.0])
    riccati = integrate_riccati(c, -2.0, p0)
    section = integrate_parallel_section(c, -2.0, mk.euclidean_lift(p0))
    projected = section.to_curve(c.m)
    return float(np.max(np.linalg.norm(riccati.x - projected.x, axis=1)))


def test_riccati_matches_parallel_section():
    for m in POLARIZATIONS:
        assert _route_agreement(1001, m) < 1e-10


def test_route_agreement_fourth_order():
    for m in POLARIZATIONS:
        ratio = _route_agreement(101, m) / _route_agreement(201, m)
        assert 12.0 < ratio < 20.0


def _riccati_reference(curve, mu, xhat0, substeps):
    """RK4 on the Riccati equation with numpy arrays as state, one step at a time.

    The vectorized form that integrate_riccati must reproduce bit for bit.
    """
    h, (x_all, xp_all, m_all) = half_step_samples(
        curve.grid, substeps, curve.x, curve.xprime, curve.m
    )
    w_all = inverse_tangent(xp_all, m_all)
    scale = max(float(np.max(np.abs(curve.x))), float(np.linalg.norm(xhat0)), 1.0)

    def rhs(j, y):
        v = y - x_all[j]
        if np.linalg.norm(v) <= SECANT_TOL * scale:
            raise SingularEncounterError(curve.grid.s0 + 0.5 * h * j)
        return mu * sandwich(v, w_all[j])

    num_steps = (len(x_all) - 1) // 2
    out = np.empty((num_steps + 1, curve.n))
    out[0] = y = xhat0
    for k in range(num_steps):
        j = 2 * k
        k1 = rhs(j, y)
        k2 = rhs(j + 1, y + 0.5 * h * k1)
        k3 = rhs(j + 1, y + 0.5 * h * k2)
        k4 = rhs(j + 2, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y
    samples = out[::substeps]
    node_idx = 2 * substeps * np.arange(curve.grid.num)
    secants = samples - x_all[node_idx]
    return samples, mu * sandwich(secants, w_all[node_idx])


def _space_curve(n: int, m: float, grid: Grid = Grid(0.5, 2.0, 151)) -> PolarizedCurve:
    """A circle in R^2, a helix in R^3, or a circle with two harmonics in R^4."""
    if n == 2:
        return make_circle(1.0, grid).with_polarization(m)
    if n == 3:
        return make_helix(1.0, 0.3, grid).with_polarization(m)
    s = grid.nodes()
    x = np.stack([np.cos(s), np.sin(s), 0.3 * np.cos(2 * s), 0.2 * np.sin(3 * s)], axis=1)
    xp = np.stack(
        [-np.sin(s), np.cos(s), -0.6 * np.sin(2 * s), 0.6 * np.cos(3 * s)], axis=1
    )
    return PolarizedCurve(n=4, grid=grid, x=x, xprime=xp, m=np.full(grid.num, m))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_riccati_is_bit_identical_to_array_reference(n):
    for m in (1.0, -0.5):
        c = _space_curve(n, m)
        p0 = c.x[0] + np.linspace(1.0, 0.3, n)
        for mu in (-2.0, 0.7):
            for substeps in (1, 2):
                x_ref, xprime_ref = _riccati_reference(c, mu, p0, substeps)
                hat = integrate_riccati(c, mu, p0, substeps=substeps)
                assert np.all(np.isfinite(x_ref))
                assert np.array_equal(hat.x, x_ref)
                assert np.array_equal(hat.xprime, xprime_ref)


def test_riccati_start_on_curve_raises_at_grid_start():
    c = _space_curve(3, 1.0)
    for integrate in (_riccati_reference, integrate_riccati):
        with pytest.raises(SingularEncounterError) as info:
            integrate(c, -2.0, c.x[0].copy(), 1)
        assert info.value.s == c.grid.s0


def test_concentric_circles_cross_ratio():
    a, b = concentric_pair()
    cr = tangent_cross_ratio(a, b)
    assert np.max(np.abs(scalar_part(cr) + 2.0)) < 1e-13
    assert np.max(nonscalar_norm(cr)) < 1e-13


def test_tractrix_pair_cross_ratio():
    y, yhat = tractrix_circle_pair()
    cr = tangent_cross_ratio(y, yhat)
    assert np.max(np.abs(scalar_part(cr) - 0.5)) < 1e-10
    assert np.max(nonscalar_norm(cr)) < 1e-10


def test_is_darboux_pair_recovers_mu():
    c = unit_circle()
    hat = integrate_riccati(c, -2.0, np.array([2.0, 0.0]))
    fit = is_darboux_pair(c, hat)
    assert abs(fit.mu + 2.0) < 1e-12
    assert fit.spread < 1e-12
    assert fit.reality < 1e-12


def test_is_ribaucour():
    c = unit_circle()
    hat = integrate_riccati(c, -2.0, np.array([2.0, 0.0]))
    ok, contact = is_ribaucour(c, hat)
    assert ok
    assert contact < 1e-12
    # a shifted copy shares tangent directions at equal parameters but the
    # contact circle degenerates only when the curves actually touch
    other = integrate_riccati(c, 1.0, np.array([0.3, -0.4]))
    fit = is_darboux_pair(c, other)
    assert abs(fit.mu - 1.0) < 1e-12


def _staged_restore(y, frame):
    """The light-cone projection written with the Minkowski helpers."""
    defect = mk.norm2(y)
    wq = mk.inner(y, frame.q)
    if abs(wq) > 1e-8 * np.linalg.norm(y):
        return y - (defect / (2.0 * wq)) * frame.q
    wo = mk.inner(y, frame.o)
    return y - (defect / (2.0 * wo)) * frame.o


def _parallel_reference(source, t, xihat0, substeps):
    """RK4 on xi' = A xi with the four stages staged per step, then a cone projection.

    The form that integrate_parallel_section's precomputed step maps
    reproduce up to rounding.
    """
    frame = mk.canonical_frame(source.n)
    a_all, h = connection_samples(euclidean_section(source), source.m, t, substeps)
    num_steps = (len(a_all) - 1) // 2
    out = np.empty((num_steps + 1, source.n + 2))
    out[0] = y = mk.euclidean_lift(xihat0)
    for k in range(num_steps):
        j = 2 * k
        k1 = a_all[j] @ y
        k2 = a_all[j + 1] @ (y + 0.5 * h * k1)
        k3 = a_all[j + 1] @ (y + 0.5 * h * k2)
        k4 = a_all[j + 2] @ (y + h * k3)
        y = _staged_restore(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), frame)
        out[k + 1] = y
    samples = out[::substeps]
    node_idx = 2 * substeps * np.arange(source.grid.num)
    return samples, np.einsum("kij,kj->ki", a_all[node_idx], samples)


def _relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_parallel_section_matches_staged_reference(n):
    for m in (1.0, -0.5):
        c = _space_curve(n, m)
        p0 = c.x[0] + np.linspace(1.0, 0.3, n)
        for mu in (-2.0, 0.7):
            for substeps in (1, 2):
                xi_ref, xiprime_ref = _parallel_reference(c, mu, p0, substeps)
                sec = integrate_parallel_section(c, mu, p0, substeps=substeps)
                assert np.all(np.isfinite(xi_ref))
                assert _relative_gap(sec.xi, xi_ref) <= 1e-12
                assert _relative_gap(sec.xiprime, xiprime_ref) <= 1e-12


def test_parallel_section_stays_null():
    c = unit_circle()
    sec = integrate_parallel_section(c, -2.0, np.array([2.0, 0.0]))
    assert np.max(np.abs(mk.norm2(sec.xi))) < 1e-10
    assert parallel_residual(sec, c, -2.0) < 1e-10
    grid = c.grid
    for n in (3, 4):
        c = _space_curve(n, 1.0, grid)
        sec = integrate_parallel_section(c, -2.0, c.x[0] + np.linspace(1.0, 0.3, n))
        assert np.max(np.abs(mk.norm2(sec.xi)) / np.sum(sec.xi * sec.xi, axis=1)) < 1e-14
        assert parallel_residual(sec, c, -2.0) < 1e-10


def _along(correction, direction):
    """Size of the part of ``correction`` off the line of ``direction``."""
    unit = direction / np.linalg.norm(direction)
    return float(np.linalg.norm(correction - (correction @ unit) * unit))


def test_lightcone_restore_projects_along_q_or_o():
    frame = mk.canonical_frame(3)
    # A lift pushed off the cone pairs with q and is corrected along q.
    y = mk.euclidean_lift(np.array([0.4, -1.2, 0.7])) + 1e-6 * np.array([1.0, -2.0, 0.5, 0.3, 0.2])
    restored = lightcone_restore(y, frame)
    correction = restored - y
    assert abs(mk.norm2(y)) > 1e-7
    assert abs(mk.norm2(restored)) < 1e-15 * np.sum(y * y)
    assert np.linalg.norm(correction) > 1e-7
    assert _along(correction, frame.q) < 1e-15 * np.linalg.norm(y)
    # Near the point at infinity, (y, q) / |y| falls below 1e-8 and o is used.
    y = frame.q + 1e-3 * np.array([1.0, 0.0, 0.0, 0.0, 0.0]) + 1e-12 * frame.o
    assert abs(mk.inner(y, frame.q)) < 1e-8 * np.linalg.norm(y)
    restored = lightcone_restore(y, frame)
    correction = restored - y
    assert abs(mk.norm2(restored)) < 1e-15 * np.sum(y * y)
    assert np.linalg.norm(correction) > 1e-7
    assert _along(correction, frame.o) < 1e-15 * np.linalg.norm(y)


def test_parallel_residual_flags_wrong_parameter():
    c = unit_circle()
    sec = integrate_parallel_section(c, -2.0, np.array([2.0, 0.0]))
    assert parallel_residual(sec, c, 1.3) > 1e-3


def test_gauge_relation():
    c = unit_circle()
    hat = integrate_riccati(c, -2.0, np.array([2.0, 0.0]))
    assert verify_gauge_relation(c, hat, 0.7, -2.0) < 1e-9


def test_gauge_matrix_swaps_lines():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(2)
    y = rng.standard_normal(2) + 3.0
    xi = mk.euclidean_lift(x)
    eta = mk.euclidean_lift(y)
    g = gauge_matrix(xi, eta, 0.25)
    assert mk.projective_gap(g @ xi, xi) < 1e-12
    assert mk.projective_gap(g @ eta, eta) < 1e-12
    # scaling parts: xi by 1/r, eta by r
    assert np.max(np.abs(g @ xi - xi / 0.25)) < 1e-12
    assert np.max(np.abs(g @ eta - 0.25 * eta)) < 1e-12


def test_connection_matrix_is_metric_skew():
    c = unit_circle()
    sec = euclidean_section(c)
    A = connection_matrix(sec.xi, sec.xiprime, c.m, -2.0)
    assert A.shape == (c.grid.num, c.n + 2, c.n + 2)
    # infinitesimal isometry: A^T G + G A = 0
    G = mk.metric_matrix(c.n)
    sym = np.einsum("kji,jl->kil", A, G) + np.einsum("ij,kjl->kil", G, A)
    assert np.max(np.abs(sym)) < 1e-11


def test_connection_substeps_shape():
    c = unit_circle()
    a_all, h = connection_samples(euclidean_section(c), c.m, -2.0, 2)
    assert len(a_all) == 4 * (c.grid.num - 1) + 1
    assert abs(h - c.grid.h / 2.0) < 1e-15


def test_initial_point_validation():
    c = unit_circle()
    with pytest.raises((DimensionError, GeometryError)):
        integrate_parallel_section(c, -2.0, np.zeros(5))


def test_to_curve_requires_matching_polarization():
    c = unit_circle()
    sec = integrate_parallel_section(c, -2.0, np.array([2.0, 0.0]))
    hat = sec.to_curve(c.m)
    fit = is_darboux_pair(c, hat)
    assert abs(fit.mu + 2.0) < 1e-10
