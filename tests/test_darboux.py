"""Darboux transform tests.

Core claims:
    - the Riccati route and the parallel-section route produce the same
      transform, with fourth-order agreement in the step size
    - closed-form pairs (concentric circles, tractrix companion) are
      certified by a constant real tangent cross ratio
    - is_darboux_pair recovers mu, its reality residual certifies tangent
      circle contact, and the gauge relation ties the two flat connections
    - parallel sections stay on the light cone and detect degenerate data
    - the chart projection on the n affine columns equals the quotient
      rule on all n + 2 columns bit for bit (reference in padded_forms.py)
"""

import numpy as np
import pytest

import isothermic.minkowski as mk
import isothermic.transforms as tr
import padded_forms
from isothermic.clifford import reality_residual, sandwich, wedge_norm
from isothermic.bianchi import bianchi_quad
from isothermic.curves import (
    Grid,
    PolarizedCurve,
    make_circle,
    make_curve,
    make_helix,
    tractrix_pair,
)
from isothermic.darboux import (
    SECANT_TOL,
    LightConeSection,
    connection_apply,
    connection_matrix,
    euclidean_section,
    gauge_apply,
    gauge_matrix,
    integrate_parallel_section,
    integrate_riccati,
    is_darboux_pair,
    inverse_tangent,
    lightcone_restore,
    parallel_residual,
    tangent_cross_ratio,
    verify_gauge_relation,
)
from isothermic.errors import (
    DimensionError,
    GeometryError,
    PointAtInfinityError,
    SingularEncounterError,
)
from isothermic.fixtures import concentric_pair, tractrix_circle_pair, unit_circle
from isothermic.surface import build_surface, surface_calapso, surface_darboux, surface_flatness
from isothermic.transforms import christoffel_dual, integrate_calapso
from whole_grid import connection_samples, half_step_samples


# Polarizations of either sign that the Darboux routes must agree for.
POLARIZATIONS = (1.0, -1.0, -0.5)


def _route_agreement(num: int, m: float) -> float:
    grid = Grid(0.0, 1.0, num)
    c = make_circle(1.0, grid).with_polarization(m)
    p0 = np.array([2.0, 0.0])
    riccati = integrate_riccati(c, -2.0, p0)
    section = integrate_parallel_section(c, -2.0, mk.euclidean_lift(p0))
    projected = section.to_curve()
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
    """A test curve in R^n, 1 <= n <= 5.

    An exponential in R^1, a circle in R^2, a helix in R^3, and a circle
    with two or three harmonics in R^4 and R^5.
    """
    if n == 2:
        return make_circle(1.0, grid).with_polarization(m)
    if n == 3:
        return make_helix(1.0, 0.3, grid).with_polarization(m)
    s = grid.nodes()
    if n == 1:
        x = xp = np.exp(s)[:, None]
    else:
        columns = [  # (coordinate, its derivative)
            (np.cos(s), -np.sin(s)),
            (np.sin(s), np.cos(s)),
            (0.3 * np.cos(2 * s), -0.6 * np.sin(2 * s)),
            (0.2 * np.sin(3 * s), 0.6 * np.cos(3 * s)),
            (0.25 * np.sin(2 * s), 0.5 * np.cos(2 * s)),
        ][:n]
        x = np.stack([f for f, _ in columns], axis=1)
        xp = np.stack([df for _, df in columns], axis=1)
    return PolarizedCurve(n=n, grid=grid, x=x, xprime=xp, m=np.full(grid.num, m))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
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


def test_riccati_substeps_cut_the_end_point_error():
    # The one integrator whose error the step sets: two substeps per grid
    # cell cut the end-point error about 14x on this helix.
    def end_point(num, substeps):
        c = make_helix(1.0, 0.2, Grid(0.0, 6.0, num))
        return integrate_riccati(c, -2.0, np.array([2.0, 0.0, 0.5]), substeps=substeps).x[-1]

    reference = end_point(6401, 4)
    errors = [np.linalg.norm(end_point(201, k) - reference) for k in (1, 2)]
    assert errors[1] * 4.0 <= errors[0], errors


def test_riccati_start_on_curve_raises_at_grid_start():
    c = _space_curve(3, 1.0)
    for integrate in (_riccati_reference, integrate_riccati):
        with pytest.raises(SingularEncounterError) as info:
            integrate(c, -2.0, c.x[0].copy(), 1)
        assert info.value.s == c.grid.s0


def test_riccati_leaving_space_raises_at_first_nonfinite_node():
    # On a line in R^1 with mu = -2 the transform runs off to infinity
    # near s = 1.8, where the array form's samples turn inf and nan.
    c = make_curve("line", Grid(0.0, 3.0, 301), n=1)
    p0 = np.array([1.0])
    with np.errstate(all="ignore"):
        x_ref, _ = _riccati_reference(c, -2.0, p0, 1)
    first = int(np.argmin(np.isfinite(x_ref[:, 0])))
    assert first > 0
    with pytest.raises(PointAtInfinityError) as info:
        integrate_riccati(c, -2.0, p0)
    assert f"s = {c.grid.nodes()[first]:.6g}" in str(info.value)


def _moved_lift(n: int) -> LightConeSection:
    """A curve's lift in R^n moved by a constant Lorentz map, so the chart weight varies."""
    grid = Grid(0.0, 2.0, 301)
    s = grid.nodes()
    x = np.stack([np.cos((k + 1) * s + 0.5) / (k + 1) for k in range(n)], axis=1)
    xp = np.stack([-np.sin((k + 1) * s + 0.5) for k in range(n)], axis=1)
    rng = np.random.default_rng(n)
    skew = rng.standard_normal((n + 2, n + 2))
    lorentz = np.eye(n + 2) + tr._expm1_matrices(
        0.3 * mk.metric_diagonal(n)[:, None] * (skew - skew.T)
    )
    xi = mk.euclidean_lift(x) @ lorentz.T
    return LightConeSection(grid=grid, xi=xi, m=0.5, xiprime=mk.lift_derivative(x, xp) @ lorentz.T)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_to_curve_equals_the_quotient_rule_on_all_columns(n):
    section = _moved_lift(n)
    curve, reference = section.to_curve(), padded_forms.to_curve(section, 0.5)
    for name in ("x", "xprime", "m"):
        assert np.array_equal(getattr(curve, name), getattr(reference, name)), name
    # One sample within 1e-8 (relative) of the chart's infinity: both raise alike.
    frame = mk.canonical_frame(n)
    section.xi[150] = frame.q + 1e-3 * np.append(section.xi[150, :n], [0.0, 0.0]) + 1e-12 * frame.o
    with pytest.raises(PointAtInfinityError) as ref:
        padded_forms.to_curve(section, 0.5)
    with pytest.raises(PointAtInfinityError) as info:
        section.to_curve()
    assert str(info.value) == str(ref.value)


def test_concentric_circles_cross_ratio():
    a, b = concentric_pair()
    real, wedge = tangent_cross_ratio(a, b)
    assert np.max(np.abs(real + 2.0)) < 1e-13
    assert np.max(wedge_norm(wedge)) < 1e-13


def test_tractrix_pair_cross_ratio():
    y, yhat = tractrix_circle_pair()
    real, wedge = tangent_cross_ratio(y, yhat)
    assert np.max(np.abs(real - 0.5)) < 1e-10
    assert np.max(wedge_norm(wedge)) < 1e-10


def test_is_darboux_pair_recovers_mu():
    c = unit_circle()
    hat = integrate_riccati(c, -2.0, np.array([2.0, 0.0]))
    fit = is_darboux_pair(c, hat)
    assert abs(fit.mu + 2.0) < 1e-12
    assert fit.spread < 1e-12
    assert fit.reality < 1e-12


def test_ribaucour_contact_is_the_fit_reality():
    c = unit_circle()
    hat = integrate_riccati(c, -2.0, np.array([2.0, 0.0]))
    contact = is_darboux_pair(c, hat).reality
    assert contact == reality_residual(*tangent_cross_ratio(c, hat))
    assert contact < 1e-8
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
    for n in (3, 4, 5):
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
    before = y.copy()
    restored = lightcone_restore(y)
    assert restored is y
    correction = restored - before
    assert abs(mk.norm2(before)) > 1e-7
    assert abs(mk.norm2(restored)) < 1e-15 * np.sum(before * before)
    assert np.linalg.norm(correction) > 1e-7
    assert _along(correction, frame.q) < 1e-15 * np.linalg.norm(before)
    # Near the point at infinity, (y, q) / |y| falls below 1e-8 and o is used.
    y = frame.q + 1e-3 * np.array([1.0, 0.0, 0.0, 0.0, 0.0]) + 1e-12 * frame.o
    assert abs(mk.inner(y, frame.q)) < 1e-8 * np.linalg.norm(y)
    before = y.copy()
    restored = lightcone_restore(y)
    assert restored is y
    correction = restored - before
    assert abs(mk.norm2(restored)) < 1e-15 * np.sum(before * before)
    assert np.linalg.norm(correction) > 1e-7
    assert _along(correction, frame.o) < 1e-15 * np.linalg.norm(before)


@pytest.mark.parametrize("branch", ["q", "o"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lightcone_restore_in_every_dimension(n, branch):
    frame = mk.canonical_frame(n)
    rng = np.random.default_rng([n, ord(branch)])
    points, singles = [], []
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, n)
        if branch == "q":
            # A lift pushed off the cone: (y, q) is about -1.
            y = mk.euclidean_lift(x) + 1e-6 * rng.standard_normal(n + 2)
            direction = frame.q
        else:
            # Near the chart's infinity: (y, q) / |y| is far below 1e-8.
            y = frame.q + 1e-3 * np.append(x, [0.0, 0.0]) + 1e-12 * frame.o
            direction = frame.o
        assert (abs(mk.inner(y, frame.q)) > 1e-8 * np.linalg.norm(y)) == (branch == "q")
        before = y.copy()
        reference = _staged_restore(before, frame)
        restored = lightcone_restore(y)
        # The projection moves only a and b, in place.
        assert restored is y
        assert np.array_equal(y[:n], before[:n])
        ulp = np.finfo(float).eps * np.max(np.abs(reference))
        assert np.max(np.abs(restored - reference)) <= 4 * ulp
        assert abs(mk.norm2(restored)) <= 1e-15 * np.sum(before * before)
        correction = restored - before
        assert np.linalg.norm(correction) > 1e-9
        assert _along(correction, direction) < 1e-15 * np.linalg.norm(before)
        points.append(before)
        singles.append(restored)
    # A (d, P) batch projects each column in place, bit for bit as alone.
    batch = np.array(points).T.copy()
    restored = lightcone_restore(batch)
    assert restored is batch
    assert np.array_equal(batch, np.array(singles).T)


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


def _assert_matches_dense(vector_form, dense_form):
    """Agreement at rtol 1e-14, relative to the largest entry of the dense form."""
    np.testing.assert_allclose(
        vector_form, dense_form, rtol=1e-14, atol=1e-14 * np.max(np.abs(dense_form))
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gauge_apply_is_the_gauge_matrix_times_v(n):
    rng = np.random.default_rng(40 + n)
    xi = mk.euclidean_lift(rng.normal(size=(50, n)))
    xihat = mk.euclidean_lift(rng.normal(size=(50, n)) + 2.0)
    v = rng.normal(size=(50, n + 2))
    for r in (0.3, -1.7, rng.uniform(0.2, 3.0, size=50)):
        dense = np.einsum("kij,kj->ki", gauge_matrix(xi, xihat, r), v)
        _assert_matches_dense(gauge_apply(xi, xihat, r, v), dense)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_connection_apply_is_the_connection_matrix_times_y(n):
    rng = np.random.default_rng(50 + n)
    x = rng.normal(size=(50, n))
    xi = mk.euclidean_lift(x)
    xiprime = mk.lift_derivative(x, rng.normal(size=(50, n)))
    m = rng.uniform(0.5, 2.0, size=50) * rng.choice([-1.0, 1.0], size=50)
    y = rng.normal(size=(50, n + 2))
    dense = np.einsum("kij,kj->ki", connection_matrix(xi, xiprime, m, -1.3), y)
    _assert_matches_dense(connection_apply(xi, xiprime, m, -1.3, y), dense)


def test_connection_apply_rejects_a_lightlike_derivative():
    xi = mk.euclidean_lift(np.array([[0.5, 0.0]]))
    with pytest.raises(GeometryError):
        connection_apply(xi, xi, np.ones(1), 1.0, np.ones((1, 4)))


def test_connection_substeps_shape():
    c = unit_circle()
    a_all, h = connection_samples(euclidean_section(c), c.m, -2.0, 2)
    assert len(a_all) == 4 * (c.grid.num - 1) + 1
    assert abs(h - c.grid.h / 2.0) < 1e-15


def test_initial_point_validation():
    c = unit_circle()
    with pytest.raises((DimensionError, GeometryError)):
        integrate_parallel_section(c, -2.0, np.zeros(5))


_NAN, _INF = float("nan"), float("inf")


def _quad(c, mu0):
    """Bianchi quad of c from finite sections at -2 and 1, taken at mu0."""
    sec0 = integrate_parallel_section(c, -2.0, np.array([2.0, 0.0]))
    sec1 = integrate_parallel_section(c, 1.0, np.array([0.3, -0.4]))
    return bianchi_quad(c, sec0, sec1, mu0, 1.0)


def _surface(c):
    return build_surface(c, [(-2.0, np.array([2.0, 0.0]))])


# Each public integrator, curve constructor and spectral-parameter entry
# with one nan or infinite parameter, which the error names.
@pytest.mark.parametrize(
    "what, call",
    [
        ("t", lambda c: integrate_parallel_section(c, _NAN, np.array([2.0, 0.0]))),
        ("t", lambda c: integrate_parallel_section(c, -_INF, np.array([2.0, 0.0]))),
        ("initial point", lambda c: integrate_parallel_section(c, -2.0, np.array([_NAN, 0.0]))),
        ("initial point", lambda c: integrate_parallel_section(c, -2.0, [[2.0, 0.0], [_INF, 0.0]])),
        ("initial point", lambda c: integrate_parallel_section(c, -2.0, [0.0, 0.0, _NAN, 1.0])),
        ("t", lambda c: integrate_calapso(c, _NAN)),
        ("t", lambda c: integrate_calapso(c, _INF)),
        ("anchor", lambda c: christoffel_dual(c, anchor=(_NAN, 0.0))),
        ("mu", lambda c: integrate_riccati(c, _NAN, np.array([2.0, 0.0]))),
        ("mu", lambda c: integrate_riccati(c, _INF, np.array([2.0, 0.0]))),
        ("initial point", lambda c: integrate_riccati(c, -2.0, np.array([2.0, _NAN]))),
        ("radius", lambda c: make_circle(_NAN, c.grid)),
        ("radius", lambda c: make_helix(_INF, 0.2, c.grid)),
        ("pitch", lambda c: make_helix(1.0, _NAN, c.grid)),
        ("polarization", lambda c: c.with_polarization(_NAN)),
        ("mu", lambda c: tractrix_pair(c, _NAN)),
        ("mu0", lambda c: _quad(c, _NAN)),
        ("t", lambda c: surface_flatness(_surface(c), _NAN)),
        ("t", lambda c: surface_calapso(_surface(c), _INF)),
        ("mu", lambda c: surface_darboux(_surface(c), _NAN, np.array([0.0, 3.0]))),
    ],
    ids=[
        "parallel-t-nan", "parallel-t-inf", "parallel-point-nan", "parallel-batch-inf",
        "parallel-null-nan", "calapso-t-nan", "calapso-t-inf", "dual-anchor-nan",
        "riccati-mu-nan", "riccati-mu-inf", "riccati-point-nan", "circle-radius-nan",
        "helix-radius-inf", "helix-pitch-nan", "polarization-nan", "tractrix-mu-nan",
        "quad-mu0-nan", "flatness-t-nan", "surface-calapso-t-inf", "surface-darboux-mu-nan",
    ],
)
def test_non_finite_parameters_raise_geometry_error_naming_them(what, call):
    c = unit_circle(Grid(0.0, 1.0, 101))
    with pytest.raises(GeometryError, match=f"^{what} contains non-finite numbers$"):
        call(c)


def test_to_curve_requires_matching_polarization():
    c = unit_circle()
    sec = integrate_parallel_section(c, -2.0, np.array([2.0, 0.0]))
    hat = sec.to_curve()
    fit = is_darboux_pair(c, hat)
    assert abs(fit.mu + 2.0) < 1e-10
