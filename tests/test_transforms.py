"""Calapso and Christoffel transform tests.

Core claims:
    - the Calapso frame solves dT = -T A to fourth order with Magnus steps,
      whose step maps keep T in O(n+1,1) to rounding with no repair
    - the frames move a section to T y with derivative T (y' - A y), A taken
      from the curve or section they were integrated along
    - T^mu transports the Darboux section of parameter mu to a constant line
    - composition T^(s+t) = gauge-equivalent T^s then T^t, and the
      intertwining with Darboux transforms, hold up to constant gauges
    - Calapso shifts the Darboux parameter: the transformed pair has mu - tau
    - the Christoffel dual is an involution up to translation and closes a
      permutability square with any Darboux transform
"""

import numpy as np
import pytest

import isothermic.minkowski as mk
import isothermic.transforms as tr
from isothermic.cli import TOLERANCES
from isothermic.curves import Grid, PolarizedCurve, make_circle, make_helix
from isothermic.darboux import (
    LightConeSection,
    connection_matrix,
    euclidean_section,
    integrate_parallel_section,
    integrate_riccati,
    is_darboux_pair,
)
from isothermic.errors import GeometryError
from isothermic.fixtures import unit_circle
from isothermic.surface import SemiDiscreteSurface, calapso_trivialization_residuals
from isothermic.transforms import (
    calapso_curve,
    calapso_darboux_permute,
    christoffel_darboux_permute,
    christoffel_dual,
    dual_defect,
    integrate_calapso,
    transported_section_drift,
    verify_calapso_composition,
)

# Polarizations of either sign that the Calapso certificates must hold for.
POLARIZATIONS = (1.0, -1.0, -0.5)


def test_metric_drift_small():
    c = unit_circle()
    frames = integrate_calapso(c, 0.7)
    G = mk.metric_matrix(c.n)
    gram = np.einsum("kia,ij,kjb->kab", frames.T, G, frames.T)
    assert np.max(np.abs(gram - G)) < 1e-10
    assert np.max(np.abs(frames.T @ frames.inverse() - np.eye(c.n + 2))) < 1e-10


def test_calapso_frame_converges_at_fourth_order():
    def end_frame(num):
        c = make_circle(1.0, Grid(0.0, 1.0, num))
        frames = integrate_calapso(c, 0.7)
        return frames.T[-1]

    reference = end_frame(6401)
    errors = [float(np.max(np.abs(end_frame(num) - reference))) for num in (101, 201, 401)]
    assert errors[0] / errors[1] > 12.0
    assert errors[1] / errors[2] > 12.0


@pytest.mark.parametrize("substeps", [1, 16])
def test_metric_drift_stays_at_rounding_without_repair(substeps):
    frames = integrate_calapso(unit_circle(), 0.7, substeps=substeps)
    assert frames.metric_drift() < TOLERANCES["calapso-metric-drift"]


def test_metric_drift_is_relative_to_frame_size():
    # Frame entries reach 5.4e7 here; the absolute defect max|T^t G T - G|
    # reads 3e2, which is rounding relative to |T|^2.
    frames = integrate_calapso(make_helix(1.0, 0.2, Grid(0.0, 20.0, 20001)), 0.4)
    assert np.max(np.abs(frames.T)) > 1e7
    assert frames.metric_drift() < TOLERANCES["calapso-metric-drift"]


def test_metric_drift_by_blocks_matches_the_whole_array_and_keeps_a_nan():
    frames = integrate_calapso(make_circle(1.0, Grid(0.0, 1.0, 301)), 0.7)
    g = mk.metric_diagonal(frames.n)
    gram = (frames.T * g[:, None]).swapaxes(-1, -2) @ frames.T
    whole = float(np.max(np.abs(gram - np.diag(g)))) / max(1.0, float(np.max(np.abs(frames.T))) ** 2)
    assert frames.metric_drift() == whole
    # A NaN in a later block must fail the check, not be dropped by a max.
    frames.T[200, 1, 2] = np.nan
    assert np.isnan(frames.metric_drift())


# The reference's own scaling threshold, independent of the package's.
_HORNER_THETA = 2.0 ** -4


def _expm1_horner(x):
    """Reference: the degree-8 Taylor series of exp(X) - I in Horner form,
    on X / 2^s with row-sum norm at most 2^-4, then s squarings."""
    norm = float(np.max(np.sum(np.abs(x), axis=-1)))
    squarings = int(np.ceil(np.log2(norm / _HORNER_THETA))) if norm > _HORNER_THETA else 0
    x = x / 2.0**squarings
    eye = np.eye(x.shape[-1])
    poly = eye + x / 8.0
    for k in range(7, 1, -1):
        poly = eye + (x @ poly) / k
    e = x @ poly
    for _ in range(squarings):
        e = e @ e + 2.0 * e
    return e


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("norm", [1e-3, 2.0**-7, 2.0**-7 * 1.01, 2.0**-5, 0.5, 30.0])
def test_expm1_matches_the_horner_series(n, norm):
    # Stacks of X = G S, S skew, lie in so(n+1,1); norms above 2^-7 are
    # scaled and squared (2^-7 * 1.01 once).  Each matrix is compared
    # relative to its size.
    rng = np.random.default_rng(n)
    s = rng.standard_normal((64, n + 2, n + 2))
    x = mk.metric_diagonal(n)[:, None] * (s - np.swapaxes(s, -1, -2))
    row_sums = np.max(np.sum(np.abs(x), axis=-1), axis=-1)
    x *= (np.geomspace(norm / 100.0, norm, len(x)) / row_sums)[:, None, None]
    e, ref = tr._expm1_matrices(x), _expm1_horner(x)
    gap = np.max(np.abs(e - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
    assert np.max(gap) <= 1e-14, np.max(gap)


def _wavy_curve(n: int) -> PolarizedCurve:
    """A curve in R^n, n <= 5, with a varying polarization, on [0, 2]."""
    grid = Grid(0.0, 2.0, 201)
    s = grid.nodes()
    columns = [  # (coordinate, its derivative)
        (np.cos(s), -np.sin(s)),
        (np.sin(s), np.cos(s)),
        (0.3 * s, np.full(grid.num, 0.3)),
        (0.2 * np.sin(2 * s), 0.4 * np.cos(2 * s)),
        (0.1 * np.cos(3 * s), -0.3 * np.sin(3 * s)),
    ][:n]
    return PolarizedCurve(
        n=n,
        grid=grid,
        x=np.stack([f for f, _ in columns], axis=1),
        xprime=np.stack([df for _, df in columns], axis=1),
        m=1.0 + 0.1 * np.sin(s),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_move_matches_the_dense_connection(n):
    # y -> T y with derivative T (y' - A y), A the dense connection_matrix
    # of the source's lift; a curve source and a bare rescaled lift.
    c = _wavy_curve(n)
    s = c.grid.nodes()
    lift = euclidean_section(c)
    scale = 1.0 + 0.2 * np.cos(s)
    bare = LightConeSection(
        grid=c.grid,
        m=c.m,
        xi=scale[:, None] * lift.xi,
        xiprime=scale[:, None] * lift.xiprime - (0.2 * np.sin(s))[:, None] * lift.xi,
    )
    phase = np.arange(n + 2)
    y = LightConeSection(
        grid=c.grid, xi=np.sin(s[:, None] + phase), m=c.m, xiprime=np.cos(s[:, None] + phase)
    )
    for source, ref in ((c, lift), (bare, bare)):
        frames = integrate_calapso(source, 0.6)
        a = connection_matrix(ref.xi, ref.xiprime, c.m, 0.6)
        covariant = y.xiprime - np.einsum("kij,kj->ki", a, y.xi)
        moved = frames.move(y)
        for got, want in (
            (moved.xi, np.einsum("kij,kj->ki", frames.T, y.xi)),
            (moved.xiprime, np.einsum("kij,kj->ki", frames.T, covariant)),
        ):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_transported_darboux_section_is_constant():
    c = unit_circle()
    section = integrate_parallel_section(c, -2.0, mk.euclidean_lift(np.array([2.0, 0.0])))
    frames = integrate_calapso(c, -2.0)
    assert transported_section_drift(frames, section) < 1e-10


def test_transported_drift_flags_wrong_parameter():
    c = unit_circle()
    section = integrate_parallel_section(c, -2.0, mk.euclidean_lift(np.array([2.0, 0.0])))
    frames = integrate_calapso(c, 0.9)
    assert transported_section_drift(frames, section) > 1e-4


def test_calapso_composition():
    for m in POLARIZATIONS:
        c = unit_circle().with_polarization(m)
        assert verify_calapso_composition(c, 0.4, 0.3) < 1e-10


def test_calapso_intertwine():
    # At m = -0.5 the residual is an h^4 truncation of 1.4e-10 on this
    # grid (16x smaller per halving), so the check's tolerance applies.
    for m in POLARIZATIONS:
        c = unit_circle().with_polarization(m)
        hat = integrate_riccati(c, -2.0, np.array([2.0, 0.0]))
        residual = calapso_trivialization_residuals(SemiDiscreteSurface([c, hat], [-2.0]), 0.5)[0]
        assert residual < TOLERANCES["calapso-intertwine"]


def test_calapso_parameter_shift():
    c = unit_circle()
    hat = integrate_riccati(c, -2.0, np.array([2.0, 0.0]))
    new_base, new_hat = calapso_darboux_permute(c, hat, -2.0, 0.7)
    fit = is_darboux_pair(new_base, new_hat)
    assert abs(fit.mu - (-2.7)) < 1e-10
    assert fit.spread < 1e-10


def test_calapso_permuted_pair_on_long_helix():
    # Fifteen thousand steps with frame entries up to ~3e5: long enough for
    # frames that leave O(n+1,1) to spoil the transported pair.
    c = make_helix(1.0, 0.15, Grid(0.0, 15.0, 15001))
    start = c.x[0] * np.array([2.0, 2.0, 1.0])
    hat = integrate_parallel_section(c, -2.0, start).to_curve()
    new_base, new_hat = calapso_darboux_permute(c, hat, -2.0, 0.4)
    fit = is_darboux_pair(new_base, new_hat)
    assert fit.spread < TOLERANCES["calapso-permute-parameter"]
    assert fit.reality < TOLERANCES["calapso-permute-parameter"]


def test_calapso_at_zero_is_identity():
    c = unit_circle()
    moved = calapso_curve(c, 0.0)
    assert np.max(np.abs(moved.x - c.x)) < 1e-12


def test_calapso_preserves_polarization():
    c = unit_circle()
    moved = calapso_curve(c, 0.6)
    assert np.max(np.abs(moved.m - c.m)) < 1e-12
    assert moved.grid == c.grid


def test_christoffel_dual_defect():
    c = unit_circle()
    dual = christoffel_dual(c)
    assert dual_defect(c, dual) < 1e-12
    # Any dimension: a space curve in R^5, and the dual of its transform.
    grid = Grid(0.0, 1.0, 201)
    s = grid.nodes()
    x = np.stack([np.cos(s), np.sin(s), 0.3 * np.cos(2 * s), 0.2 * np.sin(3 * s), 0.1 * s], axis=1)
    xp = np.stack(
        [-np.sin(s), np.cos(s), -0.6 * np.sin(2 * s), 0.6 * np.cos(3 * s), np.full_like(s, 0.1)],
        axis=1,
    )
    c5 = PolarizedCurve(n=5, grid=grid, x=x, xprime=xp, m=np.ones(grid.num))
    dual5 = christoffel_dual(c5)
    assert dual_defect(c5, dual5) < 1e-12
    hat5 = integrate_riccati(c5, -2.0, 2.0 * x[0])
    assert dual_defect(hat5, christoffel_darboux_permute(c5, dual5, hat5, -2.0)) < 1e-12


def test_christoffel_dual_is_involution():
    c = unit_circle()
    again = christoffel_dual(christoffel_dual(c))
    assert np.max(np.abs(again.xprime - c.xprime)) < 1e-12
    # up to translation only
    offsets = again.x - c.x
    assert np.max(np.abs(offsets - offsets[0])) < 1e-10


def test_christoffel_dual_of_unit_circle_is_unit_circle():
    # x' / (m |x'|^2) = x' for the unit circle with m = 1
    c = unit_circle()
    dual = christoffel_dual(c, anchor=c.x[0])
    assert np.max(np.abs(dual.x - c.x)) < 1e-10


def test_christoffel_darboux_square():
    c = unit_circle()
    hat = integrate_riccati(c, -2.0, np.array([2.0, 0.0]))
    dual = christoffel_dual(c)
    hatstar = christoffel_darboux_permute(c, dual, hat, -2.0)
    assert dual_defect(hat, hatstar) < 1e-12
    fit = is_darboux_pair(dual, hatstar)
    assert abs(fit.mu + 2.0) < 1e-12
    assert fit.spread < 1e-12


def test_calapso_larger_arc_still_converges():
    # quarter-turn arc at moderate resolution keeps certificates tight
    grid = Grid(0.0, float(np.pi / 2.0), 629)
    c = make_circle(1.0, grid)
    assert verify_calapso_composition(c, 0.4, 0.3) < 1e-8


def test_dual_rejects_sign_changing_polarization():
    grid = Grid(0.0, 1.0, 101)
    c = make_circle(1.0, grid)
    m = np.ones(grid.num)
    m[50:] = -1.0
    with pytest.raises(GeometryError):
        christoffel_dual(c.with_polarization(m))
