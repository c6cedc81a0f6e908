"""Sections carry the polarization of the curve they ride.

Core claims:
    - a LightConeSection checks its m once, at construction: a scalar
      broadcasts, another length raises DimensionError, and a nan,
      infinite or zero sample raises PolarizationError
    - a PolarizedCurve rejects non-finite samples of x, x' and m with a
      GeometryError that names the field
    - every transform passes m on from its source unchanged, in n = 2, 3
      and 4 and for either sign of a non-constant m, and its chart view
      is bit for bit the projection with m given beside the section
      (``padded_forms.to_curve``)
"""

import numpy as np
import pytest

import isothermic.surface as surface_module
import padded_forms
from isothermic.bianchi import bianchi_cube, bianchi_quad
from isothermic.curves import Grid, PolarizedCurve, make_circle
from isothermic.darboux import (
    LightConeSection,
    euclidean_section,
    gauge_apply,
    integrate_parallel_section,
)
from isothermic.errors import DimensionError, GeometryError, PolarizationError
from isothermic.surface import build_surface, surface_calapso, surface_darboux
from isothermic.transforms import calapso_darboux_permute, integrate_calapso


def _curve(n: int, sign: float) -> PolarizedCurve:
    """A curve in R^n, n <= 4, with the polarization sign (1.5 + sin s)."""
    grid = Grid(0.0, 1.0, 201)
    s = grid.nodes()
    columns = [
        (np.cos(s), -np.sin(s)),
        (np.sin(s), np.cos(s)),
        (0.3 * s, np.full(grid.num, 0.3)),
        (0.2 * np.sin(2 * s), 0.4 * np.cos(2 * s)),
    ][:n]
    x, xprime = (np.stack(part, axis=1) for part in zip(*columns))
    return PolarizedCurve(n=n, grid=grid, x=x, xprime=xprime, m=sign * (1.5 + np.sin(s)))


def _point(n: int, xy) -> np.ndarray:
    p = np.zeros(n)
    p[:2] = xy
    return p


_MUS = (-2.0, 1.0, 3.0)
_XY = ((2.0, 0.0), (0.3, -0.4), (-1.5, 0.2))


def _assert_carries(section: LightConeSection, m: np.ndarray) -> None:
    """The section's m, and its chart view's, is m; the chart view is the explicit-m one."""
    assert np.array_equal(section.m, m)
    curve, reference = section.to_curve(), padded_forms.to_curve(section, m)
    assert np.array_equal(curve.m, m)
    assert np.array_equal(curve.x, reference.x)
    assert np.array_equal(curve.xprime, reference.xprime)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sections_carry_m_through_every_transform(n, sign):
    c = _curve(n, sign)
    points = [_point(n, xy) for xy in _XY]
    secs = [integrate_parallel_section(c, mu, p) for mu, p in zip(_MUS, points)]
    batch = integrate_parallel_section(c, _MUS[0], np.stack([points[0], _point(n, (1.8, 0.5))]))
    quad = bianchi_quad(c, secs[0], secs[1], _MUS[0], _MUS[1])
    cube = bianchi_cube(c, *secs, *_MUS)
    frames = integrate_calapso(c, 0.4)
    moved = [frames.move(frames.source), frames.move(secs[0])]
    for section in (*secs, *batch, quad, cube.face01, cube.face02, cube.face12, cube.vertex, *moved):
        _assert_carries(section, c.m)

    # Results that are curves: their positions against the explicit-m
    # projection of the sections they were projected from.
    hat = secs[0].to_curve()
    pair = calapso_darboux_permute(c, hat, _MUS[0], 0.7)
    frames = integrate_calapso(c, 0.7)
    for curve, section in zip(pair, (frames.source, euclidean_section(hat))):
        reference = padded_forms.to_curve(frames.move(section), c.m)
        assert np.array_equal(curve.m, c.m)
        assert np.array_equal(curve.x, reference.x)

    surface = build_surface(c, [(_MUS[0], points[0])])
    down = surface_darboux(surface, _MUS[2], points[2])
    sections = [integrate_parallel_section(c, _MUS[2], points[2])]
    r_inv = 1.0 / (1.0 - _MUS[2] / _MUS[0])
    xi = gauge_apply(surface.lift(1).xi, surface.lift(0).xi, r_inv, sections[0].xi)
    sections.append(LightConeSection(grid=c.grid, xi=xi, m=c.m))
    across = surface_calapso(surface, 0.4)
    chain = surface_module._chain_frames(surface, 0.4)
    sections += [f.move(surface.lift(k)) for k, f in enumerate(chain)]
    for curve, section in zip(down.curves + across.curves, sections):
        assert np.array_equal(curve.m, c.m)
        assert np.array_equal(curve.x, padded_forms.to_curve(section, c.m).x)


def test_section_checks_its_polarization_once():
    c = make_circle(1.0, Grid(0.0, 1.0, 101))
    lift = euclidean_section(c)
    section = LightConeSection(grid=c.grid, xi=lift.xi, m=-0.5)
    assert section.m.shape == (101,) and np.all(section.m == -0.5)
    with pytest.raises(DimensionError):
        LightConeSection(grid=c.grid, xi=lift.xi, m=np.ones(3))
    for bad in (np.nan, np.inf, -np.inf, 0.0):
        m = np.ones(101)
        m[57] = bad
        with pytest.raises(PolarizationError):
            LightConeSection(grid=c.grid, xi=lift.xi, m=m)
        with pytest.raises(PolarizationError):
            LightConeSection(grid=c.grid, xi=lift.xi, m=bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["x", "xprime", "m"])
def test_curve_rejects_non_finite_samples_naming_the_field(field, value):
    c = make_circle(1.0, Grid(0.0, 1.0, 2101))  # three row blocks of the checks
    samples = {"x": c.x.copy(), "xprime": c.xprime.copy(), "m": c.m.copy()}
    samples[field].reshape(-1)[-3] = value
    with pytest.raises(GeometryError, match=f"^curve {field} contains non-finite numbers$"):
        PolarizedCurve(n=2, grid=c.grid, **samples)
