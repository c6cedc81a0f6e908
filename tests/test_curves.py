"""Polarized curve and grid tests.

Core claims:
    - Grid validates its bounds and exposes nodes with exact spacing
    - derivative_samples converges at fourth order on smooth data, and
      sixth_order_derivative is exact on sextics
    - cubic interpolation by cubic_stencil reproduces cubics exactly
    - curve constructors validate shapes, finiteness and immersion
    - arc_length_polarization gives m = |x'|^2 and tractrix_pair returns
      the closed-form Darboux companion of a unit-speed curve
"""

import numpy as np
import pytest

from isothermic.curves import (
    Grid,
    PolarizedCurve,
    arc_length_polarization,
    derivative_samples,
    from_samples,
    make_circle,
    make_curve,
    make_helix,
    make_line,
    sixth_order_derivative,
    tractrix_pair,
)
from isothermic.errors import DimensionError, GeometryError, PolarizationError
from whole_grid import cubic_interp


def test_grid_nodes():
    g = Grid(0.0, 2.0, 5)
    assert g.h == 0.5
    assert np.max(np.abs(g.nodes() - np.array([0.0, 0.5, 1.0, 1.5, 2.0]))) == 0.0


def test_grid_validation():
    with pytest.raises(GeometryError):
        Grid(1.0, 1.0, 5)
    with pytest.raises(GeometryError):
        Grid(0.0, 1.0, 1)


def test_derivative_fourth_order():
    errs = []
    for num in (51, 101, 201):
        g = Grid(0.0, 1.0, num)
        s = g.nodes()
        x = np.stack([np.sin(3.0 * s), np.cos(2.0 * s)], axis=1)
        xp = np.stack([3.0 * np.cos(3.0 * s), -2.0 * np.sin(2.0 * s)], axis=1)
        errs.append(np.max(np.abs(derivative_samples(x, g) - xp)))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


@pytest.mark.parametrize("num", [7, 8, 31])
def test_sixth_order_derivative_exact_on_sextics(num):
    # Seven nodes put every node under a one-sided stencil.
    g = Grid(-0.5, 1.5, num)
    s = g.nodes()
    coeffs = np.array([0.3, -1.1, 0.7, -0.2, 0.05, -0.3, 0.1])
    x = np.polynomial.polynomial.polyval(s, coeffs)
    xp = np.polynomial.polynomial.polyval(s, np.polynomial.polynomial.polyder(coeffs))
    assert np.max(np.abs(sixth_order_derivative(x, g) - xp)) < 1e-12
    # Below seven nodes the fourth-order stencil stands in.
    g5 = Grid(0.0, 1.0, 5)
    assert np.array_equal(sixth_order_derivative(x[:5], g5), derivative_samples(x[:5], g5))


def test_cubic_interp_exact_on_cubics():
    g = Grid(0.0, 1.0, 21)
    s = g.nodes()
    vals = (s**3 - 2.0 * s**2 + 0.5 * s - 1.0)[:, None]
    probes = np.array([0.111, 0.5, 0.73, 0.999])
    out = cubic_interp(vals, g, probes)
    expected = (probes**3 - 2.0 * probes**2 + 0.5 * probes - 1.0)[:, None]
    assert np.max(np.abs(out - expected)) < 1e-12


def test_curve_shape_validation():
    g = Grid(0.0, 1.0, 11)
    with pytest.raises((DimensionError, GeometryError)):
        PolarizedCurve(n=2, grid=g, x=np.zeros((11, 3)), xprime=np.zeros((11, 3)), m=np.ones(11))
    with pytest.raises((DimensionError, GeometryError)):
        from_samples(np.zeros((7, 2)), g)


def test_curve_rejects_vanishing_polarization():
    g = Grid(0.0, 1.0, 11)
    c = make_circle(1.0, g)
    m = np.ones(11)
    m[4] = 0.0
    with pytest.raises(PolarizationError):
        c.with_polarization(m)


def test_curve_rejects_nonimmersed():
    g = Grid(0.0, 1.0, 11)
    x = np.zeros((11, 2))
    x[:, 0] = np.linspace(0.0, 1.0, 11) ** 2  # x' = 0 at s = 0
    x[:, 1] = 0.0
    with pytest.raises(GeometryError):
        from_samples(x, g)


def test_make_circle_speed():
    g = Grid(0.0, 1.0, 101)
    c = make_circle(2.0, g)
    assert np.max(np.abs(c.speed2 - 4.0)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(c.x, axis=1) - 2.0)) < 1e-12


def test_make_helix_and_line():
    g = Grid(0.0, 1.0, 51)
    h = make_helix(1.0, 0.5, g)
    assert h.n == 3
    assert np.max(np.abs(h.speed2 - 1.25)) < 1e-12
    ln = make_line(g, direction=np.array([3.0, 4.0]), origin=np.array([1.0, 0.0]))
    assert np.max(np.abs(ln.speed2 - 25.0)) < 1e-12


def test_make_curve_dispatch():
    g = Grid(0.0, 1.0, 21)
    assert make_curve("circle", g, radius=1.5).n == 2
    assert make_curve("helix", g, radius=1.0, pitch=0.2).n == 3
    assert make_curve("line", g).n == 2
    with pytest.raises(GeometryError):
        make_curve("lemniscate", g)


def test_arc_length_polarization():
    # m = 1 / |x'|^2 normalizes m (x', x') to 1
    g = Grid(0.0, 1.0, 101)
    c = make_circle(3.0, g)
    p = arc_length_polarization(c)
    assert np.max(np.abs(p.m * p.speed2 - 1.0)) < 1e-10
    assert np.max(np.abs(p.m - 1.0 / 9.0)) < 1e-10


def test_reversed_orientation_round_trip():
    g = Grid(0.0, 1.0, 41)
    c = make_circle(1.0, g)
    back = c.reversed_orientation().reversed_orientation()
    assert np.max(np.abs(back.x - c.x)) < 1e-14
    assert np.max(np.abs(back.xprime - c.xprime)) < 1e-14


def test_tractrix_pair_closed_form():
    # unit circle is unit speed; companion with mu = 1/4 has m = 1/2
    g = Grid(0.0, 1.0, 1001)
    y = make_circle(1.0, g)
    base, hat = tractrix_pair(y, 0.25)
    assert np.max(np.abs(base.m - 0.5)) < 1e-12
    assert np.max(np.abs(hat.m - 0.5)) < 1e-12
    # companion stays at constant distance from the base curve
    gaps = np.linalg.norm(base.x - hat.x, axis=1)
    assert np.max(np.abs(gaps - gaps[0])) < 1e-10


def test_tractrix_requires_unit_speed():
    g = Grid(0.0, 1.0, 101)
    with pytest.raises(GeometryError):
        tractrix_pair(make_circle(2.0, g), 0.25)
