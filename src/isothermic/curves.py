"""Polarized curves: uniformly sampled curves with a quadratic differential.

A polarized curve is an immersion x: [s0, s1] -> R^n together with the
polarization ds^2/m, stored as samples of x, x' and m on a uniform
grid.  Derivatives are either supplied in closed form by the curve
families or reconstructed by fourth-order finite differences (sixth
order where a certificate must see errors in the samples), and all
downstream integrators interpolate these samples cubically, keeping
every numerical route at O(h^4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, GeometryError, PolarizationError, require_finite

# Rows per block of the immersion and polarization checks of a curve.
_CHECK_ROWS = 1024

# First-derivative stencils: the denominator (times h), the central
# weights and the one-sided weights of the first nodes, which the last
# nodes mirror with a sign flip.
_STENCIL4 = (
    12.0,
    np.array([1.0, -8.0, 0.0, 8.0, -1.0]),
    (np.array([-25.0, 48.0, -36.0, 16.0, -3.0]), np.array([-3.0, -10.0, 18.0, -6.0, 1.0])),
)
_STENCIL6 = (
    60.0,
    np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]),
    (
        np.array([-147.0, 360.0, -450.0, 400.0, -225.0, 72.0, -10.0]),
        np.array([-10.0, -77.0, 150.0, -100.0, 50.0, -15.0, 2.0]),
        np.array([2.0, -24.0, -35.0, 80.0, -30.0, 8.0, -1.0]),
    ),
)


@dataclass(frozen=True)
class Grid:
    """Uniform parameter grid with N nodes on [s0, s1]."""

    s0: float
    s1: float
    num: int

    def __post_init__(self):
        if self.num < 5:
            raise GeometryError(f"grid needs at least 5 nodes, got {self.num}")
        if not self.s1 > self.s0:
            raise GeometryError("grid interval is empty")

    @property
    def h(self) -> float:
        return (self.s1 - self.s0) / (self.num - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.s0, self.s1, self.num)


def _stencil_derivative(values: np.ndarray, grid: Grid, stencil) -> np.ndarray:
    denom, central, edges = stencil
    f = np.asarray(values, dtype=float)
    if f.shape[0] != grid.num:
        raise DimensionError("sample count does not match grid")
    scale = denom * grid.h
    width = len(central)
    r, inner = width // 2, grid.num - width + 1
    acc = central[0] * f[:inner]
    for j in range(1, width):
        if central[j]:
            acc = acc + central[j] * f[j : j + inner]
    df = np.empty_like(f)
    df[r:-r] = acc / scale
    for j, w in enumerate(edges):
        df[j] = np.tensordot(w, f[:width], axes=(0, 0)) / scale
        df[-1 - j] = -np.tensordot(w, f[-1 : -width - 1 : -1], axes=(0, 0)) / scale
    return df


def derivative_samples(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Fourth-order finite-difference derivative along axis 0."""
    return _stencil_derivative(values, grid, _STENCIL4)


def sixth_order_derivative(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Sixth-order finite-difference derivative along axis 0.

    Its truncation falls as h^6, so on coarse grids it exposes errors in
    the samples that the fourth-order stencil's own truncation would
    hide.  Grids of fewer than seven nodes get the fourth-order stencil.
    """
    return _stencil_derivative(values, grid, _STENCIL6 if grid.num >= 7 else _STENCIL4)


@dataclass
class PolarizedCurve:
    """Sampled polarized curve (x, ds^2/m) in R^n.

    Attributes
    ----------
    n : ambient dimension, n >= 1.
    grid : uniform parameter grid.
    x : (N, n) position samples.
    xprime : (N, n) derivative samples.
    m : (N,) polarization denominator, nonvanishing, either sign.
    """

    n: int
    grid: Grid
    x: np.ndarray
    xprime: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.xprime = np.asarray(self.xprime, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        if self.x.shape != (self.grid.num, self.n):
            raise DimensionError(f"x has shape {self.x.shape}, expected {(self.grid.num, self.n)}")
        if self.xprime.shape != self.x.shape:
            raise DimensionError("xprime shape does not match x")
        if self.m.shape != (self.grid.num,):
            raise DimensionError("m must be sampled per node")
        # Each row block is reduced to whether x, x' and m are finite, and
        # to its min |x'|^2, max |x'|^2 and min |m|, so the checks'
        # temporaries stay O(_CHECK_ROWS).  Finiteness goes first: the
        # other checks compare, and a nan compares False.
        starts = range(0, self.grid.num, _CHECK_ROWS)
        reduced = np.empty((6, len(starts)))
        ones = np.ones(self.n)
        for b, k in enumerate(starts):
            x, xp, m = (v[k : k + _CHECK_ROWS] for v in (self.x, self.xprime, self.m))
            speed2 = (xp * xp) @ ones
            finite = [np.isfinite(v).all() for v in (x, xp, m)]
            reduced[:, b] = *finite, speed2.min(), speed2.max(), np.abs(m).min()
        for name, finite in zip(("x", "xprime", "m"), reduced[:3]):
            if not finite.all():
                raise GeometryError(f"curve {name} contains non-finite numbers")
        if np.sqrt(reduced[3].min()) <= 1e-12 * max(np.sqrt(reduced[4].max()), 1.0):
            raise GeometryError("curve is not immersed: x' vanishes somewhere")
        if reduced[5].min() <= 1e-300:
            raise PolarizationError("polarization denominator m vanishes")

    @property
    def speed2(self) -> np.ndarray:
        return np.sum(self.xprime * self.xprime, axis=1)

    def with_polarization(self, m: np.ndarray | float) -> "PolarizedCurve":
        m = np.broadcast_to(require_finite(m, "polarization"), (self.grid.num,)).copy()
        return replace(self, m=m)


def from_samples(
    x: np.ndarray,
    grid: Grid,
    m: np.ndarray | float = 1.0,
    xprime: np.ndarray | None = None,
) -> PolarizedCurve:
    """Curve from position samples; derivatives by finite differences if absent."""
    x = np.asarray(x, dtype=float)
    if xprime is None:
        xprime = derivative_samples(x, grid)
    m = np.broadcast_to(np.asarray(m, dtype=float), (grid.num,)).copy()
    return PolarizedCurve(n=x.shape[1], grid=grid, x=x, xprime=np.asarray(xprime, float), m=m)


def make_circle(radius: float, grid: Grid, n: int = 2, m: np.ndarray | float = 1.0) -> PolarizedCurve:
    """Circle of given radius in the first two coordinates, angle parameter."""
    require_finite(radius, "radius")
    if radius <= 0:
        raise GeometryError("radius must be positive")
    if n < 2:
        raise DimensionError("circles need n >= 2")
    s = grid.nodes()
    x = np.zeros((grid.num, n))
    x[:, 0] = radius * np.cos(s)
    x[:, 1] = radius * np.sin(s)
    xp = np.zeros_like(x)
    xp[:, 0] = -radius * np.sin(s)
    xp[:, 1] = radius * np.cos(s)
    mm = np.broadcast_to(np.asarray(m, dtype=float), (grid.num,)).copy()
    return PolarizedCurve(n=n, grid=grid, x=x, xprime=xp, m=mm)


def make_helix(radius: float, pitch: float, grid: Grid, m: np.ndarray | float = 1.0) -> PolarizedCurve:
    """Helix (r cos s, r sin s, p s); zero pitch degenerates to the circle."""
    require_finite(radius, "radius")
    require_finite(pitch, "pitch")
    s = grid.nodes()
    x = np.stack([radius * np.cos(s), radius * np.sin(s), pitch * s], axis=1)
    xp = np.stack([-radius * np.sin(s), radius * np.cos(s), np.full_like(s, pitch)], axis=1)
    mm = np.broadcast_to(np.asarray(m, dtype=float), (grid.num,)).copy()
    return PolarizedCurve(n=3, grid=grid, x=x, xprime=xp, m=mm)


def make_line(
    grid: Grid,
    direction: np.ndarray | None = None,
    origin: np.ndarray | None = None,
    n: int = 2,
    m: np.ndarray | float = 1.0,
) -> PolarizedCurve:
    if n < 1:
        raise DimensionError(f"lines need n >= 1, got n = {n}")
    d = np.zeros(n) if direction is None else np.asarray(direction, dtype=float)
    if direction is None:
        d[0] = 1.0
    o = np.zeros(n) if origin is None else np.asarray(origin, dtype=float)
    s = grid.nodes()
    x = o[None, :] + s[:, None] * d[None, :]
    xp = np.broadcast_to(d, x.shape).copy()
    mm = np.broadcast_to(np.asarray(m, dtype=float), (grid.num,)).copy()
    return PolarizedCurve(n=n, grid=grid, x=x, xprime=xp, m=mm)


# The keyword parameters each curve family takes through make_curve.
_FAMILY_PARAMS = {
    "circle": ("radius", "n", "m"),
    "helix": ("radius", "pitch", "m"),
    "line": ("direction", "origin", "n", "m"),
}


def make_curve(family: str, grid: Grid, **params) -> PolarizedCurve:
    """Dispatch constructor used by the command line interface.

    A parameter that the family does not take raises GeometryError.
    """
    if family not in _FAMILY_PARAMS:
        raise GeometryError(f"unknown curve family {family!r}")
    extra = sorted(set(params) - set(_FAMILY_PARAMS[family]))
    if extra:
        raise GeometryError(
            f"a {family} takes no {', '.join(extra)}; it takes {', '.join(_FAMILY_PARAMS[family])}"
        )
    if family == "circle":
        return make_circle(params.pop("radius", 1.0), grid, **params)
    if family == "helix":
        return make_helix(params.pop("radius", 1.0), params.pop("pitch", 0.0), grid, **params)
    return make_line(grid, **params)


def arc_length_polarization(curve: PolarizedCurve) -> PolarizedCurve:
    """Polarization with m = 1/(x', x'), i.e. ds^2/m = |dx|^2."""
    return curve.with_polarization(1.0 / curve.speed2)


def tractrix_pair(y: PolarizedCurve, mu: float) -> tuple[PolarizedCurve, PolarizedCurve]:
    """Darboux pair x± = y ± y'/(2 sqrt(mu)) from an arclength curve.

    The input must be unit speed to 1e-8; the output pair carries the
    common arc-length polarization m = 1/(x', x') and has constant
    tangent cross ratio mu/m, separation |x+ - x-| = 1/sqrt(mu).
    """
    require_finite(mu, "mu")
    if mu <= 0:
        raise GeometryError("tractrix construction needs mu > 0")
    speed = np.sqrt(y.speed2)
    if np.max(np.abs(speed - 1.0)) > 1e-8:
        raise GeometryError("tractrix construction needs a unit-speed curve")
    ysecond = derivative_samples(y.xprime, y.grid)
    half = 1.0 / (2.0 * np.sqrt(mu))
    curves = []
    for sign in (+1.0, -1.0):
        x = y.x + sign * half * y.xprime
        xp = y.xprime + sign * half * ysecond
        m = 1.0 / np.sum(xp * xp, axis=1)
        curves.append(PolarizedCurve(n=y.n, grid=y.grid, x=x, xprime=xp, m=m))
    plus, minus = curves
    return minus, plus
