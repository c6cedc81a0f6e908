"""Closed-form fixtures with known invariants, generated on demand.

Every fixture is built from analytic samples at call time; nothing is
stored on disk.  The default grid keeps the step at exactly 1e-3 on an
arc of unit parameter length, the regime where fourth-order stencils
and the integrators sit far below the certificate tolerances while
gauge frames stay well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cmc
from .darboux import LightConeSection
from .curves import Grid, PolarizedCurve, derivative_samples, make_circle, tractrix_pair
from .errors import GeometryError
from .surface import SemiDiscreteSurface, build_surface

__all__ = [
    "default_grid",
    "unit_circle",
    "concentric_pair",
    "tractrix_circle_pair",
    "cylinder_patch",
    "three_layer",
    "CmcFixture",
    "cmc_round_cylinder",
    "flat_strip",
    "perturb_curve",
]


def default_grid(num: int = 1001) -> Grid:
    """Grid on [0, 1] with step h = 1/(num - 1); the default gives h = 1e-3."""
    return Grid(0.0, 1.0, num)


def unit_circle(grid: Grid | None = None) -> PolarizedCurve:
    return make_circle(1.0, grid or default_grid(), n=2, m=1.0)


def concentric_pair(grid: Grid | None = None) -> tuple[PolarizedCurve, PolarizedCurve]:
    """Concentric circles of radii 1 and 2 with m = 1: a mu = -2 pair."""
    grid = grid or default_grid()
    return make_circle(1.0, grid, n=2, m=1.0), make_circle(2.0, grid, n=2, m=1.0)


def tractrix_circle_pair(grid: Grid | None = None) -> tuple[PolarizedCurve, PolarizedCurve]:
    """Darboux pair with mu = 1/4, at distance 1/sqrt(mu) = 2, built from the unit circle."""
    return tractrix_pair(unit_circle(grid), 0.25)


def cylinder_patch(grid: Grid | None = None) -> SemiDiscreteSurface:
    """Two concentric circles as a surface with one mu = -2 edge."""
    a, b = concentric_pair(grid)
    return SemiDiscreteSurface(curves=[a, b], mu=[-2.0])


def three_layer(grid: Grid | None = None) -> SemiDiscreteSurface:
    """Circle, its mu = -2 concentric transform, and a generic mu = 1 layer."""
    return build_surface(
        unit_circle(grid), [(-2.0, np.array([2.0, 0.0])), (1.0, np.array([0.3, -0.4]))]
    )


@dataclass
class CmcFixture:
    """A layered surface with known mixed-area mean curvature.

    ``normals`` holds the affine unit normal samples per curve, ``h``
    the constant mean curvature they produce, and ``mu`` the shared
    edge parameter.
    """

    surface: SemiDiscreteSurface
    normals: list[np.ndarray]
    h: float
    mu: float

    def congruence(self) -> list[LightConeSection]:
        return cmc.tangent_congruence(self.surface, self.normals)


def cmc_round_cylinder(
    radius: float = 1.0,
    delta: float = 0.5,
    layers: int = 3,
    grid: Grid | None = None,
    orientation: str = "inward",
) -> CmcFixture:
    """Parallel circles of one radius at equal height steps in R^3.

    The polarization m = 4/radius (inward) gives edge parameter
    mu = -4 radius/delta^2, inward normals, and h = +1/(2 radius);
    the outward orientation flips the polarization, the normals, and
    the sign of both mu and h, at the price of losing the real Moutard
    normalization (m (x', x') < 0).
    """
    if layers < 2:
        raise GeometryError("a cylinder fixture needs at least two circles")
    if radius <= 0:
        raise GeometryError("cylinder radius must be positive")
    if delta == 0:
        raise GeometryError("layer spacing delta must be nonzero")
    if orientation not in ("inward", "outward"):
        raise GeometryError(f"unknown orientation {orientation!r}")
    grid = grid or default_grid()
    s = grid.nodes()
    sign = 1.0 if orientation == "inward" else -1.0
    m = sign * 4.0 / radius
    mu = -sign * 4.0 * radius / delta**2
    curves = []
    normals = []
    u = np.stack([np.cos(s), np.sin(s), np.zeros(grid.num)], axis=1)
    uprime = np.stack([-np.sin(s), np.cos(s), np.zeros(grid.num)], axis=1)
    for k in range(layers):
        x = radius * u + np.array([0.0, 0.0, k * delta])
        curves.append(
            PolarizedCurve(
                n=3, grid=grid, x=x, xprime=radius * uprime, m=np.full(grid.num, m)
            )
        )
        normals.append(-sign * u)
    surface = SemiDiscreteSurface(curves=curves, mu=[mu] * (layers - 1))
    return CmcFixture(surface=surface, normals=normals, h=sign / (2.0 * radius), mu=mu)


def flat_strip(
    delta: float = 0.5,
    layers: int = 2,
    grid: Grid | None = None,
) -> CmcFixture:
    """Parallel lines at equal height steps: a minimal (h = 0) fixture."""
    if layers < 2:
        raise GeometryError("a strip fixture needs at least two lines")
    if delta == 0:
        raise GeometryError("layer spacing delta must be nonzero")
    grid = grid or default_grid()
    s = grid.nodes()
    mu = -1.0 / delta**2
    curves = []
    normals = []
    e2 = np.zeros((grid.num, 3))
    e2[:, 1] = 1.0
    xp = np.zeros((grid.num, 3))
    xp[:, 0] = 1.0
    for k in range(layers):
        x = np.stack([s, np.zeros(grid.num), np.full(grid.num, k * delta)], axis=1)
        curves.append(
            PolarizedCurve(n=3, grid=grid, x=x, xprime=xp.copy(), m=np.ones(grid.num))
        )
        normals.append(e2.copy())
    surface = SemiDiscreteSurface(curves=curves, mu=[mu] * (layers - 1))
    return CmcFixture(surface=surface, normals=normals, h=0.0, mu=mu)


def perturb_curve(
    curve: PolarizedCurve, scale: float = 1e-3, seed: int = 0
) -> PolarizedCurve:
    """Add seeded noise to the positions and rebuild x' by stencils.

    Deliberately breaks geometric identities at the given scale while
    keeping the data structurally valid; used as the negative control
    in certificate tests and by the command line corruption switch.
    """
    rng = np.random.default_rng(seed)
    x = curve.x + scale * rng.standard_normal(curve.x.shape)
    xprime = derivative_samples(x, curve.grid)
    return PolarizedCurve(
        n=curve.n, grid=curve.grid, x=x, xprime=xprime, m=curve.m.copy()
    )
