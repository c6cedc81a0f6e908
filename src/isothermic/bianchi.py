"""Permutability of Darboux transforms: quads, cubes, and the bigauge law.

Two Darboux transforms xi0, xi1 (parameters mu0 != mu1) of one curve
close up into a quadrilateral with a fourth curve

    xi01 = Gamma_{<xi>}^{<xi0>}(1 - mu1/mu0) xi1,

computed pointwise with no further integration.  The four points are
concircular with constant Moebius cross ratio mu1/mu0, the opposite
edges carry equal parameters, and the construction extends to a
consistent cube.  The gauge maps around a quad satisfy the purely
algebraic bigauge identity, including its two-line middle form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford as cl
from . import minkowski as mk
from .curves import PolarizedCurve
from .darboux import (
    LightConeSection,
    connection_matrix,
    euclidean_section,
    gauge_matrix,
    parallel_residual,
)
from .errors import DimensionError, GeometryError, NonConcircularError

# Relative non-scalar tolerance above which four points are rejected
# as non-concircular rather than silently projected.
CONCIRCULARITY_TOL = 1e-7


def moebius_cross_ratio(
    p1: np.ndarray,
    p2: np.ndarray,
    p3: np.ndarray,
    p4: np.ndarray,
) -> np.ndarray | float:
    """Cross ratio of four concircular null directions.

    Computed as the Clifford cross ratio of stereographic images in a
    chart avoiding all four points; the value is chart-independent.
    Convention: for zeta = Gamma_{<xi>}^{<xihat>}(r) eta the quadruple
    (xihat, eta, xi, zeta) returns r.  A relative non-scalar part above
    CONCIRCULARITY_TOL raises NonConcircularError.
    """
    pts = [np.asarray(p, dtype=float) for p in (p1, p2, p3, p4)]
    shape = np.broadcast_shapes(*(p.shape for p in pts))
    pts = [np.broadcast_to(p, shape) for p in pts]
    frame, basis = mk.chart_avoiding(np.concatenate([p.reshape(-1, shape[-1]) for p in pts]))
    coords = [mk.chart_coordinates(p, frame, basis) for p in pts]
    cr = cl.cross_ratio(*coords)
    scalar = cl.scalar_part(cr)
    rest = cl.nonscalar_norm(cr)
    residual = float(np.max(rest / np.maximum(np.abs(scalar), 1e-300)))
    if residual > CONCIRCULARITY_TOL:
        raise NonConcircularError(
            f"points are not concircular: relative residual {residual:.3e}"
        )
    if scalar.ndim == 0:
        return float(scalar)
    return scalar


def _require_sections_compatible(*sections: LightConeSection) -> None:
    first = sections[0]
    for sec in sections[1:]:
        if sec.grid != first.grid:
            raise DimensionError("sections are sampled on different grids")
        if sec.n != first.n:
            raise DimensionError("sections live in different dimensions")


def bianchi_quad(
    base: PolarizedCurve | LightConeSection,
    sec0: LightConeSection,
    sec1: LightConeSection,
    mu0: float,
    mu1: float,
    m: np.ndarray | None = None,
) -> LightConeSection:
    """Close the Darboux quadrilateral algebraically.

    ``sec0`` and ``sec1`` are parallel sections over ``base`` for the
    parameters mu0 and mu1.  A curve base supplies its own polarization
    and ``m`` is not read; a bare section base, as on the faces of a
    cube, needs ``m``.  The returned section is an exact mu1-parallel
    section along the sec0 curve; along the sec1 curve it is
    mu0-parallel up to scaling (the line is parallel, the chosen
    representative is not).
    """
    if mu0 == mu1:
        raise GeometryError("quad requires distinct Darboux parameters")
    if mu0 == 0.0:
        raise GeometryError("mu0 = 0 leaves the gauge parameter undefined")
    if isinstance(base, PolarizedCurve):
        xi, m = euclidean_section(base), base.m
    elif m is None:
        raise GeometryError("a polarization m is required alongside bare sections")
    else:
        xi = base
    _require_sections_compatible(xi, sec0, sec1)
    r = 1.0 - mu1 / mu0
    gamma = gauge_matrix(xi.xi, sec0.xi, np.full(xi.grid.num, r))
    samples = np.einsum("kij,kj->ki", gamma, sec1.xi)
    m = np.broadcast_to(np.asarray(m, dtype=float), (xi.grid.num,))
    # The quad point rides the sec0 curve as a mu1-parallel section, so
    # its derivative comes from that connection, not from stencils.
    a = connection_matrix(sec0.xi, sec0.derivative(), m, mu1)
    xiprime = np.einsum("kij,kj->ki", a, samples)
    return LightConeSection(grid=xi.grid, xi=samples, xiprime=xiprime)


@dataclass
class QuadReport:
    """Numerical certificates for one Bianchi quadrilateral."""

    mu0: float
    mu1: float
    cross_ratio_spread: float
    cross_ratio_swapped_spread: float
    parallel_residual_defining: float
    parallel_residual_other: float


def check_quad(
    base: PolarizedCurve,
    sec0: LightConeSection,
    sec1: LightConeSection,
    sec01: LightConeSection,
    mu0: float,
    mu1: float,
) -> QuadReport:
    """Certify a quadrilateral: cross ratios and both parallel residuals.

    The residual along the sec1 curve is taken modulo the section's own
    line because the algebraic quad point carries a non-constant scaling
    relative to the exact parallel section there.
    """
    xi = euclidean_section(base)
    cr = moebius_cross_ratio(xi.xi, sec0.xi, sec01.xi, sec1.xi)
    target = mu1 / mu0
    spread = float(np.max(np.abs(cr - target)))
    cr_swapped = moebius_cross_ratio(sec0.xi, sec1.xi, xi.xi, sec01.xi)
    swapped_spread = float(np.max(np.abs(cr_swapped - (1.0 - target))))
    curve0 = sec0.to_curve(base.m)
    curve1 = sec1.to_curve(base.m)
    res_def = parallel_residual(sec01, curve0, mu1)
    res_other = parallel_residual(sec01, curve1, mu0, mod_line=True)
    return QuadReport(
        mu0=mu0,
        mu1=mu1,
        cross_ratio_spread=spread,
        cross_ratio_swapped_spread=swapped_spread,
        parallel_residual_defining=res_def,
        parallel_residual_other=res_other,
    )


def check_bigauge(
    xi: np.ndarray,
    xi0: np.ndarray,
    xi1: np.ndarray,
    xi01: np.ndarray,
    mu0: float,
    mu1: float,
    t: float,
) -> float:
    """Residual of the gauge identity around a Bianchi quadrilateral.

    All three expressions are compared pairwise:

        G_{<xi0>}^{<xi01>}(1-t/mu1) G_{<xi>}^{<xi0>}(1-t/mu0)
      = G_{<xi0>}^{<xi1>}((1-t/mu1)/(1-t/mu0))
      = G_{<xi1>}^{<xi01>}(1-t/mu0) G_{<xi>}^{<xi1>}(1-t/mu1)

    and the worst Frobenius gap is returned.  Purely algebraic.
    """
    if t == mu0 or t == mu1:
        raise GeometryError("t must avoid the quad parameters (zero gauge factor)")
    if mu0 == 0.0 or mu1 == 0.0:
        raise GeometryError("quad parameters must be nonzero")
    r0 = 1.0 - t / mu0
    r1 = 1.0 - t / mu1
    lhs = gauge_matrix(xi0, xi01, r1) @ gauge_matrix(xi, xi0, r0)
    mid = gauge_matrix(xi0, xi1, r1 / r0)
    rhs = gauge_matrix(xi1, xi01, r0) @ gauge_matrix(xi, xi1, r1)
    gaps = [lhs - rhs, lhs - mid, rhs - mid]
    return float(max(np.max(np.linalg.norm(d, axis=(-2, -1))) for d in gaps))


@dataclass
class BianchiCube:
    """Faces and vertex of a consistent cube of Darboux transforms.

    ``vertex`` is built through the sec0 face; ``route_gaps`` holds the
    projective distances between the three construction orders.
    """

    mus: tuple[float, float, float]
    face01: LightConeSection
    face02: LightConeSection
    face12: LightConeSection
    vertex: LightConeSection
    route_gaps: tuple[float, float, float]


def bianchi_cube(
    base: PolarizedCurve,
    sec0: LightConeSection,
    sec1: LightConeSection,
    sec2: LightConeSection,
    mu0: float,
    mu1: float,
    mu2: float,
) -> BianchiCube:
    """Three Darboux transforms close into a combinatorial cube.

    The three faces are Bianchi quads; the eighth vertex is computed
    canonically through sec0 and cross-checked against the other two
    construction orders projectively.
    """
    mus = (mu0, mu1, mu2)
    if len(set(mus)) != 3:
        raise GeometryError("cube requires pairwise distinct parameters")
    face01 = bianchi_quad(base, sec0, sec1, mu0, mu1)
    face02 = bianchi_quad(base, sec0, sec2, mu0, mu2)
    face12 = bianchi_quad(base, sec1, sec2, mu1, mu2)
    route0 = bianchi_quad(sec0, face01, face02, mu1, mu2, base.m)
    route1 = bianchi_quad(sec1, face01, face12, mu0, mu2, base.m)
    route2 = bianchi_quad(sec2, face02, face12, mu0, mu1, base.m)
    gaps = (
        mk.projective_gap(route0.xi, route1.xi),
        mk.projective_gap(route0.xi, route2.xi),
        mk.projective_gap(route1.xi, route2.xi),
    )
    return BianchiCube(
        mus=mus,
        face01=face01,
        face02=face02,
        face12=face12,
        vertex=route0,
        route_gaps=gaps,
    )
