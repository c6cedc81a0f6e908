"""Semi-discrete isothermic surfaces over path domains.

A surface here is an ordered stack of polarized curves on one shared
grid with one shared polarization, consecutive layers forming Darboux
pairs with constant edge parameters mu.  The module measures that
structure, produces Moutard lifts, certifies that the connection family
attached to the surface is flat (one gauge-relation residual per edge),
and applies the surface-level Darboux, Calapso, and Christoffel
transforms layer by layer.  A Darboux pair is the two-layer surface,
and ``check_isothermic`` is its certificate as it is every stack's: it
reads the positions of layers k >= 1, not the derivatives a transform
stored with them.  It returns residuals; nothing here holds them
against a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import minkowski as mk
from .curves import Grid, PolarizedCurve, derivative_samples, from_samples, sixth_order_derivative
from .darboux import (
    LightConeSection,
    euclidean_section,
    gauge_apply,
    gauge_matrix,
    integrate_parallel_section,
    is_darboux_pair,
    verify_gauge_relation,
)
from .errors import (
    DegenerateSecantError,
    DimensionError,
    GeometryError,
    PointAtInfinityError,
    PolarizationError,
    SignPropagationError,
    SingularEncounterError,
    require_finite,
)
from .transforms import (
    CalapsoFrameField,
    _constancy_residual,
    christoffel_darboux_permute,
    christoffel_dual,
    integrate_calapso,
)

__all__ = [
    "SemiDiscreteSurface",
    "EdgeReport",
    "IsothermicReport",
    "MoutardLift",
    "build_surface",
    "check_isothermic",
    "moutard_lift",
    "surface_flatness",
    "surface_darboux",
    "surface_calapso",
    "calapso_trivialization_residuals",
    "surface_christoffel",
]


@dataclass
class SemiDiscreteSurface:
    """Ordered curves x_0, ..., x_M with edge parameters mu_{i,i+1}.

    All curves share one grid and one polarization m; the mu list has
    one constant per adjacent pair.  Geometric isothermicity (each pair
    actually being Darboux) is measured by ``check_isothermic``, not
    enforced here, so deliberately broken data can still be built and
    diagnosed.
    """

    curves: list[PolarizedCurve]
    mu: list[float]
    _lifts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.curves) == 0:
            raise DimensionError("a surface needs at least one curve")
        if len(self.mu) != len(self.curves) - 1:
            raise DimensionError(
                f"{len(self.curves)} curves need {len(self.curves) - 1} edge parameters, "
                f"got {len(self.mu)}"
            )
        base = self.curves[0]
        for k, c in enumerate(self.curves[1:], start=1):
            if c.n != base.n:
                raise DimensionError(f"curve {k} lives in R^{c.n}, curve 0 in R^{base.n}")
            if c.grid != base.grid:
                raise GeometryError(f"curve {k} is sampled on a different grid")
            scale = max(1.0, float(np.max(np.abs(base.m))))
            if np.max(np.abs(c.m - base.m)) > 1e-10 * scale:
                raise PolarizationError("curves must share one polarization m")
        self.mu = [float(v) for v in self.mu]
        for i, v in enumerate(self.mu):
            if not np.isfinite(v) or v == 0.0:
                raise GeometryError(f"edge parameter mu[{i}] must be finite and nonzero")

    @property
    def n(self) -> int:
        return self.curves[0].n

    @property
    def grid(self) -> Grid:
        return self.curves[0].grid

    @property
    def m(self) -> np.ndarray:
        return self.curves[0].m

    @property
    def num_layers(self) -> int:
        return len(self.curves)

    def lift(self, i: int) -> LightConeSection:
        """Euclidean light-cone lift of curve i, cached."""
        if i not in self._lifts:
            self._lifts[i] = euclidean_section(self.curves[i])
        return self._lifts[i]


def build_surface(
    seed: PolarizedCurve, layers: list[tuple[float, np.ndarray]]
) -> SemiDiscreteSurface:
    """Stack Darboux transforms of ``seed`` into a surface.

    Each layer is given by (mu, initial point); the next curve is the
    parallel-section transform of the previous one, keeping the
    derivative its ODE supplies.  ``check_isothermic`` does not read
    that derivative, so the stack is certified on its positions.
    """
    curves = [seed]
    mu: list[float] = []
    for k, (mu_k, point) in enumerate(layers):
        mu_k = float(mu_k)
        if mu_k == 0.0:
            raise GeometryError(f"layer {k}: mu must be nonzero")
        point = np.asarray(point, dtype=float)
        top = curves[-1]
        if point.shape == (seed.n,) and np.max(np.abs(point - top.x[0])) < 1e-12:
            raise DegenerateSecantError(f"layer {k}: initial point equals the curve start")
        try:
            section = integrate_parallel_section(top, mu_k, point)
            curves.append(section.to_curve())
        except SingularEncounterError as exc:
            raise SingularEncounterError(exc.s, f"layer {k}: {exc}") from exc
        except (PointAtInfinityError, GeometryError) as exc:
            raise type(exc)(f"layer {k}: {exc}") from exc
        mu.append(mu_k)
    return SemiDiscreteSurface(curves=curves, mu=mu)


@dataclass
class EdgeReport:
    """Residuals of one edge: recovered mu and its defects.

    ``nu_residual`` is None where m (x', x') < 0 on a layer makes the
    factorization check inapplicable.
    """

    mu: float
    declared_mu: float
    spread: float
    reality: float
    mu_defect: float
    nu_residual: float | None

    @property
    def residual(self) -> float:
        """Worst applicable residual; NaN propagates, so no ``<=`` passes it."""
        parts = [self.spread, self.reality, self.mu_defect]
        if self.nu_residual is not None:
            parts.append(self.nu_residual)
        return float(np.max(parts))


@dataclass
class IsothermicReport:
    edges: list[EdgeReport]


def check_isothermic(surface: SemiDiscreteSurface) -> IsothermicReport:
    """Per-edge Darboux residuals for the whole stack, read from the positions.

    Layer 0 keeps its own x'; layers k >= 1 get x' from their samples by
    the sixth-order stencil (``sixth_order_derivative``).  A transform's
    own derivative, xi' = A xi, makes the cross ratio mu/m by algebra, so
    only a derivative of the samples sees the positions.  The stencil's
    truncation falls faster than the layers' O(h^4) position error, so on
    coarse grids the residual follows the positions, not the stencil.

    Each edge reports the reality and constancy residuals of the
    tangent cross ratio times m, the recovered mu against the declared
    one, and (where m (x', x') > 0 on both layers) the factorization
    check mu^2 = (nu_i nu_j / (dx, dx))^2 with nu = sqrt(m (x', x')).
    """
    m = surface.m
    curves = [surface.curves[0]] + [
        from_samples(c.x, c.grid, c.m, sixth_order_derivative(c.x, c.grid))
        for c in surface.curves[1:]
    ]
    edges = []
    for i, declared in enumerate(surface.mu):
        a, b = curves[i], curves[i + 1]
        fit = is_darboux_pair(a, b)
        denom = max(1.0, abs(fit.mu))
        mu_defect = abs(fit.mu - declared) / denom
        wa, wb = m * a.speed2, m * b.speed2
        nu_residual = None
        if np.min(wa) > 0.0 and np.min(wb) > 0.0:
            d = b.x - a.x
            dd = np.sum(d * d, axis=1)
            if np.min(dd) <= 0.0:
                raise DegenerateSecantError(f"edge {i}: coincident samples")
            phi = np.sqrt(wa * wb) / dd
            nu_residual = float(np.max(np.abs(phi - abs(fit.mu))) / denom)
        edges.append(
            EdgeReport(
                mu=fit.mu,
                declared_mu=declared,
                spread=fit.spread,
                reality=fit.reality,
                mu_defect=mu_defect,
                nu_residual=nu_residual,
            )
        )
    return IsothermicReport(edges=edges)


@dataclass
class MoutardLift:
    """Per-curve lifts xi = +-x / nu with nu = sqrt(m (x', x')).

    The scaling makes m (xi', xi') identically 1; the signs make
    mu_{ij} (xi_i, xi_j) negative on every edge.  The reported residual
    lists certify the normalization, the pairing identity
    (xi_i, xi_j) = -1/(2 mu_{ij}), and the vanishing of the mixed-area
    element of each edge.
    """

    sections: list[LightConeSection]
    signs: list[int]
    normalization_residual: list[float]
    pairing_residual: list[float]
    area_residual: list[float]


def moutard_lift(surface: SemiDiscreteSurface) -> MoutardLift:
    """Rescale the Euclidean lifts to the Moutard normalization."""
    m = surface.m
    grid = surface.grid
    sections: list[LightConeSection] = []
    scaled: list[tuple[np.ndarray, np.ndarray]] = []
    for k, curve in enumerate(surface.curves):
        w = m * curve.speed2
        if np.min(w) <= 0.0:
            raise PolarizationError(
                f"curve {k}: m (x', x') must be positive for the Moutard normalization"
            )
        nu = np.sqrt(w)
        nuprime = derivative_samples(nu, grid)
        base = surface.lift(k)
        xi = base.xi / nu[:, None]
        xiprime = base.xiprime / nu[:, None] - (nuprime / w)[:, None] * base.xi
        scaled.append((xi, xiprime))

    signs = [1]
    for mu_i in surface.mu:
        signs.append(signs[-1] * (1 if mu_i > 0 else -1))

    normalization = []
    for k, (xi, xiprime) in enumerate(scaled):
        s = float(signs[k])
        section = LightConeSection(grid=grid, xi=s * xi, m=m, xiprime=s * xiprime)
        normalization.append(float(np.max(np.abs(m * mk.norm2(section.xiprime) - 1.0))))
        sections.append(section)

    pairing = []
    area = []
    for i, mu_i in enumerate(surface.mu):
        xi_a, xi_b = sections[i].xi, sections[i + 1].xi
        vals = mk.inner(xi_a, xi_b)
        if np.max(mu_i * vals) >= 0.0:
            raise SignPropagationError(
                f"edge {i}: the sign condition mu (xi_i, xi_j) < 0 fails along s; "
                "the data does not admit a Moutard lift"
            )
        pairing.append(float(np.max(np.abs(vals + 1.0 / (2.0 * mu_i)))))
        mean_prime = 0.5 * (sections[i].xiprime + sections[i + 1].xiprime)
        wedge = mk.wedge_matrix(mean_prime, xi_b - xi_a)
        area.append(float(np.max(np.linalg.norm(wedge, axis=(1, 2)))))
    return MoutardLift(
        sections=sections,
        signs=signs,
        normalization_residual=normalization,
        pairing_residual=pairing,
        area_residual=area,
    )


def _check_spectral_parameter(surface: SemiDiscreteSurface, t: float, name: str = "t") -> None:
    require_finite(t, name)
    for i, mu_i in enumerate(surface.mu):
        if t == mu_i:
            raise GeometryError(
                f"parameter {name} = {t} equals the parameter of edge {i};"
                " the edge gauge degenerates"
            )


def _edge_gauges(surface: SemiDiscreteSurface, t: float) -> list[np.ndarray]:
    """Edge maps Gamma_{<x_(i+1)>}^{<x_i>}(1 - t/mu_i) of the family at t."""
    return [
        gauge_matrix(surface.lift(i + 1).xi, surface.lift(i).xi, 1.0 - t / mu_i)
        for i, mu_i in enumerate(surface.mu)
    ]


def surface_flatness(surface: SemiDiscreteSurface, t: float) -> list[float]:
    """Flatness of the connection family at parameter t, edge by edge.

    Entry i is the gauge-relation residual of edge (i, i+1), the
    certificate that the edge gauge intertwines the two curves'
    connections (``verify_gauge_relation``).
    """
    _check_spectral_parameter(surface, t)
    return [
        verify_gauge_relation(surface.curves[i], surface.curves[i + 1], t, mu_i)
        for i, mu_i in enumerate(surface.mu)
    ]


def surface_darboux(
    surface: SemiDiscreteSurface, mu: float, point: np.ndarray
) -> SemiDiscreteSurface:
    """Darboux transform of the whole surface with vertical parameter mu.

    The section over curve 0 is integrated from ``point``; across each
    edge it is carried by the inverse edge gauge map, which lands on
    the fourth point of the corresponding Bianchi quad.  The result
    keeps the original edge parameters; each vertical pair
    (x_i, xhat_i) is Darboux with parameter mu, xhat_i with the m of x_i.
    """
    mu = float(mu)
    _check_spectral_parameter(surface, mu, "mu")
    section = integrate_parallel_section(surface.curves[0], mu, point)
    sections = [section]
    for i, mu_i in enumerate(surface.mu):
        # The inverse of the edge gauge Gamma(1 - mu/mu_i) is Gamma(1/(1 - mu/mu_i)).
        r_inv = 1.0 / (1.0 - mu / mu_i)
        xi_next = gauge_apply(surface.lift(i + 1).xi, surface.lift(i).xi, r_inv, sections[i].xi)
        sections.append(LightConeSection(surface.grid, xi_next, surface.curves[i + 1].m))
    curves = [sec.to_curve() for sec in sections]
    return SemiDiscreteSurface(curves=curves, mu=list(surface.mu))


def _chain_frames(surface: SemiDiscreteSurface, t: float) -> list[CalapsoFrameField]:
    """Trivializing frames per layer: T_0 integrated, then pushed by edge maps."""
    chain = [integrate_calapso(surface.lift(0), t)]
    for k, gamma in enumerate(_edge_gauges(surface, t), start=1):
        chain.append(replace(chain[-1], T=chain[-1].T @ gamma, source=surface.lift(k)))
    return chain


def surface_calapso(surface: SemiDiscreteSurface, t: float) -> SemiDiscreteSurface:
    """Calapso transform of the surface: every edge parameter drops by t."""
    if t == 0.0:
        return SemiDiscreteSurface(curves=list(surface.curves), mu=list(surface.mu))
    _check_spectral_parameter(surface, t)
    chain = _chain_frames(surface, t)
    curves = [frames.move(surface.lift(k)).to_curve() for k, frames in enumerate(chain)]
    return SemiDiscreteSurface(curves=curves, mu=[v - t for v in surface.mu])


def calapso_trivialization_residuals(surface: SemiDiscreteSurface, t: float) -> list[float]:
    """Construction-independent re-check of the frame chaining.

    For each layer j > 0 the chained frame T_0 Gamma_{01} ... must agree
    with a frame integrated directly along curve j up to a constant
    map, so M(s) = chained(s) inverse(direct(s)) is tested for
    s-constancy.
    """
    if t == 0.0:
        return [0.0] * (surface.num_layers - 1)
    _check_spectral_parameter(surface, t)
    chain = _chain_frames(surface, t)
    residuals = []
    for j in range(1, surface.num_layers):
        direct = integrate_calapso(surface.curves[j], t)
        residuals.append(_constancy_residual(chain[j].T, direct.inverse()))
    return residuals


def surface_christoffel(surface: SemiDiscreteSurface) -> tuple[SemiDiscreteSurface, list[float]]:
    """Christoffel dual surface and its edge/smooth consistency residuals.

    Curve 0 is dualized by integration; every next layer follows the
    Christoffel edge rule z_j = z_i + (x_j - x_i)^{-1} / mu of
    ``christoffel_darboux_permute``.  Dual derivatives come from the
    smooth equation, so integrating them from the same start must
    reproduce the edge positions; the maximum gap per edge is returned
    alongside the dual surface.
    """
    duals = [christoffel_dual(surface.curves[0])]
    consistency = []
    for i, mu_i in enumerate(surface.mu):
        a, b = surface.curves[i], surface.curves[i + 1]
        try:
            dual = christoffel_darboux_permute(a, duals[i], b, mu_i)
        except DegenerateSecantError as exc:
            raise DegenerateSecantError(f"edge {i}: {exc}; dual edge rule undefined") from exc
        duals.append(dual)
        smooth = christoffel_dual(b, anchor=dual.x[0])
        consistency.append(float(np.max(np.linalg.norm(smooth.x - dual.x, axis=1))))
    return SemiDiscreteSurface(curves=duals, mu=list(surface.mu)), consistency
