"""Darboux transforms of polarized curves, two equivalent ways.

A Darboux transform of (x, ds^2/m) with parameter mu is a curve x^ whose
tangent cross ratio against x is constant,

    cr = x' (x - x^)^{-1} x^' (x - x^)^{-1} = mu / m,

computed in the Clifford algebra of R^n.  Transforms are produced either
by integrating the Riccati equation

    x^' = mu (x^ - x) (m x')^{-1} (x^ - x)

directly in R^n, or as parallel null sections of the isothermic family
of connections

    d/ds - (2t/m) xi ^ xi' / (xi', xi')        at  t = mu

in R^{n+1,1}.  Both routes are fourth order on the stored grid and are
cross-validated against each other by the test-suite and the verify
command.

The gauge maps Gamma(r) that scale one null line by r and a transversal
one by 1/r tie the two pictures together: the connections of a Darboux
pair differ by the gauge Gamma(1 - t/mu) along the pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford as cl
from . import minkowski as mk
from .curves import Grid, PolarizedCurve, cubic_interp, derivative_samples
from .errors import (
    DimensionError,
    GeometryError,
    SingularEncounterError,
)

# Relative secant threshold for the Riccati right hand side.
SECANT_TOL = 1e-12

# Default bound on the relative cross-ratio residuals of a Darboux or
# Ribaucour certificate.
CERTIFICATE_TOL = 1e-8


@dataclass
class LightConeSection:
    """A sampled field in R^{n+1,1} along a grid.

    ``xi`` holds the (N, n+2) samples, ``xiprime`` their derivative when
    a closed form is available (else finite differences are used on
    demand).  Light-cone lifts are the main use, but only ``to_curve``
    needs the field to be null.
    """

    grid: Grid
    xi: np.ndarray
    xiprime: np.ndarray | None = None

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        if self.xi.shape[0] != self.grid.num:
            raise DimensionError("section sample count does not match grid")
        if self.xiprime is not None:
            self.xiprime = np.asarray(self.xiprime, dtype=float)
            if self.xiprime.shape != self.xi.shape:
                raise DimensionError("xiprime shape does not match xi")

    @property
    def n(self) -> int:
        return self.xi.shape[1] - 2

    def derivative(self) -> np.ndarray:
        if self.xiprime is not None:
            return self.xiprime
        return derivative_samples(self.xi, self.grid)

    def to_curve(self, m: np.ndarray) -> PolarizedCurve:
        """Project to the affine chart as a polarized curve.

        The derivative comes from the quotient rule on (xi, xi'), so no
        finite-difference error enters when xiprime is analytic.  A
        section that meets the chart's infinity raises
        PointAtInfinityError.
        """
        frame = mk.canonical_frame(self.n)
        pts = mk.affine_point(self.xi)
        w = -mk.inner(self.xi, frame.q)
        xiprime = self.derivative()
        wprime = -mk.inner(xiprime, frame.q)
        scaled = xiprime / w[:, None] - (wprime / w**2)[:, None] * self.xi
        xprime = scaled[:, : self.n]
        m = np.broadcast_to(np.asarray(m, dtype=float), (self.grid.num,)).copy()
        return PolarizedCurve(n=self.n, grid=self.grid, x=pts, xprime=xprime, m=m)


def euclidean_section(curve: PolarizedCurve) -> LightConeSection:
    """Euclidean-normalized light cone lift of a curve, with derivative."""
    xi = mk.euclidean_lift(curve.x)
    xiprime = mk.lift_derivative(curve.x, curve.xprime)
    return LightConeSection(grid=curve.grid, xi=xi, xiprime=xiprime)


@dataclass
class DarbouxFit:
    """Certificate for a candidate Darboux pair.

    ``mu`` is the median of the per-sample products cr * m, ``spread``
    the worst relative deviation from it, and ``reality`` the worst
    relative non-scalar magnitude of the Clifford cross ratio.
    """

    mu: float
    spread: float
    reality: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.spread < self.tol and self.reality < self.tol)


def tangent_cross_ratio(x: PolarizedCurve, xhat: PolarizedCurve) -> np.ndarray:
    """Per-sample Clifford cross ratio x' (x-x^)^{-1} x^' (x-x^)^{-1}.

    Returns the (N, 2^n) coefficient array; the pair is Ribaucour where
    the value is real and Darboux when additionally cr * m is constant.
    """
    if x.n != xhat.n:
        raise DimensionError("curves live in different dimensions")
    if x.grid != xhat.grid:
        raise DimensionError("curves are sampled on different grids")
    n = x.n
    secant = x.x - xhat.x
    scale = max(float(np.max(np.abs(x.x))), float(np.max(np.abs(xhat.x))), 1.0)
    sec_inv = cl.vector_inverse(secant, ref_scale=scale)
    a = cl.geometric_product(cl.vector_coeffs(x.xprime), cl.vector_coeffs(sec_inv), n)
    b = cl.geometric_product(cl.vector_coeffs(xhat.xprime), cl.vector_coeffs(sec_inv), n)
    return cl.geometric_product(a, b, n)


def is_ribaucour(x: PolarizedCurve, xhat: PolarizedCurve) -> tuple[bool, float]:
    """Reality test of the tangent cross ratio.

    Returns (verdict at CERTIFICATE_TOL, worst relative non-scalar
    magnitude).
    """
    cr = tangent_cross_ratio(x, xhat)
    residual = _reality_residual(cr)
    return bool(residual < CERTIFICATE_TOL), residual


def _reality_residual(cr_coeffs: np.ndarray) -> float:
    scalars = np.abs(cl.scalar_part(cr_coeffs))
    rest = cl.nonscalar_norm(cr_coeffs)
    return float(np.max(rest / np.maximum(scalars, 1e-300)))


def is_darboux_pair(
    x: PolarizedCurve, xhat: PolarizedCurve, tol: float = CERTIFICATE_TOL
) -> DarbouxFit:
    """Fit the parameter mu of a candidate Darboux pair.

    cr * m, with the polarization m of ``x``, must be real and constant;
    mu is estimated as the median of the per-sample products, robust
    against a few bad samples.
    """
    cr = tangent_cross_ratio(x, xhat)
    reality = _reality_residual(cr)
    crm = cl.scalar_part(cr) * x.m
    mu = float(np.median(crm))
    denom = abs(mu) if abs(mu) > 1e-300 else 1.0
    spread = float(np.max(np.abs(crm - mu)) / denom)
    return DarbouxFit(mu=mu, spread=spread, reality=reality, tol=tol)


def half_step_samples(
    grid: Grid, substeps: int, *values: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Samples at every RK4 evaluation point, plus the effective step.

    With ``substeps`` steps per grid cell the evaluation points are the
    (sub)step nodes and their midpoints.  Grid nodes keep their exact
    samples; every other point is cubic interpolation.
    """
    h_eff = grid.h / substeps
    num_steps = (grid.num - 1) * substeps
    s_all = grid.s0 + 0.5 * h_eff * np.arange(2 * num_steps + 1)
    sampled = []
    for v in values:
        v_all = cubic_interp(v, grid, s_all)
        v_all[:: 2 * substeps] = v
        sampled.append(v_all)
    return h_eff, sampled


def simpson_cumulative(f_all: np.ndarray, h: float, anchor: np.ndarray) -> np.ndarray:
    """Antiderivative from ``anchor`` at the step nodes, by Simpson's rule.

    ``f_all`` holds the integrand at every step node and midpoint, as
    ``half_step_samples`` returns it with step ``h``.
    """
    increments = (h / 6.0) * (f_all[:-2:2] + 4.0 * f_all[1::2] + f_all[2::2])
    return np.cumsum(np.concatenate([anchor[None], increments]), axis=0)


def inverse_tangent(xprime: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(m x')^{-1} = x' / (m |x'|^2) per sample: the dual curve's derivative."""
    return xprime / (m * np.sum(xprime * xprime, axis=1))[:, None]


def integrate_riccati(
    curve: PolarizedCurve,
    mu: float,
    xhat0: np.ndarray,
    substeps: int = 1,
) -> PolarizedCurve:
    """Darboux transform by integrating the Riccati equation with RK4.

    mu = 0 raises GeometryError: the transform degenerates to a constant
    curve, which is not immersed.  A collapsing secant |x^ - x| raises
    SingularEncounterError carrying the parameter value.
    """
    if mu == 0.0:
        raise GeometryError("mu = 0 gives a constant curve, not a Darboux transform")
    xhat0 = np.asarray(xhat0, dtype=float)
    if xhat0.shape != (curve.n,):
        raise DimensionError(f"initial point must be in R^{curve.n}")
    h, (x_all, xp_all, m_all) = half_step_samples(
        curve.grid, substeps, curve.x, curve.xprime, curve.m
    )
    w_all = inverse_tangent(xp_all, m_all)
    scale = max(float(np.max(np.abs(curve.x))), float(np.linalg.norm(xhat0)), 1.0)

    def rhs(j: int, y: np.ndarray) -> np.ndarray:
        v = y - x_all[j]
        if np.linalg.norm(v) <= SECANT_TOL * scale:
            raise SingularEncounterError(curve.grid.s0 + 0.5 * h * j)
        return mu * cl.sandwich(v, w_all[j])

    num_steps = (len(x_all) - 1) // 2
    out = np.empty((num_steps + 1, curve.n))
    out[0] = xhat0
    y = xhat0
    for k in range(num_steps):
        j = 2 * k
        k1 = rhs(j, y)
        k2 = rhs(j + 1, y + 0.5 * h * k1)
        k3 = rhs(j + 1, y + 0.5 * h * k2)
        k4 = rhs(j + 2, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y
    samples = out[::substeps]
    # The ODE itself provides the derivative at the retained nodes.
    node_idx = 2 * substeps * np.arange(curve.grid.num)
    secants = samples - x_all[node_idx]
    if np.any(np.linalg.norm(secants, axis=1) <= SECANT_TOL * scale):
        bad = int(np.argmin(np.linalg.norm(secants, axis=1)))
        raise SingularEncounterError(curve.grid.nodes()[bad])
    xhat_prime = mu * cl.sandwich(secants, w_all[node_idx])
    return PolarizedCurve(
        n=curve.n, grid=curve.grid, x=samples, xprime=xhat_prime, m=curve.m.copy()
    )


def connection_matrix(
    xi: np.ndarray, xiprime: np.ndarray, m: np.ndarray, t: float
) -> np.ndarray:
    """Coefficient A(s, t) = (2t/m) xi ^ xi' / (xi', xi') of the family.

    The parallel-section equation reads xi^' = A xi^.  The coefficient
    only depends on the null line of xi, not the chosen lift.
    """
    denom = mk.norm2(xiprime)
    if np.any(np.abs(denom) <= 1e-300):
        raise GeometryError("lift derivative is lightlike; connection undefined")
    factor = 2.0 * t / (np.asarray(m, dtype=float) * denom)
    return factor[..., None, None] * mk.wedge_matrix(xi, xiprime)


def connection_samples(
    section: LightConeSection,
    m: np.ndarray,
    t: float,
    substeps: int = 1,
) -> tuple[np.ndarray, float]:
    """A(s, t) along a section at every node and half step, and the step.

    Nodes keep their exact samples; half steps (and substep nodes) use
    cubic interpolation of the lift, its derivative, and m.
    """
    grid = section.grid
    m = np.broadcast_to(np.asarray(m, dtype=float), (grid.num,))
    h_eff, (xi_all, xip_all, m_all) = half_step_samples(
        grid, substeps, section.xi, section.derivative(), m
    )
    return connection_matrix(xi_all, xip_all, m_all, t), h_eff


def lightcone_restore(y: np.ndarray, frame: mk.Frame) -> np.ndarray:
    """Project y back onto the light cone exactly.

    Subtracts the defect along q, or along o when y is nearly
    orthogonal to q, so the correction never changes the null line's
    affine representative direction.
    """
    defect = mk.norm2(y)
    wq = mk.inner(y, frame.q)
    if abs(wq) > 1e-8 * np.linalg.norm(y):
        return y - (defect / (2.0 * wq)) * frame.q
    wo = mk.inner(y, frame.o)
    return y - (defect / (2.0 * wo)) * frame.o


def integrate_parallel_section(
    source: PolarizedCurve,
    t: float,
    xihat0: np.ndarray,
    substeps: int = 1,
) -> LightConeSection:
    """Parallel null section of the family connection at parameter t.

    ``xihat0`` may be an affine point of R^n (lifted automatically) or a
    null vector of R^{n+1,1}.  At t = mu the projected section is the
    Darboux transform with parameter mu; the parallel scaling of the
    output is preserved, only the light-cone defect is corrected after
    every step.
    """
    grid = source.grid
    n = source.n
    frame = mk.canonical_frame(n)
    xihat0 = np.asarray(xihat0, dtype=float)
    if xihat0.shape == (n,):
        y = mk.euclidean_lift(xihat0)
    elif xihat0.shape == (n + 2,):
        y = xihat0.copy()
        if not mk.is_lightlike(y, tol=1e-7):
            raise GeometryError("initial section vector is not lightlike")
    else:
        raise DimensionError("initial point must be affine (n,) or a null vector (n+2,)")
    a_all, h = connection_samples(euclidean_section(source), source.m, t, substeps)
    num_steps = (len(a_all) - 1) // 2
    out = np.empty((num_steps + 1, n + 2))
    out[0] = y
    for k in range(num_steps):
        j = 2 * k
        k1 = a_all[j] @ y
        k2 = a_all[j + 1] @ (y + 0.5 * h * k1)
        k3 = a_all[j + 1] @ (y + 0.5 * h * k2)
        k4 = a_all[j + 2] @ (y + h * k3)
        y = lightcone_restore(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), frame)
        out[k + 1] = y
    samples = out[::substeps]
    node_idx = 2 * substeps * np.arange(grid.num)
    xiprime = np.einsum("kij,kj->ki", a_all[node_idx], samples)
    return LightConeSection(grid=grid, xi=samples, xiprime=xiprime)


def parallel_residual(
    section: LightConeSection,
    base: PolarizedCurve,
    t: float,
    mod_line: bool = False,
) -> float:
    """Worst defect of D/ds^t over ``base`` applied to the section.

    With ``mod_line`` the component along the section itself is
    discarded first, which tests the projective (Darboux) property
    rather than exactness of the parallel scaling.
    """
    lift = euclidean_section(base)
    a = connection_matrix(lift.xi, lift.xiprime, base.m, t)
    deriv = derivative_samples(section.xi, base.grid)
    defect = deriv - np.einsum("kij,kj->ki", a, section.xi)
    if mod_line:
        sec = section.xi
        coef = np.sum(defect * sec, axis=1) / np.maximum(np.sum(sec * sec, axis=1), 1e-300)
        defect = defect - coef[:, None] * sec
    scale = np.max(np.linalg.norm(section.xi, axis=1))
    return float(np.max(np.linalg.norm(defect, axis=1)) / max(scale, 1e-300))


def gauge_matrix(xi: np.ndarray, xihat: np.ndarray, r: float | np.ndarray) -> np.ndarray:
    """Dense matrix of Gamma_{<xi>}^{<xihat>}(r), batched over leading axes.

    Gamma xihat = r xihat, Gamma xi = xi / r, identity on the
    complement.  Preserves the Minkowski form for every r != 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r == 0.0):
        raise GeometryError("gauge parameter r must be nonzero")
    p = mk.projection_matrix(xi, xihat)
    phat = mk.projection_matrix(xihat, xi)
    eye = np.eye(xi.shape[-1])
    return eye + (1.0 / r - 1.0)[..., None, None] * p + (r - 1.0)[..., None, None] * phat


def verify_gauge_relation(
    curve: PolarizedCurve,
    transform: PolarizedCurve,
    t: float,
    mu: float,
) -> float:
    """Residual of the connection gauge relation along a Darboux pair.

    The connections of the pair satisfy  A^ = G' G^{-1} + G A G^{-1}
    with G(s) = Gamma_{<xi>}^{<xi^>}(1 - t/mu); the gauge derivative is
    taken by finite differences.  Returns the worst Frobenius defect.
    """
    if mu == 0.0 or t == mu:
        raise GeometryError("gauge parameter 1 - t/mu is zero or undefined")
    sec = euclidean_section(curve)
    sec_hat = euclidean_section(transform)
    a = connection_matrix(sec.xi, sec.xiprime, curve.m, t)
    a_hat = connection_matrix(sec_hat.xi, sec_hat.xiprime, transform.m, t)
    r = 1.0 - t / mu
    gamma = gauge_matrix(sec.xi, sec_hat.xi, r)
    gamma_prime = derivative_samples(gamma, curve.grid)
    gamma_inv = gauge_matrix(sec.xi, sec_hat.xi, 1.0 / r)
    lhs = a_hat
    rhs = gamma_prime @ gamma_inv + gamma @ a @ gamma_inv
    return float(np.max(np.linalg.norm(lhs - rhs, axis=(1, 2))))
