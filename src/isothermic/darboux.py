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
command.  The Riccati route runs RK4 on Python floats.  The section
route builds the RK4 step map of xi' = A xi as a matrix, in blocks
(``step_maps``, which also serves the Magnus steps of the Calapso
frames), and projects back onto the light cone after every step.

The gauge maps Gamma(r) that scale one null line by r and a transversal
one by 1/r tie the two pictures together: the connections of a Darboux
pair differ by the gauge Gamma(1 - t/mu) along the pair.
"""

from __future__ import annotations

import math
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
    steps = (grid.num - 1) * substeps
    s_all = grid.s0 + 0.5 * h_eff * np.arange(2 * steps + 1)
    sampled = []
    for v in values:
        v_all = cubic_interp(v, grid, s_all)
        v_all[:: 2 * substeps] = v
        sampled.append(v_all)
    return h_eff, sampled


def num_steps(samples: np.ndarray) -> int:
    """RK4 steps covered by samples at every step node and midpoint."""
    return (len(samples) - 1) // 2


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
    # The RK4 state lives in Python floats: for n <= 4 numpy's per-call
    # cost is the whole step.  Each operation is the one the array form
    # applies, in the same order (numpy sums n < 8 terms left to right),
    # so the result is bit-identical to it.  Samples sit in flat lists,
    # row j at [j n, (j + 1) n), since a list per row costs a list object
    # per sample.
    n = curve.n
    mu = float(mu)
    x_flat = x_all.ravel().tolist()
    w_flat = w_all.ravel().tolist()
    secant_tol2 = (SECANT_TOL * scale) ** 2
    s0 = curve.grid.s0

    def rhs(j: int, y: list[float]) -> list[float]:
        # mu cl.sandwich(v, w) = mu (2 (v.w) v - (v.v) w) with v = y - x.
        v = [a - b for a, b in zip(y, x_flat[j * n : (j + 1) * n])]
        w = w_flat[j * n : (j + 1) * n]
        vw = v[0] * w[0]
        vv = v[0] * v[0]
        for i in range(1, n):
            vw += v[i] * w[i]
            vv += v[i] * v[i]
        if vv <= secant_tol2:
            raise SingularEncounterError(s0 + 0.5 * h * j)
        vw2 = 2.0 * vw
        return [mu * (vw2 * a - vv * b) for a, b in zip(v, w)]

    steps = num_steps(x_all)
    half, sixth = 0.5 * h, h / 6.0
    y = xhat0.tolist()
    flat = list(y)
    for k in range(steps):
        j = 2 * k
        k1 = rhs(j, y)
        k2 = rhs(j + 1, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(j + 1, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(j + 2, [a + h * b for a, b in zip(y, k3)])
        y = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        flat.extend(y)
    out = np.array(flat).reshape(steps + 1, n)
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


# Steps whose maps are built together: the temporaries stay a few hundred
# kB whatever the grid length.
_BLOCK_STEPS = 1024


def step_maps(a_all: np.ndarray, h: float, rule):
    """Yield the increment M_k - I of every step's map, in order.

    ``a_all`` holds a coefficient at every step node and midpoint, as
    ``connection_samples`` returns it.  The maps are built
    ``_BLOCK_STEPS`` steps at a time by ``rule(left, mid, right, h)``,
    which receives the coefficients at the steps' left nodes, midpoints
    and right nodes and returns the stacked increments.
    """
    total = num_steps(a_all)
    for k0 in range(0, total, _BLOCK_STEPS):
        k1 = min(k0 + _BLOCK_STEPS, total)
        yield from rule(
            a_all[2 * k0 : 2 * k1 : 2],
            a_all[2 * k0 + 1 : 2 * k1 : 2],
            a_all[2 * k0 + 2 : 2 * k1 + 1 : 2],
            h,
        )


def _rk4_increments(left: np.ndarray, mid: np.ndarray, right: np.ndarray, h: float) -> np.ndarray:
    """M - I of the classical RK4 step of y' = A y, for a stack of steps.

    M - I = h/6 (A_0 + 2 K_2 + 2 K_3 + K_4) with K_2 = A_(1/2) (I + h/2 A_0),
    K_3 = A_(1/2) (I + h/2 K_2) and K_4 = A_1 (I + h K_3): the stages of
    RK4 applied to every initial vector at once.
    """
    k2 = mid + (0.5 * h) * (mid @ left)
    k3 = mid + (0.5 * h) * (mid @ k2)
    k4 = right + h * (right @ k3)
    return (h / 6.0) * (left + 2.0 * k2 + 2.0 * k3 + k4)


def lightcone_restore(y: np.ndarray, frame: mk.Frame) -> np.ndarray:
    """Project y back onto the light cone exactly.

    Subtracts the defect along q, or along o when y is nearly
    orthogonal to q, so the correction never changes the null line's
    affine representative direction.  G y is formed once, by flipping
    the sign of the last coordinate, and every pairing is a plain dot
    product with it.
    """
    gy = y.copy()
    gy[-1] = -gy[-1]
    defect = gy.dot(y)
    q = frame.q
    wq = gy.dot(q)
    if abs(wq) > 1e-8 * math.sqrt(y.dot(y)):
        return y - q * (defect / (2.0 * wq))
    o = frame.o
    return y - o * (defect / (2.0 * gy.dot(o)))


def integrate_parallel_section(
    source: PolarizedCurve,
    t: float,
    xihat0: np.ndarray,
    substeps: int = 1,
) -> LightConeSection:
    """Parallel null section of the family connection at parameter t.

    ``xihat0`` may be an affine point of R^n (lifted automatically) or a
    null vector of R^{n+1,1}.  At t = mu the projected section is the
    Darboux transform with parameter mu.  Each step applies the
    classical RK4 map of xi' = A xi, built as a matrix in blocks by
    ``step_maps``, then projects back onto the light cone with
    ``lightcone_restore``; the parallel scaling of the output is
    preserved, only the light-cone defect is corrected.
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
    out = np.empty((num_steps(a_all) + 1, n + 2))
    out[0] = y
    for k, e in enumerate(step_maps(a_all, h, _rk4_increments), start=1):
        y = lightcone_restore(y + e.dot(y), frame)
        out[k] = y
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
