"""Christoffel duality and the Calapso transformation for curves.

The Christoffel dual of a polarized curve integrates

    (x*)' = (m x')^{-1} = x' / (m |x'|^2),

an involution up to translation that exchanges the roles of the two
curves in a Darboux pair: if x^ is a Darboux transform of x with
parameter mu, then

    x^* = x* + (x^ - x)^{-1} / mu

is simultaneously dual to x^ and a Darboux transform of x* (same mu).

The Calapso transformation trivializes the connection family: the
orthogonal frame field T^t solves T' = -T A(s, t), and <T^t xi> is a
new curve in the conformal sphere.  Since A lies in so(n+1,1), T is
advanced by fourth-order Magnus steps, exponentials of Lie-algebra
elements, so it stays in O(n+1,1) without repair and is inverted in
closed form, T^{-1} = G T^t G.  The frames are the running products of
the step maps, formed block by block by a prefix scan
(``darboux.prefix_increments``) rather than one step at a time.
Frames and duals take one step per grid cell and no step policy:
between grid nodes their coefficients are cubic interpolants, so
smaller steps leave the dual where it is and make the frames worse.
Sections move through the frame field, y -> T y with the exact
derivative T (y' - A y), A y taken from the lift the frames were
integrated along (``darboux.connection_apply``).  Composition is
verified as s-constancy of a comparison map (the statement holds up to
a global Moebius transformation), relative to the size of the frames it
is built from; the intertwining with a Darboux pair's gauge is the
two-layer case of ``surface.calapso_trivialization_residuals``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import clifford as cl
from . import darboux
from . import minkowski as mk
from .curves import Grid, PolarizedCurve
from .darboux import (
    LightConeSection,
    as_section,
    connection_apply,
    connection_blocks,
    euclidean_section,
    inverse_tangent,
    prefix_increments,
    simpson_blocks,
    step_maps,
)
from .errors import DimensionError, GeometryError, PolarizationError, require_finite


def christoffel_dual(curve: PolarizedCurve, anchor: np.ndarray | None = None) -> PolarizedCurve:
    """Christoffel dual by Simpson's rule on (x*)' = x'/(m |x'|^2).

    The dual is defined up to translation; ``anchor`` fixes x*(s0)
    (default: origin).  The polarization is inherited unchanged.  The
    sum runs block by block (``simpson_blocks``).  A nan or infinite
    anchor raises GeometryError.
    """
    if np.any(curve.m == 0.0):
        raise PolarizationError("polarization vanishes; dual derivative undefined")
    if anchor is None:
        anchor = np.zeros(curve.n)
    anchor = require_finite(anchor, "anchor")
    if anchor.shape != (curve.n,):
        raise DimensionError(f"anchor must be a point of R^{curve.n}")

    sign = np.sign(curve.m[0])

    def integrand(block):
        xp_b, m_b = block.sample(curve.xprime[block.rows], curve.m[block.rows])
        if np.any(np.sign(m_b) != sign):
            raise PolarizationError("polarization changes sign inside the interval")
        return inverse_tangent(xp_b, m_b)

    x, xprime = simpson_blocks(curve.grid, anchor, integrand)
    return PolarizedCurve(n=curve.n, grid=curve.grid, x=x, xprime=xprime, m=curve.m.copy())


def dual_defect(curve: PolarizedCurve, dual: PolarizedCurve) -> float:
    """Pointwise defect of the duality relation (x*)' (m x') = 1.

    The worst of |scalar - 1| and |2-vector|.
    """
    real, wedge = cl.vector_product(dual.xprime, curve.m[:, None] * curve.xprime)
    return float(max(np.max(np.abs(real - 1.0)), np.max(cl.wedge_norm(wedge))))


def christoffel_darboux_permute(
    curve: PolarizedCurve,
    dual: PolarizedCurve,
    transform: PolarizedCurve,
    mu: float,
) -> PolarizedCurve:
    """Dual of a Darboux transform, with no integration.

    Given x, its dual x*, and a mu-Darboux transform x^, the curve
    x^* = x* + (x^ - x)^{-1}/mu is dual to x^ and a mu-Darboux
    transform of x*.  The derivative is exact: (x^*)' = (m x^')^{-1}.
    """
    if mu == 0.0:
        raise GeometryError("mu = 0 admits no Darboux-permuted dual")
    secant = transform.x - curve.x
    scale = max(float(np.max(np.abs(curve.x))), float(np.max(np.abs(transform.x))), 1.0)
    x_star_hat = dual.x + cl.vector_inverse(secant, ref_scale=scale) / mu
    xprime = inverse_tangent(transform.xprime, curve.m)
    return PolarizedCurve(
        n=curve.n, grid=curve.grid, x=x_star_hat, xprime=xprime, m=curve.m.copy()
    )


@dataclass
class CalapsoFrameField:
    """Sampled trivializing gauge T^t(s) of the connection family.

    ``T`` holds (num, n+2, n+2) matrices; each T(s) preserves the
    Minkowski form up to the rounding reported by ``metric_drift``, so
    it is inverted in closed form.  ``source`` (a reference, not a copy)
    is the section the frames were integrated along; with its m it gives
    the coefficient A(s, t) of T' = -T A when a section is moved.
    """

    grid: Grid
    t: float
    T: np.ndarray
    source: LightConeSection

    @property
    def n(self) -> int:
        return self.T.shape[-1] - 2

    def metric_drift(self) -> float:
        """max|(G T)^t T - G| = max|T^t G T - G|, relative to max(1, max|T|^2).

        Formed over _BLOCK_STEPS samples at a time, so its temporaries
        do not grow with the grid.
        """
        g = mk.metric_diagonal(self.n)
        metric = np.diag(g)
        blocks = []
        for k in range(0, len(self.T), darboux._BLOCK_STEPS):
            block = self.T[k : k + darboux._BLOCK_STEPS]
            gram = (block * g[:, None]).swapaxes(-1, -2) @ block
            blocks.append(np.max(np.abs(gram - metric)))
        # np.max keeps a NaN, which Python's max(0.0, nan) would drop; max|T|
        # comes from two reductions, with no |T| temporary of the grid's size.
        scale = float(np.max([1.0, self.T.max(), -self.T.min()]))
        return float(np.max(blocks)) / scale**2

    def inverse(self) -> np.ndarray:
        """T(s)^{-1} = G T(s)^t G per sample, exact on O(n+1,1)."""
        return mk.orthogonal_inverse(self.T)

    def act(self, y: np.ndarray) -> np.ndarray:
        """T(s) y(s) per sample."""
        return np.einsum("kij,kj->ki", self.T, y)

    def move(self, section: LightConeSection) -> LightConeSection:
        """The section s -> T(s) y(s), with the exact derivative T (y' - A y) and its m."""
        lift, y = self.source, section.xi
        a_y = connection_apply(lift.xi, lift.derivative(), lift.m, self.t, y)
        xiprime = self.act(section.derivative() - a_y)
        return LightConeSection(grid=self.grid, xi=self.act(y), m=section.m, xiprime=xiprime)


# Row-sum norm up to which the degree-6 Taylor series of exp(X) - I is
# used unscaled; its relative truncation term theta^6/7! stays below
# 2^-53 up to theta = 9.1e-3.
_EXP_THETA = 2.0 ** -7


def _expm1_matrices(x: np.ndarray) -> np.ndarray:
    """exp(X) - I for a stack of matrices.

    Degree-6 Taylor series on X / 2^s, s from the largest row-sum norm
    in the stack, in Paterson-Stockmeyer form
    X + X^2/2 + X^3/6 + X^3 (X/24 + X^2/120 + X^3/720) (three batched
    products), then s squarings E -> E (E + 2I), which keep the small
    difference from I accurate.
    """
    a = np.abs(x)
    rows = a[..., 0] + a[..., 1]
    for j in range(2, x.shape[-1]):
        rows += a[..., j]
    norm = float(np.max(rows))
    squarings = int(np.ceil(np.log2(norm / _EXP_THETA))) if norm > _EXP_THETA else 0
    x = x / 2.0**squarings if squarings else x
    x2 = x @ x
    x3 = x2 @ x
    # Smallest terms first: B1 = X^3/720 + X^2/120 + X/24, then
    # X^3 B1 + X^3/6 + X^2/2 + X, the last two sums in place.
    b1 = np.divide(x3, 720.0, out=a)
    b1 += x2 / 120.0
    b1 += x / 24.0
    e = x3 @ b1
    e += np.divide(x3, 6.0, out=x3)
    e += np.divide(x2, 2.0, out=x2)
    e += x
    for _ in range(squarings):
        e = e @ e + 2.0 * e
    return e


def _magnus_increments(left: np.ndarray, mid: np.ndarray, right: np.ndarray, h: float) -> np.ndarray:
    """exp(-Omega) - I of the fourth-order Magnus step, for a stack of steps."""
    omega = (h / 6.0) * (left + 4.0 * mid + right) + (h * h / 12.0) * (
        right @ left - left @ right
    )
    return _expm1_matrices(np.negative(omega, out=omega))


def integrate_calapso(
    source: PolarizedCurve | LightConeSection,
    t: float,
    # Steps per grid cell: more make the frames worse and no command passes
    # it.  Kept, default 1, because bench/tracing.py counts steps from it;
    # it goes with the next benchmark refresh (ROADMAP items 1 and 2).
    substeps: int = 1,
) -> CalapsoFrameField:
    """Solve T' = -T A(s, t) from T(s0) = I; return the frame field.

    Each step is the fourth-order Magnus map T <- T exp(-Omega) with
    Omega = h/6 (A_k + 4 A_(k+1/2) + A_(k+1)) + h^2/12 [A_(k+1), A_k].
    Omega lies in so(n+1,1), so every step map preserves the Minkowski
    form up to rounding and the frames need no repair.  The steps run
    one block of ``connection_blocks`` at a time: the block's running
    products P_k = M_1 ... M_k - I come from one prefix scan
    (``prefix_increments``, in increment form), its frames are
    y + y P_k from the frame y that ends the block before, and only the
    grid nodes are kept.

    ``source`` is a section, with its m, or a curve, lifted once
    (``as_section``); the frames keep that section as ``frames.source``,
    so the moved curve is ``frames.move(frames.source)``.  A only sees
    the null line, so iterated transforms should stay in lift form
    instead of projecting through a chart that the intermediate curve
    may cross at infinity.  A nan or infinite t raises GeometryError.
    """
    require_finite(t, "t")
    source = as_section(source)
    grid, d = source.grid, source.n + 2
    T = np.empty((grid.num, d, d))
    y = np.eye(d)
    for block, _, _, a in connection_blocks(source, t, substeps):
        p = prefix_increments(step_maps(a, block.h, _magnus_increments))
        T[block.nodes] = y + y @ p[block.node_states]
        y = y + y @ p[-1]
    return CalapsoFrameField(grid=grid, t=t, T=T, source=source)


def calapso_curve(curve: PolarizedCurve, t: float) -> PolarizedCurve:
    """The Calapso-transformed curve projected back to R^n.

    The polarization is carried over unchanged (the transformation
    preserves the parameter s and the polarized structure).
    """
    frames = integrate_calapso(curve, t)
    return frames.move(frames.source).to_curve()


def transported_section_drift(
    frames: CalapsoFrameField, section: LightConeSection
) -> float:
    """Projective s-variation of T(s) applied to a section.

    For a mu-parallel section and frames at t = mu the image line is
    constant; the returned number is the worst projective gap from the
    initial line.
    """
    moved = frames.act(section.xi)
    return mk.projective_gap(moved, np.broadcast_to(moved[0], moved.shape))


def _constancy_residual(*factors: np.ndarray) -> float:
    """s-variation of the per-sample product of ``factors``.

    The worst gap from the first sample is taken relative to the largest
    product and to the product of the factors' largest entries: rounding
    in a product of large frames is a few eps times the latter, however
    small the product itself is (as in ``metric_drift``).
    """
    mats = functools.reduce(np.matmul, factors)
    scale = max(
        float(np.max(np.linalg.norm(mats, axis=(-2, -1)))),
        math.prod(float(np.max(np.abs(f))) for f in factors),
        1e-300,
    )
    return float(np.max(np.linalg.norm(mats - mats[0], axis=(-2, -1))) / scale)


def verify_calapso_composition(curve: PolarizedCurve, tau: float, t: float) -> float:
    """s-constancy residual of T~^t T^tau (T^(tau+t))^{-1}.

    T~^t is the Calapso field of the tau-transformed curve; the product
    differs from T^(tau+t) by a constant Moebius transformation, so the
    comparison map must be s-independent.  The second field is
    integrated on the raw transformed section, which stays smooth even
    when the intermediate curve sweeps through the chart's infinity.
    """
    frames_tau = integrate_calapso(curve, tau)
    frames_t = integrate_calapso(frames_tau.move(frames_tau.source), t)
    frames_sum = integrate_calapso(curve, tau + t)
    return _constancy_residual(frames_t.T, frames_tau.T, frames_sum.inverse())


def calapso_darboux_permute(
    curve: PolarizedCurve, transform: PolarizedCurve, mu: float, tau: float
) -> tuple[PolarizedCurve, PolarizedCurve]:
    """Calapso transform of a Darboux pair, transported by one frame.

    Both curves are moved with the T^tau of the base curve, which keeps
    them suitably positioned: the results form a Darboux pair with
    parameter mu - tau (certify it with ``surface.check_isothermic`` on
    the two-layer surface).  On the pair it agrees with
    ``surface.surface_calapso`` to rounding; it stays a curve-pair
    function because ``surface`` imports this module and the benchmark
    harness calls it by this name.
    """
    if tau == mu:
        raise GeometryError("tau = mu collapses the transformed pair to a point")
    if tau == 0.0:
        return curve, transform
    frames = integrate_calapso(curve, tau)
    moved = frames.move(frames.source), frames.move(euclidean_section(transform))
    return tuple(section.to_curve() for section in moved)
