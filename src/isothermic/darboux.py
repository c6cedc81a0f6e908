"""Darboux transforms of polarized curves, two equivalent ways.

A Darboux transform of (x, ds^2/m) with parameter mu is a curve x^ whose
tangent cross ratio against x is constant,

    cr = x' (x - x^)^{-1} x^' (x - x^)^{-1} = mu / m,

a product of two vectors in the Clifford algebra of R^n.  Transforms
are produced either by integrating the Riccati equation

    x^' = mu (x^ - x) (m x')^{-1} (x^ - x)

directly in R^n, or as parallel null sections of the isothermic family
of connections

    d/ds - (2t/m) xi ^ xi' / (xi', xi')        at  t = mu

in R^{n+1,1}, each carrying the polarization m of the curve it rides.
Both routes are fourth order on the stored grid and are
cross-validated against each other by the test-suite and the verify
command.  The Riccati route runs RK4 in a kernel generated per n, on
Python floats.  The section route builds the RK4 step map of
xi' = A xi as a matrix (``step_maps``, which also serves the Magnus
steps of the Calapso frames, composed by ``prefix_increments``) and
projects back onto the light cone after every step: each product is
written into its step's row of the block's state array, and
``lightcone_restore`` corrects that row in place.  Sections that
share a curve and t are integrated as one batch: a (P, n) or (P, n+2)
array of initial points gets one sampling and one set of maps, and
each step is one product with the (n+2, P) array of states and one
``lightcone_restore`` call on all P columns.  Every integrator,
and the Simpson sum that all three duals share (``simpson_blocks``),
samples its coefficients and steps one ``step_blocks`` block of steps
at a time and keeps only the grid nodes; no code samples the whole
grid at once, so the memory a run needs beyond its result does not
grow with the grid.

Samples between grid nodes are cubic interpolation with fixed weights
per fraction of a cell (``StepBlock``); at one step per cell, the
midpoint rule (-1, 9, 9, -1) / 16 of Deslauriers and Dubuc (1989).
Only the Riccati route takes a step policy (``substeps`` RK4 steps per
grid cell): its error is set by the step, and two substeps cut it
about 14x on a helix at N = 201.  There the sections gain about 1.6x
from twice the steps and then stop, the Calapso frames get worse and
the duals do not move: they sit near the floor that the interpolation
sets, so they step on the grid.

The gauge maps Gamma(r) that scale one null line by r and a transversal
one by 1/r tie the two pictures together: the connections of a Darboux
pair differ by the gauge Gamma(1 - t/mu) along the pair.  Applied to a
section, a gauge or the connection takes a few inner products per
sample (``gauge_apply``, ``connection_apply``); their dense forms
(``gauge_matrix``, ``connection_matrix``) serve where maps are composed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import clifford as cl
from . import minkowski as mk
from .curves import Grid, PolarizedCurve, derivative_samples
from .errors import (
    DimensionError,
    GeometryError,
    PointAtInfinityError,
    PolarizationError,
    SingularEncounterError,
    require_finite,
)

# Relative secant threshold for the Riccati right hand side.
SECANT_TOL = 1e-12


@dataclass
class LightConeSection:
    """A sampled field in R^{n+1,1} along a grid, with its polarization.

    ``xi`` holds the (N, n+2) samples, ``xiprime`` their derivative when
    a closed form is available (else finite differences are used on
    demand), and ``m`` the polarization ds^2/m of the curve the section
    rides, (N,) or a scalar that broadcasts; every transform passes it
    on from its source.  An m of another length raises DimensionError,
    a nan, infinite or zero one PolarizationError.  Light-cone lifts are
    the main use, but only ``to_curve`` needs the field to be null.
    """

    grid: Grid
    xi: np.ndarray
    m: np.ndarray
    xiprime: np.ndarray | None = None

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        if self.xi.shape[0] != self.grid.num:
            raise DimensionError("section sample count does not match grid")
        if self.xiprime is not None:
            self.xiprime = np.asarray(self.xiprime, dtype=float)
            if self.xiprime.shape != self.xi.shape:
                raise DimensionError("xiprime shape does not match xi")
        m = np.asarray(self.m, dtype=float)
        if m.shape not in ((), (self.grid.num,)):
            raise DimensionError(f"m has shape {m.shape}, expected ({self.grid.num},)")
        self.m = m = np.full(self.grid.num, m) if m.ndim == 0 else m
        # Reductions only, so no temporary grows with the grid; min and max keep a nan.
        if not (math.isfinite(m.min()) and math.isfinite(m.max()) and m.all()):
            raise PolarizationError("polarization m must be finite and nonzero")

    @property
    def n(self) -> int:
        return self.xi.shape[1] - 2

    def derivative(self) -> np.ndarray:
        if self.xiprime is not None:
            return self.xiprime
        return derivative_samples(self.xi, self.grid)

    def to_curve(self) -> PolarizedCurve:
        """Project to the affine chart as a polarized curve with the section's m.

        The derivative comes from the quotient rule on (xi, xi'), so no
        finite-difference error enters when xiprime is analytic.  A
        section that meets the chart's infinity raises
        PointAtInfinityError.
        """
        n, xi, xiprime = self.n, self.xi, self.derivative()
        w = mk.chart_weight(xi)
        pts = xi[:, :n] / w[:, None]
        wprime = xiprime[:, n] + xiprime[:, n + 1]
        xprime = xiprime[:, :n] / w[:, None] - (wprime / w**2)[:, None] * xi[:, :n]
        return PolarizedCurve(n=n, grid=self.grid, x=pts, xprime=xprime, m=self.m.copy())


def euclidean_section(curve: PolarizedCurve) -> LightConeSection:
    """Euclidean-normalized light cone lift of a curve, with derivative and m."""
    xi = mk.euclidean_lift(curve.x)
    xiprime = mk.lift_derivative(curve.x, curve.xprime)
    return LightConeSection(grid=curve.grid, xi=xi, m=curve.m, xiprime=xiprime)


def as_section(source: PolarizedCurve | LightConeSection) -> LightConeSection:
    """A section as it is, or a curve as its Euclidean section."""
    return euclidean_section(source) if isinstance(source, PolarizedCurve) else source


@dataclass
class DarbouxFit:
    """Residuals of a candidate Darboux pair.

    ``mu`` is the median of the per-sample products cr * m, ``spread``
    the worst relative deviation from it, and ``reality`` the worst
    relative 2-vector magnitude of the Clifford cross ratio, which
    vanishes exactly when the pair is Ribaucour (tangent circle contact).
    """

    mu: float
    spread: float
    reality: float


def tangent_cross_ratio(
    x: PolarizedCurve, xhat: PolarizedCurve
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample Clifford cross ratio x' (x-x^)^{-1} x^' (x-x^)^{-1}.

    One product of two vectors, x' u with u = v^{-1} x^' v^{-1} (v the
    secant), returned as (scalar (N,), 2-vector (N, n(n-1)/2)); the
    pair is Ribaucour where the 2-vector vanishes and Darboux when
    additionally scalar * m is constant.
    """
    if x.n != xhat.n:
        raise DimensionError("curves live in different dimensions")
    if x.grid != xhat.grid:
        raise DimensionError("curves are sampled on different grids")
    secant = x.x - xhat.x
    scale = max(float(np.max(np.abs(x.x))), float(np.max(np.abs(xhat.x))), 1.0)
    sec_inv = cl.vector_inverse(secant, ref_scale=scale)
    return cl.vector_product(x.xprime, cl.sandwich(sec_inv, xhat.xprime))


def is_darboux_pair(x: PolarizedCurve, xhat: PolarizedCurve) -> DarbouxFit:
    """Fit the parameter mu of a candidate Darboux pair, with its residuals.

    cr * m, with the polarization m of ``x``, is real and constant for a
    Darboux pair; mu is estimated as the median of the per-sample
    products, robust against a few bad samples.  The caller holds the
    residuals against a tolerance.

    It reads the derivatives it is given.  The certificate of a pair is
    ``surface.check_isothermic`` on the two-layer surface, which reads
    the positions.  This fit stays for callers that judge stored
    derivatives: where a transformed curve's speed nearly vanishes, a
    derivative of its samples carries the stencil's truncation into the
    cross ratio.
    """
    real, wedge = tangent_cross_ratio(x, xhat)
    crm = real * x.m
    mu = float(np.median(crm))
    denom = abs(mu) if abs(mu) > 1e-300 else 1.0
    spread = float(np.max(np.abs(crm - mu)) / denom)
    return DarbouxFit(mu=mu, spread=spread, reality=cl.reality_residual(real, wedge))


# Steps sampled and integrated together: the temporaries stay a few
# hundred kB whatever the grid length.
_BLOCK_STEPS = 1024
# Steps whose running products ``prefix_increments`` forms side by side.
_CHUNK_STEPS = 32


@dataclass(frozen=True)
class StepBlock:
    """Steps k0 .. k0 + steps - 1 of an RK4 run over a grid.

    It reads the grid rows ``rows``.  Its states after k0 .. k0 + steps
    steps, sliced by ``node_states``, and its samples at the 2 steps + 1
    step nodes and midpoints, sliced by ``node_samples``, are those at
    the grid nodes ``nodes``.  Each of ``fills``, (at, i, j, weights),
    gives the points ``at``, all at one fraction of a cell, the 4-point
    sum of the rows i + l .. j - 1 + l times weights[l], l = 0 .. 3.
    """

    k0: int
    steps: int
    h: float
    rows: slice
    nodes: slice
    node_states: slice
    node_samples: slice
    fills: tuple

    def sample(self, *values: np.ndarray) -> list[np.ndarray]:
        """Each of ``values``, given at the grid nodes ``rows``, at every
        evaluation point; grid nodes keep their exact samples."""
        lo = self.rows.start
        sampled = []
        for v in values:
            v_all = np.empty((2 * self.steps + 1, *v.shape[1:]))
            v_all[self.node_samples] = v[self.nodes.start - lo : self.nodes.stop - lo]
            for at, i, j, (w0, w1, w2, w3) in self.fills:
                a, b, c, d = v[i:j], v[i + 1 : j + 1], v[i + 2 : j + 2], v[i + 3 : j + 3]
                v_all[at] = w0 * a + w1 * b + w2 * c + w3 * d
            sampled.append(v_all)
        return sampled


def _step_block(grid: Grid, substeps: int, k0: int, k1: int) -> StepBlock:
    per_cell, last = 2 * substeps, grid.num - 2  # evaluation points per cell; the last cell
    # The rows read: the stencils of the cells of the block's first and last midpoints.
    lo, hi = (min(max(j // per_cell - 1, 0), last - 2) for j in (2 * k0 + 1, 2 * k1 - 1))
    fills = []
    for r in range(1, per_cell):
        # The cells c whose point per_cell c + r lies in [2 k0, 2 k1]: the first (shift 0),
        # inner (1) and last (2) cells weigh the rows c - shift + l, l = 0 .. 3, by the
        # cubic Lagrange basis at u = shift + r / per_cell (dyadics where r / per_cell = 1/2).
        c0, c1 = -((r - 2 * k0) // per_cell), (2 * k1 - r) // per_cell
        cells = ((c0, min(c1, 0)), (max(c0, 1), min(c1, last - 1)), (max(c0, last), c1))
        for shift, (a, b) in enumerate(cells):
            if a <= b:
                u0 = shift + r / per_cell
                u1, u2, u3 = u0 - 1.0, u0 - 2.0, u0 - 3.0
                w = (u1 * u2 * u3 / -6.0, u0 * u2 * u3 / 2.0,
                     u0 * u1 * u3 / -2.0, u0 * u1 * u2 / 6.0)
                at = slice(per_cell * a + r - 2 * k0, per_cell * b + r - 2 * k0 + 1, per_cell)
                fills.append((at, a - shift - lo, b - shift + 1 - lo, w))
    first = -k0 % substeps
    return StepBlock(
        k0, k1 - k0, grid.h / substeps, slice(lo, hi + 4),
        slice((k0 + first) // substeps, k1 // substeps + 1),
        slice(first, None, substeps), slice(2 * first, None, 2 * substeps), tuple(fills),
    )


def step_blocks(grid: Grid, substeps: int):
    """The StepBlocks of an RK4 run over the grid, _BLOCK_STEPS steps each."""
    total = (grid.num - 1) * substeps
    for k0 in range(0, total, _BLOCK_STEPS):
        yield _step_block(grid, substeps, k0, min(k0 + _BLOCK_STEPS, total))


def simpson_cumulative(f_all: np.ndarray, h: float, anchor: np.ndarray) -> np.ndarray:
    """Antiderivative from ``anchor`` at the step nodes, by Simpson's rule.

    ``f_all`` holds the integrand at every step node and midpoint, as
    ``StepBlock.sample`` returns it, with step ``h``.
    """
    increments = (h / 6.0) * (f_all[:-2:2] + 4.0 * f_all[1::2] + f_all[2::2])
    return np.cumsum(np.concatenate([anchor[None], increments]), axis=0)


def simpson_blocks(grid: Grid, anchor: np.ndarray, integrand) -> tuple[np.ndarray, np.ndarray]:
    """Antiderivative from ``anchor`` at s0 by Simpson's rule, block by block.

    ``integrand(block)`` returns the integrand at every evaluation point
    of one ``step_blocks`` block; the running value is carried from one
    block to the next.  Returns the antiderivative and the integrand at
    the grid nodes.
    """
    anchor = np.asarray(anchor, dtype=float)
    value = np.empty((grid.num, *anchor.shape))
    rate = np.empty_like(value)
    for block in step_blocks(grid, 1):
        f = integrand(block)
        out = simpson_cumulative(f, block.h, anchor)
        anchor = out[-1]
        value[block.nodes] = out[block.node_states]
        rate[block.nodes] = f[block.node_samples]
    return value, rate


def inverse_tangent(xprime: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(m x')^{-1} = x' / (m |x'|^2) per sample: the dual curve's derivative."""
    return xprime / (m * np.sum(xprime * xprime, axis=1))[:, None]


@lru_cache(maxsize=None)
def _riccati_kernel(n: int):
    """The Riccati RK4 loop written out for R^n, compiled once per n.

    riccati_rk4(x, w, y, k0, steps, h, mu, tol2, s0) reads x and
    (m x')^{-1} at every step node and midpoint of steps k0 .. k0 +
    steps - 1 from flat lists, row j at [j n, (j + 1) n), and returns
    the states after k0, .., k0 + steps steps, flat; a secant collapse
    is reported at its parameter on the whole grid.  The state lives in
    float locals y0..y{n-1}, each sample row is read once (stages 2, 3
    share the midpoint; stage 4's right node serves the next stage 1),
    and each operation is the array form's, in its order (numpy sums
    n < 8 terms left to right), so the output is bit-identical to it.
    """
    idx = range(n)
    state = ", ".join(f"y{i}" for i in idx)
    body = []
    # Stage k is mu sandwich(v, w), v = start - x, at sample row 2 step + row; even k load it.
    for k, start, node, row in (
        (1, "y{i}", "a", 0),
        (2, "y{i} + half * k1_{i}", "m", 1),
        (3, "y{i} + half * k2_{i}", "m", 1),
        (4, "y{i} + h * k3_{i}", "a", 2),
    ):
        body += [f"{c}{node}{i} = {c}[j + {row * n + i}]" for c in "xw" for i in idx if k % 2 == 0]
        body += [f"v{i} = {start.format(i=i)} - x{node}{i}" for i in idx]
        body += [
            "vw = " + " + ".join(f"v{i} * w{node}{i}" for i in idx),
            "vv = " + " + ".join(f"v{i} * v{i}" for i in idx),
            "if vv <= tol2:",
            f"    raise SingularEncounterError(s0 + half * (2 * (k0 + step) + {row}))",
            "vw2 = 2.0 * vw",
        ] + [f"k{k}_{i} = mu * (vw2 * v{i} - vv * w{node}{i})" for i in idx]
    body += [f"y{i} = y{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})" for i in idx]
    source = "\n".join(
        ["def riccati_rk4(x, w, y, k0, steps, h, mu, tol2, s0):", f"    {state}, = y"]
        + ["    half = 0.5 * h", "    sixth = h / 6.0", f"    out = [{state}]"]
        + [f"    {c}a{i} = {c}[{i}]" for c in "xw" for i in idx]
        + ["    for step in range(steps):", f"        j = {2 * n} * step"]
        + ["        " + line for line in body + [f"out += ({state},)"]]
        + ["    return out\n"]
    )
    namespace = {"SingularEncounterError": SingularEncounterError}
    exec(compile(source, f"<riccati-rk4-n{n}>", "exec"), namespace)
    return namespace["riccati_rk4"]


def integrate_riccati(
    curve: PolarizedCurve,
    mu: float,
    xhat0: np.ndarray,
    substeps: int = 1,
) -> PolarizedCurve:
    """Darboux transform by integrating the Riccati equation with RK4.

    mu = 0 raises GeometryError: the transform degenerates to a constant
    curve, which is not immersed.  A collapsing secant |x^ - x| raises
    SingularEncounterError carrying the parameter value, and a transform
    that leaves R^n (a sample overflows to inf or nan) raises
    PointAtInfinityError naming the first such parameter.  The run goes
    block by block (``step_blocks``), keeping only the grid nodes.  A nan
    or infinite mu or initial point raises GeometryError naming it.
    """
    require_finite(mu, "mu")
    xhat0 = require_finite(xhat0, "initial point")
    if mu == 0.0:
        raise GeometryError("mu = 0 gives a constant curve, not a Darboux transform")
    grid, n = curve.grid, curve.n
    if xhat0.shape != (n,):
        raise DimensionError(f"initial point must be in R^{n}")
    # max|x| from two reductions, with no |x| temporary of the grid's size.
    scale = max(float(curve.x.max()), float(-curve.x.min()), float(np.linalg.norm(xhat0)), 1.0)
    tol = SECANT_TOL * scale
    kernel = _riccati_kernel(n)
    x = np.empty((grid.num, n))
    xprime = np.empty((grid.num, n))
    y = xhat0.tolist()
    gap, gap_node = math.inf, 0
    for block in step_blocks(grid, substeps):
        rows, nodes = block.rows, block.nodes
        x_b, xp_b, m_b = block.sample(curve.x[rows], curve.xprime[rows], curve.m[rows])
        w_b = inverse_tangent(xp_b, m_b)
        flat = kernel(
            x_b.ravel().tolist(), w_b.ravel().tolist(), y, block.k0, block.steps,
            block.h, float(mu), tol**2, grid.s0,
        )
        y = flat[-n:]
        samples = np.array(flat).reshape(-1, n)[block.node_states]
        finite = np.isfinite(samples).all(axis=1)
        if not finite.all():
            s = grid.nodes()[nodes.start + int(np.argmin(finite))]
            raise PointAtInfinityError(f"Riccati transform leaves R^{n} near s = {s:.6g}")
        # The ODE itself provides the derivative at the retained nodes.
        secants = samples - curve.x[nodes]
        gaps = np.linalg.norm(secants, axis=1)
        if gaps.size and np.min(gaps) < gap:
            k = int(np.argmin(gaps))
            gap, gap_node = float(gaps[k]), nodes.start + k
        x[nodes] = samples
        xprime[nodes] = mu * cl.sandwich(secants, w_b[block.node_samples])
    if gap <= tol:
        raise SingularEncounterError(grid.nodes()[gap_node])
    return PolarizedCurve(n=n, grid=grid, x=x, xprime=xprime, m=curve.m.copy())


def connection_matrix(
    xi: np.ndarray, xiprime: np.ndarray, m: np.ndarray, t: float
) -> np.ndarray:
    """Coefficient A(s, t) = (2t/m) xi ^ xi' / (xi', xi') of the family.

    The parallel-section equation reads xi^' = A xi^.  The coefficient
    only depends on the null line of xi, not the chosen lift.
    """
    return _connection_factor(xiprime, m, t)[..., None, None] * mk.wedge_matrix(xi, xiprime)


def _connection_factor(xiprime: np.ndarray, m: np.ndarray, t: float) -> np.ndarray:
    """The scalar 2t / (m (xi', xi')) of A(s, t); a lightlike xi' raises."""
    denom = mk.norm2(xiprime)
    if np.any(np.abs(denom) <= 1e-300):
        raise GeometryError("lift derivative is lightlike; connection undefined")
    return 2.0 * t / (np.asarray(m, dtype=float) * denom)


def connection_apply(
    xi: np.ndarray, xiprime: np.ndarray, m: np.ndarray, t: float, y: np.ndarray
) -> np.ndarray:
    """A(s, t) y = (2t / (m (xi', xi'))) (xi' (xi, y) - xi (xi', y)).

    ``connection_matrix`` applied to a section, from two inner products
    per sample: no (N, d, d) matrix is built.
    """
    return _connection_factor(xiprime, m, t)[..., None] * (
        mk.inner(xi, y)[..., None] * xiprime - mk.inner(xiprime, y)[..., None] * xi
    )


def connection_blocks(source: PolarizedCurve | LightConeSection, t: float, substeps: int):
    """Yield (block, xi, xi', A(s, t)) at every evaluation point, block by block.

    ``source`` is a section, or a curve, lifted to its Euclidean section
    only on each block's ``rows``; either brings its polarization m.
    """
    if isinstance(source, PolarizedCurve):
        def lift(rows):
            x = source.x[rows]
            return mk.euclidean_lift(x), mk.lift_derivative(x, source.xprime[rows])
    else:
        xi, xiprime = source.xi, source.derivative()

        def lift(rows):
            return xi[rows], xiprime[rows]
    for block in step_blocks(source.grid, substeps):
        xi_b, xip_b, m_b = block.sample(*lift(block.rows), source.m[block.rows])
        yield block, xi_b, xip_b, connection_matrix(xi_b, xip_b, m_b, t)


def step_maps(a: np.ndarray, h: float, rule) -> np.ndarray:
    """The increments M_k - I of the maps of one block's steps, stacked.

    ``a`` holds a coefficient at every step node and midpoint of the
    block, as ``connection_blocks`` yields it, and ``rule(left, mid,
    right, h)`` receives the coefficients at the steps' left nodes,
    midpoints and right nodes.
    """
    return rule(a[:-2:2], a[1::2], a[2::2], h)


def prefix_increments(e: np.ndarray) -> np.ndarray:
    """The increments P_k = (I + E_1) ... (I + E_k) - I, k = 0 .. K, stacked.

    ``e`` holds the K increments E_k = M_k - I of a block's step maps, as
    ``step_maps`` returns them; P_0 = 0 is the empty product.  A
    two-level scan (Blelloch 1990) replaces the K sequential products:
    the steps are padded with zero increments, which compose as the
    exact identity, to chunks of _CHUNK_STEPS; every chunk's running
    products are formed side by side, one step position at a time; the
    chunk totals are scanned; then one batched product puts the total
    of the chunks before each chunk in front of its running products.
    Products are composed in increment form, (I + P)(I + Q) - I =
    P + Q + P Q, so the small difference from I keeps its bits.
    """
    steps, d = e.shape[0], e.shape[-1]
    chunks = -(-steps // _CHUNK_STEPS)
    out = np.zeros((1 + chunks * _CHUNK_STEPS, d, d))
    out[1 : steps + 1] = e
    p = out[1:].reshape(chunks, _CHUNK_STEPS, d, d)  # a view: writes land in out
    for j in range(1, _CHUNK_STEPS):
        p[:, j] += p[:, j - 1] + p[:, j - 1] @ p[:, j]
    before = np.zeros((chunks, d, d))
    for c in range(1, chunks):
        total = p[c - 1, -1]
        before[c] = before[c - 1] + total + before[c - 1] @ total
    p[1:] += before[1:, None] + before[1:, None] @ p[1:]
    return out[: steps + 1]


def _rk4_increments(left: np.ndarray, mid: np.ndarray, right: np.ndarray, h: float) -> np.ndarray:
    """M - I of the classical RK4 step of y' = A y, for a stack of steps.

    M - I = h/6 (A_0 + 2 K_2 + 2 K_3 + K_4) with K_2 = A_(1/2) (I + h/2 A_0),
    K_3 = A_(1/2) (I + h/2 K_2) and K_4 = A_1 (I + h K_3): the stages of
    RK4 applied to every initial vector at once, formed in place with
    the operations of that formula in its order.
    """
    k2 = mid @ left
    k2 *= 0.5 * h
    k2 += mid
    k3 = mid @ k2
    k3 *= 0.5 * h
    k3 += mid
    k4 = right @ k3
    k4 *= h
    k4 += right
    k2 *= 2.0
    k2 += left
    k2 += 2.0 * k3
    k2 += k4
    k2 *= h / 6.0
    return k2


def lightcone_restore(y: np.ndarray) -> np.ndarray:
    """Project y onto the light cone exactly, in place, in the canonical chart.

    Subtracts the defect along q, or along o when y is nearly
    orthogonal to q, so the correction never changes the null line's
    affine representative direction.  In the canonical frame q and o
    have entries only in the last two coordinates a, b of y, so only
    those move, and the projection runs on Python floats with
    (y, y) = |x|^2 + a^2 - b^2, (y, q) = -(a + b) and (y, o) = (a - b) / 2,
    x the first n coordinates.  ``y`` is one vector (d,) or a batch
    (d, P) of P vectors, one per column, each projected by the same
    rule.  Writes the new a and b into y and returns y.
    """
    v = y.tolist()
    if type(v[0]) is list:
        a_new, b_new = [], []
        for p in zip(*v):
            a, b = _restored(p[:-2], p[-2], p[-1])
            a_new.append(a)
            b_new.append(b)
        y[-2] = a_new
        y[-1] = b_new
        return y
    a = v[-2]
    b = v[-1]
    s = 0.0
    for c in v[:-2]:
        s += c * c
    defect = s + a * a - b * b
    wq = -(a + b)
    if abs(wq) > 1e-8 * math.sqrt(s + a * a + b * b):
        c = defect / (2.0 * wq)
        y[-2] = a + c
        y[-1] = b - c
    else:
        c = defect / (2.0 * (a - b))
        y[-2] = a - c
        y[-1] = b - c
    return y


def _restored(x, a: float, b: float) -> tuple[float, float]:
    """``lightcone_restore``'s (a, b) for the point (x, a, b), one column of a batch.

    The same operations in the same order as the single-vector path,
    which keeps these lines inline because it runs once per step of
    every section and a call from there would add one per step.
    """
    s = 0.0
    for c in x:
        s += c * c
    defect = s + a * a - b * b
    wq = -(a + b)
    if abs(wq) > 1e-8 * math.sqrt(s + a * a + b * b):
        c = defect / (2.0 * wq)
        return a + c, b - c
    c = defect / (2.0 * (a - b))
    return a - c, b - c


def integrate_parallel_section(
    source: PolarizedCurve,
    t: float,
    xihat0: np.ndarray,
    # Steps per grid cell: more buy sections little and no command passes
    # it.  Kept, default 1, because bench/tracing.py counts steps from it;
    # it goes with the next benchmark refresh (ROADMAP items 1 and 2).
    substeps: int = 1,
) -> LightConeSection | list[LightConeSection]:
    """Parallel null section of the family connection at parameter t.

    ``xihat0`` may be an affine point of R^n (lifted automatically) or a
    null vector of R^{n+1,1}; a (P, n) or (P, n+2) batch of them returns
    P sections in their order.  At t = mu the projected section is the
    Darboux transform with parameter mu.  The classical RK4 maps
    M_k = I + E_k of xi' = A xi of one ``connection_blocks`` block are
    formed at once (``step_maps`` plus I); each step is one product
    M_k y, written into the step's row of the block's states, and one
    projection of that row back onto the light cone, in place, with
    ``lightcone_restore``, which keeps the parallel scaling and corrects
    only the light-cone defect.  A batch shares the sampling and the
    maps, and steps its P states as the columns of one (n+2, P) array:
    still one product and one projection per step.  Only the grid nodes
    are kept.  A nan or infinite t or initial point raises GeometryError
    naming it.
    """
    require_finite(t, "t")
    xihat0 = require_finite(xihat0, "initial point")
    grid = source.grid
    n = source.n
    if xihat0.ndim not in (1, 2) or xihat0.shape[-1] not in (n, n + 2) or not xihat0.size:
        raise DimensionError(
            "initial point must be affine (n,) or a null vector (n+2,), or a (P, n) or"
            " (P, n+2) batch of them"
        )
    if xihat0.shape[-1] == n:
        y = mk.euclidean_lift(xihat0)
    else:
        y = xihat0
        if not np.all(mk.is_lightlike(y, tol=1e-7)):
            raise GeometryError("initial section vector is not lightlike")
    batch = y.ndim == 2
    if batch:
        y = np.ascontiguousarray(y.T)  # (n+2, P): one state per column
    xi = np.empty((*y.shape[1:], grid.num, n + 2))
    xiprime = np.empty_like(xi)
    for block, _, _, a in connection_blocks(source, t, substeps):
        maps = step_maps(a, block.h, _rk4_increments)
        maps += np.eye(n + 2)
        states = np.empty((block.steps + 1, *y.shape))
        states[0] = y
        for step, row in zip(maps, states[1:]):
            y = lightcone_restore(step.dot(y, row))
        nodes = block.nodes
        kept = states[block.node_states]
        xi[..., nodes, :] = np.moveaxis(kept, -1, 0) if batch else kept
        a_nodes = a[block.node_samples]
        xiprime[..., nodes, :] = np.einsum("kij,...kj->...ki", a_nodes, xi[..., nodes, :])
    if batch:
        return [LightConeSection(grid, x, source.m, xp) for x, xp in zip(xi, xiprime)]
    return LightConeSection(grid=grid, xi=xi, m=source.m, xiprime=xiprime)


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
    deriv = derivative_samples(section.xi, base.grid)
    defect = deriv - connection_apply(lift.xi, lift.xiprime, lift.m, t, section.xi)
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


def gauge_apply(
    xi: np.ndarray, xihat: np.ndarray, r: float | np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Gamma_{<xi>}^{<xihat>}(r) v, batched over leading axes.

    ``gauge_matrix`` applied to a vector field, as v + (1/r - 1) times
    its projection onto <xi> along <xihat> plus (r - 1) times its
    projection onto <xihat> along <xi>: three inner products per
    sample, no (N, d, d) matrix.  Gamma(r)^{-1} = Gamma(1/r).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r == 0.0):
        raise GeometryError("gauge parameter r must be nonzero")
    denom = mk.inner(xi, xihat)
    mk.check_complementary(xi, xihat, denom)
    a = (1.0 / r - 1.0) * mk.inner(v, xihat) / denom
    b = (r - 1.0) * mk.inner(v, xi) / denom
    return v + a[..., None] * xi + b[..., None] * xihat


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
    sec, sec_hat = euclidean_section(curve), euclidean_section(transform)
    a, a_hat = (connection_matrix(s.xi, s.xiprime, s.m, t) for s in (sec, sec_hat))
    r = 1.0 - t / mu
    gamma = gauge_matrix(sec.xi, sec_hat.xi, r)
    gamma_prime = derivative_samples(gamma, curve.grid)
    gamma_inv = gauge_matrix(sec.xi, sec_hat.xi, 1.0 / r)
    lhs = a_hat
    rhs = gamma_prime @ gamma_inv + gamma @ a @ gamma_inv
    return float(np.max(np.linalg.norm(lhs - rhs, axis=(1, 2))))
