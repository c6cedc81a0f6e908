"""Mixed areas, Koenigs duality, and linear conserved quantities.

Everything here works on sampled vector fields over the layered curves
of a semi-discrete surface: mixed-area elements per edge, the lifted
Christoffel (Koenigs) duality that makes them vanish, tangent plane
congruences, the mixed-area mean curvature, and the linear conserved
quantity z t + q whose existence characterizes constant mean curvature.

Mixed-area 2-vectors are represented by their skew action matrices
M y = (a, y) b - (b, y) a; the induced pairing on 2-vectors is then
tr(G M_A^T G M_B) / 2, which reproduces (a,c)(b,d) - (a,d)(b,c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import minkowski as mk
from .curves import Grid, cubic_interp, derivative_samples
from .errors import (
    DegenerateEdgeError,
    DimensionError,
    GeometryError,
    NonConjugateError,
    PolarizationError,
)
from .surface import SemiDiscreteSurface

__all__ = [
    "PARALLEL_TOL",
    "SampledField",
    "MixedAreaElement",
    "mixed_area",
    "is_christoffel_pair_mixed_area",
    "lifted_christoffel_dual",
    "koenigs_dual",
    "KoenigsReport",
    "verify_koenigs",
    "ConservedQuantity",
    "CqReport",
    "conserved_quantity_residual",
    "TangentPlaneCongruence",
    "tangent_congruence",
    "mean_curvature",
    "CmcCertificate",
    "cmc_linear_cq",
]

PARALLEL_TOL = 1e-6
CONGRUENCE_TOL = 1e-10


@dataclass
class SampledField:
    """Vector samples along the grid, with an optional exact derivative."""

    values: np.ndarray
    prime: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.prime is not None:
            self.prime = np.asarray(self.prime, dtype=float)
            if self.prime.shape != self.values.shape:
                raise DimensionError("field derivative shape does not match values")

    def derivative(self, grid: Grid) -> np.ndarray:
        if self.prime is not None:
            return self.prime
        return derivative_samples(self.values, grid)


def _as_field(f) -> SampledField:
    if isinstance(f, SampledField):
        return f
    return SampledField(values=np.asarray(f, dtype=float))


def wedge_element(a: np.ndarray, b: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Skew action matrices of a wedge b per sample row."""
    ga = a @ metric
    gb = b @ metric
    return np.einsum("kr,kc->krc", b, ga) - np.einsum("kr,kc->krc", a, gb)


def element_pairing(a_vals: np.ndarray, b_vals: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Induced 2-vector inner product, tr(G A^T G B) / 2 per sample."""
    left = np.einsum("ab,kcb,cd->kad", metric, a_vals, metric)
    return 0.5 * np.einsum("kad,kda->k", left, b_vals)


@dataclass
class MixedAreaElement:
    """Per-sample mixed-area 2-vectors of one edge, as skew matrices."""

    values: np.ndarray
    metric: np.ndarray

    def frobenius(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=(1, 2))

    def pairing(self, other: "MixedAreaElement") -> np.ndarray:
        return element_pairing(self.values, other.values, self.metric)


def mixed_area(x0, x1, z0, z1, grid: Grid) -> MixedAreaElement:
    """Mixed area element (x'_{ij} wedge d_{ij}z + z'_{ij} wedge d_{ij}x) / 2.

    ``x0, x1`` and ``z0, z1`` are the two fields on the edge's pair of
    curves, lifted to R^{n+1,1}; edge means are f_{ij} = (f_i + f_j)/2
    and differences d_{ij}f = f_j - f_i.  The wedges use the Minkowski
    metric of the fields' dimension n + 2.
    """
    x0, x1, z0, z1 = map(_as_field, (x0, x1, z0, z1))
    metric = mk.metric_matrix(x0.values.shape[1] - 2)
    xp = 0.5 * (x0.derivative(grid) + x1.derivative(grid))
    zp = 0.5 * (z0.derivative(grid) + z1.derivative(grid))
    dx = x1.values - x0.values
    dz = z1.values - z0.values
    values = 0.5 * (wedge_element(xp, dz, metric) + wedge_element(zp, dx, metric))
    return MixedAreaElement(values=values, metric=metric)


def is_christoffel_pair_mixed_area(x_fields: list, z_fields: list, grid: Grid) -> float:
    """Worst per-edge mixed-area magnitude of two lifted nets.

    The nets are Christoffel partners where it vanishes.
    """
    if len(x_fields) != len(z_fields):
        raise DimensionError("the two nets must have the same number of curves")
    if len(x_fields) < 2:
        raise DimensionError("a mixed-area test needs at least one edge")
    residual = 0.0
    for i in range(len(x_fields) - 1):
        elem = mixed_area(x_fields[i], x_fields[i + 1], z_fields[i], z_fields[i + 1], grid)
        residual = max(residual, float(np.max(elem.frobenius())))
    return residual


def _cumulative_simpson(f_nodes: np.ndarray, grid: Grid) -> np.ndarray:
    """Antiderivative samples of a smooth integrand, starting at zero."""
    s_half = grid.s0 + grid.h * (np.arange(grid.num - 1) + 0.5)
    f_half = cubic_interp(f_nodes, grid, s_half)
    steps = (grid.h / 6.0) * (f_nodes[:-1] + 4.0 * f_half + f_nodes[1:])
    out = np.zeros_like(f_nodes)
    np.cumsum(steps, axis=0, out=out[1:])
    return out


def lifted_christoffel_dual(surface: SemiDiscreteSurface) -> list[SampledField]:
    """Christoffel duality at the lift level, z' = xi'/(m (xi',xi')).

    Layer 0 is integrated; each next layer is positioned by inverting
    the edge secant, d z = d xi / (mu (d xi, d xi)).  The mixed area of
    the surface's lifts with this dual vanishes identically, which is
    not true for the Euclidean lift of the affine dual.
    """
    m = surface.m
    grid = surface.grid
    fields: list[SampledField] = []
    primes = []
    for k in range(surface.num_layers):
        lift = surface.lift(k)
        w = m * mk.norm2(lift.xiprime)
        if np.min(np.abs(w)) <= 1e-300:
            raise GeometryError(f"curve {k}: lift derivative is null; dual undefined")
        primes.append(lift.xiprime / w[:, None])
    z = _cumulative_simpson(primes[0], grid) + surface.lift(0).xi[0]
    fields.append(SampledField(values=z, prime=primes[0]))
    for i, mu_i in enumerate(surface.mu):
        dxi = surface.lift(i + 1).xi - surface.lift(i).xi
        dd = mk.norm2(dxi)
        if np.min(np.abs(dd)) <= 1e-300:
            raise DegenerateEdgeError(f"edge {i}: null secant; dual edge rule undefined")
        z = fields[i].values + dxi / (mu_i * dd)[:, None]
        fields.append(SampledField(values=z, prime=primes[i + 1]))
    return fields


def koenigs_dual(
    surface: SemiDiscreteSurface,
) -> tuple[list[SampledField], list[np.ndarray]]:
    """Koenigs dual of the surface's lifts, with its weights nu.

    Uses nu = sqrt(m (x', x')), so the polarization times the squared
    speed must be positive.  Layer 0 integrates z' = -xi'/nu^2; each
    next layer follows the edge rule d z = d xi / (nu_i nu_j), which is
    consistent with the smooth rule exactly when the surface is
    isothermic (certify with ``verify_koenigs``).
    """
    m = surface.m
    grid = surface.grid
    nu = []
    primes = []
    for k in range(surface.num_layers):
        w = m * surface.curves[k].speed2
        if np.min(w) <= 0.0:
            raise PolarizationError(
                f"curve {k}: m (x', x') must be positive for the Koenigs weights"
            )
        nu.append(np.sqrt(w))
        primes.append(-surface.lift(k).xiprime / w[:, None])
    fields = [SampledField(values=_cumulative_simpson(primes[0], grid), prime=primes[0])]
    for i in range(surface.num_layers - 1):
        dxi = surface.lift(i + 1).xi - surface.lift(i).xi
        z = fields[i].values + dxi / (nu[i] * nu[i + 1])[:, None]
        fields.append(SampledField(values=z, prime=primes[i + 1]))
    return fields, nu


@dataclass
class KoenigsReport:
    """Residuals of the Koenigs duality equations and their consequences.

    ``smooth`` and ``edge`` certify z' = -x'/nu^2 and
    d z = d x/(nu_i nu_j); ``integrability`` the mixed relation that
    makes the edge derivative match the derivative difference;
    ``factorization`` the recovered-coefficient identity
    alpha^2 = a_i a_j; the two invariance lists certify that
    (x',x')/nu^2 is edge-constant and 2(x_i,x_j)/(nu_i nu_j) is
    s-constant.
    """

    smooth: list[float]
    edge: list[float]
    integrability: list[float]
    factorization: list[float]
    polarization_constancy: list[float]
    edge_invariant_drift: list[float]
    recovered_mu: list[float]

    @property
    def max_residual(self) -> float:
        pools = (
            self.smooth,
            self.edge,
            self.integrability,
            self.factorization,
            self.polarization_constancy,
            self.edge_invariant_drift,
        )
        return max((max(p) for p in pools if p), default=0.0)


def verify_koenigs(
    x_fields: list,
    z_fields: list,
    nu: list[np.ndarray],
    grid: Grid,
) -> KoenigsReport:
    """Certify that z is the Koenigs dual of x with the weights nu.

    The fields are lifts to R^{n+1,1}; the polarization and edge
    invariants use the Minkowski metric of their dimension n + 2.
    """
    if not (len(x_fields) == len(z_fields) == len(nu)):
        raise DimensionError("x, z, and nu must have one entry per curve")
    x_fields = [_as_field(f) for f in x_fields]
    z_fields = [_as_field(f) for f in z_fields]
    nu = [np.asarray(v, dtype=float) for v in nu]
    metric = mk.metric_matrix(x_fields[0].values.shape[1] - 2)

    smooth = []
    xprimes = []
    zprimes = []
    a_coeff = []
    for xf, zf, nu_i in zip(x_fields, z_fields, nu):
        xp = xf.derivative(grid)
        zp = zf.derivative(grid)
        xprimes.append(xp)
        zprimes.append(zp)
        target = -xp / (nu_i**2)[:, None]
        scale = max(float(np.max(np.linalg.norm(target, axis=1))), 1e-300)
        smooth.append(float(np.max(np.linalg.norm(zp - target, axis=1))) / scale)
        a_coeff.append(np.sum(zp * xp, axis=1) / np.sum(xp * xp, axis=1))

    edge = []
    integrability = []
    factorization = []
    polarization = []
    drift = []
    recovered = []
    inv_m = [
        np.einsum("ki,ij,kj->k", xp, metric, xp) / nu_i**2
        for xp, nu_i in zip(xprimes, nu)
    ]
    for i in range(len(x_fields) - 1):
        xi, xj = x_fields[i].values, x_fields[i + 1].values
        zi, zj = z_fields[i].values, z_fields[i + 1].values
        dx = xj - xi
        dz = zj - zi
        weight = nu[i] * nu[i + 1]
        target = dx / weight[:, None]
        scale = max(float(np.max(np.linalg.norm(target, axis=1))), 1e-300)
        edge.append(float(np.max(np.linalg.norm(dz - target, axis=1))) / scale)

        alpha = np.sum(dz * dx, axis=1) / np.sum(dx * dx, axis=1)
        alpha_prime = derivative_samples(alpha, grid)
        lhs = (alpha - a_coeff[i])[:, None] * xprimes[i] - (alpha - a_coeff[i + 1])[
            :, None
        ] * xprimes[i + 1]
        rhs = alpha_prime[:, None] * dx
        # normalize by the ingredient sizes: lhs itself may vanish identically
        ingredient = (
            np.abs(alpha - a_coeff[i]) * np.linalg.norm(xprimes[i], axis=1)
            + np.abs(alpha - a_coeff[i + 1]) * np.linalg.norm(xprimes[i + 1], axis=1)
            + np.abs(alpha_prime) * np.linalg.norm(dx, axis=1)
        )
        scale = max(float(np.max(ingredient)), 1e-300)
        integrability.append(float(np.max(np.linalg.norm(lhs - rhs, axis=1))) / scale)

        fact = alpha**2 - a_coeff[i] * a_coeff[i + 1]
        factorization.append(float(np.max(np.abs(fact))) / max(np.max(alpha**2), 1e-300))

        pol = np.abs(inv_m[i + 1] - inv_m[i])
        polarization.append(
            float(np.max(pol)) / max(float(np.max(np.abs(inv_m[i]))), 1e-300)
        )

        f = 2.0 * np.einsum("ki,ij,kj->k", xi, metric, xj) / weight
        mid = float(np.median(f))
        drift.append(float(np.max(np.abs(f - mid))) / max(abs(mid), 1e-300))
        recovered.append(1.0 / mid if mid != 0.0 else np.inf)
    return KoenigsReport(
        smooth=smooth,
        edge=edge,
        integrability=integrability,
        factorization=factorization,
        polarization_constancy=polarization,
        edge_invariant_drift=drift,
        recovered_mu=recovered,
    )


@dataclass
class ConservedQuantity:
    """Linear polynomial p(t) = z t + q along a layered surface.

    ``z`` holds one sampled vector field per curve; ``q`` is a constant
    vector (a per-sample field is accepted and checked for constancy).
    The degree field is fixed to 1; higher degrees are rejected by the
    operations.
    """

    z: list[np.ndarray]
    q: np.ndarray
    degree: int = 1

    def __post_init__(self):
        self.z = [np.asarray(v, dtype=float) for v in self.z]
        self.q = np.asarray(self.q, dtype=float)


@dataclass
class CqReport:
    """Residuals of the conserved-quantity conditions, jointly normalized."""

    q_constancy: float
    orthogonality: float
    edge: list[float]
    smooth: list[float]
    coefficient_spread: tuple[float, float, float]
    h: float

    @property
    def max_residual(self) -> float:
        pools = [self.q_constancy, self.orthogonality, *self.coefficient_spread]
        pools += self.edge + self.smooth
        return max(pools)


def conserved_quantity_residual(
    surface: SemiDiscreteSurface, cq: ConservedQuantity
) -> CqReport:
    """Certify p(t) = z t + q as a conserved quantity of the surface.

    Four residual groups, each divided by the joint scale of (z, q):
    constancy of q, orthogonality z perp xi, the edge equation
    d_{ij}z = (pi_i - pi_j) q / mu_{ij} with the line projections onto
    the edge lifts, and the smooth equation
    z' = 2 ((q,xi) xi' - (q,xi') xi) / (m (xi',xi')).  The spreads of
    the |z t + q|^2 coefficients (z,z), (z,q), (q,q) come on top.
    """
    if cq.degree != 1:
        raise GeometryError("only degree-1 conserved quantities are implemented")
    if len(cq.z) != surface.num_layers:
        raise DimensionError("conserved quantity needs one z field per curve")
    d = surface.n + 2
    grid = surface.grid
    for k, z_i in enumerate(cq.z):
        if z_i.shape != (grid.num, d):
            raise DimensionError(f"z[{k}] must be sampled in R^{{{surface.n}+1,1}}")

    if cq.q.ndim == 2:
        q0 = cq.q[0]
        q_constancy = float(np.max(np.linalg.norm(cq.q - q0, axis=1)))
    else:
        q0 = cq.q
        q_constancy = 0.0
    scale = max(
        max(float(np.max(np.linalg.norm(z_i, axis=1))) for z_i in cq.z),
        float(np.linalg.norm(q0)),
        1e-300,
    )
    q_constancy /= scale

    orthogonality = 0.0
    smooth = []
    for k, z_i in enumerate(cq.z):
        lift = surface.lift(k)
        rn = np.maximum(np.linalg.norm(lift.xi, axis=1), 1.0)
        orthogonality = max(
            orthogonality, float(np.max(np.abs(mk.inner(z_i, lift.xi)) / rn)) / scale
        )
        w = surface.m * mk.norm2(lift.xiprime)
        zp = derivative_samples(z_i, grid)
        qxi = mk.inner(np.broadcast_to(q0, lift.xi.shape), lift.xi)
        qxip = mk.inner(np.broadcast_to(q0, lift.xi.shape), lift.xiprime)
        rhs = (2.0 / w)[:, None] * (qxi[:, None] * lift.xiprime - qxip[:, None] * lift.xi)
        smooth.append(float(np.max(np.linalg.norm(zp - rhs, axis=1))) / scale)

    edge = []
    for i, mu_i in enumerate(surface.mu):
        xi_a, xi_b = surface.lift(i).xi, surface.lift(i + 1).xi
        pa = mk.projection_matrix(xi_a, xi_b)
        pb = mk.projection_matrix(xi_b, xi_a)
        rhs = np.einsum("kab,b->ka", pa - pb, q0) / mu_i
        lhs = cq.z[i + 1] - cq.z[i]
        edge.append(float(np.max(np.linalg.norm(lhs - rhs, axis=1))) / scale)

    all_zz = np.concatenate([mk.norm2(z_i) for z_i in cq.z])
    all_zq = np.concatenate(
        [mk.inner(z_i, np.broadcast_to(q0, z_i.shape)) for z_i in cq.z]
    )
    qq = float(mk.norm2(q0[None, :])[0])
    spread2 = float(np.max(all_zz) - np.min(all_zz)) / scale**2
    spread1 = float(np.max(all_zq) - np.min(all_zq)) / scale**2
    if cq.q.ndim == 2:
        qq_all = mk.norm2(cq.q)
        spread0 = float(np.max(qq_all) - np.min(qq_all)) / scale**2
    else:
        spread0 = 0.0
    h = -float(np.median(all_zq))
    return CqReport(
        q_constancy=q_constancy,
        orthogonality=orthogonality,
        edge=edge,
        smooth=smooth,
        coefficient_spread=(spread2, spread1, spread0),
        h=h,
    )


@dataclass
class TangentPlaneCongruence:
    """Unit normal fields lifted so that n is orthogonal to q and the lift."""

    fields: list[np.ndarray]


def tangent_congruence(
    surface: SemiDiscreteSurface, normals: list[np.ndarray]
) -> TangentPlaneCongruence:
    """Lift affine unit normals to the congruence n + (x . n) q.

    The lift keeps (n, n) = 1 and makes n orthogonal to both the frame
    vector q and the curve lifts; all three are validated.
    """
    if len(normals) != surface.num_layers:
        raise DimensionError("one normal field per curve is required")
    frame = mk.canonical_frame(surface.n)
    fields = []
    for k, raw in enumerate(normals):
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (surface.grid.num, surface.n):
            raise DimensionError(f"normals[{k}] must be affine (num, n) samples")
        unit_defect = np.max(np.abs(np.sum(raw * raw, axis=1) - 1.0))
        if unit_defect > CONGRUENCE_TOL:
            raise GeometryError(f"normals[{k}] are not unit vectors (defect {unit_defect:.2e})")
        x = surface.curves[k].x
        lifted = np.zeros((surface.grid.num, surface.n + 2))
        lifted[:, : surface.n] = raw
        lifted += np.sum(x * raw, axis=1)[:, None] * frame.q
        defect = max(
            float(np.max(np.abs(mk.norm2(lifted) - 1.0))),
            float(np.max(np.abs(mk.inner(lifted, np.broadcast_to(frame.q, lifted.shape))))),
            float(np.max(np.abs(mk.inner(lifted, surface.lift(k).xi)))),
        )
        if defect > CONGRUENCE_TOL:
            raise GeometryError(f"congruence invariants fail on curve {k} ({defect:.2e})")
        fields.append(lifted)
    return TangentPlaneCongruence(fields=fields)


def mean_curvature(
    surface: SemiDiscreteSurface, congruence: TangentPlaneCongruence
) -> np.ndarray:
    """Mixed-area mean curvature H = -A(x,n)/A(x,x), per edge and sample.

    The ratio is extracted by projecting A(x,n) onto A(x,x) in the
    induced 2-vector inner product; inputs whose elements are not
    parallel within PARALLEL_TOL are rejected, as are degenerate
    edges.
    """
    if len(congruence.fields) != surface.num_layers:
        raise DimensionError("congruence does not match the surface layers")
    grid = surface.grid
    out = np.empty((len(surface.mu), grid.num))
    for i in range(len(surface.mu)):
        la, lb = surface.lift(i), surface.lift(i + 1)
        x0 = SampledField(values=la.xi, prime=la.xiprime)
        x1 = SampledField(values=lb.xi, prime=lb.xiprime)
        n0 = _as_field(congruence.fields[i])
        n1 = _as_field(congruence.fields[i + 1])
        a_xx = mixed_area(x0, x1, x0, x1, grid)
        a_xn = mixed_area(x0, x1, n0, n1, grid)
        den = a_xx.pairing(a_xx)
        fro = a_xx.frobenius()
        if np.min(np.abs(den)) <= 1e-14 * max(float(np.max(fro)) ** 2, 1.0):
            raise DegenerateEdgeError(f"edge {i}: A(x,x) is degenerate")
        lam = a_xn.pairing(a_xx) / den
        resid = a_xn.values - lam[:, None, None] * a_xx.values
        mis = np.linalg.norm(resid, axis=(1, 2)) / np.maximum(
            a_xn.frobenius(), 1e-300
        )
        worst = float(np.max(mis))
        if worst > PARALLEL_TOL:
            raise NonConjugateError(worst)
        out[i] = -lam
    return out


@dataclass
class CmcCertificate:
    """Conserved quantity built from z = n + H x, with its residuals."""

    cq: ConservedQuantity
    report: CqReport
    h_recovered: float
    c: float
    c_spread: float
    z_norm_spread: float


def cmc_linear_cq(
    surface: SemiDiscreteSurface,
    congruence: TangentPlaneCongruence,
    h: float,
) -> CmcCertificate:
    """Linear conserved quantity of a CMC surface, z = n + H x.

    The constant q is c times the frame vector, with c recovered from
    the edge equation as the median of mu_{ij} (z_i, xi_j); the full
    conserved-quantity residuals then certify the construction.
    """
    if len(congruence.fields) != surface.num_layers:
        raise DimensionError("congruence does not match the surface layers")
    frame = mk.canonical_frame(surface.n)
    z = [
        congruence.fields[k] + h * surface.lift(k).xi
        for k in range(surface.num_layers)
    ]
    c_samples = []
    for i, mu_i in enumerate(surface.mu):
        c_samples.append(mu_i * mk.inner(z[i], surface.lift(i + 1).xi))
    if c_samples:
        stacked = np.concatenate(c_samples)
        c = float(np.median(stacked))
        c_spread = float(np.max(np.abs(stacked - c))) / max(abs(c), 1.0)
    else:
        c, c_spread = 0.0, 0.0
    cq = ConservedQuantity(z=z, q=c * frame.q, degree=1)
    report = conserved_quantity_residual(surface, cq)
    z_norm_spread = max(
        float(np.max(np.abs(mk.norm2(z_i) - 1.0))) for z_i in z
    )
    return CmcCertificate(
        cq=cq,
        report=report,
        h_recovered=report.h,
        c=c,
        c_spread=c_spread,
        z_norm_spread=z_norm_spread,
    )
