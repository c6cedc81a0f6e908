"""Command line interface.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
or data errors.  All residual tables are printed sorted by check name so
runs are reproducible and diffable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
import zlib

import numpy as np

from . import bianchi, clifford, cmc, fileio, fixtures, minkowski as mk, transforms
from .curves import Grid, PolarizedCurve, from_samples, make_circle, make_curve
from .darboux import (
    euclidean_section,
    gauge_apply,
    integrate_parallel_section,
    integrate_riccati,
    is_darboux_pair,
    tangent_cross_ratio,
)
from .errors import (
    DegenerateSecantError,
    GeometryError,
    PolarizationError,
    VerificationError,
)
from .surface import (
    EdgeReport,
    MoutardLift,
    SemiDiscreteSurface,
    build_surface,
    calapso_trivialization_residuals,
    check_isothermic,
    moutard_lift,
    position_derived,
    surface_calapso,
    surface_christoffel,
    surface_darboux,
    surface_flatness,
)

# Default tolerance per named check.  --tol-override check=value replaces
# individual entries for one run.
TOLERANCES = {
    "bigauge-identity": 1e-10,
    "calapso-composition": 1e-5,
    "calapso-intertwine": 1e-5,
    "calapso-metric-drift": 1e-8,
    "calapso-permute-parameter": 1e-5,
    "calapso-transported-constancy": 1e-6,
    "clifford-complex-cross-ratio": 1e-12,
    "clifford-cross-ratio-invariance": 1e-10,
    "clifford-vector-inverse": 1e-12,
    "cmc-conserved-quantity": 1e-6,
    "cmc-koenigs": 1e-6,
    "cmc-mean-curvature-spread": 1e-8,
    "cmc-mean-curvature-value": 1e-8,
    "cmc-unit-z": 1e-10,
    "concentric-cross-ratio": 1e-12,
    "cube-routes": 1e-6,
    "darboux-ribaucour-contact": 1e-8,
    "dual-darboux-permute": 1e-7,
    "dual-edge-smooth": 1e-7,
    "dual-of-dual": 1e-9,
    "minkowski-lift-isotropy": 1e-12,
    "minkowski-lift-secant": 1e-10,
    "minkowski-lift-tangency": 1e-12,
    "mixed-area-dual": 1e-7,
    "mixed-area-negative": 1e-3,
    "moutard-area": 1e-7,
    "moutard-normalization": 1e-10,
    "moutard-pairing": 1e-8,
    "quad-cross-ratio": 1e-8,
    "quad-parallel-defining": 1e-6,
    "quad-parallel-other": 1e-6,
    "riccati-parallel-agreement": 1e-6,
    "riccati-parallel-order": 0.5,
    "surface-calapso-parameter": 1e-5,
    "surface-darboux-vertical": 1e-6,
    "surface-flatness": 1e-6,
    "surface-isothermic": 1e-6,
    "surface-trivialization": 1e-6,
    "tractrix-cross-ratio": 1e-8,
    "tractrix-polarization": 1e-8,
}

# Checks whose residual must EXCEED the bound (negative controls).
MIN_CHECKS = {"mixed-area-negative"}

# ---------------------------------------------------------------- parsing


def _finite_float(text: str) -> float:
    """A float option value; nan and inf would only fail deep in a transform."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_grid(text: str) -> Grid:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be s0:s1:N, got {text!r}")
    try:
        return Grid(_finite_float(parts[0]), _finite_float(parts[1]), int(parts[2]))
    except (ValueError, GeometryError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_point(text: str) -> np.ndarray:
    try:
        vals = [_finite_float(v) for v in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {exc}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("empty point")
    return np.asarray(vals)


def _parse_mu_list(text: str) -> list[float]:
    try:
        vals = [_finite_float(v) for v in text.split(",") if v]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad mu list {text!r}: {exc}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("empty mu list")
    return vals


def _parse_layers(text: str) -> list[tuple[float, np.ndarray]]:
    layers = []
    for chunk in text.split(";"):
        if not chunk:
            continue
        head, _, tail = chunk.partition(":")
        try:
            mu = _finite_float(head)
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"bad layer {chunk!r}: {exc}") from exc
        layers.append((mu, _parse_point(tail)))
    if not layers:
        raise argparse.ArgumentTypeError("empty layer list")
    return layers


def _parse_step_policy(text: str) -> int:
    if text == "grid":
        return 1
    if text.startswith("substep:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad step policy {text!r}") from exc
        if k < 1:
            raise argparse.ArgumentTypeError("substep count must be >= 1")
        return k
    raise argparse.ArgumentTypeError(f"step policy must be grid or substep:k, got {text!r}")


def _parse_seed(text: str) -> int:
    # numpy seeds must be non-negative; a negative one would raise in the run.
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _safe_t(mu: list[float]) -> float:
    # Strictly inside (0, min |mu|) so it collides with no edge parameter.
    return 0.618 * min(abs(v) for v in mu)


# ------------------------------------------------------------- check rows


class Checks:
    """Judges named residuals against their tolerances and collects the rows.

    The only code that compares a residual with a tolerance, and the one
    that lets a command write its result (``save``).  Each row is
    (check, where, residual, tolerance, pass); the tolerance comes from
    TOLERANCES unless a ``--tol-override check=value`` pair replaces it,
    and checks in MIN_CHECKS pass only when the residual exceeds it.
    """

    def __init__(self, tol_override: list[str] | None = None):
        self.rows: list[tuple[str, str, float, float, bool]] = []
        self.notes: list[str] = []
        self.tolerances = dict(TOLERANCES)
        for pair in tol_override or []:
            name, sep, value = pair.partition("=")
            if not sep:
                raise GeometryError(f"tol override must be check=value, got {pair!r}")
            if name not in TOLERANCES:
                raise GeometryError(f"tol override names unknown check {name!r}")
            try:
                tol = float(value)
            except ValueError as exc:
                raise GeometryError(f"bad tolerance {value!r} for {name}") from exc
            if not 0.0 < tol < float("inf"):
                raise GeometryError(f"tolerance for {name} must be finite and > 0, got {value!r}")
            self.tolerances[name] = tol

    def run(self, name: str, where: str, fn) -> None:
        """Record the residual fn() returns; a check that raises fails with inf."""
        tol = self.tolerances[name]
        try:
            residual = float(fn())
        except Exception as exc:  # a crashing check is a failed row, not a traceback
            detail = exc if isinstance(exc, GeometryError) else f"{type(exc).__name__}: {exc}"
            self.notes.append(f"{name} [{where}]: {detail}")
            self.rows.append((name, where, float("inf"), tol, False))
            return
        if name in MIN_CHECKS:
            passed = residual > tol
        else:
            passed = residual <= tol
        self.rows.append((name, where, residual, tol, passed))

    @property
    def ok(self) -> bool:
        return all(row[4] for row in self.rows)

    def failing(self) -> list[str]:
        """Sorted names of the checks with a failed row."""
        return sorted({row[0] for row in self.rows if not row[4]})

    def save(self, path: str | None, write, value, what: str) -> None:
        """Write value to path (when one is given) only if every row passed.

        A failed row raises VerificationError naming the failed checks,
        and nothing is written; otherwise prints 'wrote what -> path'.
        """
        if not self.ok:
            raise VerificationError("failed checks: " + ", ".join(self.failing()))
        if path:
            write(path, value)
            print(f"wrote {what} -> {path}")

    def sorted_rows(self):
        return sorted(self.rows, key=lambda row: (row[0], row[1]))

    def print_rows(self) -> None:
        """One 'check: residual (tol t) pass|FAIL' line per row, in run order."""
        for name, _where, residual, tol, passed in self.rows:
            print(f"{name}: {residual:.4e} (tol {tol:.1e}) {'pass' if passed else 'FAIL'}")
        for note in self.notes:
            print(f"note: {note}")

    def print_table(self) -> None:
        rows = self.sorted_rows()
        wc = max([len(r[0]) for r in rows] + [5])
        ww = max([len(r[1]) for r in rows] + [5])
        print(f"{'check':<{wc}}  {'where':<{ww}}  {'residual':>12}  {'tolerance':>12}  status")
        for name, where, residual, tol, passed in rows:
            status = "pass" if passed else "FAIL"
            print(f"{name:<{wc}}  {where:<{ww}}  {residual:>12.4e}  {tol:>12.4e}  {status}")
        for note in self.notes:
            print(f"note: {note}")
        failing = self.failing()
        if failing:
            print("failed checks: " + ", ".join(failing))
        else:
            print(f"all {len(rows)} checks passed")


# --------------------------------------------------------------- fixtures


def _noisy_layer(surface: SemiDiscreteSurface, noisy) -> SemiDiscreteSurface:
    curves = list(surface.curves)
    curves[1] = noisy(curves[1])
    return SemiDiscreteSurface(curves=curves, mu=list(surface.mu))


def _noisy_cmc(fx: fixtures.CmcFixture, noisy) -> fixtures.CmcFixture:
    return dataclasses.replace(fx, surface=_noisy_layer(fx.surface, noisy))


# Fixture name -> (builder, corruption).  A corruption gets the built
# fixture and a function that adds seeded noise to one curve.
FIXTURES = {
    "unit-circle": (fixtures.unit_circle, lambda c, noisy: noisy(c)),
    "concentric": (fixtures.concentric_pair, lambda pair, noisy: (pair[0], noisy(pair[1]))),
    "tractrix": (fixtures.tractrix_circle_pair, lambda pair, noisy: (pair[0], noisy(pair[1]))),
    "cylinder-patch": (fixtures.cylinder_patch, _noisy_layer),
    "three-layer": (fixtures.three_layer, _noisy_layer),
    "cmc-cylinder": (fixtures.cmc_round_cylinder, _noisy_cmc),
    "flat-strip": (fixtures.flat_strip, _noisy_cmc),
}

CORRUPTIBLE = tuple(FIXTURES)


class FixturePool:
    """Builds named fixtures on demand, optionally corrupting one of them."""

    def __init__(self, corrupt: str | None = None, seed: int = 0):
        if corrupt is not None and corrupt not in FIXTURES:
            raise GeometryError(
                f"unknown fixture {corrupt!r}; choose from {', '.join(CORRUPTIBLE)}"
            )
        self.corrupt = corrupt
        self.seed = seed
        self._cache: dict[str, object] = {}

    def _noisy(self, curve: PolarizedCurve) -> PolarizedCurve:
        return fixtures.perturb_curve(curve, scale=1e-3, seed=self.seed)

    def get(self, name: str):
        if name not in self._cache:
            build, corrupt = FIXTURES[name]
            value = build()
            if name == self.corrupt:
                value = corrupt(value, self._noisy)
            self._cache[name] = value
        return self._cache[name]


# ----------------------------------------------------------------- suites


def _darboux_agreement(N: int) -> float:
    grid = Grid(0.0, 1.0, N)
    c = make_circle(1.0, grid)
    p0 = np.array([2.0, 0.0])
    riccati = integrate_riccati(c, -2.0, p0)
    section = integrate_parallel_section(c, -2.0, mk.euclidean_lift(p0))
    projected = section.to_curve(c.m)
    return float(np.max(np.linalg.norm(riccati.x - projected.x, axis=1)))


def _suite_clifford(checks: Checks, rng: np.random.Generator, ctx) -> None:
    def complex_route():
        # Points in the (e_i, e_j) plane of R^n against complex arithmetic,
        # e_i e_j acting as i: the product a b is conj(a) b, and the cross
        # ratio's scalar part and 2-vector norm are the real part and |imaginary
        # part| of (z1-z2)(z3-z4)/((z2-z3)(z4-z1)).
        worst = 0.0
        for n, i, j in ((2, 0, 1), (3, 0, 2), (5, 2, 4)):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            pts = np.zeros((4, n))
            pts[:, i], pts[:, j] = z.real, z.imag
            real, wedge = clifford.vector_product(pts[0], pts[1])
            ab = np.conj(z[0]) * z[1]
            expected = np.zeros_like(wedge)
            expected[j * (j - 1) // 2 + i] = ab.imag  # e_i e_j's place in blade order
            gap = max(abs(real - ab.real), float(np.max(np.abs(wedge - expected))))
            worst = max(worst, gap / abs(ab))
            real, wedge = clifford.cross_ratio(*pts)
            cr = (z[0] - z[1]) * (z[2] - z[3]) / ((z[1] - z[2]) * (z[3] - z[0]))
            gap = max(abs(real - cr.real), abs(clifford.wedge_norm(wedge) - abs(cr.imag)))
            worst = max(worst, gap / abs(cr))
        return worst

    def inverse():
        worst = 0.0
        for n in (2, 3, 4, 5):
            x = rng.standard_normal(n) + 0.5
            real, wedge = clifford.vector_product(x, clifford.vector_inverse(x))
            worst = max(worst, abs(float(real) - 1.0), float(np.max(np.abs(wedge))))
        return worst

    def cross_ratio_invariance():
        # Inversion in the sphere |x - c| = 1.7 conjugates the cross ratio:
        # its scalar part and the norm of its 2-vector are invariant.
        pts = rng.standard_normal((4, 3)) * 2.0
        c = rng.standard_normal(3)
        d = pts - c
        images = c + 1.7**2 * d / np.sum(d * d, axis=1)[:, None]
        (r0, w0), (r1, w1) = (clifford.cross_ratio(*p) for p in (pts, images))
        n0, n1 = clifford.wedge_norm(w0), clifford.wedge_norm(w1)
        return float(max(abs(r0 - r1), abs(n0 - n1)) / np.hypot(r0, n0))

    checks.run("clifford-complex-cross-ratio", "random-planar-points", complex_route)
    checks.run("clifford-vector-inverse", "random-vectors", inverse)
    checks.run("clifford-cross-ratio-invariance", "random-points", cross_ratio_invariance)


def _suite_minkowski(checks: Checks, rng: np.random.Generator, ctx) -> None:
    x = rng.standard_normal((64, 3)) * 2.0
    xi = mk.euclidean_lift(x)

    checks.run(
        "minkowski-lift-isotropy",
        "random-points",
        lambda: float(np.max(np.abs(mk.norm2(xi)))),
    )

    def secant():
        i, j = np.arange(0, 32), np.arange(32, 64)
        lhs = mk.inner(xi[i], xi[j])
        rhs = -0.5 * np.sum((x[i] - x[j]) ** 2, axis=1)
        return float(np.max(np.abs(lhs - rhs)))

    checks.run("minkowski-lift-secant", "random-points", secant)

    def tangency():
        xp = rng.standard_normal((64, 3))
        return float(np.max(np.abs(mk.inner(xi, mk.lift_derivative(x, xp)))))

    checks.run("minkowski-lift-tangency", "random-points", tangency)


def _suite_darboux(checks: Checks, rng: np.random.Generator, ctx) -> None:
    pool = ctx["pool"]

    c = pool.get("unit-circle")
    p0 = np.array([2.0, 0.0])
    riccati = integrate_riccati(c, -2.0, p0, substeps=ctx["substeps"])
    section = integrate_parallel_section(
        c, -2.0, mk.euclidean_lift(p0), substeps=ctx["substeps"]
    )
    projected = section.to_curve(c.m)
    checks.run(
        "riccati-parallel-agreement",
        "unit-circle",
        lambda: float(np.max(np.linalg.norm(riccati.x - projected.x, axis=1))),
    )

    def order():
        ratio = _darboux_agreement(101) / _darboux_agreement(201)
        return abs(np.log2(ratio) - 4.0)

    checks.run("riccati-parallel-order", "unit-circle", order)

    # The Riccati output's own derivative is the ODE right-hand side, for
    # which the cross ratio is real by algebra; certify the positions.
    checks.run(
        "darboux-ribaucour-contact",
        "unit-circle",
        lambda: is_darboux_pair(c, from_samples(riccati.x, c.grid, c.m)).reality,
    )

    a, b = pool.get("concentric")

    def concentric():
        real, wedge = tangent_cross_ratio(a, b)
        return max(
            float(np.max(np.abs(real + 2.0))),
            float(np.max(clifford.wedge_norm(wedge))),
        )

    checks.run("concentric-cross-ratio", "concentric", concentric)

    y, yhat = pool.get("tractrix")
    cr = tangent_cross_ratio(y, yhat)[0]
    checks.run(
        "tractrix-cross-ratio",
        "tractrix",
        lambda: float(np.max(np.abs(cr - 0.5))),
    )
    checks.run(
        "tractrix-polarization",
        "tractrix",
        lambda: float(np.max(np.abs(0.25 / cr - 0.5))),
    )


def _quad_checks(
    checks: Checks, curve: PolarizedCurve, sec0, sec1, mu0: float, mu1: float, where: str
):
    """The Bianchi quad of two sections and its three certificate rows; returns (quad, report)."""
    quad = bianchi.bianchi_quad(curve, sec0, sec1, mu0, mu1)
    report = bianchi.check_quad(curve, sec0, sec1, quad, mu0, mu1)
    checks.run("quad-parallel-defining", where, lambda: report.parallel_residual_defining)
    checks.run("quad-parallel-other", where, lambda: report.parallel_residual_other)
    checks.run("quad-cross-ratio", where, lambda: report.cross_ratio_spread)
    return quad, report


def _suite_bianchi(checks: Checks, rng: np.random.Generator, ctx) -> None:
    pool = ctx["pool"]
    substeps = ctx["substeps"]
    c = pool.get("unit-circle")

    sec0 = integrate_parallel_section(c, -2.0, mk.euclidean_lift(np.array([2.0, 0.0])), substeps=substeps)
    sec1 = integrate_parallel_section(c, 1.0, mk.euclidean_lift(np.array([0.3, -0.4])), substeps=substeps)
    _quad_checks(checks, c, sec0, sec1, -2.0, 1.0, "unit-circle")

    def bigauge():
        # Quads are drawn as null points in R^{n+1,1}, n = 2, 3, 4, 5 in
        # turn: the base on the unit sphere, the two transforms at radius
        # 1.5-2.5, the fourth vertex by the gauge bianchi_quad applies.  A
        # sample near a pole, where two vertices nearly span one line (a
        # secant inner product vanishes), is dropped; a quad that loses
        # half of its samples is redrawn.  The range of t keeps it away
        # from 0, mu0 and mu1.
        def directions(n):
            v = rng.standard_normal((51, n))
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        worst = 0.0
        accepted = 0
        for _attempt in range(200):
            if accepted == 20:
                break
            n = 2 + accepted % 4
            mu0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
            mu1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
            t = rng.uniform(0.05, 0.9) * min(abs(mu0), abs(mu1))
            xi = mk.euclidean_lift(directions(n))
            xi0 = mk.euclidean_lift(rng.uniform(1.5, 2.5, (51, 1)) * directions(n))
            xi1 = mk.euclidean_lift(rng.uniform(1.5, 2.5, (51, 1)) * directions(n))
            points = np.stack([xi, xi0, xi1, gauge_apply(xi, xi0, 1.0 - mu1 / mu0, xi1)])
            unit = points / np.linalg.norm(points, axis=2, keepdims=True)
            gram = np.abs(mk.inner(unit[:, None], unit[None, :]))
            keep = np.min(gram[np.triu_indices(4, 1)], axis=0) >= 1e-2
            if 2 * np.count_nonzero(keep) < keep.size:
                continue
            gap = bianchi.check_bigauge(*points[:, keep], mu0, mu1, t)
            worst = max(worst, float(gap))
            accepted += 1
        if accepted < 20:
            raise GeometryError("could not sample 20 pole-free quads")
        return worst

    checks.run("bigauge-identity", "random-quads", bigauge)

    def cube_routes():
        # The first cube starts from the quad's own two sections.
        def section(mu, point):
            return integrate_parallel_section(c, mu, mk.euclidean_lift(point), substeps=substeps)

        triples = [(sec0, sec1, np.array([-1.5, 0.2]))]
        for _ in range(2):
            pts = []
            for _k in range(3):
                ang = rng.uniform(0, 6.28)
                pts.append(rng.uniform(1.4, 2.6) * np.array([np.cos(ang), np.sin(ang)]))
            triples.append((section(-2.0, pts[0]), section(1.0, pts[1]), pts[2]))
        worst = 0.0
        for s0, s1, p2 in triples:
            cube = bianchi.bianchi_cube(c, s0, s1, section(3.0, p2), -2.0, 1.0, 3.0)
            worst = max(worst, float(np.max(cube.route_gaps)))
        return worst

    checks.run("cube-routes", "unit-circle", cube_routes)


def _suite_calapso(checks: Checks, rng: np.random.Generator, ctx) -> None:
    pool = ctx["pool"]
    substeps = ctx["substeps"]
    c = pool.get("unit-circle")

    checks.run(
        "calapso-metric-drift",
        "unit-circle",
        lambda: transforms.integrate_calapso(c, 0.7, substeps=substeps).metric_drift(),
    )

    section = integrate_parallel_section(
        c, -2.0, mk.euclidean_lift(np.array([2.0, 0.0])), substeps=substeps
    )

    def transported():
        frames = transforms.integrate_calapso(c, -2.0, substeps=substeps)
        return transforms.transported_section_drift(frames, section)

    checks.run("calapso-transported-constancy", "unit-circle", transported)

    checks.run(
        "calapso-composition",
        "unit-circle",
        lambda: transforms.verify_calapso_composition(c, 0.4, 0.3, substeps=substeps),
    )

    hat = section.to_curve(c.m)
    checks.run(
        "calapso-intertwine",
        "unit-circle",
        lambda: transforms.verify_calapso_intertwine(c, hat, -2.0, 0.5, substeps=substeps),
    )

    def permute():
        new_base, new_hat = transforms.calapso_darboux_permute(c, hat, -2.0, 0.7, substeps=substeps)
        fit = is_darboux_pair(new_base, new_hat)
        return abs(fit.mu - (-2.0 - 0.7))

    checks.run("calapso-permute-parameter", "unit-circle", permute)


def _suite_christoffel(checks: Checks, rng: np.random.Generator, ctx) -> None:
    pool = ctx["pool"]
    c = pool.get("unit-circle")

    def dual_of_dual():
        dual = transforms.christoffel_dual(c)
        again = transforms.christoffel_dual(dual)
        return float(np.max(np.abs(again.xprime - c.xprime)) / np.max(np.abs(c.xprime)))

    checks.run("dual-of-dual", "unit-circle", dual_of_dual)

    def permute_square():
        hat = integrate_riccati(c, -2.0, np.array([2.0, 0.0]), substeps=ctx["substeps"])
        dual = transforms.christoffel_dual(c)
        hatstar = transforms.christoffel_darboux_permute(c, dual, hat, -2.0)
        fit = is_darboux_pair(dual, hatstar)
        return max(transforms.dual_defect(hat, hatstar), fit.spread, abs(fit.mu + 2.0))

    checks.run("dual-darboux-permute", "unit-circle", permute_square)

    patch = pool.get("cylinder-patch")
    dual_surface, consistency = surface_christoffel(patch)
    checks.run("dual-edge-smooth", "cylinder-patch", lambda: max(consistency))

    x_fields = [patch.lift(k) for k in range(patch.num_layers)]
    checks.run(
        "mixed-area-dual",
        "cylinder-patch",
        lambda: cmc.is_christoffel_pair_mixed_area(x_fields, cmc.lifted_christoffel_dual(patch)),
    )
    checks.run(
        "mixed-area-negative",
        "cylinder-patch",
        lambda: cmc.is_christoffel_pair_mixed_area(
            x_fields, [dual_surface.lift(k) for k in range(dual_surface.num_layers)]
        ),
    )


def _edge_checks(checks: Checks, surface: SemiDiscreteSurface) -> list[EdgeReport]:
    """One surface-isothermic row per edge, at 'edge k'."""
    edges = check_isothermic(surface).edges
    for k, edge in enumerate(edges):
        checks.run("surface-isothermic", f"edge {k}", lambda e=edge: e.residual)
    return edges


def _isothermic_check(checks: Checks, surface: SemiDiscreteSurface, where: str) -> None:
    checks.run(
        "surface-isothermic",
        where,
        lambda: max(e.residual for e in check_isothermic(surface).edges),
    )


def _surface_checks(checks: Checks, surface: SemiDiscreteSurface, where: str, ctx) -> None:
    """Invariant checks against one surface; used for fixtures and user files."""
    if not surface.mu:
        checks.notes.append(f"edge checks skipped [{where}]: a one-curve surface has no edges")
        return
    _isothermic_check(checks, surface, where)
    t = _safe_t(surface.mu)
    checks.run(
        "surface-flatness",
        where,
        lambda: max(surface_flatness(surface, t)),
    )
    checks.run(
        "surface-trivialization",
        where,
        lambda: max(calapso_trivialization_residuals(surface, t, substeps=ctx["substeps"])),
    )


def _moutard_checks(checks: Checks, surface: SemiDiscreteSurface, where: str) -> MoutardLift:
    """Normalization of every Moutard-lifted curve, pairing and area of every edge."""
    lift = moutard_lift(surface)
    checks.run("moutard-normalization", where, lambda: max(lift.normalization_residual))
    if not surface.mu:
        checks.notes.append(
            f"moutard pairing and area skipped [{where}]: a one-curve surface has no edges"
        )
        return lift
    checks.run("moutard-pairing", where, lambda: max(lift.pairing_residual))
    checks.run("moutard-area", where, lambda: max(lift.area_residual))
    return lift


def _cmc_checks(checks: Checks, fx: fixtures.CmcFixture, where: str):
    """Mean curvature, conserved quantity and Koenigs certificates of one fixture.

    Returns the cached callables giving the mean curvature samples and the
    conserved-quantity certificate; each is computed once when it succeeds.
    """
    surface = fx.surface
    congruence = fx.congruence()
    curvature = functools.cache(lambda: cmc.mean_curvature(surface, congruence))
    certificate = functools.cache(lambda: cmc.cmc_linear_cq(surface, congruence, fx.h))
    checks.run(
        "cmc-mean-curvature-spread",
        where,
        lambda: np.max(np.abs(curvature() - np.median(curvature()))),
    )
    checks.run(
        "cmc-mean-curvature-value", where, lambda: abs(float(np.median(curvature())) - fx.h)
    )
    checks.run("cmc-conserved-quantity", where, lambda: certificate().report.max_residual)
    checks.run("cmc-unit-z", where, lambda: certificate().z_norm_spread)
    try:
        fields, nu = cmc.koenigs_dual(surface)
    except PolarizationError as exc:
        checks.notes.append(f"koenigs dual unavailable: {exc}")
    else:
        checks.run(
            "cmc-koenigs",
            where,
            lambda: cmc.verify_koenigs(
                [surface.lift(k) for k in range(surface.num_layers)], fields, nu
            ).max_residual,
        )
    return curvature, certificate


def _calapso_parameter(surface: SemiDiscreteSurface, moved: SemiDiscreteSurface, t: float) -> float:
    """Worst gap of the moved surface's fitted edge parameters from mu - t (0 with no edges)."""
    report = check_isothermic(moved)
    return max((abs(e.mu - (v - t)) for e, v in zip(report.edges, surface.mu)), default=0.0)


def _suite_surface(checks: Checks, rng: np.random.Generator, ctx) -> None:
    pool = ctx["pool"]
    patch = pool.get("cylinder-patch")
    _surface_checks(checks, patch, "cylinder-patch", ctx)
    _isothermic_check(checks, position_derived(pool.get("three-layer")), "three-layer")

    def vertical():
        hat = surface_darboux(patch, -3.0, np.array([0.0, 3.0]), substeps=ctx["substeps"])
        worst = 0.0
        for layer, hat_layer in zip(patch.curves, hat.curves):
            fit = is_darboux_pair(layer, hat_layer)
            worst = max(worst, fit.spread, abs(fit.mu + 3.0))
        return worst

    checks.run("surface-darboux-vertical", "cylinder-patch", vertical)

    checks.run(
        "surface-calapso-parameter",
        "cylinder-patch",
        lambda: _calapso_parameter(
            patch, surface_calapso(patch, 0.4, substeps=ctx["substeps"]), 0.4
        ),
    )


def _suite_moutard(checks: Checks, rng: np.random.Generator, ctx) -> None:
    pool = ctx["pool"]
    _moutard_checks(checks, pool.get("cylinder-patch"), "cylinder-patch")
    _moutard_checks(checks, pool.get("cmc-cylinder").surface, "cmc-cylinder")


def _suite_cmc(checks: Checks, rng: np.random.Generator, ctx) -> None:
    pool = ctx["pool"]
    for where in ("cmc-cylinder", "flat-strip"):
        _cmc_checks(checks, pool.get(where), where)


SUITES = {
    "clifford": _suite_clifford,
    "minkowski": _suite_minkowski,
    "darboux": _suite_darboux,
    "bianchi": _suite_bianchi,
    "calapso": _suite_calapso,
    "christoffel": _suite_christoffel,
    "surface": _suite_surface,
    "moutard": _suite_moutard,
    "cmc": _suite_cmc,
}

SUITE_NAMES = tuple(SUITES)


# --------------------------------------------------------------- commands


def cmd_curve(args) -> int:
    given = {name: getattr(args, name) for name in ("radius", "pitch", "n", "m")}
    params = {name: value for name, value in given.items() if value is not None}
    curve = make_curve(args.family, args.grid, **params)
    fileio.save_curve(args.out, curve)
    print(f"wrote {args.family} curve: n={curve.n} N={curve.grid.num} h={curve.grid.h:.6g} -> {args.out}")
    return 0


def cmd_darboux(args) -> int:
    checks = Checks(args.tol_override)
    if args.mu == 0.0:
        raise GeometryError("--mu must be nonzero: mu = 0 gives a constant curve")
    curve = fileio.load_curve(args.infile)
    point = args.init
    if point.shape != (curve.n,):
        raise GeometryError(f"--init needs {curve.n} components, got {point.shape[0]}")
    gap = float(np.linalg.norm(point - curve.x[0]))
    if gap < 1e-8 * max(1.0, float(np.max(np.abs(curve.x)))):
        raise DegenerateSecantError("--init coincides with the curve start")
    if args.route == "riccati":
        hat = integrate_riccati(curve, args.mu, point, substeps=args.step_policy)
    else:
        section = integrate_parallel_section(
            curve, args.mu, mk.euclidean_lift(point), substeps=args.step_policy
        )
        hat = section.to_curve(curve.m)
    # Certify the positions, not the derivative the ODE gives hat.
    fit = is_darboux_pair(*position_derived(SemiDiscreteSurface([curve, hat], [args.mu])).curves)
    checks.run(
        "quad-cross-ratio",
        args.route,
        lambda: max(fit.spread, abs(fit.mu - args.mu) / abs(args.mu)),
    )
    checks.run("darboux-ribaucour-contact", args.route, lambda: fit.reality)
    if args.report:
        print(f"route: {args.route}")
        print(f"fitted mu: {fit.mu:.12g} (requested {args.mu:g})")
        print(f"cross ratio spread: {fit.spread:.4e}")
        print(f"ribaucour contact residual: {fit.reality:.4e}")
    checks.save(args.out, fileio.save_curve, hat, "transform")
    return 0


def cmd_bianchi(args) -> int:
    checks = Checks(args.tol_override)
    curve = fileio.load_curve(args.infile)
    mus = args.mu
    if len(mus) not in (2, 3):
        raise GeometryError("bianchi needs 2 (quad) or 3 (cube) mu values")
    points = args.points
    if points is None:  # planar defaults, zero-padded to the curve's dimension
        if curve.n < 2:
            raise GeometryError(f"the default points are planar; give --points in R^{curve.n}")
        points = np.zeros((len(mus), max(curve.n, 2)))
        points[:, :2] = [[2.0, 0.0], [0.3, -0.4], [-1.5, 0.2]][: len(mus)]
    if len(points) != len(mus):
        raise GeometryError(f"need {len(mus)} initial points, got {len(points)}")
    sections = [
        integrate_parallel_section(curve, mu, mk.euclidean_lift(p), substeps=args.step_policy)
        for mu, p in zip(mus, points)
    ]
    if len(mus) == 2:
        quad, report = _quad_checks(checks, curve, *sections, *mus, args.infile)
        print(f"quad mu: ({mus[0]:g}, {mus[1]:g}), cross ratio target {mus[1] / mus[0]:.12g}")
        print(f"cross ratio spread: {report.cross_ratio_spread:.4e}")
        print(f"parallel residual (defining): {report.parallel_residual_defining:.4e}")
        print(f"parallel residual (other edge): {report.parallel_residual_other:.4e}")
        checks.save(args.out, fileio.save_curve, quad.to_curve(curve.m), "fourth vertex curve")
    else:
        cube = bianchi.bianchi_cube(
            curve, sections[0], sections[1], sections[2], mus[0], mus[1], mus[2]
        )
        gaps = np.asarray(cube.route_gaps)
        print(f"cube mu: ({mus[0]:g}, {mus[1]:g}, {mus[2]:g})")
        print(f"route gaps (projective): {', '.join(f'{g:.4e}' for g in np.atleast_1d(gaps))}")
        print(f"max gap: {float(np.max(gaps)):.4e}")
        checks.run("cube-routes", args.infile, lambda: np.max(gaps))
        vertex = cube.vertex.to_curve(curve.m)
        checks.save(args.out, fileio.save_curve, vertex, "eighth vertex curve")
    return 0


def cmd_surface(args) -> int:
    checks = Checks(args.tol_override)
    if args.mode == "build":
        surface = build_surface(
            fileio.load_curve(args.infile), args.layers, substeps=args.step_policy
        )
        _edge_checks(checks, position_derived(surface))
        checks.print_table()
        what = f"surface with {surface.num_layers} layers"
        checks.save(args.out, fileio.save_surface, surface, what)
        return 0
    surface = fileio.load_surface(args.infile)
    if args.mode == "check":
        edges = _edge_checks(checks, surface)
        for k, (edge, row) in enumerate(zip(edges, checks.rows)):
            nu = "n/a" if edge.nu_residual is None else f"{edge.nu_residual:.4e}"
            print(
                f"edge {k}: mu={edge.mu:.9g} declared={edge.declared_mu:g} "
                f"spread={edge.spread:.4e} defect={edge.mu_defect:.4e} "
                f"nu={nu} {'pass' if row[4] else 'FAIL'}"
            )
        print("isothermic" if checks.ok else "NOT isothermic at tolerance")
        return 0 if checks.ok else 1
    lift = _moutard_checks(checks, surface, args.infile)
    checks.print_rows()
    print(f"lift signs: {lift.signs}")
    return 0 if checks.ok else 1


def cmd_dual(args) -> int:
    checks = Checks(args.tol_override)
    data = fileio.load_any(args.infile)
    if isinstance(data, PolarizedCurve):
        dual = transforms.christoffel_dual(data, substeps=args.step_policy)
        defect = transforms.dual_defect(data, dual)
        print(f"curve dual defect: {defect:.4e}")
        checks.run("dual-darboux-permute", args.infile, lambda: defect)
        write, kind = fileio.save_curve, "curve"
    else:
        dual, consistency = surface_christoffel(data, substeps=args.step_policy)
        for k, value in enumerate(consistency):
            print(f"edge {k}: edge/smooth consistency {value:.4e}")
            checks.run("dual-edge-smooth", f"edge {k}", lambda v=value: v)
        write, kind = fileio.save_surface, "surface"
    checks.save(args.out, write, dual, f"dual {kind}")
    return 0


def cmd_calapso(args) -> int:
    checks = Checks(args.tol_override)
    data = fileio.load_any(args.infile)
    if isinstance(data, PolarizedCurve):
        lift = euclidean_section(data)
        frames = transforms.integrate_calapso(lift, args.t, substeps=args.step_policy, m=data.m)
        moved = frames.move(lift).to_curve(data.m)
        print(f"calapso transform at t={args.t:g}: N={moved.grid.num}")
        checks.run("calapso-metric-drift", args.infile, frames.metric_drift)
        write = fileio.save_curve
    else:
        moved = surface_calapso(data, args.t, substeps=args.step_policy)
        print(f"calapso transform at t={args.t:g}: mu {list(data.mu)} -> {list(moved.mu)}")
        checks.run(
            "surface-calapso-parameter", args.infile, lambda: _calapso_parameter(data, moved, args.t)
        )
        write = fileio.save_surface
    checks.print_rows()
    checks.save(args.out, write, moved, "transform")
    return 0


def cmd_cmc(args) -> int:
    checks = Checks(args.tol_override)
    # --radius and --orientation shape the cylinder; the strip takes neither.
    shape = {name: getattr(args, name) for name in ("radius", "orientation")}
    shape = {name: value for name, value in shape.items() if value is not None}
    if args.fixture == "cylinder":
        fx = fixtures.cmc_round_cylinder(delta=args.delta, layers=args.layers, **shape)
    elif shape:
        names = ", ".join("--" + name for name in shape)
        raise GeometryError(f"the strip fixture takes no {names} (cylinder only)")
    else:
        fx = fixtures.flat_strip(delta=args.delta, layers=args.layers)
    curvature, certificate = _cmc_checks(checks, fx, args.fixture)
    h_med = float(np.median(curvature()))
    cert = certificate()
    print(f"fixture: {args.fixture}, H target {fx.h:g}, recovered {h_med:.12g}")
    print(f"conserved quantity scale c: {cert.c:.12g} (spread {cert.c_spread:.4e})")
    checks.print_rows()
    checks.save(args.out, fileio.save_surface, fx.surface, "fixture surface")
    return 0


def cmd_verify(args) -> int:
    checks = Checks(args.tol_override)
    ctx = {"substeps": args.step_policy}
    if args.surface:
        if args.corrupt is not None:
            raise GeometryError("--corrupt perturbs a fixture and does not apply to --surface")
        if args.seed is not None:
            raise GeometryError("--seed draws fixture samples and does not apply to --surface")
        if args.suite not in ("all", "surface", "moutard"):
            raise GeometryError(
                f"suite {args.suite!r} runs on fixtures; --surface takes all, surface or moutard"
            )
        surface = fileio.load_surface(args.surface)
        if args.suite in ("all", "surface"):
            _surface_checks(checks, surface, args.surface, ctx)
        if args.suite in ("all", "moutard"):
            try:
                _moutard_checks(checks, surface, args.surface)
            except PolarizationError as exc:
                checks.notes.append(f"moutard lift skipped: {exc}")
    else:
        seed = args.seed or 0
        ctx["pool"] = FixturePool(corrupt=args.corrupt, seed=seed)
        selected = SUITE_NAMES if args.suite == "all" else (args.suite,)
        for name in selected:
            # A generator per suite, so no suite's draws move another's samples.
            SUITES[name](checks, np.random.default_rng([seed, zlib.crc32(name.encode())]), ctx)

    checks.print_table()
    if args.csv:
        fileio.write_report_csv(args.csv, checks.sorted_rows())
        print(f"wrote report -> {args.csv}")
    return 0 if checks.ok else 1


def cmd_export(args) -> int:
    checks = Checks(args.tol_override)
    surface = fileio.load_surface(args.infile)
    if not args.obj and not args.csv:
        raise GeometryError("export needs --obj and/or --csv")
    if args.obj:
        fileio.export_obj(args.obj, surface)
        print(f"wrote mesh -> {args.obj}")
    if args.csv:
        _edge_checks(checks, surface)
        fileio.write_report_csv(args.csv, checks.sorted_rows())
        print(f"wrote report -> {args.csv}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    # Each shared option is a parent of exactly the commands that read it.
    step_policy = argparse.ArgumentParser(add_help=False)
    step_policy.add_argument(
        "--step-policy", type=_parse_step_policy, default=1, metavar="grid|substep:k",
        help="integration step policy (default: grid)",
    )
    tol_override = argparse.ArgumentParser(add_help=False)
    tol_override.add_argument(
        "--tol-override", action="append", metavar="check=value",
        help="replace the tolerance of one named check (repeatable)",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed", type=_parse_seed, default=None, help="seed for randomized checks (default 0)"
    )

    parser = argparse.ArgumentParser(
        prog="isothermic",
        description="Darboux transforms of polarized curves and semi-discrete isothermic surfaces.",
    )

    # No option of ours starts with a digit, so any -<digit>... token is a
    # value; the default matcher would reject composites like -2,1 or -2:2,0.
    negative_value = re.compile(r"^-\d")
    parser._negative_number_matcher = negative_value

    def add(sub, name, *parents, **kw):
        p = sub.add_parser(name, parents=list(parents), **kw)
        p._negative_number_matcher = negative_value
        return p

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = add(sub, "curve", help="write a named curve family to JSON")
    p.add_argument("--family", choices=("circle", "helix", "line"), required=True)
    p.add_argument("--radius", type=_finite_float, default=None)
    p.add_argument("--pitch", type=_finite_float, default=None)
    p.add_argument("--n", type=int, default=None, help="ambient dimension")
    p.add_argument("--m", type=_finite_float, default=None, help="constant polarization")
    p.add_argument("--grid", type=_parse_grid, default=Grid(0.0, 1.0, 1001), metavar="s0:s1:N")
    p.add_argument("--out", required=True)

    p = add(sub, "darboux", step_policy, tol_override, help="Darboux transform of a curve")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mu", type=_finite_float, required=True)
    p.add_argument("--init", type=_parse_point, required=True, metavar="x,y[,z]")
    p.add_argument("--route", choices=("parallel", "riccati"), default="parallel")
    p.add_argument("--out", default=None)
    p.add_argument("--report", action="store_true")

    p = add(sub, "bianchi", step_policy, tol_override, help="permutability quad or cube")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mu", type=_parse_mu_list, required=True, metavar="mu0,mu1[,mu2]")
    p.add_argument(
        "--points", type=lambda s: [_parse_point(c) for c in s.split(";") if c],
        default=None, metavar="x,y;x,y[;x,y]",
    )
    p.add_argument("--out", default=None)

    p = add(sub, "surface", help="build or check a layered surface")
    modes = p.add_subparsers(dest="mode", required=True, metavar="mode")
    p = add(modes, "build", step_policy, tol_override, help="stack Darboux layers on a curve")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--layers", type=_parse_layers, required=True, metavar="mu:x,y;mu:x,y")
    p.add_argument("--out", required=True)
    for mode, text in (("check", "certify every edge"), ("moutard", "certify the Moutard lift")):
        p = add(modes, mode, tol_override, help=text)
        p.add_argument("--in", dest="infile", required=True)

    p = add(sub, "dual", step_policy, tol_override, help="Christoffel dual of a curve or surface")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)

    p = add(
        sub, "calapso", step_policy, tol_override, help="Calapso transform of a curve or surface"
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--out", default=None)

    p = add(sub, "cmc", tol_override, help="mean curvature and conserved quantities")
    p.add_argument("--fixture", choices=("cylinder", "strip"), default="cylinder")
    p.add_argument("--radius", type=_finite_float, default=None, help="cylinder only (default 1)")
    p.add_argument("--delta", type=_finite_float, default=0.5)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument(
        "--orientation", choices=("inward", "outward"), default=None,
        help="cylinder only (default inward)",
    )
    p.add_argument("--out", default=None)

    p = add(sub, "verify", step_policy, tol_override, seed, help="run invariant suites")
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--surface", default=None, help="check a surface JSON file instead of fixtures")
    p.add_argument("--corrupt", choices=CORRUPTIBLE, default=None,
                   help="perturb one generated fixture to exercise failure paths")
    p.add_argument("--csv", default=None, help="also write the table as CSV")

    p = add(sub, "export", tol_override, help="write OBJ mesh or CSV report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--obj", default=None)
    p.add_argument("--csv", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # Looked up at call time, so a command rebound after the first
        # call (as a tracer or test does) is the one that runs.  A finite
        # but huge input overflows float64 somewhere inside; that is
        # reported as such, not as whatever the infinities break later.
        with np.errstate(over="raise"):
            return globals()[f"cmd_{args.command}"](args)
    except FloatingPointError as exc:
        print(f"error: {exc}: an input value is too large", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
