"""Acceptance checks, one per shipped capability.

Each test prints a single PASS/FAIL line (visible under pytest -s) with
the measured numbers, then asserts.  Tolerances are the contract; the
constructions deliberately reuse the public API only.
"""

import subprocess
import sys

import numpy as np
import pytest

import isothermic.minkowski as mk
from isothermic import cmc
from isothermic.bianchi import bianchi_cube, bianchi_quad, check_bigauge, check_quad
from isothermic.clifford import wedge_norm
from isothermic.curves import Grid, PolarizedCurve, make_circle, make_helix
from isothermic.darboux import (
    euclidean_section,
    integrate_parallel_section,
    integrate_riccati,
    is_darboux_pair,
    tangent_cross_ratio,
)
from isothermic.cli import main as cli_main
from isothermic.fixtures import (
    cmc_round_cylinder,
    concentric_pair,
    cylinder_patch,
    flat_strip,
    three_layer,
    tractrix_circle_pair,
    unit_circle,
)
from isothermic.surface import moutard_lift, surface_christoffel
from isothermic.transforms import (
    calapso_darboux_permute,
    christoffel_darboux_permute,
    christoffel_dual,
    dual_defect,
    integrate_calapso,
    transported_section_drift,
    verify_calapso_composition,
    verify_calapso_intertwine,
)

START = np.array([2.0, 0.0])
# Second and third initial points; a curve in R^n takes the first n entries.
POINT1 = np.array([0.3, -0.4, 0.5, -0.2, 0.1])
POINT2 = np.array([-1.5, 0.2, -0.3, 0.4, -0.1])
HIGHER = ["helix-n3", "fourier-n4", "fourier-n5"]


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _fourier_curve(n: int, seed: int, grid: Grid) -> PolarizedCurve:
    """Unit circle in R^n plus seeded harmonics 2 and 3 in every coordinate."""
    coef = 0.1 * np.random.default_rng(seed).standard_normal((n, 2, 2))
    s = grid.nodes()
    x = np.zeros((grid.num, n))
    xp = np.zeros_like(x)
    x[:, 0], x[:, 1] = np.cos(s), np.sin(s)
    xp[:, 0], xp[:, 1] = -np.sin(s), np.cos(s)
    for d in range(n):
        for j, k in enumerate((2, 3)):
            a, b = coef[d, j]
            x[:, d] += a * np.cos(k * s) + b * np.sin(k * s)
            xp[:, d] += k * (b * np.cos(k * s) - a * np.sin(k * s))
    return PolarizedCurve(n=n, grid=grid, x=x, xprime=xp, m=np.ones(grid.num))


def _higher_curve(name: str, num: int = 1001) -> PolarizedCurve:
    """A helix in R^3 or a seeded Fourier curve in R^4 or R^5, on [0, 1]."""
    grid = Grid(0.0, 1.0, num)
    if name == "helix-n3":
        return make_helix(1.0, 0.15, grid)
    n = int(name[-1])
    return _fourier_curve(n, n, grid)


def _route_gap(c: PolarizedCurve) -> float:
    start = 2.0 * c.x[0]
    par = integrate_parallel_section(c, -2.0, start).to_curve(c.m)
    ric = integrate_riccati(c, -2.0, start)
    return float(np.max(np.abs(par.x - ric.x)))


def _route_verdict(label, curve_on):
    """Route gap at N = 1001 (h = 1e-3) and its ratio from N = 101 to 201."""
    gap = _route_gap(curve_on(1001))
    ratio = _route_gap(curve_on(101)) / _route_gap(curve_on(201))
    ok = gap < 1e-6 and 12.0 < ratio < 20.0
    _verdict(1, label, ok, f"gap {gap:.2e}, halving ratio {ratio:.2f}")


def test_criterion_01_riccati_linear_system_equivalence():
    _route_verdict(
        "riccati/linear-system equivalence", lambda num: make_circle(1.0, Grid(0.0, 1.0, num))
    )


@pytest.mark.parametrize("name", HIGHER)
def test_criterion_01_riccati_higher_dimensions(name):
    _route_verdict(
        f"riccati/linear-system equivalence ({name})", lambda num: _higher_curve(name, num)
    )


def test_criterion_02_closed_form_darboux_pairs():
    a, b = concentric_pair()
    real, wedge = tangent_cross_ratio(a, b)
    conc = max(float(np.max(np.abs(real + 2.0))),
               float(np.max(wedge_norm(wedge))))

    ta, tb = tractrix_circle_pair()
    real_t, wedge_t = tangent_cross_ratio(ta, tb)
    trac = max(float(np.max(np.abs(real_t - 0.5))),
               float(np.max(wedge_norm(wedge_t))))
    m_gap = max(float(np.max(np.abs(ta.m - 0.5))), float(np.max(np.abs(tb.m - 0.5))))

    ok = conc < 1e-12 and trac < 1e-8 and m_gap < 1e-8
    _verdict(2, "closed-form Darboux pairs", ok,
             f"concentric spread {conc:.2e}, tractrix spread {trac:.2e}, m gap {m_gap:.2e}")


def _quad_verdict(label, c):
    s0 = integrate_parallel_section(c, -2.0, 2.0 * c.x[0])
    s1 = integrate_parallel_section(c, 1.0, POINT1[: c.n])
    quad = bianchi_quad(c, s0, s1, -2.0, 1.0)
    rep = check_quad(c, s0, s1, quad, -2.0, 1.0)
    ok = (
        rep.parallel_residual_defining < 1e-6
        and rep.parallel_residual_other < 1e-6
        and rep.cross_ratio_spread < 1e-8
    )
    _verdict(3, label, ok,
             f"parallel {rep.parallel_residual_defining:.2e}/{rep.parallel_residual_other:.2e}, "
             f"cross-ratio spread {rep.cross_ratio_spread:.2e}")


def test_criterion_03_bianchi_quad():
    _quad_verdict("Bianchi quad closes", unit_circle())


@pytest.mark.parametrize("name", HIGHER)
def test_criterion_03_bianchi_quad_higher_dimensions(name):
    _quad_verdict(f"Bianchi quad closes ({name})", _higher_curve(name))


def test_criterion_04_bigauge_identity():
    rng = np.random.default_rng(7)
    base = make_circle(1.0, Grid(0.0, 1.0, 51))
    xi = euclidean_section(base).xi

    def secant_margin(xis):
        worst = np.inf
        for i in range(4):
            for j in range(i + 1, 4):
                na = np.linalg.norm(xis[i], axis=1)
                nb = np.linalg.norm(xis[j], axis=1)
                worst = min(worst, float(np.min(np.abs(mk.inner(xis[i], xis[j])) / (na * nb))))
        return worst

    worst = 0.0
    accepted = 0
    for _ in range(200):
        if accepted == 20:
            break
        mu0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        mu1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        t = rng.uniform(0.05, 0.9) * min(abs(mu0), abs(mu1))
        angs = rng.uniform(0.0, 2.0 * np.pi, size=2)
        radii = rng.uniform(1.5, 2.5, size=2)
        s0 = integrate_parallel_section(base, mu0, radii[0] * np.array([np.cos(angs[0]), np.sin(angs[0])]))
        s1 = integrate_parallel_section(base, mu1, radii[1] * np.array([np.cos(angs[1]), np.sin(angs[1])]))
        quad = bianchi_quad(base, s0, s1, mu0, mu1)
        if secant_margin((xi, s0.xi, s1.xi, quad.xi)) < 1e-2:
            continue
        worst = max(worst, check_bigauge(xi, s0.xi, s1.xi, quad.xi, mu0, mu1, t))
        accepted += 1
    ok = accepted == 20 and worst < 1e-10
    _verdict(4, "bigauge identity on random quads", ok,
             f"{accepted} draws, worst residual {worst:.2e}")


def _cube_verdict(label, c, triples):
    worst = 0.0
    for p0, p1, p2 in triples:
        s0 = integrate_parallel_section(c, -2.0, p0)
        s1 = integrate_parallel_section(c, 1.0, p1)
        s2 = integrate_parallel_section(c, 3.0, p2)
        cube = bianchi_cube(c, s0, s1, s2, -2.0, 1.0, 3.0)
        worst = max(worst, float(np.max(cube.route_gaps)))
    ok = worst < 1e-6
    _verdict(5, label, ok, f"worst gap {worst:.2e}")


def test_criterion_05_cube_consistency():
    c = unit_circle()
    rng = np.random.default_rng(11)
    triples = [(START, POINT1[:2], POINT2[:2])]
    for _ in range(10):
        pts = []
        for _k in range(3):
            ang = rng.uniform(0.0, 2.0 * np.pi)
            pts.append(rng.uniform(1.4, 2.6) * np.array([np.cos(ang), np.sin(ang)]))
        triples.append(tuple(pts))
    _cube_verdict("cube routes agree projectively", c, triples)


@pytest.mark.parametrize("name", HIGHER)
def test_criterion_05_cube_higher_dimensions(name):
    c = _higher_curve(name)
    rng = np.random.default_rng(11)
    triples = [(2.0 * c.x[0], POINT1[: c.n], POINT2[: c.n])]
    for _ in range(10):
        # three points at radius 1.4..2.6 in random directions of R^n
        dirs = rng.standard_normal((3, c.n))
        radii = rng.uniform(1.4, 2.6, size=3)
        triples.append(tuple(radii[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)))
    _cube_verdict(f"cube routes agree projectively ({name})", c, triples)


def _calapso_residuals(c, start):
    """Drift, transported constancy, composition, intertwine and shift residuals."""
    frames = integrate_calapso(c, 0.7)
    g = mk.metric_matrix(c.n)
    gram = np.einsum("kia,ij,kjb->kab", frames.T, g, frames.T)
    drift = float(np.max(np.abs(gram - g)))

    section = integrate_parallel_section(c, -2.0, start)
    frames_mu = integrate_calapso(c, -2.0)
    constancy = transported_section_drift(frames_mu, section)

    composition = verify_calapso_composition(c, 0.4, 0.3)
    hat = integrate_riccati(c, -2.0, start)
    intertwine = verify_calapso_intertwine(c, hat, -2.0, 0.5)

    new_base, new_hat = calapso_darboux_permute(c, hat, -2.0, 0.7)
    shift = abs(is_darboux_pair(new_base, new_hat).mu - (-2.7))
    return drift, constancy, composition, intertwine, shift


def _calapso_verdict(label, residuals):
    drift, constancy, composition, intertwine, shift = residuals
    ok = (
        drift < 1e-8
        and constancy < 1e-6
        and composition < 1e-5
        and intertwine < 1e-5
        and shift < 1e-5
    )
    _verdict(6, label, ok,
             f"drift {drift:.2e}, transported {constancy:.2e}, composition {composition:.2e}, "
             f"intertwine {intertwine:.2e}, parameter shift defect {shift:.2e}")


def test_criterion_06_calapso():
    _calapso_verdict("Calapso transform", _calapso_residuals(unit_circle(), START))


@pytest.mark.parametrize("name", HIGHER)
def test_criterion_06_calapso_higher_dimensions(name):
    c = _higher_curve(name)
    _calapso_verdict(f"Calapso transform ({name})", _calapso_residuals(c, 2.0 * c.x[0]))


def test_criterion_07_christoffel():
    c = unit_circle()
    dual = christoffel_dual(c)
    again = christoffel_dual(dual)
    dd = float(np.max(np.abs(again.xprime - c.xprime)))

    hat = integrate_riccati(c, -2.0, START)
    hatstar = christoffel_darboux_permute(c, dual, hat, -2.0)
    fit = is_darboux_pair(dual, hatstar)
    double = max(dual_defect(hat, hatstar), fit.spread, abs(fit.mu + 2.0))

    patch = cylinder_patch()
    _, consistency = surface_christoffel(patch)
    edge_smooth = max(consistency)

    x_fields = [patch.lift(k) for k in range(patch.num_layers)]
    on_dual = cmc.is_christoffel_pair_mixed_area(x_fields, cmc.lifted_christoffel_dual(patch))
    affine_dual, _ = surface_christoffel(patch)
    z_fields = [affine_dual.lift(k) for k in range(affine_dual.num_layers)]
    negative = cmc.is_christoffel_pair_mixed_area(x_fields, z_fields)

    ok = dd < 1e-9 and double < 1e-7 and edge_smooth < 1e-7 and on_dual < 1e-7 and negative > 1e-3
    _verdict(7, "Christoffel duality", ok,
             f"dual-of-dual {dd:.2e}, double certificate {double:.2e}, edge/smooth {edge_smooth:.2e}, "
             f"mixed-area {on_dual:.2e} vs negative control {negative:.2e}")


def test_criterion_08_moutard_normalization():
    area = 0.0
    pairing = 0.0
    for surface in (cylinder_patch(), three_layer()):
        lift = moutard_lift(surface)
        area = max(area, max(lift.area_residual))
        pairing = max(pairing, max(lift.pairing_residual))
    ok = area < 1e-7 and pairing < 1e-8
    _verdict(8, "Moutard lift", ok, f"self mixed-area {area:.2e}, pairing {pairing:.2e}")


def test_criterion_09_cmc():
    worst = {"spread": 0.0, "cq": 0.0, "unit": 0.0, "koenigs": 0.0}
    for fix in (cmc_round_cylinder(), flat_strip()):
        surface = fix.surface
        h = cmc.mean_curvature(surface, fix.congruence())
        worst["spread"] = max(worst["spread"], float(np.max(h) - np.min(h)))
        cert = cmc.cmc_linear_cq(surface, fix.congruence(), fix.h)
        report = cert.report
        four = max(report.q_constancy, report.orthogonality, max(report.edge), max(report.smooth))
        worst["cq"] = max(worst["cq"], four)
        worst["unit"] = max(worst["unit"], cert.z_norm_spread)
        fields, nu = cmc.koenigs_dual(surface)
        x_fields = [surface.lift(k) for k in range(surface.num_layers)]
        kreport = cmc.verify_koenigs(x_fields, fields, nu)
        worst["koenigs"] = max(worst["koenigs"], kreport.max_residual)
    ok = (
        worst["spread"] < 1e-8
        and worst["cq"] < 1e-6
        and worst["unit"] < 1e-10
        and worst["koenigs"] < 1e-6
    )
    _verdict(9, "CMC certificates", ok,
             f"H spread {worst['spread']:.2e}, conserved quantity {worst['cq']:.2e}, "
             f"|z|^2 drift {worst['unit']:.2e}, Koenigs {worst['koenigs']:.2e}")


def test_criterion_10_cli_verify_and_corruption(capsys):
    # The clean run goes through the module entry point in a fresh
    # interpreter; the corrupted runs call the same main() in-process.
    clean = subprocess.run(
        [sys.executable, "-m", "isothermic.cli", "verify", "--suite", "all"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    ok = clean.returncode == 0
    detail = [f"clean rc {clean.returncode}"]

    corruptions = {
        "unit-circle": ("darboux", "riccati-parallel-agreement"),
        "concentric": ("darboux", "concentric-cross-ratio"),
        "tractrix": ("darboux", "tractrix-cross-ratio"),
        "cylinder-patch": ("surface", "surface-isothermic"),
        "three-layer": ("surface", "surface-isothermic"),
        "cmc-cylinder": ("cmc", "cmc-mean-curvature-value"),
        "flat-strip": ("cmc", "cmc-mean-curvature-value"),
    }
    for fixture, (suite, expected) in corruptions.items():
        rc = cli_main(["verify", "--suite", suite, "--corrupt", fixture])
        named = any(
            line.startswith("failed checks") and expected in line
            for line in capsys.readouterr().out.splitlines()
        )
        ok = ok and rc == 1 and named
        detail.append(f"{fixture} rc {rc}{'' if named else ' UNNAMED'}")
    _verdict(10, "CLI verification detects corruption", ok, ", ".join(detail))
