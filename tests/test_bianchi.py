"""Permutability tests: quads, the bigauge identity, cubes.

Core claims:
    - the algebraic fourth vertex is a parallel section along both edges
      and closes the quad with cross ratio mu1/mu0
    - the two-gauge factorization of the quad holds identically in t
    - three routes around the cube land on the same eighth vertex; the
      cube lifts its base once, and each face is the quad over the curve
"""

import numpy as np
import pytest

import isothermic.bianchi as bianchi
import isothermic.minkowski as mk
from isothermic.bianchi import (
    bianchi_cube,
    bianchi_quad,
    check_bigauge,
    check_quad,
    moebius_cross_ratio,
)
from isothermic.curves import Grid, make_circle
from isothermic.darboux import (
    LightConeSection,
    euclidean_section,
    gauge_apply,
    integrate_parallel_section,
)
from isothermic.errors import GeometryError, NonComplementaryLinesError
from isothermic.fixtures import unit_circle


def _sections(curve, mus, points, substeps=1):
    return [
        integrate_parallel_section(curve, mu, mk.euclidean_lift(p), substeps=substeps)
        for mu, p in zip(mus, points)
    ]


def test_quad_parallel_and_cross_ratio():
    c = unit_circle()
    s0, s1 = _sections(c, (-2.0, 1.0), (np.array([2.0, 0.0]), np.array([0.3, -0.4])))
    quad = bianchi_quad(c, s0, s1, -2.0, 1.0)
    report = check_quad(c, s0, s1, quad, -2.0, 1.0)
    assert report.parallel_residual_defining < 1e-9
    assert report.parallel_residual_other < 1e-9
    assert report.cross_ratio_spread < 1e-12


def test_quad_moebius_cross_ratio_value():
    c = unit_circle()
    s0, s1 = _sections(c, (-2.0, 1.0), (np.array([2.0, 0.0]), np.array([0.3, -0.4])))
    quad = bianchi_quad(c, s0, s1, -2.0, 1.0)
    xi = euclidean_section(c).xi
    cr = np.atleast_1d(moebius_cross_ratio(xi, s0.xi, quad.xi, s1.xi))
    assert np.max(np.abs(cr - (-0.5))) < 1e-12


def test_quad_symmetry_in_edge_order():
    c = unit_circle()
    s0, s1 = _sections(c, (-2.0, 1.0), (np.array([2.0, 0.0]), np.array([0.3, -0.4])))
    ab = bianchi_quad(c, s0, s1, -2.0, 1.0)
    ba = bianchi_quad(c, s1, s0, 1.0, -2.0)
    gap = max(
        mk.projective_gap(ab.xi[k], ba.xi[k]) for k in range(0, c.grid.num, 100)
    )
    assert gap < 1e-10


def test_bigauge_identity_random_draws():
    # 20 draws avoiding poles: |mu| in [0.3, 3], |t| < min|mu|, and quads
    # whose vertices nearly coincide are rejected and redrawn
    rng = np.random.default_rng(12)
    grid = Grid(0.0, 1.0, 51)
    base = make_circle(1.0, grid)
    xi = euclidean_section(base).xi

    def margin(xis):
        worst = np.inf
        for i in range(4):
            for j in range(i + 1, 4):
                na = np.linalg.norm(xis[i], axis=1)
                nb = np.linalg.norm(xis[j], axis=1)
                worst = min(
                    worst, float(np.min(np.abs(mk.inner(xis[i], xis[j])) / (na * nb)))
                )
        return worst

    accepted = 0
    worst_gap = 0.0
    for _ in range(200):
        if accepted == 20:
            break
        mu0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        mu1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        t = rng.uniform(0.05, 0.9) * min(abs(mu0), abs(mu1))
        a0, a1 = rng.uniform(0.0, 6.28, size=2)
        p0 = rng.uniform(1.5, 2.5) * np.array([np.cos(a0), np.sin(a0)])
        p1 = rng.uniform(1.5, 2.5) * np.array([np.cos(a1), np.sin(a1)])
        s0 = integrate_parallel_section(base, mu0, mk.euclidean_lift(p0))
        s1 = integrate_parallel_section(base, mu1, mk.euclidean_lift(p1))
        s01 = bianchi_quad(base, s0, s1, mu0, mu1)
        if margin((xi, s0.xi, s1.xi, s01.xi)) < 1e-2:
            continue
        worst_gap = max(worst_gap, float(check_bigauge(xi, s0.xi, s1.xi, s01.xi, mu0, mu1, t)))
        accepted += 1
    assert accepted == 20
    assert worst_gap < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bigauge_identity_in_every_dimension(n):
    # Quads drawn pointwise in R^{n+1,1}, with no curve: the base on the
    # unit sphere, the transforms at radius 1.5-2.5, the fourth vertex by
    # the quad gauge; samples where two vertices nearly span one line are
    # dropped
    rng = np.random.default_rng(40 + n)

    def directions(k):
        v = rng.standard_normal((k, n))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    worst_gap = 0.0
    for _ in range(5):
        mu0, mu1 = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.3, 3.0, size=2)
        t = rng.uniform(0.05, 0.9) * min(abs(mu0), abs(mu1))
        xi = mk.euclidean_lift(directions(200))
        xi0 = mk.euclidean_lift(rng.uniform(1.5, 2.5, (200, 1)) * directions(200))
        xi1 = mk.euclidean_lift(rng.uniform(1.5, 2.5, (200, 1)) * directions(200))
        xis = [xi, xi0, xi1, gauge_apply(xi, xi0, 1.0 - mu1 / mu0, xi1)]
        margin = np.full(200, np.inf)
        for i in range(4):
            for j in range(i + 1, 4):
                na = np.linalg.norm(xis[i], axis=1)
                nb = np.linalg.norm(xis[j], axis=1)
                margin = np.minimum(margin, np.abs(mk.inner(xis[i], xis[j])) / (na * nb))
        keep = margin >= 1e-2
        assert np.count_nonzero(keep) >= 100
        gap = check_bigauge(*(x[keep] for x in xis), mu0, mu1, t)
        worst_gap = max(worst_gap, float(gap))
    assert worst_gap < 1e-10


def test_bigauge_with_per_sample_parameters_is_the_worst_quad():
    # Samples of several quads, each with its own mu0, mu1 and t, give in
    # one call exactly the worst of one call per quad.
    rng = np.random.default_rng(7)
    quads, gaps = [], []
    for _ in range(4):
        mu0, mu1 = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.3, 3.0, size=2)
        t = rng.uniform(0.05, 0.9) * min(abs(mu0), abs(mu1))
        xi = mk.euclidean_lift(rng.standard_normal((30, 3)))
        xi0 = mk.euclidean_lift(2.0 + rng.standard_normal((30, 3)))
        xi1 = mk.euclidean_lift(-2.0 + rng.standard_normal((30, 3)))
        points = np.stack([xi, xi0, xi1, gauge_apply(xi, xi0, 1.0 - mu1 / mu0, xi1)])
        quads.append((points, np.broadcast_to([[mu0], [mu1], [t]], (3, 30))))
        gaps.append(check_bigauge(*points, mu0, mu1, t))
    points = np.concatenate([q[0] for q in quads], axis=1)
    params = np.concatenate([q[1] for q in quads], axis=1)
    assert check_bigauge(*points, *params) == max(gaps)
    params[2, 40] = params[0, 40]  # t equal to mu0 at one sample
    with pytest.raises(GeometryError):
        check_bigauge(*points, *params)


def test_cube_routes_agree():
    c = unit_circle()
    mus = (-2.0, 1.0, 3.0)
    points = (np.array([2.0, 0.0]), np.array([0.3, -0.4]), np.array([-1.5, 0.2]))
    s0, s1, s2 = _sections(c, mus, points)
    cube = bianchi_cube(c, s0, s1, s2, *mus)
    assert np.max(np.asarray(cube.route_gaps)) < 1e-9


def test_cube_lifts_its_base_once_and_keeps_each_face_quad(monkeypatch):
    c = unit_circle()
    mus = (-2.0, 1.0, 3.0)
    points = (np.array([2.0, 0.0]), np.array([0.3, -0.4]), np.array([-1.5, 0.2]))
    secs = _sections(c, mus, points)
    lifted = []

    def counted(curve):
        lifted.append(curve)
        return euclidean_section(curve)

    monkeypatch.setattr(bianchi, "euclidean_section", counted)
    cube = bianchi_cube(c, *secs, *mus)
    assert len(lifted) == 1 and lifted[0] is c
    monkeypatch.undo()
    for face, (i, j) in zip((cube.face01, cube.face02, cube.face12), ((0, 1), (0, 2), (1, 2))):
        quad = bianchi_quad(c, secs[i], secs[j], mus[i], mus[j])
        assert np.array_equal(face.xi, quad.xi) and np.array_equal(face.xiprime, quad.xiprime)


def test_cube_random_seeds():
    c = unit_circle()
    mus = (-2.0, 1.0, 3.0)
    rng = np.random.default_rng(99)
    for _ in range(4):
        pts = []
        for _k in range(3):
            ang = rng.uniform(0.0, 6.28)
            pts.append(rng.uniform(1.4, 2.6) * np.array([np.cos(ang), np.sin(ang)]))
        s0, s1, s2 = _sections(c, mus, pts)
        cube = bianchi_cube(c, s0, s1, s2, *mus)
        assert np.max(np.asarray(cube.route_gaps)) < 1e-6


def test_quad_rejects_equal_parameters():
    c = unit_circle()
    s0, s1 = _sections(c, (-2.0, -2.0), (np.array([2.0, 0.0]), np.array([0.3, -0.4])))
    with pytest.raises(GeometryError):
        bianchi_quad(c, s0, s1, -2.0, -2.0)


@pytest.mark.parametrize("zero", [0, 1])
def test_quad_and_cube_reject_a_zero_parameter(zero):
    c = unit_circle()
    points = (np.array([2.0, 0.0]), np.array([0.3, -0.4]), np.array([-1.5, 0.2]))
    mus = [-2.0, 1.0, 3.0]
    mus[zero] = 0.0
    s0, s1, s2 = _sections(c, mus, points)
    with pytest.raises(GeometryError, match=f"mu{zero} = 0"):
        bianchi_quad(c, s0, s1, *mus[:2])
    with pytest.raises(GeometryError, match=f"mu{zero} = 0"):
        bianchi_cube(c, s0, s1, s2, *mus)
    mus = [-2.0, 1.0, 0.0]
    with pytest.raises(GeometryError, match="mu2 = 0"):
        bianchi_cube(c, s0, s1, s2, *mus)


def test_quad_rejects_a_base_on_the_line_of_sec0():
    c = unit_circle()
    _, s1 = _sections(c, (-2.0, 1.0), (np.array([2.0, 0.0]), np.array([0.3, -0.4])))
    lift = euclidean_section(c)
    same_line = LightConeSection(
        grid=c.grid, xi=2.0 * lift.xi, m=c.m, xiprime=2.0 * lift.xiprime
    )
    with pytest.raises(NonComplementaryLinesError):
        bianchi_quad(c, same_line, s1, -2.0, 1.0)


def test_moebius_cross_ratio_concircular():
    # concyclic points on the lifted circle give a real constant
    angles = np.array([0.2, 1.0, 2.4, 5.0])
    pts = mk.euclidean_lift(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    cr = moebius_cross_ratio(pts[0], pts[1], pts[2], pts[3])
    assert np.isreal(cr) or np.ndim(cr) == 0
