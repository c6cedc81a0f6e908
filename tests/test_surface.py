"""Semi-discrete surface tests.

A surface is an ordered stack of polarized curves with one constant mu
per adjacent pair.  The suite certifies:
    - construction validates shapes, grids, shared polarization, and mu
    - check_isothermic recovers each edge parameter with tiny defects
    - the Moutard lift normalizes every layer and kills mixed areas
    - the connection at generic t is flat; t = mu_edge is rejected
    - Darboux, Calapso, and Christoffel act on whole surfaces the same
      way they act per curve, with the expected parameter bookkeeping
"""

import re

import numpy as np
import pytest

import isothermic.minkowski as mk
import isothermic.surface as surface_module
from isothermic import fileio
from isothermic.cli import main
from isothermic.curves import Grid, make_circle, make_helix
from isothermic.darboux import (
    LightConeSection,
    connection_matrix,
    euclidean_section,
    integrate_parallel_section,
    is_darboux_pair,
)
from isothermic.errors import (
    DegenerateSecantError,
    DimensionError,
    GeometryError,
    NonComplementaryLinesError,
    PolarizationError,
)
from isothermic.fixtures import cylinder_patch, perturb_curve, three_layer, unit_circle
from isothermic.surface import (
    SemiDiscreteSurface,
    build_surface,
    calapso_trivialization_residuals,
    check_isothermic,
    moutard_lift,
    surface_calapso,
    surface_christoffel,
    surface_darboux,
    surface_flatness,
)


def test_surface_validates_mu_count():
    a, b = cylinder_patch().curves
    with pytest.raises(DimensionError):
        SemiDiscreteSurface(curves=[a, b], mu=[-2.0, 1.0])


def test_surface_validates_shared_grid():
    a = unit_circle()
    b = make_circle(2.0, Grid(0.0, 1.0, 501))
    with pytest.raises(GeometryError):
        SemiDiscreteSurface(curves=[a, b], mu=[-2.0])


def test_surface_validates_shared_polarization():
    a, b = cylinder_patch().curves
    with pytest.raises(PolarizationError):
        SemiDiscreteSurface(curves=[a, b.with_polarization(2.0)], mu=[-2.0])


def test_surface_rejects_zero_mu():
    a, b = cylinder_patch().curves
    with pytest.raises(GeometryError):
        SemiDiscreteSurface(curves=[a, b], mu=[0.0])


def test_surface_needs_a_curve():
    with pytest.raises(DimensionError):
        SemiDiscreteSurface(curves=[], mu=[])


def test_build_surface_prefixes_layer_in_errors():
    seed = unit_circle()
    with pytest.raises(GeometryError, match="layer 0"):
        build_surface(seed, [(0.0, np.array([2.0, 0.0]))])
    with pytest.raises(DegenerateSecantError, match="layer 0"):
        build_surface(seed, [(-2.0, seed.x[0].copy())])


def test_check_isothermic_flags_broken_stack():
    # the constructor accepts arbitrary stacks; certification is explicit
    seed = unit_circle()
    bad = perturb_curve(three_layer().curves[1], scale=1e-3, seed=5)
    report = check_isothermic(SemiDiscreteSurface(curves=[seed, bad], mu=[-2.0]))
    assert [k for k, e in enumerate(report.edges) if not e.residual <= 1e-6] == [0]


def _shifted(source, t, point, substeps=1):
    """The parallel section's layer shifted by 1e-3 sin(3s), with the derivative
    that xi' = A xi assigns to its new positions.  With that derivative the
    cross ratio is mu/m by algebra, so only a derivative taken from the
    positions exposes the shift."""
    x = mk.affine_point(integrate_parallel_section(source, t, point, substeps).xi)
    x[:, 0] += 1e-3 * np.sin(3.0 * source.grid.nodes())
    xi = mk.euclidean_lift(x)
    lift = euclidean_section(source)
    a = connection_matrix(lift.xi, lift.xiprime, source.m, t)
    return LightConeSection(
        grid=source.grid, xi=xi, m=source.m, xiprime=np.einsum("kij,kj->ki", a, xi)
    )


def test_build_surface_guard_sees_position_errors(monkeypatch, tmp_path, capsys):
    # check_isothermic reads the shifted positions, so `surface build` refuses them.
    monkeypatch.setattr(surface_module, "integrate_parallel_section", _shifted)
    built = build_surface(unit_circle(), [(-2.0, np.array([2.0, 0.0]))])
    assert check_isothermic(built).edges[0].residual > 1e-6

    seed, out = tmp_path / "c.json", tmp_path / "s.json"
    assert main(["curve", "--family", "circle", "--out", str(seed)]) == 0
    capsys.readouterr()
    assert main(["surface", "build", "--in", str(seed), "--layers", "-2:2,0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert re.search(r"^surface-isothermic +edge 0 +\S+ +\S+ +FAIL$", captured.out, re.M)
    assert captured.err.splitlines() == ["verification failed: failed checks: surface-isothermic"]
    assert not out.exists()


def test_surface_file_commands_read_positions(monkeypatch, tmp_path, capsys):
    # The saved file stores the shifted layer with the ODE's derivative at
    # its positions; every command that certifies a file reads the positions.
    monkeypatch.setattr(surface_module, "integrate_parallel_section", _shifted)
    built = build_surface(unit_circle(), [(-2.0, np.array([2.0, 0.0]))])
    monkeypatch.undo()
    path, csv_path = tmp_path / "s.json", tmp_path / "r.csv"
    fileio.save_surface(path, built)

    assert main(["surface", "check", "--in", str(path)]) == 1
    assert "NOT isothermic at tolerance" in capsys.readouterr().out
    assert main(["verify", "--surface", str(path)]) == 1
    failed = re.search(r"^failed checks: (.*)$", capsys.readouterr().out, re.M)
    assert "surface-isothermic" in failed.group(1).split(", ")
    assert main(["export", "--in", str(path), "--csv", str(csv_path)]) == 0
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].startswith("surface-isothermic,edge 0,") and rows[0].endswith(",false")


@pytest.mark.parametrize(
    "seed, points",
    [
        (make_circle(1.0, Grid(0.0, 6.0, 201)), [(2.0, 0.0), (0.3, -0.4)]),
        (make_helix(1.0, 0.2, Grid(0.0, 6.0, 201)), [(2.0, 0.0, 0.0), (0.3, -0.4, 0.0)]),
    ],
    ids=["circle", "helix"],
)
def test_build_surface_guard_accepts_accurate_coarse_grid(seed, points):
    # h = 0.03: the layers' positions are within 1.5e-7 of a 20x finer
    # solution, but the fourth-order stencil's truncation alone put edge 1
    # at 1.3e-5; the position-derived edges must pass at 1e-6.
    surface = build_surface(seed, [(-2.0, np.array(points[0])), (1.0, np.array(points[1]))])
    edges = check_isothermic(surface).edges
    assert len(edges) == 2
    assert all(edge.residual <= 1e-6 for edge in edges)


def test_check_isothermic_on_patch():
    report = check_isothermic(cylinder_patch())
    assert all(e.residual <= 1e-6 for e in report.edges)
    edge = report.edges[0]
    assert abs(edge.mu + 2.0) < 1e-12
    assert edge.spread < 1e-12
    assert edge.reality < 1e-12
    assert edge.mu_defect < 1e-12
    assert edge.nu_residual is not None and edge.nu_residual < 1e-12


def test_check_isothermic_three_layer():
    report = check_isothermic(three_layer())
    assert all(e.residual <= 1e-6 for e in report.edges)
    assert len(report.edges) == 2
    assert abs(report.edges[0].mu + 2.0) < 1e-10
    assert abs(report.edges[1].mu - 1.0) < 1e-10


def test_moutard_lift_three_layer():
    surface = three_layer()
    lift = moutard_lift(surface)
    assert lift.signs == [1, -1, -1]
    assert len(lift.sections) == 3
    assert len(lift.normalization_residual) == 3
    assert len(lift.pairing_residual) == 2
    assert len(lift.area_residual) == 2
    assert max(lift.normalization_residual) < 1e-10
    assert max(lift.pairing_residual) < 1e-10
    assert max(lift.area_residual) < 1e-10


def test_moutard_pairing_value():
    surface = cylinder_patch()
    lift = moutard_lift(surface)
    g = mk.metric_matrix(surface.n)
    xi0, xi1 = lift.sections[0].xi, lift.sections[1].xi
    pair = np.einsum("ka,ab,kb->k", xi0, g, xi1)
    assert np.max(np.abs(pair + 1.0 / (2.0 * surface.mu[0]))) < 1e-12


def test_surface_connection_flat():
    flatness = surface_flatness(three_layer(), 0.6)
    assert len(flatness) == 2
    assert max(flatness) < 1e-9


def test_surface_connection_rejects_edge_parameter():
    with pytest.raises(GeometryError, match="edge 0"):
        surface_flatness(cylinder_patch(), -2.0)


def test_surface_darboux_verticals():
    surface = cylinder_patch()
    hat = surface_darboux(surface, -3.0, np.array([0.0, 3.0]))
    assert hat.mu == surface.mu
    for i in range(surface.num_layers):
        fit = is_darboux_pair(surface.curves[i], hat.curves[i])
        assert abs(fit.mu + 3.0) < 1e-9
        assert fit.spread < 1e-9
    assert all(e.residual <= 1e-6 for e in check_isothermic(hat).edges)


def test_surface_darboux_rejects_edge_parameter():
    with pytest.raises(GeometryError):
        surface_darboux(cylinder_patch(), -2.0, np.array([0.0, 3.0]))


def test_surface_darboux_rejects_layers_on_one_line():
    c = unit_circle()
    doubled = SemiDiscreteSurface(curves=[c, c], mu=[-2.0])
    with pytest.raises(NonComplementaryLinesError):
        surface_darboux(doubled, -3.0, np.array([0.0, 3.0]))


def test_surface_calapso_shifts_every_edge():
    surface = cylinder_patch()
    moved = surface_calapso(surface, 0.4)
    assert moved.mu == [-2.4]
    report = check_isothermic(moved)
    assert all(e.residual <= 1e-6 for e in report.edges)
    assert abs(report.edges[0].mu + 2.4) < 1e-10


def test_surface_calapso_at_zero_is_identity():
    surface = cylinder_patch()
    same = surface_calapso(surface, 0.0)
    assert same.mu == surface.mu
    assert np.max(np.abs(same.curves[1].x - surface.curves[1].x)) == 0.0


def test_calapso_trivialization():
    assert max(calapso_trivialization_residuals(three_layer(), 0.6)) < 1e-10


def test_surface_christoffel_consistency():
    dual, consistency = surface_christoffel(cylinder_patch())
    assert max(consistency) < 1e-10
    assert all(e.residual <= 1e-6 for e in check_isothermic(dual).edges)


def test_surface_christoffel_rejects_degenerate_edge():
    circle = unit_circle()
    surface = SemiDiscreteSurface(curves=[circle, circle], mu=[-2.0])
    with pytest.raises(DegenerateSecantError, match="edge 0"):
        surface_christoffel(surface)


def test_surface_christoffel_dual_derivatives():
    # m = 1 throughout: z' = x'/|x'|^2, so the unit circle dualizes to a
    # unit-speed circle and the radius-2 layer to speed 1/2.
    surface = cylinder_patch()
    dual, _ = surface_christoffel(surface)
    assert np.max(np.abs(dual.curves[0].xprime - surface.curves[0].xprime)) < 1e-12
    assert np.max(np.abs(dual.curves[1].xprime - surface.curves[1].xprime / 4.0)) < 1e-10
