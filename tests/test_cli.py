"""End-to-end command-line tests, run in-process through main()."""

import base64
import csv
import json
import re
import warnings

import numpy as np
import pytest

from isothermic import bianchi, cli, darboux, fileio, minkowski
from isothermic.cli import TOLERANCES, main
from isothermic.clifford import sandwich
from isothermic.curves import Grid, PolarizedCurve, make_circle
from isothermic.darboux import integrate_riccati, inverse_tangent
from isothermic.surface import SemiDiscreteSurface

# Output lines that scripts parse; their format is part of the interface.
NAMED_ROW = re.compile(r"^([a-z-]+): (\S+) \(tol", re.M)
EDGE_ROW = re.compile(
    r"^edge (\d+): mu=\S+ declared=\S+ spread=(\S+) defect=(\S+) nu=(\S+) (?:pass|FAIL)$", re.M
)


def _curve_file(tmp_path, name="c.json", grid="0:1:1001"):
    path = tmp_path / name
    rc = main(
        ["curve", "--family", "circle", "--radius", "1", "--grid", grid, "--out", str(path)]
    )
    assert rc == 0
    return path


def test_curve_command_writes_loadable_json(tmp_path):
    path = _curve_file(tmp_path)
    c = fileio.load_curve(path)
    assert c.grid.num == 1001
    assert np.max(np.abs(np.sum(c.x * c.x, axis=1) - 1.0)) < 1e-12


def test_darboux_routes_agree(tmp_path, capsys):
    src = _curve_file(tmp_path)
    outs = []
    for route in ("parallel", "riccati"):
        out = tmp_path / f"{route}.json"
        rc = main(
            [
                "darboux",
                "--in",
                str(src),
                "--mu",
                "-2",
                "--init",
                "2,0",
                "--route",
                route,
                "--out",
                str(out),
                "--report",
            ]
        )
        assert rc == 0
        outs.append(fileio.load_curve(out))
    report = capsys.readouterr().out
    assert "mu" in report
    assert np.max(np.abs(outs[0].x - outs[1].x)) < 1e-9


def test_darboux_report_certifies_positions_not_ode_derivative(tmp_path, capsys, monkeypatch):
    # A Riccati output with wrong positions whose derivative is the ODE
    # right-hand side at those positions: its cross ratio with that
    # derivative is mu/m by algebra, so only the positions can expose it.
    def shifted(curve, mu, xhat0, substeps=1):
        hat = integrate_riccati(curve, mu, xhat0, substeps=substeps)
        x = hat.x + 1e-3 * np.sin(3.0 * curve.grid.nodes())[:, None]
        xprime = mu * sandwich(x - curve.x, inverse_tangent(curve.xprime, curve.m))
        return PolarizedCurve(n=hat.n, grid=hat.grid, x=x, xprime=xprime, m=hat.m)

    monkeypatch.setattr(cli, "integrate_riccati", shifted)
    src = _curve_file(tmp_path)
    out = tmp_path / "hat.json"
    args = ["darboux", "--in", str(src), "--mu", "-2", "--init", "2,0", "--route", "riccati"]
    assert main(args + ["--report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    report = captured.out
    spread = float(re.search(r"^cross ratio spread: (\S+)$", report, re.M).group(1))
    contact = float(re.search(r"^ribaucour contact residual: (\S+)$", report, re.M).group(1))
    assert spread > 1e-4
    assert contact > 1e-4
    assert "imaginary part" not in report
    assert "quad-cross-ratio" in captured.err and "darboux-ribaucour-contact" in captured.err
    assert not out.exists()


def test_darboux_certifies_every_run_with_its_named_checks(tmp_path, capsys):
    src = _curve_file(tmp_path)
    out = tmp_path / "hat.json"
    for route in ("parallel", "riccati"):
        args = ["darboux", "--in", str(src), "--mu", "-2", "--init", "2,0", "--route", route]
        for check in ("quad-cross-ratio", "darboux-ribaucour-contact"):
            capsys.readouterr()
            rc = main(args + ["--out", str(out), "--tol-override", f"{check}=1e-30"])
            assert rc == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and check in err
            assert not out.exists()
        assert main(args + ["--out", str(out)]) == 0
        out.unlink()


def test_darboux_step_policy_steps_only_the_riccati_route(tmp_path, capsys):
    src = _curve_file(tmp_path, grid="0:1:201")
    out = tmp_path / "hat.json"
    args = ["darboux", "--in", str(src), "--mu", "-2", "--init", "2,0"]
    args += ["--step-policy", "substep:3"]
    capsys.readouterr()
    assert main(args + ["--route", "parallel", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--step-policy" in errors[0], err
    assert not out.exists()
    assert main(args + ["--route", "riccati", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("suite", ["clifford", "minkowski", "bianchi", "calapso", "surface",
                                   "moutard", "cmc"])
def test_verify_step_policy_on_a_suite_without_riccati_rows_exits_2(suite, tmp_path, capsys):
    report = tmp_path / "report.csv"
    capsys.readouterr()
    argv = ["verify", "--suite", suite, "--step-policy", "substep:3", "--csv", str(report)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--step-policy" in errors[0], captured.err
    assert not report.exists()


@pytest.mark.parametrize("suite", ["darboux", "christoffel"])
def test_verify_step_policy_steps_the_riccati_rows(suite, capsys):
    assert main(["verify", "--suite", suite, "--step-policy", "substep:3"]) == 0


@pytest.mark.parametrize("suite", ["bianchi", "calapso"])
def test_suites_that_read_only_the_section_never_integrate_the_riccati_half(
    suite, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("the Riccati transform was integrated")

    monkeypatch.setattr(cli, "integrate_riccati", refuse)
    assert main(["verify", "--suite", suite]) == 0


def test_darboux_through_the_chart_infinity_exits_1_without_writing(tmp_path, capsys):
    # On the line in R^1 with mu = -2 the parallel section passes the
    # chart's point at infinity near s = 1.8: the positions jump and the
    # cross ratio is far from constant.
    src = tmp_path / "line.json"
    rc = main(["curve", "--family", "line", "--n", "1", "--grid", "0:3:301", "--out", str(src)])
    assert rc == 0
    out = tmp_path / "bad.json"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            ["darboux", "--in", str(src), "--mu", "-2", "--init", "1", "--route", "parallel",
             "--report", "--out", str(out)]
        )
    assert rc == 1
    captured = capsys.readouterr()
    assert "ribaucour contact residual: 0.0000e+00" in captured.out
    assert len(captured.err.splitlines()) == 1 and "quad-cross-ratio" in captured.err
    assert not out.exists()


def test_darboux_rejects_start_point_on_curve(tmp_path, capsys):
    src = _curve_file(tmp_path)
    rc = main(["darboux", "--in", str(src), "--mu", "-2", "--init", "1,0"])
    assert rc == 2
    assert "coincides" in capsys.readouterr().err


def test_bianchi_quad_reports_cross_ratio(tmp_path, capsys):
    src = _curve_file(tmp_path)
    rc = main(["bianchi", "--in", str(src), "--mu", "-2,1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "-0.5" in out


def test_bianchi_cube_routes(tmp_path, capsys):
    src = _curve_file(tmp_path)
    rc = main(["bianchi", "--in", str(src), "--mu", "-2,1,3"])
    assert rc == 0
    assert "route" in capsys.readouterr().out


def test_bianchi_pads_default_points_to_curve_dimension(tmp_path, capsys):
    src = tmp_path / "helix.json"
    argv = ["curve", "--family", "helix", "--pitch", "0.2", "--grid", "0:1:1001"]
    assert main(argv + ["--out", str(src)]) == 0
    assert main(["bianchi", "--in", str(src), "--mu", "-2,1,3"]) == 0
    gap = re.search(r"^max gap: (\S+)$", capsys.readouterr().out, re.M)
    assert float(gap.group(1)) < 1e-10


def test_bianchi_failing_certificate_exits_1_without_writing(tmp_path, capsys):
    # On a 101-node circle, mu0 = 1e3 is too stiff for the grid: the
    # quad's parallel residuals read about 1e-3 against tol 1e-6.
    src = _curve_file(tmp_path, grid="0:1:101")
    out = tmp_path / "q.json"
    capsys.readouterr()
    assert main(["bianchi", "--in", str(src), "--mu", "1e3,1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "parallel residual (defining): " in captured.out
    assert captured.err.splitlines() == [
        "verification failed: failed checks: quad-parallel-defining, quad-parallel-other"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "mu, check",
    [("-2,1", "quad-cross-ratio"), ("-2,1", "quad-parallel-defining"),
     ("-2,1", "quad-parallel-other"), ("-2,1,3", "cube-routes")],
)
def test_bianchi_tol_override_below_clean_residual_exits_1(mu, check, tmp_path, capsys):
    src = _curve_file(tmp_path)
    out = tmp_path / "q.json"
    argv = ["bianchi", "--in", str(src), "--mu", mu, "--out", str(out)]
    capsys.readouterr()
    assert main(argv + ["--tol-override", f"{check}=1e-30"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"verification failed: failed checks: {check}"]
    assert not out.exists()
    assert main(argv) == 0
    assert out.exists()


def test_bianchi_default_points_need_a_plane(tmp_path, capsys):
    src = tmp_path / "line.json"
    assert main(["curve", "--family", "line", "--n", "1", "--out", str(src)]) == 0
    capsys.readouterr()
    assert main(["bianchi", "--in", str(src), "--mu", "-2,1"]) == 2
    assert "--points" in capsys.readouterr().err


def test_darboux_rejects_zero_mu_with_one_error_line(tmp_path, capsys):
    src = _curve_file(tmp_path)
    capsys.readouterr()
    for route in ("parallel", "riccati"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["darboux", "--in", str(src), "--mu", "0", "--init", "2,0", "--route", route])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "--mu" in err


@pytest.mark.parametrize("mus, name", [("-2,0", "mu1"), ("0,1", "mu0"), ("-2,1,0", "mu2")])
def test_bianchi_rejects_a_zero_parameter_with_one_error_line(mus, name, tmp_path, capsys):
    src = _curve_file(tmp_path)
    out = tmp_path / "q.json"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["bianchi", "--in", str(src), "--mu", mus, "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: --mu") and f"{name} = 0" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_riccati_transform_leaving_space_exits_2_with_one_error_line(tmp_path, capsys):
    src = tmp_path / "line.json"
    rc = main(["curve", "--family", "line", "--n", "1", "--grid", "0:3:301", "--out", str(src)])
    assert rc == 0
    out = tmp_path / "hat.json"
    capsys.readouterr()
    for extra in (["--report"], ["--out", str(out)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(
                ["darboux", "--in", str(src), "--mu", "-2", "--init", "1", "--route", "riccati"]
                + extra
            )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "leaves R^1" in captured.err
    assert not out.exists()


def test_surface_build_check_moutard(tmp_path, capsys):
    src = _curve_file(tmp_path)
    surf = tmp_path / "s.json"
    rc = main(
        [
            "surface",
            "build",
            "--in",
            str(src),
            "--layers",
            "-2:2,0;1:0.3,-0.4",
            "--out",
            str(surf),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(["surface", "check", "--in", str(surf)])
    assert rc == 0
    assert [m[0] for m in EDGE_ROW.findall(capsys.readouterr().out)] == ["0", "1"]
    rc = main(["surface", "moutard", "--in", str(surf)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "signs" in out
    assert [m[0] for m in NAMED_ROW.findall(out)] == [
        "moutard-normalization", "moutard-pairing", "moutard-area"
    ]


def test_surface_build_requires_layers_and_out(tmp_path):
    src = _curve_file(tmp_path)
    assert main(["surface", "build", "--in", str(src)]) == 2


def test_surface_build_guard_takes_the_surface_isothermic_tolerance(tmp_path, capsys):
    # At N = 101 on [0, 6] the layers' positions are 2e-6 off, so both
    # edge rows fail at the default 1e-6; the override of the check's
    # tolerance is the way to accept them.
    src = _curve_file(tmp_path, grid="0:6:101")
    surf = tmp_path / "s.json"
    build = ["surface", "build", "--in", str(src), "--layers", "-2:2,0;1:0.3,-0.4", "--out", str(surf)]
    capsys.readouterr()
    assert main(build) == 1
    captured = capsys.readouterr()
    failed = re.findall(r"^surface-isothermic +(edge \d+) +\S+ +\S+ +FAIL$", captured.out, re.M)
    assert failed == ["edge 0", "edge 1"]
    assert "verification failed" in captured.err
    assert not surf.exists()
    assert main(build + ["--tol-override", "surface-isothermic=1e-4"]) == 0
    assert surf.exists()


def test_dual_command_on_curve_and_surface(tmp_path):
    src = _curve_file(tmp_path)
    dual = tmp_path / "dual.json"
    assert main(["dual", "--in", str(src), "--out", str(dual)]) == 0
    c = fileio.load_curve(dual)
    assert c.grid.num == 1001

    surf = tmp_path / "s.json"
    main(
        ["surface", "build", "--in", str(src), "--layers", "-2:2,0", "--out", str(surf)]
    )
    sdual = tmp_path / "sdual.json"
    assert main(["dual", "--in", str(surf), "--out", str(sdual)]) == 0
    assert len(fileio.load_surface(sdual).curves) == 2


def test_calapso_command_shifts_surface_parameters(tmp_path, capsys):
    src = _curve_file(tmp_path)
    surf = tmp_path / "s.json"
    main(
        ["surface", "build", "--in", str(src), "--layers", "-2:2,0", "--out", str(surf)]
    )
    moved = tmp_path / "moved.json"
    rc = main(["calapso", "--in", str(surf), "--t", "0.4", "--out", str(moved)])
    assert rc == 0
    assert fileio.load_surface(moved).mu == [-2.4]
    assert "-2.4" in capsys.readouterr().out


# Each certifying command with one of its checks; {c} is a curve file, {s} a surface.
CERTIFIED = {
    "calapso-curve": (["calapso", "--in", "{c}", "--t", "0.4"], "calapso-metric-drift"),
    "calapso-surface": (["calapso", "--in", "{s}", "--t", "0.4"], "surface-calapso-parameter"),
    "dual-curve": (["dual", "--in", "{c}"], "dual-darboux-permute"),
    "dual-surface": (["dual", "--in", "{s}"], "dual-edge-smooth"),
    "cmc": (["cmc"], "cmc-unit-z"),
    "surface-build": (["surface", "build", "--in", "{c}", "--layers", "-2:2,0"], "surface-isothermic"),
}


@pytest.mark.parametrize("case", sorted(CERTIFIED))
def test_tol_override_below_clean_residual_exits_1_without_writing(
    case, cli_files, tmp_path, capsys
):
    argv, check = CERTIFIED[case]
    out = tmp_path / "out.json"
    argv = [arg.format(c=cli_files / "c.json", s=cli_files / "s.json") for arg in argv]
    argv += ["--out", str(out)]
    capsys.readouterr()
    assert main(argv + ["--tol-override", f"{check}=1e-30"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"verification failed: failed checks: {check}"]
    assert not out.exists()
    assert main(argv) == 0
    assert out.exists()


def test_cmc_command_cylinder(capsys):
    rc = main(["cmc", "--fixture", "cylinder", "--radius", "1", "--layers", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.5" in out
    assert [m[0] for m in NAMED_ROW.findall(out)] == [
        "cmc-mean-curvature-spread", "cmc-mean-curvature-value",
        "cmc-conserved-quantity", "cmc-unit-z", "cmc-koenigs",
    ]


def test_cmc_command_strip(capsys):
    rc = main(["cmc", "--fixture", "strip"])
    assert rc == 0


@pytest.mark.parametrize(
    "extra, message",
    [(["--layers", "1"], "at least two lines"), (["--layers", "-5"], "at least two lines"),
     (["--radius", "2"], "no --radius"), (["--orientation", "inward"], "no --orientation")],
    ids=["layers-1", "layers-negative", "radius", "orientation"],
)
def test_cmc_strip_rejects_what_it_cannot_build(extra, message, tmp_path, capsys):
    out = tmp_path / "strip.json"
    capsys.readouterr()
    assert main(["cmc", "--fixture", "strip", "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err, err
    assert not out.exists()


def test_verify_all_passes(tmp_path, capsys):
    csv_path = tmp_path / "all.csv"
    rc = main(["verify", "--suite", "all", "--csv", str(csv_path)])
    assert rc == 0
    assert "all" in capsys.readouterr().out
    names = {line.split(",")[0] for line in csv_path.read_text().splitlines()[1:]}
    assert names == set(TOLERANCES)


def test_verify_single_suite(capsys):
    rc = main(["verify", "--suite", "minkowski"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "minkowski-lift-isotropy" in out


def test_verify_suites_draw_independently(tmp_path):
    def rows(suite):
        path = tmp_path / f"{suite}.csv"
        assert main(["verify", "--suite", suite, "--seed", "1", "--csv", str(path)]) == 0
        return path.read_text().splitlines()[1:]

    every = set(rows("all"))
    for suite in cli.SUITE_NAMES:
        alone = rows(suite)
        assert alone and set(alone) <= every, suite


def test_verify_corrupt_names_offending_check(capsys):
    rc = main(["verify", "--suite", "darboux", "--corrupt", "concentric"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "failed checks" in out
    assert "concentric-cross-ratio" in out


def test_verify_integrates_each_transform_once(monkeypatch, capsys):
    # Every (source, t, initial point, substeps) that verify integrates,
    # by either route, is integrated once; a batch counts once per point.
    keys = {"section": [], "riccati": []}
    calls = {"section": 0, "riccati": 0}

    def recording(route, integrate):
        def wrapper(source, t, xihat0, substeps=1):
            calls[route] += 1
            points = np.atleast_2d(np.asarray(xihat0, dtype=float))
            if points.shape[1] == source.n + 2:
                points = minkowski.affine_point(points)
            origin = (source.grid, source.x.tobytes(), float(t), substeps)
            keys[route] += [origin + (p.tobytes(),) for p in points]
            return integrate(source, t, xihat0, substeps)

        return wrapper

    monkeypatch.setattr(
        cli, "integrate_parallel_section", recording("section", cli.integrate_parallel_section)
    )
    monkeypatch.setattr(cli, "integrate_riccati", recording("riccati", cli.integrate_riccati))
    assert main(["verify", "--suite", "all"]) == 0
    capsys.readouterr()
    for route, seen in keys.items():
        assert seen and len(set(seen)) == len(seen), route
    assert calls["section"] <= 10, calls


def test_verify_bigauge_row_detects_a_wrong_quad_gauge(monkeypatch, capsys):
    # The fourth vertex built with Gamma(1/r) instead of Gamma(r) breaks
    # the bigauge identity on the drawn quads
    right = darboux.gauge_apply

    def inverted(xi, xihat, r, v):
        return right(xi, xihat, 1.0 / np.asarray(r, dtype=float), v)

    # cli binds the name only where its suite draws quads itself
    for module in (darboux, bianchi, cli):
        monkeypatch.setattr(module, "gauge_apply", inverted, raising=False)
    rc = main(["verify", "--suite", "bianchi"])
    assert rc == 1
    failed = re.search(r"^failed checks: (.*)$", capsys.readouterr().out, re.M)
    assert failed is not None
    assert "bigauge-identity" in failed.group(1).split(", ")


def test_verify_names_the_failing_checks_under_a_wrong_rk4_weight(monkeypatch, tmp_path, capsys):
    # K3 weighted 2.02 instead of 2 moves every parallel section, the
    # three-layer fixture's layers too; verify still prints and writes
    # every row, and names the failed checks.
    def wrong(left, mid, right, h):
        k2 = mid + (0.5 * h) * (mid @ left)
        k3 = mid + (0.5 * h) * (mid @ k2)
        k4 = right + h * (right @ k3)
        return (h / 6.0) * (left + 2.0 * k2 + 2.02 * k3 + k4)

    monkeypatch.setattr(darboux, "_rk4_increments", wrong)
    report = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["verify", "--suite", "all", "--csv", str(report)]) == 1
    with open(report, newline="", encoding="utf-8") as fh:
        assert len(list(csv.DictReader(fh))) == 49
    failed = re.search(r"^failed checks: (.*)$", capsys.readouterr().out, re.M)
    assert {"surface-isothermic", "riccati-parallel-agreement"} <= set(failed.group(1).split(", "))


def test_verify_corrupt_circle_fails_ribaucour_contact(capsys):
    # The contact check must read the transform's positions, not only the
    # derivative its own ODE supplies, which is real by construction.
    rc = main(["verify", "--suite", "darboux", "--corrupt", "unit-circle"])
    assert rc == 1
    failed = re.search(r"^failed checks: (.*)$", capsys.readouterr().out, re.M)
    assert "darboux-ribaucour-contact" in failed.group(1).split(", ")


# Every check that ``verify --suite all --corrupt FIXTURE`` fails.  The
# whole set is pinned, so a check that quietly stops seeing a corruption
# fails here too.
CORRUPTION_FAILURES = {
    "unit-circle": {
        "calapso-intertwine",
        "calapso-permute-parameter",
        "calapso-transported-constancy",
        "darboux-ribaucour-contact",
        "dual-darboux-permute",
        "quad-parallel-defining",
        "quad-parallel-other",
        "riccati-parallel-agreement",
    },
    "concentric": {"concentric-cross-ratio"},
    "tractrix": {"tractrix-cross-ratio", "tractrix-polarization"},
    "cylinder-patch": {
        "dual-edge-smooth",
        "mixed-area-dual",
        "moutard-area",
        "moutard-normalization",
        "moutard-pairing",
        "surface-calapso-parameter",
        "surface-darboux-vertical",
        "surface-flatness",
        "surface-isothermic",
        "surface-trivialization",
    },
    "three-layer": {"surface-isothermic"},
    "cmc-cylinder": {
        "cmc-conserved-quantity",
        "cmc-koenigs",
        "cmc-mean-curvature-spread",
        "cmc-mean-curvature-value",
        "moutard-area",
        "moutard-normalization",
        "moutard-pairing",
    },
    "flat-strip": {
        "cmc-conserved-quantity",
        "cmc-koenigs",
        "cmc-mean-curvature-spread",
        "cmc-mean-curvature-value",
    },
}


@pytest.mark.parametrize("fixture", cli.CORRUPTIBLE)
def test_verify_all_corrupt_fails_exactly_its_checks(fixture, capsys):
    rc = main(["verify", "--suite", "all", "--corrupt", fixture])
    assert rc == 1
    failed = re.search(r"^failed checks: (.*)$", capsys.readouterr().out, re.M)
    assert failed is not None
    assert set(failed.group(1).split(", ")) == CORRUPTION_FAILURES[fixture]


def test_verify_corrupt_surface_fixture(capsys):
    rc = main(["verify", "--suite", "surface", "--corrupt", "cylinder-patch"])
    assert rc == 1
    assert "surface-isothermic" in capsys.readouterr().out


def test_verify_writes_csv(tmp_path):
    csv_path = tmp_path / "report.csv"
    rc = main(["verify", "--suite", "clifford", "--csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("check,")
    assert len(lines) > 2
    assert all(line.endswith(",true") for line in lines[1:])


def test_tol_override_forces_failure():
    rc = main(
        [
            "verify",
            "--suite",
            "minkowski",
            "--tol-override",
            "minkowski-lift-isotropy=1e-30",
        ]
    )
    assert rc == 1


def test_verify_user_surface_file(tmp_path, capsys):
    src = _curve_file(tmp_path)
    surf = tmp_path / "s.json"
    main(
        ["surface", "build", "--in", str(src), "--layers", "-2:2,0", "--out", str(surf)]
    )
    rc = main(["verify", "--surface", str(surf)])
    assert rc == 0
    assert "surface-isothermic" in capsys.readouterr().out


def test_verify_surface_trivialization_passes_once_frames_grow(tmp_path, capsys):
    # At t = 1.236 the frames along [0, 6] reach |T| ~ 1.5e5, so chained
    # times inverted direct frames round at ~1e-5 of the product itself,
    # at every grid size; the residual is taken against the factors.
    src = _curve_file(tmp_path, grid="0:6:1001")
    surf = tmp_path / "s.json"
    assert main(["surface", "build", "--in", str(src), "--layers=-2:2,0", "--out", str(surf)]) == 0
    capsys.readouterr()
    assert main(["verify", "--surface", str(surf)]) == 0
    out = capsys.readouterr().out
    row = re.search(r"^surface-trivialization +\S+ +(\S+) +1\.0000e-06 +pass$", out, re.M)
    assert row and float(row[1]) < 1e-12, out


def test_export_obj_and_csv(tmp_path):
    src = _curve_file(tmp_path)
    surf = tmp_path / "s.json"
    main(
        ["surface", "build", "--in", str(src), "--layers", "-2:2,0", "--out", str(surf)]
    )
    obj = tmp_path / "mesh.obj"
    csv_path = tmp_path / "report.csv"
    rc = main(
        ["export", "--in", str(surf), "--obj", str(obj), "--csv", str(csv_path)]
    )
    assert rc == 0
    assert obj.read_text().startswith("o surface")
    assert csv_path.read_text().splitlines()[0].startswith("check,")


def test_export_needs_a_target(tmp_path, capsys):
    src = _curve_file(tmp_path)
    surf = tmp_path / "s.json"
    main(
        ["surface", "build", "--in", str(src), "--layers", "-2:2,0", "--out", str(surf)]
    )
    assert main(["export", "--in", str(surf)]) == 2


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(["darboux", "--in", str(tmp_path / "nope.json"), "--mu", "-2", "--init", "2,0"])
    assert rc == 2


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_negative_values_parse_everywhere(tmp_path):
    src = _curve_file(tmp_path)
    out = tmp_path / "h.json"
    rc = main(
        ["darboux", "--in", str(src), "--mu", "-0.5", "--init", "-2,0", "--out", str(out)]
    )
    assert rc == 0
    rc = main(["bianchi", "--in", str(src), "--mu", "-2,-1"])
    assert rc == 0


def test_bad_grid_spec_exits_2(tmp_path):
    rc = main(
        ["curve", "--family", "circle", "--grid", "oops", "--out", str(tmp_path / "x.json")]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["cmc", "--radius", "0"],
        ["cmc", "--delta", "0"],
        ["cmc", "--fixture", "strip", "--delta", "0"],
        ["curve", "--family", "line", "--n", "0"],
        ["curve", "--family", "line", "--n", "-1"],
    ],
    ids=["cylinder-radius-0", "cylinder-delta-0", "strip-delta-0", "line-n-0", "line-n-negative"],
)
def test_out_of_range_numbers_exit_2(argv, tmp_path, capsys):
    if argv[0] == "curve":
        argv = argv + ["--out", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _circle_payload():
    return fileio.curve_to_dict(make_circle(1.0, Grid(0.0, 1.0, 11)))


# Edits that make a curve file malformed, each by a different ValueError.
MALFORMED_CURVES = {
    "ragged-x": lambda p: p["x"][3].pop(),
    "ragged-xprime": lambda p: p["xprime"][3].append(1.0),
    "x-string": lambda p: p.update(x="abc"),
    "x-string-entries": lambda p: p["x"][2].__setitem__(0, "abc"),
    "n-word": lambda p: p.update(n="two"),
    "grid-s0-word": lambda p: p.update(grid={"s0": "a"}),
}
COMMAND_TAILS = {"dual": [], "calapso": ["--t", "0.4"]}


@pytest.mark.parametrize("command", sorted(COMMAND_TAILS))
@pytest.mark.parametrize("case", sorted(MALFORMED_CURVES))
def test_malformed_curve_file_exits_2_without_traceback(case, command, tmp_path, capsys):
    payload = _circle_payload()
    MALFORMED_CURVES[case](payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    rc = main([command, "--in", str(path), *COMMAND_TAILS[command], "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert err.startswith("error: malformed curve JSON: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["dual"], ["calapso", "--t", "0.4"], ["surface", "check"]], ids=["dual", "calapso", "check"]
)
def test_surface_file_with_a_malformed_mu_exits_2_without_traceback(argv, tmp_path, capsys):
    path = tmp_path / "bad.json"
    curve = _circle_payload()
    shifted = {**curve, "x": [[v + 3.0 for v in row] for row in curve["x"]]}
    path.write_text(json.dumps({"curves": [curve, shifted], "mu": ["x"]}))
    rc = main([*argv, "--in", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert err.startswith("error: malformed surface JSON: ")


def _reencoded(values: np.ndarray) -> str:
    return base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")


def _with_bits(value: float):
    def edit(array: dict) -> None:
        values = np.frombuffer(base64.b64decode(array["base64"]), dtype="<f8").copy()
        values[3] = value
        array["base64"] = _reencoded(values)

    return edit


# Edits of one encoded array of a file the package wrote.
CORRUPT_ARRAYS = {
    "base64-chars": lambda a: a.update(base64="*" + a["base64"][1:]),
    "byte-count": lambda a: a.update(
        base64=_reencoded(np.frombuffer(base64.b64decode(a["base64"]), dtype="<f8")[:-1])
    ),
    "big-endian": lambda a: a.update(dtype=">f8"),
    "nan-bits": _with_bits(np.nan),
    "inf-bits": _with_bits(-np.inf),
}
CORRUPT_COMMANDS = {"dual": [], "calapso": ["--t", "0.4"], "surface": ["check"]}


@pytest.mark.parametrize("command", sorted(CORRUPT_COMMANDS))
@pytest.mark.parametrize("case", sorted(CORRUPT_ARRAYS))
def test_corrupted_encoded_array_exits_2_with_one_error_line(case, command, tmp_path, capsys):
    curve = make_circle(1.0, Grid(0.0, 1.0, 11))
    path = tmp_path / "bad.json"
    if command == "surface":
        moved = PolarizedCurve(n=2, grid=curve.grid, x=curve.x + 3.0, xprime=curve.xprime, m=curve.m)
        fileio.save_surface(path, SemiDiscreteSurface(curves=[curve, moved], mu=[1.0]))
        payload = json.loads(path.read_text())
        target = payload["curves"][1]
    else:
        fileio.save_curve(path, curve)
        payload = target = json.loads(path.read_text())
    CORRUPT_ARRAYS[case](target["xprime"])
    path.write_text(json.dumps(payload))
    argv = [command, *CORRUPT_COMMANDS[command], "--in", str(path)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    if command == "surface":
        assert err.startswith("error: curve 1: "), err


def test_negative_seed_exits_2_without_traceback(capsys):
    assert main(["verify", "--suite", "clifford", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [
        "isothermic verify: error: argument --seed: seed must be a non-negative integer, got '-1'"
    ]


def _outward_cmc_file(tmp_path):
    path = tmp_path / "outward.json"
    assert main(["cmc", "--orientation", "outward", "--out", str(path)]) == 0
    return path


def test_outward_cmc_file_is_checked_without_crash(tmp_path, capsys):
    # m (x', x') < 0 on this file, so the nu factorization check does not apply.
    path = _outward_cmc_file(tmp_path)
    capsys.readouterr()
    assert main(["surface", "check", "--in", str(path)]) == 0
    rows = EDGE_ROW.findall(capsys.readouterr().out)
    assert len(rows) == 2 and all(row[3] == "n/a" for row in rows)
    assert main(["verify", "--surface", str(path)]) == 0
    assert "moutard lift skipped" in capsys.readouterr().out
    csv_path = tmp_path / "report.csv"
    assert main(["export", "--in", str(path), "--csv", str(csv_path)]) == 0
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",true") for row in rows)


def test_one_curve_surface_skips_edge_checks(tmp_path, capsys):
    curve = fileio.load_curve(_curve_file(tmp_path))
    path = tmp_path / "one.json"
    fileio.save_surface(path, SemiDiscreteSurface(curves=[curve], mu=[]))
    capsys.readouterr()
    assert main(["verify", "--surface", str(path)]) == 0
    out = capsys.readouterr().out
    assert "edge checks skipped" in out
    assert "moutard-normalization" in out and "moutard-pairing" not in out


def test_crashing_check_is_a_failed_row(monkeypatch, capsys):
    def broken(u):
        raise TypeError("broken kernel")

    monkeypatch.setattr(minkowski, "norm2", broken)
    assert main(["verify", "--suite", "minkowski"]) == 1
    out = capsys.readouterr().out
    assert "failed checks: minkowski-lift-isotropy" in out
    assert "TypeError: broken kernel" in out


def test_tolerance_names_are_validated(tmp_path, capsys):
    rc = main(["verify", "--suite", "clifford", "--tol-override", "clifford-asociativity=1"])
    assert rc == 2
    assert "clifford-asociativity" in capsys.readouterr().err
    surf = _outward_cmc_file(tmp_path)
    assert main(["surface", "check", "--in", str(surf), "--tol", "1e-3"]) == 2
    curve = _curve_file(tmp_path)
    assert main(["calapso", "--in", str(curve), "--t", "0.4", "--metric-correction", "off"]) == 2


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_tol_override_must_be_finite_and_positive(value, capsys):
    rc = main(["verify", "--suite", "all", "--tol-override", f"surface-isothermic={value}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        f"error: tolerance for surface-isothermic must be finite and > 0, got {value!r}\n"
    )


@pytest.mark.parametrize(
    "extra",
    [["--suite", "darboux"], ["--suite", "cmc"], ["--corrupt", "unit-circle"], ["--seed", "1"],
     ["--step-policy", "substep:2"]],
    ids=["suite-darboux", "suite-cmc", "corrupt", "seed", "step-policy"],
)
def test_verify_surface_rejects_fixture_options(extra, tmp_path, capsys):
    path = _outward_cmc_file(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--surface", str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


# Each command with a non-finite number for the option named by the id.
NON_FINITE = {
    "calapso-t": ["calapso", "--in", "{c}", "--t", "nan"],
    "darboux-mu": ["darboux", "--in", "{c}", "--mu", "inf", "--init", "2,0"],
    "darboux-init": ["darboux", "--in", "{c}", "--mu", "-2", "--init", "2,nan"],
    "curve-radius": ["curve", "--family", "circle", "--radius", "nan", "--out", "{out}"],
    "curve-pitch": ["curve", "--family", "helix", "--pitch", "inf", "--out", "{out}"],
    "curve-m": ["curve", "--family", "circle", "--m", "nan", "--out", "{out}"],
    "curve-grid": ["curve", "--family", "circle", "--grid", "0:inf:11", "--out", "{out}"],
    "cmc-radius": ["cmc", "--radius", "inf"],
    "cmc-delta": ["cmc", "--delta", "nan"],
    "surface-layers-mu": ["surface", "build", "--in", "{c}", "--layers", "nan:2,0",
                          "--out", "{out}"],
    "surface-layers-point": ["surface", "build", "--in", "{c}", "--layers", "-2:nan,0",
                             "--out", "{out}"],
    "bianchi-mu": ["bianchi", "--in", "{c}", "--mu", "-2,nan"],
    "bianchi-points": ["bianchi", "--in", "{c}", "--mu", "-2,1", "--points", "2,0;inf,0"],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_option_value_exits_2_naming_the_option(case, cli_files, tmp_path, capsys):
    out = tmp_path / "out"
    files = {"c": cli_files / "c.json", "out": out}
    argv = [arg.format(**files) for arg in NON_FINITE[case]]
    option = "--" + case.split("-")[1]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"error: argument {option}: " in errors[0], err
    assert not out.exists()


# Finite option values so large that float64 overflows inside the command.
HUGE = {
    "calapso-t": ["calapso", "--in", "{c}", "--t", "1e300", "--out", "{out}"],
    "darboux-mu": ["darboux", "--in", "{c}", "--mu", "1e300", "--init", "2,0", "--out", "{out}"],
    "curve-radius": ["curve", "--family", "circle", "--radius", "1e308", "--out", "{out}"],
    "cmc-radius": ["cmc", "--radius", "1e300", "--out", "{out}"],
}


@pytest.mark.parametrize("case", sorted(HUGE))
def test_overflowing_option_value_exits_2_with_one_error_line(case, cli_files, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [arg.format(c=cli_files / "c.json", out=out) for arg in HUGE[case]]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "overflow" in err, err
    assert not out.exists()


def test_parser_is_built_once_and_commands_are_looked_up_per_call(cli_files, monkeypatch):
    argv = ["dual", "--in", str(cli_files / "c.json")]
    assert main(argv) == 0
    parser = cli._parser()
    monkeypatch.setattr(cli, "cmd_dual", lambda args: 7)
    assert main(argv) == 7
    assert cli._parser() is parser


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("files")
    curve, surf = root / "c.json", root / "s.json"
    assert main(["curve", "--family", "circle", "--grid", "0:1:201", "--out", str(curve)]) == 0
    assert main(["surface", "build", "--in", str(curve), "--layers", "-2:2,0", "--out", str(surf)]) == 0
    return root


# Each command with the arguments it needs; {c} is a curve file, {s} a surface.
COMMAND_ARGS = {
    "curve": ["curve", "--family", "circle", "--out", "{out}"],
    "darboux": ["darboux", "--in", "{c}", "--mu", "-2", "--init", "2,0"],
    "bianchi": ["bianchi", "--in", "{c}", "--mu", "-2,1"],
    "surface-build": ["surface", "build", "--in", "{c}", "--layers", "-2:2,0", "--out", "{out}"],
    "surface-check": ["surface", "check", "--in", "{s}"],
    "surface-moutard": ["surface", "moutard", "--in", "{s}"],
    "dual": ["dual", "--in", "{c}"],
    "calapso": ["calapso", "--in", "{c}", "--t", "0.4"],
    "cmc": ["cmc"],
    "verify": ["verify", "--suite", "clifford"],
    "export": ["export", "--in", "{s}", "--csv", "{out}"],
}
SHARED_OPTIONS = {
    "--step-policy": ["--step-policy", "grid"],
    "--tol-override": ["--tol-override", "quad-cross-ratio=1e-30"],
    "--seed": ["--seed", "1"],
}
READERS = {
    "--step-policy": {"darboux", "verify"},
    "--tol-override": {"darboux", "bianchi", "surface-build", "surface-check", "surface-moutard",
                       "dual", "calapso", "cmc", "verify", "export"},
    "--seed": {"verify"},
}
UNREAD = {
    f"{command}{option}": COMMAND_ARGS[command] + SHARED_OPTIONS[option]
    for option in SHARED_OPTIONS
    for command in COMMAND_ARGS
    if command not in READERS[option]
}
UNREAD.update({
    f"surface-{mode}{option}": COMMAND_ARGS[f"surface-{mode}"] + tail
    for mode in ("check", "moutard")
    for option, tail in (("--layers", ["--layers", "-2:2,0"]), ("--out", ["--out", "{out}"]))
})
UNREAD.update({
    f"curve-{family}-{flag}": ["curve", "--family", family, f"--{flag}", value, "--out", "{out}"]
    for family, flag, value in (("line", "radius", "2"), ("circle", "pitch", "0.3"), ("helix", "n", "4"))
})


@pytest.mark.parametrize("case", sorted(UNREAD))
def test_option_the_command_does_not_read_exits_2(case, cli_files, tmp_path, capsys):
    out = tmp_path / "out"
    files = {"c": cli_files / "c.json", "s": cli_files / "s.json", "out": out}
    argv = [arg.format(**files) for arg in UNREAD[case]]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert not out.exists()


def test_export_honours_tol_override(tmp_path):
    src = _curve_file(tmp_path)
    surf = tmp_path / "s.json"
    main(["surface", "build", "--in", str(src), "--layers", "-2:2,0", "--out", str(surf)])
    csv_path = tmp_path / "report.csv"
    rc = main(
        ["export", "--in", str(surf), "--csv", str(csv_path),
         "--tol-override", "surface-isothermic=1e-30"]
    )
    assert rc == 0
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].endswith(",1e-30,false")
