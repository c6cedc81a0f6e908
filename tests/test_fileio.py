"""Serialization tests: JSON curves/surfaces, OBJ meshes, CSV reports."""

import json

import numpy as np
import pytest

from isothermic import fileio
from isothermic.curves import PolarizedCurve
from isothermic.errors import DimensionError, GeometryError
from isothermic.fixtures import cylinder_patch, default_grid, unit_circle
from isothermic.surface import SemiDiscreteSurface


def test_curve_roundtrip_is_byte_identical(tmp_path):
    c = unit_circle()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    fileio.save_curve(p1, c)
    again = fileio.load_curve(p1)
    fileio.save_curve(p2, again)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(again.x, c.x)
    assert np.array_equal(again.xprime, c.xprime)
    assert np.array_equal(again.m, c.m)
    assert again.grid == c.grid


def test_indented_curve_file_still_loads(tmp_path):
    # Files written before the compact layout carry indent=2 whitespace.
    c = unit_circle()
    path = tmp_path / "indented.json"
    path.write_text(json.dumps(fileio.curve_to_dict(c), indent=2) + "\n")
    again = fileio.load_curve(path)
    assert np.array_equal(again.x, c.x)
    assert np.array_equal(again.xprime, c.xprime)
    assert np.array_equal(again.m, c.m)
    assert again.grid == c.grid


def test_surface_roundtrip(tmp_path):
    surface = cylinder_patch()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    fileio.save_surface(p1, surface)
    again = fileio.load_surface(p1)
    fileio.save_surface(p2, again)
    assert p1.read_bytes() == p2.read_bytes()
    assert again.mu == surface.mu
    assert all(
        np.array_equal(a.x, b.x) for a, b in zip(again.curves, surface.curves)
    )


def test_load_any_dispatches_on_content(tmp_path):
    cp, sp = tmp_path / "c.json", tmp_path / "s.json"
    fileio.save_curve(cp, unit_circle())
    fileio.save_surface(sp, cylinder_patch())
    assert isinstance(fileio.load_any(cp), PolarizedCurve)
    assert isinstance(fileio.load_any(sp), SemiDiscreteSurface)


def test_missing_xprime_falls_back_to_finite_differences(tmp_path):
    c = unit_circle()
    payload = fileio.curve_to_dict(c, include_xprime=False)
    assert "xprime" not in payload
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    again = fileio.load_curve(path)
    # interior stencil is fourth order; one-sided ends dominate the gap
    assert np.max(np.abs(again.xprime - c.xprime)) < 1e-8


def test_malformed_json_raises_geometry_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GeometryError):
        fileio.load_curve(path)
    path.write_text(json.dumps({"grid": {"s0": 0.0}}))
    with pytest.raises(GeometryError):
        fileio.load_curve(path)


def test_nan_rejected_on_save_and_load(tmp_path):
    c = unit_circle()
    x = c.x.copy()
    x[3, 0] = np.nan
    broken = PolarizedCurve(n=2, grid=c.grid, x=x, xprime=c.xprime, m=c.m)
    with pytest.raises(GeometryError):
        fileio.save_curve(tmp_path / "n.json", broken)
    path = tmp_path / "inf.json"
    payload = fileio.curve_to_dict(c)
    text = json.dumps(payload).replace("1.0", "NaN", 1)
    path.write_text(text)
    with pytest.raises(GeometryError):
        fileio.load_curve(path)


def test_shape_mismatch_raises(tmp_path):
    payload = fileio.curve_to_dict(unit_circle())
    payload["x"] = payload["x"][:-1]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DimensionError):
        fileio.load_curve(path)


def test_obj_export_structure(tmp_path):
    surface = cylinder_patch(default_grid(num=11))
    path = tmp_path / "mesh.obj"
    fileio.export_obj(path, surface)
    lines = path.read_text().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 2 * 11
    assert len(faces) == 10
    # n = 2 pads the third coordinate with zero
    assert all(l.split()[3] == "0.0" for l in verts)
    first = faces[0].split()[1:]
    assert first == ["1", "2", "13", "12"]


def test_obj_export_rejects_high_dimension(tmp_path):
    grid = default_grid(num=11)
    s = grid.nodes()
    x = np.stack([np.cos(s), np.sin(s), s, s], axis=1)
    xp = np.stack([-np.sin(s), np.cos(s), np.ones(11), np.ones(11)], axis=1)
    c = PolarizedCurve(n=4, grid=grid, x=x, xprime=xp, m=np.ones(11))
    shifted = PolarizedCurve(n=4, grid=grid, x=x + 0.1, xprime=xp, m=np.ones(11))
    surface = SemiDiscreteSurface(curves=[c, shifted], mu=[1.0])
    with pytest.raises(DimensionError):
        fileio.export_obj(tmp_path / "mesh.obj", surface)


def test_report_csv(tmp_path):
    path = tmp_path / "report.csv"
    fileio.write_report_csv(
        path,
        [
            ("edge-certificate", "edge 0", 1.5e-13, 1e-6, True),
            ("flatness", "edge 1", 2.0e-3, 1e-6, False),
        ],
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "check,edge_or_curve,max_residual,tolerance,pass"
    assert lines[1] == "edge-certificate,edge 0,1.5e-13,1e-06,true"
    assert lines[2].endswith(",false")
