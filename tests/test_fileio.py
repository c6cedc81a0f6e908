"""Serialization tests: JSON curves/surfaces, OBJ meshes, CSV reports."""

import base64
import json
import tracemalloc

import numpy as np
import pytest

from isothermic import fileio
from isothermic.curves import Grid, PolarizedCurve
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
    payload = fileio.curve_to_dict(c)
    del payload["xprime"]
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
    broken = PolarizedCurve(n=2, grid=c.grid, x=c.x.copy(), xprime=c.xprime, m=c.m)
    broken.x[3, 0] = np.nan  # after the constructor's checks
    with pytest.raises(GeometryError):
        fileio.save_curve(tmp_path / "n.json", broken)
    path = tmp_path / "inf.json"
    payload = fileio.curve_to_dict(c)
    text = json.dumps(payload).replace("1.0", "NaN", 1)
    path.write_text(text)
    with pytest.raises(GeometryError):
        fileio.load_curve(path)


def _one_shot(rows: list) -> dict:
    arr = np.array(rows, dtype="<f8")
    text = base64.b64encode(arr.tobytes()).decode("ascii")
    return {"dtype": "<f8", "shape": list(arr.shape), "base64": text}


def _encoded_curve(payload: dict) -> dict:
    return {k: _one_shot(v) if k in ("x", "m", "xprime") else v for k, v in payload.items()}


def _json_text(payload: dict) -> bytes:
    return (json.dumps(payload, allow_nan=False) + "\n").encode("utf-8")


def _wavy_curve(n: int, num: int, m: float) -> PolarizedCurve:
    grid = Grid(-1.0, 2.0, num)
    s = grid.nodes()
    k = np.arange(1, n + 1)
    x = np.sin(np.outer(s, k)) / k
    x[1] = [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308][:n]
    xprime = np.cos(np.outer(s, k)) + 2.0
    return PolarizedCurve(n=n, grid=grid, x=x, xprime=xprime, m=m * (1.5 + np.sin(s)))


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("num", [11, fileio._WRITE_ROWS, fileio._WRITE_ROWS + 1, 2500])
def test_streamed_curve_file_is_json_dumps_byte_for_byte(n, num, tmp_path):
    # One chunk of rows, and two or three (chunks hold 1023 rows).
    c = _wavy_curve(n, num, m=-0.5 if n == 3 else 1.0)
    path = tmp_path / "c.json"
    fileio.save_curve(path, c)
    assert path.read_bytes() == _json_text(_encoded_curve(fileio.curve_to_dict(c)))
    again = fileio.load_curve(path)
    for field in ("x", "xprime", "m"):
        assert getattr(again, field).tobytes() == getattr(c, field).tobytes()


@pytest.mark.parametrize("layers", [1, 3])
def test_streamed_surface_file_is_json_dumps_byte_for_byte(layers, tmp_path):
    base = _wavy_curve(2, fileio._WRITE_ROWS + 7, m=-1.0)
    curves = [
        PolarizedCurve(n=2, grid=base.grid, x=base.x + k, xprime=base.xprime, m=base.m)
        for k in range(layers)
    ]
    surface = SemiDiscreteSurface(curves=curves, mu=[-2.0, 0.3][: layers - 1])
    path = tmp_path / "s.json"
    fileio.save_surface(path, surface)
    payload = fileio.surface_to_dict(surface)
    expected = {"curves": [_encoded_curve(c) for c in payload["curves"]], "mu": payload["mu"]}
    assert path.read_bytes() == _json_text(expected)


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
@pytest.mark.parametrize("kind", ["curve", "surface"])
def test_list_form_file_loads_exactly_and_resaves_encoded(kind, indent, tmp_path):
    # Files written before the encoded arrays hold nested lists of numbers.
    c = _wavy_curve(3, 40, m=-0.5)
    if kind == "curve":
        source, curves = c, [c]
        to_dict, save, load = fileio.curve_to_dict, fileio.save_curve, fileio.load_curve
    else:
        moved = PolarizedCurve(n=3, grid=c.grid, x=c.x + 1.0, xprime=c.xprime, m=c.m)
        source = SemiDiscreteSurface(curves=[c, moved], mu=[-2.0])
        curves = source.curves
        to_dict, save, load = fileio.surface_to_dict, fileio.save_surface, fileio.load_surface
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(to_dict(source), indent=indent) + "\n")
    again = load(old)
    for a, b in zip(again.curves if kind == "surface" else [again], curves, strict=True):
        for field in ("x", "xprime", "m"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    save(new, again)
    text = new.read_text()
    assert "[[" not in text and text.count('"base64": ') == 3 * len(curves)
    save(old, source)
    assert new.read_bytes() == old.read_bytes()


def test_load_curve_working_set_is_bounded(tmp_path):
    # Read from nested lists of Python floats, this curve took 0.91 MB
    # beyond the arrays it returns; from encoded arrays it takes 0.23 MB,
    # mostly the file's text and the base64 strings parsed from it.
    c = _wavy_curve(3, 2001, m=1.0)
    path = tmp_path / "c.json"
    fileio.save_curve(path, c)
    tracemalloc.start()
    try:
        again = fileio.load_curve(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    excess = peak - again.x.nbytes - again.xprime.nbytes - again.m.nbytes
    assert excess < 0.35e6, excess


@pytest.mark.parametrize("field", ["x", "m", "xprime", "mu"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_number_is_refused_before_any_byte_is_written(field, value, tmp_path):
    c = _wavy_curve(2, 11, m=1.0)
    path = tmp_path / "out.json"
    if field == "mu":
        surface = SemiDiscreteSurface(curves=[c, c], mu=[1.0])
        surface.mu[0] = value
        with pytest.raises(GeometryError):
            fileio.save_surface(path, surface)
    else:
        getattr(c, field)[-1] = value  # after the constructor's checks
        with pytest.raises(GeometryError):
            fileio.save_curve(path, c)
    assert not path.exists()


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
    # The same bytes as one repr(float(v)) per coordinate.
    expected = ["o surface"]
    for curve in surface.curves:
        for row in np.concatenate([curve.x, np.zeros((11, 1))], axis=1):
            expected.append("v " + " ".join(repr(float(v)) for v in row))
    expected += [f"f {k + 1} {k + 2} {k + 13} {k + 12}" for k in range(10)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


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
