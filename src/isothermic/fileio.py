"""JSON curve/surface formats, OBJ mesh export, and CSV reports.

Curve and surface files are compact JSON.  Each numeric array is stored
as ``{"dtype": "<f8", "shape": [...], "base64": "..."}``: its
little-endian float64 bytes, base64-encoded, so every bit of every
number (-0.0, subnormals, the largest double) survives a round trip and
save -> load -> save is byte-identical.  Scalars (``n``, the grid,
surface ``mu``) stay JSON numbers.  The writer streams each array a
chunk of rows at a time, so writing never holds a copy of the whole
file; chunks are a multiple of three bytes long, so together they read
exactly as one ``b64encode`` of the array.  The reader also accepts an
array written as a nested list of numbers, the form of files from
earlier versions and of ``json.dumps(curve_to_dict(curve))``, with any
whitespace.  Numbers must be finite in either form, and nothing is
written unless every number is.
"""

from __future__ import annotations

import base64
import csv
import json
import math
from pathlib import Path

import numpy as np

from .curves import Grid, PolarizedCurve, derivative_samples
from .errors import DimensionError, GeometryError
from .surface import SemiDiscreteSurface

__all__ = [
    "curve_to_dict",
    "dict_to_curve",
    "save_curve",
    "load_curve",
    "surface_to_dict",
    "dict_to_surface",
    "save_surface",
    "load_surface",
    "load_any",
    "export_obj",
    "write_report_csv",
]


# The one array encoding in files: little-endian float64.
_DTYPE = "<f8"


def _require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{what} contains non-finite numbers")
    return arr


def _curve_payload(curve: PolarizedCurve) -> dict:
    return {
        "n": curve.n,
        "grid": {"s0": curve.grid.s0, "s1": curve.grid.s1, "N": curve.grid.num},
        "x": curve.x,
        "m": curve.m,
        "xprime": curve.xprime,
    }


def _surface_payload(surface: SemiDiscreteSurface) -> dict:
    return {"curves": [_curve_payload(c) for c in surface.curves], "mu": list(surface.mu)}


def curve_to_dict(curve: PolarizedCurve) -> dict:
    """The curve with arrays as nested lists, a form that ``load_curve`` reads."""
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in _curve_payload(curve).items()
    }


def _decode(value, what: str) -> np.ndarray:
    """An array from its encoded-array object or from a nested list."""
    if isinstance(value, dict):
        if value["dtype"] != _DTYPE:
            raise ValueError(f"{what} has dtype {value['dtype']!r}, expected {_DTYPE!r}")
        shape = value["shape"]
        if not isinstance(shape, list) or not all(type(k) is int and k >= 0 for k in shape):
            raise ValueError(f"{what} has shape {shape!r}, expected a list of counts")
        try:
            raw = base64.b64decode(value["base64"], validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII string
            raise ValueError(f"{what} is not valid base64 ({exc})") from exc
        expected = 8 * math.prod(shape)
        if len(raw) != expected:
            raise ValueError(f"{what} holds {len(raw)} bytes, shape {shape} needs {expected}")
        value = np.frombuffer(raw, dtype=_DTYPE).astype(float).reshape(shape)
    return _require_finite(value, what)


def dict_to_curve(payload: dict) -> PolarizedCurve:
    try:
        n = int(payload["n"])
        g = payload["grid"]
        grid = Grid(float(g["s0"]), float(g["s1"]), int(g["N"]))
        x = _decode(payload["x"], "x")
        m = _decode(payload["m"], "m")
        xprime = _decode(payload["xprime"], "xprime") if "xprime" in payload else None
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"malformed curve JSON: {exc}") from exc
    if x.shape != (grid.num, n):
        raise DimensionError(f"x has shape {x.shape}, expected {(grid.num, n)}")
    if xprime is None:
        xprime = derivative_samples(x, grid)
    return PolarizedCurve(n=n, grid=grid, x=x, xprime=xprime, m=m)


def surface_to_dict(surface: SemiDiscreteSurface) -> dict:
    """The surface with arrays as nested lists, a form that ``load_surface`` reads."""
    return {
        "curves": [curve_to_dict(c) for c in surface.curves],
        "mu": list(surface.mu),
    }


def _layer(k: int, payload: dict) -> PolarizedCurve:
    try:
        return dict_to_curve(payload)
    except GeometryError as exc:
        raise type(exc)(f"curve {k}: {exc}") from exc


def dict_to_surface(payload: dict) -> SemiDiscreteSurface:
    try:
        curves = [_layer(k, c) for k, c in enumerate(payload["curves"])]
        mu = [float(v) for v in payload["mu"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"malformed surface JSON: {exc}") from exc
    return SemiDiscreteSurface(curves=curves, mu=mu)


def _reject_constant(text: str):
    raise GeometryError(f"non-finite JSON number {text!r} is not allowed")


# Array rows encoded and written together, rounded down to a multiple of
# three: a chunk whose byte count is a multiple of three encodes to base64
# without padding, so the chunks concatenate to the encoding of the whole
# array.
_WRITE_ROWS = 1024


def _check_finite(value, where: str) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, key)
    elif isinstance(value, list):
        for item in value:
            _check_finite(item, where)
    elif isinstance(value, (float, np.ndarray)) and not np.all(np.isfinite(value)):
        raise GeometryError(f"refusing to write non-finite numbers in {where!r}")


def _stream(value, write) -> None:
    """Write ``value`` as ``json.dumps`` would, arrays as encoded-array objects."""
    if isinstance(value, dict):
        write("{")
        for i, (key, item) in enumerate(value.items()):
            write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _stream(item, write)
        write("}")
    elif isinstance(value, list):
        write("[")
        for i, item in enumerate(value):
            if i:
                write(", ")
            _stream(item, write)
        write("]")
    elif isinstance(value, np.ndarray):
        write(f'{{"dtype": "{_DTYPE}", "shape": {json.dumps(list(value.shape))}, "base64": "')
        rows = 3 * max(1, _WRITE_ROWS // 3)
        for k in range(0, len(value), rows):
            chunk = value[k : k + rows].astype(_DTYPE, copy=False).tobytes()
            write(base64.b64encode(chunk).decode("ascii"))
        write('"}')
    else:
        write(json.dumps(value))


def _dump(payload: dict, path: str | Path) -> None:
    _check_finite(payload, "payload")
    with open(path, "w", encoding="utf-8") as fh:
        _stream(payload, fh.write)
        fh.write("\n")


def _load(path: str | Path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GeometryError(f"{path}: invalid JSON ({exc})") from exc


def save_curve(path: str | Path, curve: PolarizedCurve) -> None:
    _dump(_curve_payload(curve), path)


def load_curve(path: str | Path) -> PolarizedCurve:
    return dict_to_curve(_load(path))


def save_surface(path: str | Path, surface: SemiDiscreteSurface) -> None:
    _dump(_surface_payload(surface), path)


def load_surface(path: str | Path) -> SemiDiscreteSurface:
    return dict_to_surface(_load(path))


def load_any(path: str | Path) -> PolarizedCurve | SemiDiscreteSurface:
    """Load a JSON file as a surface when it has layered curves, else a curve."""
    payload = _load(path)
    if "curves" in payload:
        return dict_to_surface(payload)
    return dict_to_curve(payload)


def export_obj(path: str | Path, surface: SemiDiscreteSurface) -> None:
    """Quad mesh of the layered samples; n = 2 is padded flat, n = 4 rejected."""
    if surface.n > 3:
        raise DimensionError("OBJ export supports n = 2 or 3 only")
    num = surface.grid.num
    lines = ["o surface"]
    for curve in surface.curves:
        pts = curve.x
        if surface.n == 2:
            pts = np.concatenate([pts, np.zeros((num, 1))], axis=1)
        for row in pts:
            lines.append("v " + " ".join(repr(float(v)) for v in row))
    for i in range(surface.num_layers - 1):
        base_a = i * num
        base_b = (i + 1) * num
        for k in range(num - 1):
            lines.append(
                f"f {base_a + k + 1} {base_a + k + 2} {base_b + k + 2} {base_b + k + 1}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report_csv(path: str | Path, rows: list[tuple]) -> None:
    """Rows of (check, edge_or_curve, max_residual, tolerance, pass)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "edge_or_curve", "max_residual", "tolerance", "pass"])
        for check, where, residual, tol, passed in rows:
            writer.writerow(
                [check, where, repr(float(residual)), repr(float(tol)), str(bool(passed)).lower()]
            )
