"""JSON curve/surface formats, OBJ mesh export, and CSV reports.

Curves and surfaces are written as compact JSON (no indentation) and
streamed to the file a block of rows at a time, so writing never holds
a copy of the whole file: each block is the ``repr`` of a nested list,
whose separators and float form are those of ``json.dumps``, and the
file is byte-identical to ``json.dumps(curve_to_dict(curve))``.  Files
in the older indented layout still load, since the reader does not
care about whitespace.  JSON numbers must be finite, and nothing is
written unless every number is; files round-trip byte-identically
because floats are printed in Python's shortest-roundtrip form and keys
keep a fixed order.
"""

from __future__ import annotations

import csv
import json
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


def _require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{what} contains non-finite numbers")
    return arr


def _curve_payload(curve: PolarizedCurve, include_xprime: bool = True) -> dict:
    payload = {
        "n": curve.n,
        "grid": {"s0": curve.grid.s0, "s1": curve.grid.s1, "N": curve.grid.num},
        "x": curve.x,
        "m": curve.m,
    }
    if include_xprime:
        payload["xprime"] = curve.xprime
    return payload


def _surface_payload(surface: SemiDiscreteSurface) -> dict:
    return {"curves": [_curve_payload(c) for c in surface.curves], "mu": list(surface.mu)}


def curve_to_dict(curve: PolarizedCurve, include_xprime: bool = True) -> dict:
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in _curve_payload(curve, include_xprime).items()
    }


def dict_to_curve(payload: dict) -> PolarizedCurve:
    try:
        n = int(payload["n"])
        g = payload["grid"]
        grid = Grid(float(g["s0"]), float(g["s1"]), int(g["N"]))
        x = _require_finite(payload["x"], "x")
        m = _require_finite(payload["m"], "m")
        xprime = _require_finite(payload["xprime"], "xprime") if "xprime" in payload else None
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"malformed curve JSON: {exc}") from exc
    if x.shape != (grid.num, n):
        raise DimensionError(f"x has shape {x.shape}, expected {(grid.num, n)}")
    if xprime is None:
        xprime = derivative_samples(x, grid)
    return PolarizedCurve(n=n, grid=grid, x=x, xprime=xprime, m=m)


def surface_to_dict(surface: SemiDiscreteSurface) -> dict:
    return {
        "curves": [curve_to_dict(c) for c in surface.curves],
        "mu": list(surface.mu),
    }


def dict_to_surface(payload: dict) -> SemiDiscreteSurface:
    try:
        curves = [dict_to_curve(c) for c in payload["curves"]]
        mu = [float(v) for v in payload["mu"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"malformed surface JSON: {exc}") from exc
    return SemiDiscreteSurface(curves=curves, mu=mu)


def _reject_constant(text: str):
    raise GeometryError(f"non-finite JSON number {text!r} is not allowed")


# Array rows converted and written together.
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
    """Write ``value`` as ``json.dumps`` would, arrays a block of rows at a time."""
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
        write("[")
        for k in range(0, len(value), _WRITE_ROWS):
            if k:
                write(", ")
            write(repr(value[k : k + _WRITE_ROWS].tolist())[1:-1])
        write("]")
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
