"""Spans around every public function of the isothermic package.

``Tracer.install`` replaces every binding of a public function in every
``isothermic.*`` namespace (``from .darboux import x`` makes a separate
binding) and every public method of the package's classes with a wrapper
that records a span: name, start, end, parent span and segment.  A
segment is one timed operation or one certification, so spans carry the
operation they belong to.  Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its direct
children; since one thread runs everything, children never overlap.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = (
    "clifford", "minkowski", "curves", "darboux", "bianchi", "transforms",
    "surface", "cmc", "fileio", "fixtures", "cli",
)
COMMANDS = ("curve", "darboux", "bianchi", "surface", "dual", "calapso", "cmc", "verify", "export")
SUITES = ("clifford", "minkowski", "darboux", "bianchi", "calapso", "christoffel", "surface", "moutard", "cmc")

SAVE = ("fileio.save_curve", "fileio.save_surface", "fileio.export_obj", "fileio.write_report_csv",
        "fileio.curve_to_dict", "fileio.surface_to_dict")
LOAD = ("fileio.load_curve", "fileio.load_surface", "fileio.load_any",
        "fileio.dict_to_curve", "fileio.dict_to_surface")

# Functions with their own self_s / calls metrics.
SELF = (
    "darboux.integrate_parallel_section", "darboux.lightcone_restore", "darboux.integrate_riccati",
    "darboux.connection_samples", "curves.cubic_interp", "darboux.euclidean_section",
    "darboux.LightConeSection.to_curve", "minkowski.affine_point", "transforms.integrate_calapso",
    "transforms.christoffel_dual", "darboux.is_darboux_pair", "darboux.parallel_residual",
    "bianchi.bianchi_quad", "bianchi.bianchi_cube", "bianchi.check_quad", "bianchi.check_bigauge",
    "bianchi.moebius_cross_ratio", "clifford.geometric_product", "surface.build_surface",
    "surface.check_isothermic", "surface.surface_calapso", "surface.calapso_trivialization_residuals",
    "surface.moutard_lift", "cmc.mean_curvature", "cmc.cmc_linear_cq", "cmc.verify_koenigs",
)
CALLS = (
    "darboux.integrate_parallel_section", "darboux.lightcone_restore", "clifford.sandwich",
    "darboux.connection_samples", "curves.cubic_interp", "clifford.geometric_product",
)


def _steps(args: inspect.BoundArguments, source: str) -> float:
    return (args.arguments[source].grid.num - 1) * args.arguments["substeps"]


def _file_size(args: inspect.BoundArguments, _result) -> float:
    return float(os.path.getsize(args.arguments["path"]))


# Counters: span name -> (metric, f(bound arguments, result)).
COUNTERS = {
    "darboux.integrate_parallel_section": ("darboux.integrate_parallel_section.steps",
                                           lambda a, r: _steps(a, "source")),
    "darboux.integrate_riccati": ("darboux.integrate_riccati.steps", lambda a, r: _steps(a, "curve")),
    "transforms.integrate_calapso": ("transforms.integrate_calapso.steps", lambda a, r: _steps(a, "source")),
    "darboux.connection_samples": ("darboux.connection_samples.bytes", lambda a, r: float(r[0].nbytes)),
    **{name: ("fileio.save.bytes", _file_size) for name in SAVE[:4]},
    **{name: ("fileio.load.bytes", _file_size) for name in LOAD[:3]},
}
COUNTER_METRICS = sorted({metric for metric, _ in COUNTERS.values()})


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.calls"] = "count"
    for name in SELF:
        units[f"{name}.self_s"] = "s"
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for metric in COUNTER_METRICS:
        units[metric] = "B" if metric.endswith(".bytes") else "count"
    units["fileio.save.self_s"] = units["fileio.load.self_s"] = "s"
    for suite in SUITES:
        units[f"cli.verify.suite.{suite}.s"] = "s"
    for command in COMMANDS:
        units[f"cli.{command}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "1"
    units["trace.span_cover_share"] = "1"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.seg = array("i")
        # (pass, op index, phase, start, end) per segment
        self.segments: list[list] = []
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self._stack: list[int] = []
        self._current = -1

    # ------------------------------------------------------------ recording

    def begin(self, pass_index: int, op_index: int, phase: str) -> None:
        self._current = len(self.segments)
        self.segments.append([pass_index, op_index, phase, perf_counter(), 0.0])

    def finish(self) -> None:
        self.segments[self._current][4] = perf_counter()
        self._current = -1

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        stack, names, start, end, parent, seg = self._stack, self.name, self.start, self.end, self.parent, self.seg

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            seg.append(self._current)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter and self._current >= 0:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[counter[0], self._current] += counter[1](bound, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every public binding in the loaded isothermic modules."""
        wrappers: dict[int, object] = {}
        classes: set[int] = set()
        count = 0

        def wrapper_for(fn, label):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(label, fn)
            return wrappers[id(fn)]

        modules = [m for n, m in sorted(sys.modules.items()) if n == "isothermic" or n.startswith("isothermic.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                if attr.startswith("_") or not home.startswith("isothermic."):
                    continue
                layer = home.split(".")[-1]
                if isinstance(obj, type):
                    if id(obj) in classes or issubclass(obj, BaseException):
                        continue
                    classes.add(id(obj))
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, meth_name, wrapper_for(meth, f"{layer}.{obj.__qualname__}.{meth_name}"))
                            count += 1
                elif callable(obj):
                    label = f"{layer}.{getattr(obj, '__qualname__', attr)}"
                    setattr(module, attr, wrapper_for(obj, label))
                    count += 1
        cli = sys.modules["isothermic.cli"]
        for suite, fn in list(cli.SUITES.items()):
            cli.SUITES[suite] = self.wrap(f"cli.verify.suite.{suite}", fn)
            count += 1
        return count

    # -------------------------------------------------------------- results

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        children = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        return np.frombuffer(self.name, dtype=np.int32), dur, dur - children, parent

    def pass_metrics(self, passes: list[int]) -> dict[str, list[float]]:
        """Per-layer metrics for each of the given passes."""
        names, dur, self_time, parent = self._arrays()
        counts: dict[tuple[str, int], float] = defaultdict(float)
        for (metric, segment), value in self.counts.items():
            counts[metric, self.segments[segment][0]] += value
        # The trailing entry maps spans recorded outside any segment
        # (input preparation between operations) to no pass.
        seg_pass = np.array([s[0] for s in self.segments] + [-1], dtype=int)
        seg_is_op = np.array([s[2] == "op" for s in self.segments] + [False])
        span_pass = seg_pass[np.frombuffer(self.seg, dtype=np.int32)]
        span_in_op = seg_is_op[np.frombuffer(self.seg, dtype=np.int32)]
        layer_of = np.array([n.split(".")[0] for n in self.names] + [""])
        ids = self._ids
        out: dict[str, list[float]] = defaultdict(list)
        for p in passes:
            mask = span_pass == p
            nm, st = names[mask], self_time[mask]
            calls = np.bincount(nm, minlength=len(self.names) + 1)
            selfs = np.bincount(nm, weights=st, minlength=len(self.names) + 1)
            durs = np.bincount(nm, weights=dur[mask], minlength=len(self.names) + 1)
            layers = layer_of[nm]

            def by_name(name, table):
                return float(table[ids[name]]) if name in ids else 0.0

            for mod in MODULES:
                out[f"{mod}.self_s"].append(float(st[layers == mod].sum()))
                out[f"{mod}.calls"].append(float((layers == mod).sum()))
            for name in SELF:
                out[f"{name}.self_s"].append(by_name(name, selfs))
            for name in CALLS:
                out[f"{name}.calls"].append(by_name(name, calls))
            out["fileio.save.self_s"].append(sum(by_name(n, selfs) for n in SAVE))
            out["fileio.load.self_s"].append(sum(by_name(n, selfs) for n in LOAD))
            for suite in SUITES:
                out[f"cli.verify.suite.{suite}.s"].append(by_name(f"cli.verify.suite.{suite}", durs))
            for command in COMMANDS:
                out[f"cli.{command}.self_s"].append(by_name(f"cli.cmd_{command}", selfs))
            for metric in COUNTER_METRICS:
                out[metric].append(counts[metric, p])
            op_time = sum(s[4] - s[3] for s in self.segments if s[0] == p and s[2] == "op")
            top = mask & span_in_op & (parent < 0)
            out["trace.span_cover_share"].append(float(dur[top].sum()) / op_time if op_time > 0 else 0.0)
        return out

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        names, dur, self_time, parent = self._arrays()
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,self_s,parent,pass,op,phase\n")
            for i, seg in enumerate(self.seg):
                p, op, phase = self.segments[seg][:3] if seg >= 0 else (-1, -1, "")
                fh.write(f"{i},{self.names[names[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self_time[i]:.9f},{parent[i]},{p},{op},{phase}\n")
