"""Benchmark of the isothermic package.

    python3 bench/run.py --workload curve-long --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload, single-threaded, as a closed
loop with one client: each operation starts when the previous one and
its certificate are done.  Operations call the package from outside
(CLI commands run in-process through ``cli.main``); each one is timed on
its own and certified afterwards, outside the timed region.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then wraps every public function of the package and
reports per-layer metrics, per pass, as medians over the traced passes.
The last line of standard output is the JSON result; the full record of
every operation (timing next to residuals) and, when traced, every span
is written under ``.bench_out/``.  See README.md for the metrics.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import signal
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "verify_all_s": "s",
    "pass_ratio": "1",
    "peak_rss_mb": "MB",
}
# Samples of set-up and of `verify --suite all` per untraced run.
SETUP_SAMPLES = 5
VERIFY_SAMPLES = 5
# Nominal seconds of SpeedClock.probe(), and how often it samples during a call.
PROBE_S = 0.0003
PROBE_EVERY_S = 0.02


class SpeedClock:
    """Times calls at a reference machine speed.

    Shared machines switch between speed states, sometimes for tens of
    seconds and sometimes several times a second, which moves raw wall
    times by up to 60%.  So a fixed probe kernel runs five times before
    and after each call and, from an interval timer, every PROBE_EVERY_S
    during it.  The call's time without the probes is scaled by PROBE_S
    over the probes' mean time (the slowest tenth dropped as interrupted),
    so it reads as the time on a machine that runs the probe in PROBE_S.
    """

    def __init__(self):
        import numpy as np

        self.mats = np.random.default_rng(0).standard_normal((30, 5, 5)) * 0.1
        self.values = np.random.default_rng(1).standard_normal(60).tolist()
        self.ones = np.ones(5)
        self.during: list[float] | None = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self.during is not None:
            self.during.append(self.probe())

    def probe(self) -> float:
        """Wall time of a fixed kernel that does, in about equal parts, the
        package's three kinds of work: small numpy products in a Python
        loop, pure-interpreter arithmetic, and JSON encoding."""
        t0 = time.perf_counter()
        y = self.ones
        for mat in self.mats:
            y = y + 0.01 * (mat @ y)
        acc = 0
        for i in range(1500):
            acc += i * i
        json.dumps(self.values, indent=2)
        return time.perf_counter() - t0

    def time(self, fn, during_call: bool = True) -> dict:
        """Run fn() once; exceptions are returned, not raised.

        Traced runs pass ``during_call=False``: a probe inside the call
        would add to the self time of whichever span is open.
        """
        samples = [self.probe() for _ in range(5)]
        during: list[float] = []
        if during_call:
            self.during = during
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:  # a failed operation is data, not the end of the run
            value, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            raw = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self.during = None
        samples = sorted(samples + during + [self.probe() for _ in range(5)])
        kept = samples[: len(samples) - len(samples) // 10]
        raw -= sum(during)
        mean = sum(kept) / len(kept)
        return {"seconds": raw * PROBE_S / mean, "raw_seconds": raw, "probe_mean_s": mean,
                "probes": len(samples), "value": value, "error": error}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb every generated input curve (negative control)")
    return p.parse_args(argv)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: always one of the samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    """Runs passes of one workload and records every operation.

    ``side`` maps a name to (callable, count): side measurements (a
    set-up, a ``verify`` call) spread evenly over the timed phase, so
    that they see the same mix of machine states as the operations.
    """

    def __init__(self, workload, clock: SpeedClock, tracer=None, side=None):
        self.workload = workload
        self.clock = clock
        self.tracer = tracer
        self.records: list[dict] = []
        self.side = side or {}
        self.samples: dict[str, list[dict]] = {name: [] for name in self.side}

    def side_samples(self, progress: float) -> None:
        for name, (fn, count) in self.side.items():
            taken = self.samples[name]
            while len(taken) < count and progress >= (len(taken) + 1) / (count + 1):
                sample = self.clock.time(fn)
                sample.pop("value")
                taken.append(sample)

    def execute(self, op, pass_index: int, op_index: int) -> dict:
        from isothermic import cli

        tracer = self.tracer

        def run():
            if tracer:
                tracer.begin(pass_index, op_index, "op")
            try:
                return op.run()
            finally:
                if tracer:
                    tracer.finish()

        timing = self.clock.time(run, during_call=tracer is None)
        value, error = timing.pop("value"), timing.pop("error")
        if tracer:
            tracer.begin(pass_index, op_index, "cert")
        rows = []
        if error is None:
            try:
                for label, key, residual in op.certify(value):
                    tol = cli.TOLERANCES[key]
                    residual = float(residual)
                    if key in cli.MIN_CHECKS:
                        ok = residual > tol
                        headroom = math.log10(max(residual, 1e-300) / tol)
                    else:
                        ok = residual <= tol
                        headroom = math.log10(tol / max(residual, 1e-300)) if residual == residual else -math.inf
                    rows.append({"check": label, "tolerance_key": key, "residual": residual,
                                 "tolerance": tol, "headroom_dec": headroom, "ok": ok})
            except Exception as exc:
                error = f"certificate raised {type(exc).__name__}: {exc}"
        if tracer:
            tracer.finish()
        ok = error is None and bool(rows) and all(r["ok"] for r in rows)
        if error is None and not ok:
            error = "over tolerance: " + ", ".join(r["check"] for r in rows if not r["ok"])
        record = {"pass": pass_index, "op": op_index, "name": op.name, **timing, "ok": ok,
                  "known_defect": op.known_defect, "error": error, "certificates": rows}
        self.records.append(record)
        return record

    def run_passes(self, first: int, seconds: float, min_passes: int) -> list[int]:
        """Whole passes until ``min_passes`` ran and op time reached ``seconds``."""
        op_time, index = 0.0, first
        while index - first < min_passes or op_time < seconds:
            for k, op in enumerate(self.workload.pass_ops(index)):
                op_time += self.execute(op, index, k)["raw_seconds"]
                self.side_samples(op_time / seconds if seconds > 0 else 1.0)
            index += 1
        self.side_samples(1.0)
        return list(range(first, index))


def headroom_by_check(records: list[dict]) -> dict[str, float]:
    """Median headroom per certificate row over the operations that passed."""
    by_check: dict[str, list[float]] = {}
    for rec in records:
        if rec["ok"]:
            for row in rec["certificates"]:
                by_check.setdefault(row["check"], []).append(row["headroom_dec"])
    return {k: statistics.median(v) for k, v in by_check.items()}


def provenance(args, workload) -> dict:
    import numpy as np

    src_files = sorted((SRC / "isothermic").glob("*.py"))
    lines = {f.stem: sum(1 for _ in open(f, encoding="utf-8")) for f in src_files}
    digest = hashlib.sha256()
    for f in src_files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(lines.values()),
        "src_lines_by_module": lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "corrupt": args.corrupt,
        "step_policy": "grid (substeps = 1, the CLI default)",
        "metric_correction": "every 50 steps (the CLI and library default)",
        "inputs": workload.describe(),
        "clients": "one, closed loop, in-process",
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isothermic" / "__init__.py").is_file():
        print(f"bench: no isothermic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        return measure(args, make, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, make, work: Path) -> int:
    from tracing import Tracer, metric_units
    from workloads import cli_call

    clock = SpeedClock()

    def set_up(where: Path):
        where.mkdir(exist_ok=True)
        workload = make(args.seed, where, tiny=args.tiny, corrupt=args.corrupt)
        workload.setup()
        warm = workload.warmup()
        try:
            warm.run()
        except Exception as exc:  # counted by the timed phase if it persists
            print(f"warm-up {warm.name} raised {type(exc).__name__}: {exc}")
        return workload

    first_setup = clock.time(lambda: set_up(work))
    workload = first_setup.pop("value")
    if first_setup["error"]:
        print(f"bench: set-up failed: {first_setup['error']}", file=sys.stderr)
        return 1
    digest = workload.input_digest()

    if args.trace:
        untraced = Runner(workload, clock)
        base_passes = untraced.run_passes(0, 0.0, 1)
        base_s = sum(r["seconds"] for r in untraced.records)
        tracer = Tracer()
        wrapped = tracer.install()
        runner = Runner(workload, clock, tracer)
        passes = runner.run_passes(base_passes[-1] + 1, args.seconds, 1)
    else:
        # Later set-ups build the same inputs in a directory of their own.
        # verify_all_s times the plain command, default seed, whose work
        # does not change with the benchmark seed.
        verify_argv = ["verify", "--suite", "all", "--csv", str(work / "probe.csv")]
        codes = []
        side = {
            "setup": (lambda: set_up(work / "setup"), 1 if args.tiny else SETUP_SAMPLES - 1),
            "verify": (lambda: codes.append(cli_call(verify_argv)[0]), 1 if args.tiny else VERIFY_SAMPLES),
        }
        runner = Runner(workload, clock, side=side)
        passes = runner.run_passes(0, args.seconds, workload.min_passes)

    records = runner.records
    attempted = len(records)
    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    reported = {"fail_ratio": (len(failed) / attempted, "1")}
    summary = {
        "attempted": attempted,
        "failed": len(failed),
        "failed_unexpected": len(unexpected),
        "passes": len(passes),
        "ops_per_pass": attempted // len(passes),
        "input_digest": digest,
    }
    if args.trace:
        units = metric_units()
        per_pass = tracer.pass_metrics(passes)
        # Scale each pass's times by that pass's reference speed.
        scale = {p: statistics.median(PROBE_S / r["probe_mean_s"] for r in records if r["pass"] == p)
                 for p in passes}
        metrics = {}
        for name, unit in units.items():
            values = per_pass.get(name, [0.0])
            if unit == "s":
                values = [v * scale[p] for v, p in zip(values, passes)]
            metrics[name] = statistics.median(values)
        traced_pass_s = [sum(r["seconds"] for r in records if r["pass"] == p) for p in passes]
        overhead = statistics.median(traced_pass_s) - base_s
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / base_s
        summary.update({"untraced_pass_s": base_s, "traced_pass_s": traced_pass_s,
                        "wrapped_bindings": wrapped, "spans": len(tracer.start)})
        # One file per workload, replaced by each traced run: a run writes
        # up to a few million spans.
        spans_path = OUT / f"{args.workload}.spans.csv.gz"
        tracer.write(spans_path)
        summary["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        units = END_TO_END_UNITS
        setup_s = [first_setup] + runner.samples["setup"]
        verify_s = [r["seconds"] for r in runner.samples["verify"]]
        summary.update({
            "setup_samples_s": [r["seconds"] for r in setup_s],
            "setup_samples_raw_s": [r["raw_seconds"] for r in setup_s],
            "verify_samples_s": verify_s,
        })
        if any(codes):
            unexpected.append({"name": "verify-probe", "error": f"exit codes {codes}"})
        for sample in setup_s + runner.samples["verify"]:
            if sample["error"]:
                unexpected.append({"name": "side-sample", "error": sample["error"]})
        # Percentiles are over the operations that passed (all of them if
        # none did): a failed one can end on any path (the known Calapso
        # defect changes path with rounding), and pass_ratio counts failures.
        passed = [r for r in records if r["ok"]] or records
        latencies = [r["seconds"] for r in passed]
        metrics = {
            "setup_s": statistics.median(r["seconds"] for r in setup_s),
            "ops_per_s": attempted / sum(r["seconds"] for r in records),
            "op_ms_p50": 1e3 * percentile(latencies, 0.5),
            "op_ms_p90": 1e3 * percentile(latencies, 0.9),
            "verify_all_s": statistics.median(verify_s),
            "pass_ratio": (attempted - len(failed)) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        headroom = headroom_by_check([r for r in records if r["pass"] < passes[0] + workload.min_passes])
        if headroom:
            worst = min(headroom, key=headroom.get)
            reported["cert_headroom_min_dec"] = (headroom[worst], "decades")
            summary["headroom_worst_check"] = worst
        raw = [r["raw_seconds"] for r in passed]
        summary.update({
            "latency_samples": len(latencies), "verify_samples": len(verify_s),
            "raw_ops_per_s": attempted / sum(r["raw_seconds"] for r in records),
            "raw_op_ms_p50": 1e3 * percentile(raw, 0.5), "raw_op_ms_p90": 1e3 * percentile(raw, 0.9),
        })

    report = {
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "summary": summary,
        "provenance": provenance(args, workload),
        "operations": records,
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations in {len(passes)} passes; times at reference speed (README.md)")
    for rec in failed + [u for u in unexpected if "pass" not in u]:
        tag = "known defect" if rec.get("known_defect") else "UNEXPECTED"
        print(f"  failed [{tag}] {rec['name']}: {(rec['error'] or '')[:200]}")
    for name, entry in list(report["metrics"].items()) + list(report["reported"].items()):
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"full record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(unexpected),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
