"""Smoke test of the benchmark harness at tiny size.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric in BENCHMARK.json is printed with its unit,
that the seed drives the inputs, and that a corrupted input curve makes
certificates fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "3", "--seconds", "0.1", "--tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def record(workload: str, trace: int) -> dict:
    return json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace{trace}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    result, text = run("--workload", workload, "--trace", "0")
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"\n{name} = " in text and text.split(f"\n{name} = ")[1].split("\n")[0].endswith(f" {unit}")
    assert result["attempted"] >= 1 and result["correct"] and result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result, text = run("--workload", "quads-many", "--trace", "1")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"\n{name} = " in text
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["darboux.integrate_parallel_section.calls"] > 0
    assert metrics["darboux.lightcone_restore.calls"] == metrics["darboux.integrate_parallel_section.steps"]
    assert metrics["cli.calls"] == 0


def test_seed_changes_the_inputs(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    for cls in workloads.WORKLOADS.values():
        digests = []
        for seed in (1, 2, 1):
            work = tmp_path / f"{cls.name}-{seed}-{len(digests)}"
            work.mkdir()
            wl = cls(seed, work, tiny=True)
            wl.setup()
            wl.pass_ops(0)
            digests.append(wl.input_digest())
        assert digests[0] != digests[1], cls.name
        assert digests[0] == digests[2], cls.name


def test_corrupted_input_makes_certificates_fail():
    clean, _ = run("--workload", "quads-many", "--trace", "0")
    assert record("quads-many", 0)["reported"]["fail_ratio"]["value"] == 0
    corrupt, _ = run("--workload", "quads-many", "--trace", "0", "--corrupt")
    assert record("quads-many", 0)["reported"]["fail_ratio"]["value"] > 0
    assert not corrupt["correct"] and corrupt["failed"] > 0
    assert corrupt["metrics"]["pass_ratio"]["value"] < clean["metrics"]["pass_ratio"]["value"]


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
