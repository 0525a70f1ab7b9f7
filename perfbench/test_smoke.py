"""Smoke test of the benchmark on a tiny configuration (one second a run).

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py

It takes under a minute; checking the answers of the families workload
runs one brute-force sweep at n = 9 whatever the run length.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_catalog():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)
    assert BENCH["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END]
    assert BENCH["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.PER_LAYER]
    assert {m.basis for m in catalog.END_TO_END + catalog.PER_LAYER} == {
        "measured", "computed"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_reported(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        # error_rate = 1 - success_rate
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
