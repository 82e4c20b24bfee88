"""The traced run repeats its counts exactly, reports every per-layer metric
of BENCHMARK.json, and the benchmark refuses to run without levylab.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spans

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTED = list(spans.COUNT_METRICS) + list(spans.COUNTERS)


def traced(workload: str, seed: int) -> dict:
    """One traced round of a workload in a fresh worker process."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1",
         "--t0", repr(time.monotonic())],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_two_traced_runs_count_the_same(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    assert first["correct"] and second["correct"]
    counts = [{k: r["per_layer"][k] for k in COUNTED} for r in (first, second)]
    assert counts[0] == counts[1]
    assert set(first["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}


def test_metric_units_match_benchmark_json():
    units = spans.metric_units()
    for m in SPEC["per_layer"]:
        assert units[m["name"]] == m["unit"], m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "runs"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
