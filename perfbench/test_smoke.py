"""Smoke test of the benchmark itself, with runs cut to the minimum.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py

Every metric named in ``BENCHMARK.json`` must be printed with its unit, a
second seed must also give no failed operation, and without the library
next to it the benchmark must exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(root: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def _result(workload: str, seed: int, trace: int) -> dict:
    done = _run(ROOT, workload, seed, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def _check_metrics(result: dict, declared: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_on_two_seeds(workload):
    for seed in (1, 2):
        result = _result(workload, seed, 0)
        _check_metrics(result, BENCH["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    _check_metrics(_result(workload, 3, 1), BENCH["per_layer"])


def test_exits_non_zero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run(str(tmp_path), WORKLOADS[0], 1, 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout
