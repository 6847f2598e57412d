"""Smoke run of the benchmark, one round per workload.

    python -m pytest perfbench

Kept out of the package's own test suite (``testpaths = ["tests"]``), so
it adds no gate there.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round_passes_its_checks_and_reports_every_metric(workload):
    result = _result(_run(workload, 0))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _result(_run("integrate-long", 1))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_without_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("geometry-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("n", [3, 4])
def test_synthetic_manifests_use_the_family(n):
    doc = json.loads((HERE / "manifests" / f"synthetic-n{n}.json").read_text())
    assert doc["dim"] == n
    assert doc["hamiltonian"] == workloads.family_text(n)
