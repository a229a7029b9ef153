"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:
    python3 -m pytest benchmarks/test_smoke.py -q

Every workload runs once untraced and once traced with its scenarios
shrunk to a few dozen rows (verify_gate keeps four cheap criteria).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--seed", "3", "--seconds", "1",
         "--scale", "0.02", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, diagnostics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, tmp_path):
    saved = tmp_path / "runs.jsonl"
    result, diagnostics = parse(run("--workload", workload, "--trace", "0", "--save", str(saved)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert diagnostics["error_rate"] == {"value": 0.0, "unit": "ratio"}
    for metric in BENCH["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
    assert len(saved.read_text().splitlines()) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, diagnostics = parse(run("--workload", workload, "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert diagnostics["error_rate"]["value"] == 0.0
    assert diagnostics["missing"] == [] and diagnostics["counts_varied"] == []
    for metric in BENCH["per_layer"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        if metric["unit"] == "s" and metric["name"] != "bench.trace_overhead_s":
            assert printed["value"] >= 0.0, metric["name"]
    assert 0.0 < diagnostics["self_sum_s"] <= diagnostics["traced_wall_s"]


def test_compare_reads_two_result_sets(tmp_path):
    sets = []
    for side in ("parent", "change"):
        path = tmp_path / (side + ".jsonl")
        for _ in range(2):
            parse(run("--workload", "const_dense", "--trace", "0", "--save", str(path)))
        sets.append(str(path))
    proc = subprocess.run([sys.executable, "benchmarks/compare.py", *sets], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 1), proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("const_dense")]
    assert [row.split()[1] for row in rows] == [m["name"] for m in BENCH["end_to_end"]]
    for row in rows:
        assert row.split()[-1] in ("better", "worse", "unresolved", "same")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
