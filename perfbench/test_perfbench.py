"""Smoke tests of the benchmark itself: python3 -m pytest perfbench

Each run is a few ops long; the timed runs are left to the benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3, max_ops=3, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", "1", "--trace", str(trace), "--max-ops", str(max_ops)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    record, result = result_of(bench(workload, trace=0))
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"], record["problems"]
    assert result["attempted"] == 3
    assert record["metrics"]["latency_samples"]["value"] == 3
    assert "failed_ops_ratio" in record["metrics"]
    assert ("rel_error_q90" in record["metrics"]) == (workload != "bounds_all_p11")
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    first, second = (result_of(bench(workload, trace=1))[1] for _ in range(2))
    for result in (first, second):
        assert_metrics(result, SPEC["per_layer"])
        assert result["correct"]
    counts = [
        name
        for name in first["metrics"]
        if name.endswith(".calls") or name.endswith(".distinct_ratio")
    ]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_all_runs_every_workload_in_one_process():
    completed = bench("all", trace=0, max_ops=1)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    assert [r["workload"] for r in records] == WORKLOADS
    result = json.loads(lines[-1])
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == expected
    assert result["correct"] and result["attempted"] == len(WORKLOADS)


def test_predict_counts_the_error_bar_defect():
    # Ops 3 and 5 of this seed hit error_bar's "lower exceeds upper" ValueError.
    record, result = result_of(bench("predict_alpha_p8", trace=0, seed=20240817, max_ops=6))
    assert result["correct"]
    assert result["failed"] == 2
    assert record["failures"] == {"ValueError": 2}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
