"""Quick-mode runs of the benchmark command, end to end."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["mixes", "online"])
def test_quick_traced_run_reports_every_layer_metric(workload):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", "1", "--quick",
    )
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in BENCH["per_layer"]}
    assert set(result["metrics"]) == names
    assert not (ROOT / ".bench_tmp").exists()


def test_quick_untraced_run_reports_end_to_end_metrics():
    proc = run_bench(
        ROOT, "--workload", "cold", "--seed", "2", "--seconds", "1", "--quick"
    )
    result = result_of(proc)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_without_the_program_the_benchmark_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(tmp_path, "--workload", "mixes", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
