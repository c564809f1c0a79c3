"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, with the answer check on; and the refusal to run without sources.

    python3 -m pytest bench/test_smoke.py -q      # about two minutes
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


def _run(root, *argv):
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_answers_correctly(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    record = json.loads((HERE / "results" / ("%s-seed7-trace%d.json" % (workload, trace))).read_text())
    for key in ("python", "nproc", "cpu_model", "commit", "seed"):
        assert key in record["record"]
    assert record["latency"]["solve"]["passes"][0]["count"] >= 1
    if workload == "gadget":
        assert record["guard_probe"]["outcome"] in ("timeout", "returned")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "cyclic-dp", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
