"""The quick mode runs every workload end to end with all answer checks.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)


def _run(arguments, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _results(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_quick_mode_runs_every_workload_correctly():
    completed = _run(["--quick"], ROOT)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    results = _results(completed.stdout)
    assert len(results) == 3
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        declared = {m["name"] for m in json.load(source)["end_to_end"]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] > 0
        assert set(result["metrics"]) == declared
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_run_prints_every_per_layer_metric():
    completed = _run(["--quick", "--trace", "1", "--workload", "dkb-write"], ROOT)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        declared = {m["name"] for m in json.load(source)["per_layer"]}
    (result,) = _results(completed.stdout)
    assert set(result["metrics"]) == declared
    assert result["metrics"]["km.update_ms"]["value"] > 0
    assert "# span_file:" in completed.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = _run(["--workload", "recursive-read", "--seed", "1",
                      "--seconds", "1", "--trace", "0"], tmp_path)
    assert completed.returncode != 0
    assert _results(completed.stdout) == []
