"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest -q perfbench

Each workload runs untraced and traced for one second on tiny inputs.  The
test asserts that the run passes its own output checks and prints every
metric BENCHMARK.json declares, with the declared unit, plus the machine
description and the fingerprints.  It also asserts that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_emits_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    machine, prints, result = lines[-3]["machine"], lines[-2]["fingerprints"], lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert machine["nproc"] >= 1 and "OPENBLAS_NUM_THREADS" in machine
    assert prints["trajectories"] and len(prints["proxy_predictions"]) == 64
    assert not (ROOT / ".bench_work").exists()


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "explore", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
