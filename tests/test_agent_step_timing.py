"""Smoke test of scripts/agent_step_timing.py at two steps per trial."""

import json
import subprocess
import sys
from pathlib import Path

from dsegym.agents import AGENT_TYPES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "agent_step_timing.py"
ENVS = {"dram", "accel", "soc", "dram-small", "accel-small", "soc-small"}


def test_prints_percentiles_per_agent_env_and_call():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--steps", "2", "--seeds", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    doc = json.loads(out)
    assert (doc["steps"], doc["seeds"]) == (2, 1)
    assert set(doc["us"]) == set(AGENT_TYPES)
    for by_env in doc["us"].values():
        assert set(by_env) == ENVS
        for calls in by_env.values():
            assert set(calls) == {"propose", "observe", "step"}
            for q in calls.values():
                assert set(q) == {"mean", "p50", "p99"}
                # over two calls the mean lies between the median and the 99th percentile
                assert 0.0 <= q["p50"] <= q["mean"] <= q["p99"]


def test_rejects_a_step_count_below_one():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--steps", "0"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2 and "--steps and --seeds must be >= 1" in proc.stderr
