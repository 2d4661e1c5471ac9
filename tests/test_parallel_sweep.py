"""The process-pool path of run_sweep: its results match a serial sweep, it
starts no more workers than trials, and its workers start no BLAS thread."""

import json
import os

import numpy as np
import pytest

from dsegym import orchestrator
from dsegym.agents import AGENT_TYPES, sweep_configs
from dsegym.orchestrator import SweepConfig, run_sweep

from .test_orchestrator import _behaviour_bytes


def _sweep(out_dir, parallelism):
    return run_sweep(
        SweepConfig(
            env_id="dram-small",
            workload_id="cloud-1",
            objective="low-latency",
            agent_types=tuple(AGENT_TYPES),
            budgets=(4, 16),  # BO fits its GP from step 9 on
            seeds=(0, 1),
            out_dir=str(out_dir),
            parallelism=parallelism,
        )
    )


def _numpy_uses_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas).lower()


def test_parallel_sweep_matches_serial(tmp_path):
    serial = _sweep(tmp_path / "p1", 1)
    parallel = _sweep(tmp_path / "p2", 2)
    for field in ("stats", "best_rewards", "mean_normalized", "configs", "failures"):
        assert getattr(parallel, field) == getattr(serial, field), field
    assert not serial.failures
    names = sorted(p.name for p in (tmp_path / "p1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "p2").iterdir())
    assert any("_BO_" in name for name in names)
    for name in names:
        assert _behaviour_bytes(tmp_path / "p2" / name) == _behaviour_bytes(
            tmp_path / "p1" / name
        ), name


def _rw_sweep(seeds, parallelism):
    return run_sweep(
        SweepConfig(
            env_id="dram-small",
            workload_id="cloud-1",
            objective="low-latency",
            agent_types=("RW",),
            budgets=(4,),
            seeds=seeds,
            parallelism=parallelism,
        )
    )


def test_a_one_trial_sweep_starts_no_pool(monkeypatch):
    serial = _rw_sweep((0,), 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-trial sweep started a process pool")

    monkeypatch.setattr(orchestrator, "ProcessPoolExecutor", no_pool)
    parallel = _rw_sweep((0,), 4)
    for field in ("stats", "best_rewards", "mean_normalized", "configs", "failures"):
        assert getattr(parallel, field) == getattr(serial, field), field


def test_a_sweep_starts_no_more_workers_than_trials(monkeypatch):
    pools = []

    class InProcessPool:
        """Records its arguments and runs the trials in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(orchestrator, "ProcessPoolExecutor", InProcessPool)
    summary = _rw_sweep((0, 1, 2), 8)
    assert pools == [3]
    assert summary.timing["RW"]["trials"] == 3 and not summary.failures


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.skipif(
    not _numpy_uses_openblas(), reason="checked for OpenBLAS only; another BLAS may start threads"
)
def test_pool_workers_start_no_blas_thread(monkeypatch, tmp_path):
    # no BLAS call of a shipped config is large enough for OpenBLAS to thread
    real_run_trial = orchestrator.run_trial
    spool = tmp_path / "threads"
    spool.mkdir()

    def spy(spec):
        before = len(os.listdir("/proc/self/task"))
        result = real_run_trial(spec)
        after = len(os.listdir("/proc/self/task"))
        with open(spool / f"{os.getpid()}.jsonl", "a") as f:
            f.write(json.dumps([before, after]) + "\n")
        return result

    monkeypatch.setattr(orchestrator, "run_trial", spy)
    _sweep(tmp_path / "trajectories", 2)
    counts = [json.loads(line) for p in spool.iterdir() for line in p.read_text().splitlines()]
    assert len(counts) == 2 * sum(len(sweep_configs(agent)) for agent in AGENT_TYPES)
    assert all(c == [1, 1] for c in counts), counts


@pytest.mark.parametrize("parallelism", [0, -1])
def test_sweep_config_rejects_parallelism_below_one(parallelism):
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        SweepConfig("dram-small", "cloud-1", "low-latency", ("RW",), (4,), (0,),
                    parallelism=parallelism)
