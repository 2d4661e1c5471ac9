"""The process-pool path of run_sweep and its per-worker BLAS thread cap."""

import builtins
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from dsegym import orchestrator
from dsegym.agents import AGENT_TYPES, sweep_configs
from dsegym.orchestrator import (
    SweepConfig,
    _cap_blas_threads,
    _openblas_thread_controls,
    _thread_control,
    run_sweep,
)

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


def _thread_counts():
    return [(get.__name__, get()) for get, _ in _openblas_thread_controls()]


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

        def __init__(self, max_workers, initializer, initargs):
            pools.append((max_workers, initializer, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(orchestrator, "ProcessPoolExecutor", InProcessPool)
    summary = _rw_sweep((0, 1, 2), 8)
    assert pools == [(3, _cap_blas_threads, (3,))]
    assert summary.timing["RW"]["trials"] == 3 and not summary.failures


def test_pool_workers_cap_their_openblas_threads(monkeypatch, tmp_path):
    parent_counts = _thread_counts()
    if _numpy_uses_openblas():
        assert parent_counts, "numpy links OpenBLAS but the helper found none"
    limit = max(1, len(os.sched_getaffinity(0)) // 2)

    # forked workers inherit the spy, which records their counts per trial
    real_run_trial = orchestrator.run_trial
    spool = tmp_path / "counts"
    spool.mkdir()

    def spy(spec):
        with open(spool / f"{os.getpid()}.json", "w") as f:
            json.dump(_thread_counts(), f)
        return real_run_trial(spec)

    monkeypatch.setattr(orchestrator, "run_trial", spy)
    _sweep(tmp_path / "trajectories", 2)
    workers = [json.loads(p.read_text()) for p in spool.iterdir()]
    assert workers
    for worker_counts in workers:
        assert [name for name, _ in worker_counts] == [name for name, _ in parent_counts]
        for (name, count), (_, inherited) in zip(worker_counts, parent_counts):
            assert count <= limit, name
            assert count == min(inherited, limit), name
    assert _thread_counts() == parent_counts


def test_cap_is_a_no_op_without_proc_maps(monkeypatch):
    before = _thread_counts()
    real_open = builtins.open

    def no_proc(path, *args, **kwargs):
        if str(path).startswith("/proc"):
            raise PermissionError(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", no_proc)
    assert _openblas_thread_controls() == []
    _cap_blas_threads(64)
    monkeypatch.undo()
    assert _thread_counts() == before


@pytest.mark.parametrize(
    "parallelism, inherited, expected",
    [(1, 16, [8]), (2, 16, [4]), (3, 16, [2]), (8, 16, [1]), (64, 16, [1]),
     (2, 4, []), (3, 2, []), (64, 1, [])],  # never raised
)
def test_cap_shares_the_usable_cores(monkeypatch, parallelism, inherited, expected):
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(
        "dsegym.orchestrator._openblas_thread_controls", lambda: [(lambda: inherited, calls.append)]
    )
    _cap_blas_threads(parallelism)
    assert calls == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.skipif(
    not _numpy_uses_openblas(), reason="the cap acts on OpenBLAS only; another BLAS may start threads"
)
def test_capped_workers_start_no_blas_thread(monkeypatch, tmp_path):
    # two cores shared by two workers: every forked worker computes limit 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
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


def _fake_openblas(name, threads, log, shutdown=True):
    """A library object exporting numpy's get/set pair, logging every call."""
    lib = SimpleNamespace(
        scipy_openblas_get_num_threads64_=lambda: threads,
        scipy_openblas_set_num_threads64_=lambda n: log.append((name, "set", n)),
    )
    if shutdown:
        lib.blas_thread_shutdown_ = lambda: log.append((name, "shutdown"))
    return lib


def test_cap_shuts_down_each_lowered_thread_server_once(monkeypatch):
    log = []
    libs = [
        _fake_openblas("lowered", 8, log),
        _fake_openblas("at-limit", 2, log),
        _fake_openblas("no-shutdown-symbol", 8, log, shutdown=False),
    ]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(
        orchestrator, "_openblas_thread_controls", lambda: [_thread_control(lib) for lib in libs]
    )
    _cap_blas_threads(4)
    assert log == [
        ("lowered", "set", 2),
        ("lowered", "shutdown"),
        ("no-shutdown-symbol", "set", 2),
    ]
    assert _thread_control(SimpleNamespace(blas_thread_shutdown_=lambda: 0)) is None


@pytest.mark.parametrize("parallelism", [0, -1])
def test_sweep_config_rejects_parallelism_below_one(parallelism):
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        SweepConfig("dram-small", "cloud-1", "low-latency", ("RW",), (4,), (0,),
                    parallelism=parallelism)
