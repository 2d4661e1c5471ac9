"""The forked path of run_sweep: its results match a serial sweep, it forks
fewer children than trials, its children start no BLAS thread, and no child
outlives the sweep, whether a share succeeds, raises or dies."""

import json
import multiprocessing
import os
import signal
import time

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


def test_a_one_trial_sweep_forks_nothing(monkeypatch):
    serial = _rw_sweep((0,), 1)

    def no_fork(specs):
        raise AssertionError("a one-trial sweep forked a child")

    monkeypatch.setattr(orchestrator, "_fork_share", no_fork)
    parallel = _rw_sweep((0,), 4)
    for field in ("stats", "best_rewards", "mean_normalized", "configs", "failures"):
        assert getattr(parallel, field) == getattr(serial, field), field


def test_a_sweep_starts_no_more_workers_than_trials(monkeypatch):
    real_fork_share = orchestrator._fork_share
    shares = []

    def recording_fork(specs):
        shares.append([s.seed for s in specs])
        return real_fork_share(specs)

    monkeypatch.setattr(orchestrator, "_fork_share", recording_fork)
    summary = _rw_sweep((0, 1, 2), 8)
    assert shares == [[1], [2]]  # the caller runs seed 0
    assert summary.timing["RW"]["trials"] == 3 and not summary.failures

    shares.clear()
    _rw_sweep(tuple(range(7)), 3)
    assert shares == [[1, 4], [2, 5]]  # round-robin; the caller runs 0, 3 and 6


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.skipif(
    not _numpy_uses_openblas(), reason="checked for OpenBLAS only; another BLAS may start threads"
)
def test_sweep_children_start_no_blas_thread(monkeypatch, tmp_path):
    # no BLAS call of a shipped config is large enough for OpenBLAS to thread;
    # a forked child holds only the thread that forked it
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
    counts = {p.stem: [json.loads(line) for line in p.read_text().splitlines()]
              for p in spool.iterdir()}
    caller = counts.pop(str(os.getpid()))
    assert len(counts) == 1
    child = next(iter(counts.values()))
    assert len(caller) + len(child) == 2 * sum(len(sweep_configs(a)) for a in AGENT_TYPES)
    assert all(c == [1, 1] for c in child), child
    assert all(before == after for before, after in caller), caller


@pytest.mark.parametrize("parallelism", [0, -1])
def test_sweep_config_rejects_parallelism_below_one(parallelism):
    with pytest.raises(ValueError, match=f"parallelism must be an int64 >= 1, got {parallelism}$"):
        SweepConfig("dram-small", "cloud-1", "low-latency", ("RW",), (4,), (0,),
                    parallelism=parallelism)


class ShareFailed(Exception):
    """Raised by a patched trial: not a TrialError, so it fails the sweep."""


@pytest.fixture
def deadline():
    """Fail a test that is still running after a minute instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("run_sweep hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _in_children(monkeypatch, child_trial):
    """Run `child_trial` in place of `run_trial` in forked children only."""
    caller = os.getpid()
    real_run_trial = orchestrator.run_trial

    def patched(spec):
        return real_run_trial(spec) if os.getpid() == caller else child_trial(spec)

    monkeypatch.setattr(orchestrator, "run_trial", patched)


def test_no_child_outlives_a_sweep_that_returns():
    summary = _rw_sweep((0, 1, 2, 3), 3)
    assert summary.timing["RW"]["trials"] == 4
    assert not multiprocessing.active_children()


def test_no_child_outlives_a_sweep_that_raises(monkeypatch, deadline):
    caller = os.getpid()

    def trial(spec):
        if os.getpid() == caller:
            raise ShareFailed("the caller's share failed")
        time.sleep(30)  # a child still running when the caller's share fails

    monkeypatch.setattr(orchestrator, "run_trial", trial)
    t0 = time.perf_counter()
    with pytest.raises(ShareFailed):
        _rw_sweep((0, 1, 2), 3)
    assert not multiprocessing.active_children()
    assert time.perf_counter() - t0 < 20


def test_a_child_that_dies_fails_the_sweep(monkeypatch, deadline):
    _in_children(monkeypatch, lambda spec: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3 before sending its share"):
        _rw_sweep((0, 1, 2, 3), 2)
    assert not multiprocessing.active_children()


def _fail(spec):
    raise ShareFailed(f"seed {spec.seed}")


def test_an_exception_in_a_child_reraises_with_its_type(monkeypatch, deadline):
    with monkeypatch.context() as m, pytest.raises(ShareFailed, match="seed 0"):
        m.setattr(orchestrator, "run_trial", _fail)
        _rw_sweep((0, 1), 1)  # the serial path raises it as it is

    _in_children(monkeypatch, _fail)
    with pytest.raises(ShareFailed, match="seed 1"):
        _rw_sweep((0, 1), 2)
    assert not multiprocessing.active_children()
