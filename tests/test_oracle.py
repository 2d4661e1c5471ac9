"""The batch cost formula, the batch reward and the chunked exact oracle.

`metrics_batch` must equal `observe` bit for bit, and `enumerate_oracle`
must find the optimum the per-point enumeration found: the pinned small-
task digest and tests/data/full_optima.json (written by
scripts/full_optima.py) hold the designs and rewards it returned.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import dsegym.orchestrator as orch
from dsegym.core import score, score_batch
from dsegym.envs import ENV_IDS, get_objective, list_objectives, list_workloads, make_env
from dsegym.envs.base import SyntheticEnv
from dsegym.rng import make_rng
from dsegym.spaces import (
    cardinality,
    design_map,
    enumerate_points,
    point_from_map,
    sample_uniform_indices,
)

FULL_OPTIMA = json.loads((Path(__file__).parent / "data" / "full_optima.json").read_text())
REFERENCE_POINTS = 20_000

ENV_WORKLOADS = [(env_id, wl) for env_id in ENV_IDS for wl in list_workloads(env_id)]
TASKS = [(env_id, wl, obj) for env_id, wl in ENV_WORKLOADS for obj in list_objectives(env_id, wl)]
SMALL_TASKS = [task for task in TASKS if task[0].endswith("-small")]
FULL_TASKS = [task for task in TASKS if not task[0].endswith("-small")]


def _key(task):
    return "/".join(task)


def _reference_rows(space):
    """Every point of a space of at most REFERENCE_POINTS, else that many uniform ones."""
    if cardinality(space) <= REFERENCE_POINTS:
        return np.array(list(enumerate_points(space, REFERENCE_POINTS)))
    return sample_uniform_indices(space, make_rng(17), REFERENCE_POINTS)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("env_id, workload_id", ENV_WORKLOADS)
def test_metrics_batch_matches_observe(env_id, workload_id):
    env = make_env(env_id, workload_id, list_objectives(env_id, workload_id)[0])
    rows = _reference_rows(env.space())
    columns, valid = env.metrics_batch(rows)
    observed = [env.observe(tuple(row)) for row in rows.tolist()]
    assert valid.tolist() == [obs.valid for obs in observed]
    feasible = [obs for obs in observed if obs.valid]
    assert feasible
    for name, column in columns.items():
        assert all(type(obs.metrics[name]) is float for obs in feasible)
        expected = [obs.metrics[name] for obs in feasible]
        assert (_bits(column[valid]) == _bits(expected)).all(), name
    assert all(obs.metrics.keys() == columns.keys() for obs in feasible)


@pytest.mark.parametrize("env_id, workload_id", [t for t in ENV_WORKLOADS if "-small" in t[0]])
def test_score_batch_matches_score(env_id, workload_id):
    env = make_env(env_id, workload_id, list_objectives(env_id, workload_id)[0])
    rows = np.array(list(enumerate_points(env.space(), REFERENCE_POINTS)))
    columns, valid = env.metrics_batch(rows)
    observed = [env.observe(tuple(row)) for row in rows.tolist()]
    for objective in list_objectives(env_id, workload_id):
        spec = get_objective(env_id, workload_id, objective)
        rewards = score_batch(spec, columns, valid)
        expected = np.array([score(spec, obs) for obs in observed])
        if len(spec.targets) > 1:
            # numpy's log/exp: the oracle re-scores rows this close to its maximum
            assert np.allclose(rewards, expected, rtol=orch._RESCORE_RTOL / 2, atol=0)
        else:
            assert (_bits(rewards) == _bits(expected)).all(), objective


def test_metrics_batch_needs_a_batch_form():
    builtin = make_env("dram-small", "stream")
    env = SyntheticEnv("one-at-a-time", builtin.space(), builtin.workload(),
                       builtin.reward_spec, cost_fn=lambda d, w, c: ({"power": 1.0}, True),
                       constants={}, reference_design=design_map(builtin.space(), (0,) * 7))
    with pytest.raises(TypeError, match="one design at a time"):
        env.metrics_batch([(0,) * 7])


def test_metrics_batch_checks_its_indices():
    env = make_env("dram-small", "stream")
    with pytest.raises(ValueError, match="out of range for parameter 'Scheduler'"):
        env.metrics_batch([(0, 3, 0, 0, 0, 0, 0)])
    with pytest.raises(ValueError, match="expected an"):
        env.metrics_batch([(0, 0)])


def _oracle_digest(tasks):
    results = [orch.enumerate_oracle(*task) for task in tasks]
    text = json.dumps([[r.best_design, repr(r.best_reward), r.space_cardinality] for r in results],
                      sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_small_oracles_are_pinned():
    # the 27 small tasks' designs and rewards from the per-point enumeration
    assert len(SMALL_TASKS) == 27
    assert _oracle_digest(SMALL_TASKS) == (
        "9995ba29bbfe2ce442edc3b5e5e09d06e5ff7bb07fc5cf0d9926461c9c289cdc"
    )


def test_full_optima_fixture_covers_every_task():
    assert sorted(FULL_OPTIMA) == sorted(map(_key, FULL_TASKS))
    assert len(FULL_OPTIMA) == 27


@pytest.mark.parametrize("task", [t for t in FULL_TASKS if t[0] != "dram"], ids=_key)
def test_full_optimum_matches_the_fixture(task):
    result = orch.enumerate_oracle(*task)
    expected = FULL_OPTIMA[_key(task)]
    assert result.best_design == expected["design"]
    assert result.best_reward == expected["reward"]
    assert result.space_cardinality == expected["cardinality"]


@pytest.mark.parametrize("task", [t for t in FULL_TASKS if t[0] == "dram"], ids=_key)
def test_dram_optimum_scores_its_reward(task):
    """A fixture entry too large to recompute here: `score` of its design is
    its reward, and no uniform design beats it."""
    env = make_env(*task)
    entry = FULL_OPTIMA[_key(task)]
    assert entry["cardinality"] == cardinality(env.space())
    best = point_from_map(env.space(), entry["design"])
    assert score(env.reward_spec, env.observe(best)) == entry["reward"]
    rows = sample_uniform_indices(env.space(), make_rng(5), 2_000)
    rewards = score_batch(env.reward_spec, *env.metrics_batch(rows))
    assert rewards.max() <= entry["reward"]


@pytest.mark.slow
def test_dram_optimum_is_recomputed():
    task = ("dram", "cloud-1", "joint")
    result = orch.enumerate_oracle(*task, limit=cardinality(make_env(*task).space()))
    expected = FULL_OPTIMA[_key(task)]
    assert (result.best_design, result.best_reward) == (expected["design"], expected["reward"])


@pytest.mark.parametrize(
    "env_id, chunk",
    [("soc", orch._ORACLE_CHUNK), ("soc-small", orch._ORACLE_CHUNK), ("soc-small", 7)],
)
def test_ties_go_to_the_first_design(env_id, chunk, monkeypatch):
    """single_task/low-latency saturates: many designs share the top reward,
    in more than one chunk."""
    monkeypatch.setattr(orch, "_ORACLE_CHUNK", chunk)
    env = make_env(env_id, "single_task", "low-latency")
    points = list(enumerate_points(env.space(), cardinality(env.space())))
    rewards = [score(env.reward_spec, env.observe(p)) for p in points]
    top = max(rewards)
    tied = [p for p, r in zip(points, rewards) if r == top]
    assert len(tied) > 100
    result = orch.enumerate_oracle(env_id, "single_task", "low-latency")
    assert result.best_reward == top
    assert result.best_design == design_map(env.space(), tied[0])


@pytest.mark.parametrize(
    "task",
    [("dram-small", "cloud-1", "joint"), ("accel-small", "large_cnn", "joint"),
     ("soc-small", "audio_decoder", "budget")],
    ids=_key,
)
def test_chunk_size_does_not_move_the_optimum(task, monkeypatch):
    """Re-scored joint rows and negative budget rewards across many chunks."""
    expected = orch.enumerate_oracle(*task)
    monkeypatch.setattr(orch, "_ORACLE_CHUNK", 7)
    assert orch.enumerate_oracle(*task) == expected


def test_enumerate_oracles_matches_one_objective_at_a_time():
    objectives = list_objectives("accel-small", "mobile_cnn")
    results = orch.enumerate_oracles("accel-small", "mobile_cnn", objectives)
    assert results == [orch.enumerate_oracle("accel-small", "mobile_cnn", o) for o in objectives]
