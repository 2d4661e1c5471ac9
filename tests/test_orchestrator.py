import re

import pytest

import dsegym.envs
from dsegym.agents import AGENT_TYPES, load_agent_fixture, make_agent
from dsegym.dataset import load_dataset
from dsegym.envs import make_env
from dsegym.orchestrator import (
    SweepConfig,
    SweepSummary,
    TrialError,
    TrialSpec,
    mean_normalized_reward,
    run_sweep,
    run_trial,
)

from .test_agents_common import FAST_HP

BUDGET_ENV = ("soc-small", "audio_decoder", "budget")


def _trial(agent_type, hyperparams, budget, out_dir=None):
    env_id, workload_id, objective = BUDGET_ENV
    return run_trial(
        TrialSpec(
            env_id=env_id,
            workload_id=workload_id,
            objective=objective,
            agent_type=agent_type,
            budget=budget,
            seed=7,
            hyperparams=TrialSpec.hyperparams_tuple(hyperparams),
            out_dir=out_dir,
        )
    )


def _digest(agent_type, hyperparams):
    space = make_env(*BUDGET_ENV).space()
    return make_agent(agent_type, space, hyperparams).hyperparams().digest


class TestRunTrialRecordsGivenHyperparams:
    @pytest.mark.parametrize(
        "hyperparams",
        [{}, load_agent_fixture("ACO")["defaults"]],
        ids=["defaults", "explicit-fixture-defaults"],
    )
    def test_aco_on_budget_objective(self, hyperparams, tmp_path):
        result = _trial("ACO", hyperparams, 64, out_dir=str(tmp_path))
        assert result.samples_used == 64
        assert result.hyperparam_digest == _digest("ACO", hyperparams)
        records = load_dataset(result.trajectory_file).records
        assert len(records) == 64
        # the objective must actually hand ACO negative rewards
        assert min(r.reward for r in records) < 0

    @pytest.mark.parametrize("agent_type", AGENT_TYPES)
    def test_digest_matches_make_agent(self, agent_type):
        result = _trial(agent_type, FAST_HP[agent_type], 12)
        assert result.samples_used == 12
        assert result.hyperparam_digest == _digest(agent_type, FAST_HP[agent_type])


class TestSweepConfigs:
    def test_digests_map_to_their_hyperparams(self):
        env_id, workload_id, objective = BUDGET_ENV
        summary = run_sweep(
            SweepConfig(
                env_id=env_id,
                workload_id=workload_id,
                objective=objective,
                agent_types=("GA", "RW"),
                budgets=(4, 8),
                seeds=(0, 1),
                grids={"GA": [{"population_size": 4}, {"population_size": 8}], "RW": [{}]},
            )
        )
        assert not summary.failures
        space = make_env(*BUDGET_ENV).space()
        assert {a: len(by_digest) for a, by_digest in summary.configs.items()} == {"GA": 2, "RW": 1}
        for agent_type, by_digest in summary.configs.items():
            for digest, hyperparams in by_digest.items():
                agent = make_agent(agent_type, space, hyperparams)
                assert agent.hyperparams().digest == digest
                assert hyperparams == agent.hyperparams().as_dict()
            for stats in summary.stats[agent_type].values():
                assert stats["best_digest"] in by_digest
        assert SweepSummary.from_json(summary.to_json()).configs == summary.configs



def _count_cost_calls(monkeypatch, family, fail_at=None):
    """Wrap a family's cost model; count its calls, optionally raise on one."""
    calls = []
    cost_fn = dsegym.envs._FAMILIES[family]

    def counted(*args):
        calls.append(1)
        if len(calls) == fail_at:
            raise RuntimeError("injected cost-model failure")
        return cost_fn(*args)

    monkeypatch.setitem(dsegym.envs._FAMILIES, family, counted)
    return calls


def _rw_spec(budget=5, out_dir=None):
    return TrialSpec(
        env_id="dram-small",
        workload_id="stream",
        objective="low-power",
        agent_type="RW",
        budget=budget,
        seed=3,
        out_dir=None if out_dir is None else str(out_dir),
    )


_WALL_TIME = re.compile(rb'"wall_time_ms":[0-9]+')


def _behaviour_bytes(path):
    with open(path, "rb") as f:
        return _WALL_TIME.sub(b'"wall_time_ms":0', f.read())


class TestTrialCost:
    @pytest.mark.parametrize("budget", [7, 40])
    def test_reference_is_evaluated_once_per_trial(self, monkeypatch, budget):
        calls = _count_cost_calls(monkeypatch, "dram")
        run_trial(_rw_spec(budget))
        # one evaluation per sample, plus the reference on the first reset
        assert len(calls) == budget + 1


class TestTrajectoryFiles:
    def test_rerun_into_same_dir_replaces_the_trajectory(self, tmp_path):
        first = run_trial(_rw_spec(out_dir=tmp_path))
        first_bytes = _behaviour_bytes(first.trajectory_file)
        second = run_trial(_rw_spec(out_dir=tmp_path))
        assert second.trajectory_file == first.trajectory_file
        records = load_dataset(second.trajectory_file, validate=True).records
        assert [r.step_index for r in records] == list(range(5))
        assert _behaviour_bytes(second.trajectory_file) == first_bytes
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{first.experiment_id}.jsonl"
        ]

    def test_failed_trial_leaves_only_the_partial_file(self, monkeypatch, tmp_path):
        # call 1 evaluates the reference, so steps 0-1 are logged first
        _count_cost_calls(monkeypatch, "dram", fail_at=4)
        with pytest.raises(TrialError, match="at step 2"):
            run_trial(_rw_spec(out_dir=tmp_path))
        assert list(tmp_path.glob("*.jsonl")) == []
        (partial,) = tmp_path.iterdir()
        assert partial.name.endswith(".jsonl.partial")
        assert len(load_dataset(partial).records) == 2


class TestMeanNormalized:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lies_in_unit_interval_for_negative_rewards(self, seed):
        env_id, workload_id, objective = BUDGET_ENV
        summary = run_sweep(
            SweepConfig(
                env_id=env_id,
                workload_id=workload_id,
                objective=objective,
                agent_types=tuple(AGENT_TYPES),
                budgets=(1, 2, 4, 8),
                seeds=(seed,),
            )
        )
        assert not summary.failures
        # the budget objective hands out negative best rewards at small budgets
        assert min(s["min"] for by_b in summary.stats.values() for s in by_b.values()) < 0
        values = [v for by_b in summary.mean_normalized.values() for v in by_b.values()]
        assert len(values) == len(AGENT_TYPES) * 4
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_group_min_max(self):
        normalized = mean_normalized_reward(
            {"A": {1: [-3.0, -1.0], 2: [4.0]}, "B": {1: [-5.0], 2: [4.0]}}
        )
        assert normalized == {"A": {1: 0.75, 2: 1.0}, "B": {1: 0.0, 2: 1.0}}

    def test_mean_rounding_stays_in_range(self):
        # np.mean([0.1] * 3) rounds to 0.10000000000000002 > 0.1
        normalized = mean_normalized_reward({"A": {1: [0.1] * 3}, "B": {1: [0.0]}})
        assert normalized == {"A": {1: 1.0}, "B": {1: 0.0}}
