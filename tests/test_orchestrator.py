import functools
import math
import re

import pytest

import dsegym.envs
from dsegym import orchestrator
from dsegym.agents import AGENT_TYPES, AntColony, make_agent
from dsegym.dataset import load_dataset
from dsegym.envs import make_env
from dsegym.orchestrator import (
    SweepConfig,
    SweepSummary,
    TrialError,
    TrialResult,
    TrialSpec,
    run_sweep,
    run_trial,
    stored_oracle,
    summarize,
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
            hyperparams=hyperparams,
            out_dir=out_dir,
        )
    )


def _digest(agent_type, hyperparams):
    space = make_env(*BUDGET_ENV).space()
    return make_agent(agent_type, space, hyperparams).hyperparams().digest


class TestRunTrialRecordsGivenHyperparams:
    @pytest.mark.parametrize(
        "hyperparams",
        [{}, AntColony.DEFAULTS],
        ids=["defaults", "explicit-fixture-defaults"],
    )
    def test_aco_on_budget_objective(self, hyperparams, tmp_path):
        result = _trial("ACO", hyperparams, 64, out_dir=str(tmp_path))
        assert result.hyperparam_digest == _digest("ACO", hyperparams)
        records = load_dataset(result.trajectory_file).records
        assert len(records) == 64
        # the objective must actually hand ACO negative rewards
        assert min(r.reward for r in records) < 0

    @pytest.mark.parametrize("agent_type", AGENT_TYPES)
    def test_digest_matches_make_agent(self, agent_type):
        result = _trial(agent_type, FAST_HP[agent_type], 12)
        assert result.hyperparam_digest == _digest(agent_type, FAST_HP[agent_type])


class TestSweepConfigs:
    def test_digests_map_to_their_hyperparams(self, tmp_path):
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
        summary.save(tmp_path / "summary.json")
        assert SweepSummary.load(tmp_path / "summary.json") == summary



@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(seeds=(1, 2, 1)), "repeated seed 1"),
        (dict(budgets=(8, 4, 8)), "repeated budget 8"),
        (dict(agent_types=("GA", "RW", "GA")), "repeated agent type 'GA'"),
        (dict(grids={"GA": [{}, {"population_size": 32}]}), "repeated GA hyperparameter digest"),
        (dict(agent_types=("ACO",), grids={"ACO": [{"beta": 1}, {"beta": 1.0}]}),
         "repeated ACO hyperparameter digest"),
    ],
    ids=["seed", "budget", "agent", "config-digest", "int-spelling-of-a-float"],
)
def test_sweep_config_refuses_a_repeated_trial(changes, message):
    env_id, workload_id, objective = BUDGET_ENV
    config = dict(env_id=env_id, workload_id=workload_id, objective=objective,
                  agent_types=("GA", "RW"), budgets=(4, 8), seeds=(1, 2))
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepConfig(**{**config, **changes})


@pytest.mark.parametrize(
    "grids",
    [{"BO": [{"length_scale": math.nan}]}, {"RL": [{"learning_rate": math.inf}]},
     {"ACO": [{}, {"tau_min": math.inf}]}],
    ids=["bo-nan", "rl-inf", "aco-inf"],
)
def test_sweep_config_refuses_a_float_hyperparameter_that_is_not_finite(grids, monkeypatch):
    calls = []
    monkeypatch.setattr(orchestrator, "run_trial", lambda spec: calls.append(spec))
    with pytest.raises(ValueError, match="must be of type finite float, got "):
        run_sweep(SweepConfig(*BUDGET_ENV, tuple(grids), budgets=(4,), seeds=(1,), grids=grids))
    assert calls == []


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TrialSpec(*BUDGET_ENV, "RW", budget=0, seed=1),
         "sample budget must be an int64 >= 1, got 0"),
        (lambda: TrialSpec(*BUDGET_ENV, "RW", budget=True, seed=1),
         "sample budget must be an int64 >= 1, got True"),
        (lambda: TrialSpec(*BUDGET_ENV, "RW", budget=2.5, seed=1),
         "sample budget must be an int64 >= 1, got 2.5"),
        (lambda: TrialSpec(*BUDGET_ENV, "RW", budget=4, seed=2**64),
         f"seed must be an int64 >= 0, got {2**64}"),
        (lambda: TrialSpec(*BUDGET_ENV, "RW", budget=4, seed=-1),
         "seed must be an int64 >= 0, got -1"),
        (lambda: SweepConfig(*BUDGET_ENV, ("RW",), budgets=(4,), seeds=(0, 2**64)),
         f"seed must be an int64 >= 0, got {2**64}"),
        (lambda: SweepConfig(*BUDGET_ENV, ("RW",), budgets=(4,), seeds=(True,)),
         "seed must be an int64 >= 0, got True"),
        (lambda: SweepConfig(*BUDGET_ENV, ("RW",), budgets=(4,), seeds=()),
         "at least one seed is required"),
        (lambda: SweepConfig(*BUDGET_ENV, ("RW",), budgets=(), seeds=(1,)),
         "budgets must be int64s >= 1, got ()"),
        (lambda: SweepConfig(*BUDGET_ENV, ("RW",), budgets=(4, 0), seeds=(1,)),
         "budgets must be int64s >= 1, got (4, 0)"),
        (lambda: SweepConfig(*BUDGET_ENV, ("RW",), budgets=(4.0,), seeds=(1,)),
         "budgets must be int64s >= 1, got (4.0,)"),
        (lambda: SweepConfig(*BUDGET_ENV, ("RW",), budgets=(4,), seeds=(1,), parallelism=1.5),
         "parallelism must be an int64 >= 1, got 1.5"),
        (lambda: SweepConfig(*BUDGET_ENV, (), budgets=(4,), seeds=(1,)),
         "at least one agent type is required"),
        (lambda: SweepConfig(*BUDGET_ENV, ("GA", "RW"), budgets=(4,), seeds=(1,),
                             grids={"RW": []}),
         "RW has no configs; [{}] runs its defaults"),
    ],
    ids=["trial-budget", "trial-bool-budget", "trial-float-budget", "trial-seed-past-64-bits",
         "trial-negative-seed", "sweep-seed-past-64-bits", "sweep-bool-seed", "no-seeds",
         "no-budgets", "sweep-budget", "sweep-float-budget", "float-parallelism", "no-agents",
         "agent-without-configs"],
)
def test_a_trial_or_sweep_without_samples_is_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def _count_cost_calls(monkeypatch, family, fail_at=None):
    """Wrap a family's formula; count its calls, optionally raise on one."""
    calls = []
    module = dsegym.envs._FAMILIES[family]
    formula = module.formula

    def counted(*args):
        calls.append(1)
        if len(calls) == fail_at:
            raise RuntimeError("injected cost-model failure")
        return formula(*args)

    monkeypatch.setattr(module, "formula", counted)
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
        # one evaluation per sample; the reference design is never evaluated
        assert len(calls) == budget


class TestCheckpoints:
    @pytest.mark.parametrize("agent_type", AGENT_TYPES)
    def test_best_at_is_the_running_best_of_the_logged_rewards(self, agent_type, tmp_path):
        spec = TrialSpec("dram-small", "stream", "low-power", agent_type, 16, seed=5,
                         out_dir=str(tmp_path), checkpoints=(1, 2, 4, 8))
        result = run_trial(spec)
        rewards = [r.reward for r in load_dataset(result.trajectory_file).records]
        budgets = sorted(result.best_at)
        assert budgets == [1, 2, 4, 8, 16]
        values = [result.best_at[b] for b in budgets]
        assert values == sorted(values)
        assert all(result.best_at[b] == max(rewards[:b]) for b in budgets)
        assert result.best_at[16] == result.best_reward


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
        # calls 1-2 are steps 0-1, which are logged before call 3 fails
        _count_cost_calls(monkeypatch, "dram", fail_at=3)
        with pytest.raises(TrialError, match="at step 2"):
            run_trial(_rw_spec(out_dir=tmp_path))
        assert list(tmp_path.glob("*.jsonl")) == []
        (partial,) = tmp_path.iterdir()
        assert partial.name.endswith(".jsonl.partial")
        assert len(load_dataset(partial).records) == 2


def _fraction_of_optimum(summary, agent, budget):
    optimum = stored_oracle(summary.env_id, summary.workload_id, summary.objective).best_reward
    pooled = [v for by_b in summary.best_rewards[agent].values() for v in by_b[budget].values()]
    return math.fsum(v / optimum for v in pooled) / len(pooled)


@functools.cache
def _budget_sweep(seed):
    env_id, workload_id, objective = BUDGET_ENV
    return run_sweep(
        SweepConfig(
            env_id=env_id,
            workload_id=workload_id,
            objective=objective,
            agent_types=tuple(AGENT_TYPES),
            budgets=(1, 2, 4, 8),
            seeds=(seed,),
        )
    )


class TestMeanNormalized:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_is_the_fraction_of_the_optimum_for_negative_rewards(self, seed):
        summary = _budget_sweep(seed)
        assert not summary.failures
        # the budget objective hands out negative best rewards at small budgets
        assert min(s["min"] for by_b in summary.stats.values() for s in by_b.values()) < 0
        values = [v for by_b in summary.mean_normalized.values() for v in by_b.values()]
        assert len(values) == len(AGENT_TYPES) * 4
        assert max(values) <= 1.0 and min(values) < 0.0
        for agent, by_b in summary.mean_normalized.items():
            assert by_b == {b: _fraction_of_optimum(summary, agent, b) for b in by_b}
            assert list(by_b) == ["1", "2", "4", "8"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lies_in_unit_interval_for_negative_rewards(self, seed):
        # cells whose best rewards are all >= 0 read within [0, 1] even though
        # other cells of the same sweep are negative
        summary = _budget_sweep(seed)
        assert not summary.failures
        cells = [(agent, b) for agent, by_b in summary.stats.items() for b in by_b]
        non_negative = [(agent, b) for agent, b in cells if summary.stats[agent][b]["min"] >= 0]
        assert 0 < len(non_negative) < len(cells)
        for agent, b in non_negative:
            assert 0.0 <= summary.mean_normalized[agent][b] <= 1.0

    def test_adding_agents_leaves_each_agent_bit_identical(self):
        def bits(agent_types):
            summary = run_sweep(SweepConfig(*BUDGET_ENV, agent_types, budgets=(2, 8, 16),
                                            seeds=(0, 1)))
            assert not summary.failures
            return {agent: {b: v.hex() for b, v in by_b.items()}
                    for agent, by_b in summary.mean_normalized.items()}

        joined = bits(("GA", "RW", "BO"))
        assert bits(("GA",))["GA"] == joined["GA"]
        assert bits(("RW",))["RW"] == joined["RW"]

    def test_a_pool_at_the_optimum_reads_exactly_one(self):
        config = SweepConfig(*BUDGET_ENV, ("RW",), budgets=(2, 4), seeds=(0, 1, 2))
        optimum = stored_oracle(*BUDGET_ENV).best_reward
        # every trial ends at the optimum; at budget 2 each is half-way there
        results = [
            TrialResult(f"t{seed}", "RW", "d", {}, seed, 4, None, optimum, 0.0, None,
                        best_at={2: optimum / 2, 4: optimum})
            for seed in config.seeds
        ]
        summary = summarize(config, results, [])
        assert summary.mean_normalized == {"RW": {"2": 0.5, "4": 1.0}}
