import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsegym.agents import AGENT_CLASSES, AGENT_TYPES, make_agent, sweep_configs
from dsegym.agents.bayesian import GaussianProcess
from dsegym.envs import ENV_IDS, get_space, make_env
from dsegym.rng import make_rng
from dsegym.spaces import Categorical, Numeric, ParameterSpace, ParameterSpec, sample_uniform

from .strategies import spaces

DATA = Path(__file__).parent / "data"

SMALL_SPACE = ParameterSpace(
    (
        ParameterSpec("a", Categorical(("x", "y", "z"))),
        ParameterSpec("b", Numeric(0, 6, 2)),
        ParameterSpec("c", Categorical(("u", "v"))),
    )
)

# cheap configs so the fuzz suites stay fast
FAST_HP = {
    "GA": {"population_size": 8},
    "ACO": {"ants": 4},
    "BO": {"n_initial": 4, "candidate_pool": 8, "max_train_points": 32},
    "RL": {"batch_size": 4},
    "RW": {},
}


def drive(agent, rng, rewards):
    for r in rewards:
        point = agent.propose(rng)
        agent.observe(point, r)


class TestContract:
    @pytest.mark.parametrize("agent_type", AGENT_TYPES)
    def test_best_so_far_is_exact_running_max(self, agent_type):
        agent = make_agent(agent_type, SMALL_SPACE, FAST_HP[agent_type])
        rng = make_rng(0)
        rewards = list(np.random.Generator(np.random.Philox(5)).normal(5.0, 2.0, 120))
        seen = []
        for r in rewards:
            point = agent.propose(rng)
            agent.observe(point, float(r))
            seen.append(float(r))
            assert agent.best_so_far()[1] == max(seen)

    @pytest.mark.parametrize("agent_type", AGENT_TYPES)
    def test_best_point_matches_best_reward(self, agent_type):
        env = make_env("dram-small", "stream", "low-power")
        agent = make_agent(agent_type, env.space(), FAST_HP[agent_type])
        rng = make_rng(1)
        for _ in range(60):
            point = agent.propose(rng)
            agent.observe(point, env.step(point).reward)
        best_point, best_reward = agent.best_so_far()
        assert env.step(best_point).reward == best_reward

    @pytest.mark.parametrize("agent_type", AGENT_TYPES)
    def test_non_finite_reward_rejected(self, agent_type):
        agent = make_agent(agent_type, SMALL_SPACE, FAST_HP[agent_type])
        point = agent.propose(make_rng(2))
        with pytest.raises(ValueError):
            agent.observe(point, math.nan)

    @pytest.mark.parametrize("agent_type", AGENT_TYPES)
    def test_proposals_fuzz_valid(self, agent_type):
        # 10^4 proposals per agent stay inside the space
        agent = make_agent(agent_type, SMALL_SPACE, FAST_HP[agent_type])
        rng = make_rng(3)
        reward_rng = np.random.Generator(np.random.Philox(6))
        for _ in range(10_000):
            point = agent.propose(rng)
            SMALL_SPACE.validate_point(point)
            agent.observe(point, float(reward_rng.uniform(0.0, 10.0)))

    @given(spaces(max_params=3, max_values=4, max_count=5), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_proposals_valid_on_random_spaces(self, space, seed):
        rng = make_rng(seed)
        reward_rng = np.random.Generator(np.random.Philox(seed + 1))
        for agent_type in AGENT_TYPES:
            agent = make_agent(agent_type, space, FAST_HP[agent_type])
            for _ in range(30):
                point = agent.propose(rng)
                space.validate_point(point)
                agent.observe(point, float(reward_rng.uniform(0.0, 5.0)))

    @pytest.mark.parametrize("agent_type", AGENT_TYPES)
    def test_deterministic_given_seed(self, agent_type):
        def run(seed):
            agent = make_agent(agent_type, SMALL_SPACE, FAST_HP[agent_type])
            rng = make_rng(seed)
            trace = []
            reward_rng = np.random.Generator(np.random.Philox(9))
            for _ in range(50):
                point = agent.propose(rng)
                r = float(reward_rng.uniform(0.0, 3.0))
                agent.observe(point, r)
                trace.append((point, r))
            return trace

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestHyperparams:
    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            make_agent("GA", SMALL_SPACE, {"population_sz": 8})

    def test_digest_stable_and_injective(self):
        a = make_agent("GA", SMALL_SPACE, {"population_size": 8}).hyperparams()
        b = make_agent("GA", SMALL_SPACE, {"population_size": 8}).hyperparams()
        c = make_agent("GA", SMALL_SPACE, {"population_size": 16}).hyperparams()
        assert a.digest == b.digest
        assert a.digest != c.digest
        assert len(a.digest) == 64

    def test_digest_independent_of_insertion_order(self):
        from dsegym.agents import HyperparamSet

        assert HyperparamSet({"a": 1, "b": 2}).digest == HyperparamSet({"b": 2, "a": 1}).digest

    @pytest.mark.parametrize("agent_type", AGENT_TYPES)
    def test_shipped_sweep_config_digests(self, agent_type):
        # json.dumps of a value is part of the digest (0 and 0.0 hash apart),
        # and the digest seeds each trial's rng stream, so this pins every
        # shipped config's values and their types
        pinned = json.loads((DATA / "sweep_config_digests.json").read_text(encoding="utf-8"))
        digests = [
            make_agent(agent_type, SMALL_SPACE, config).hyperparams().digest
            for config in sweep_configs(agent_type)
        ]
        assert digests == pinned[agent_type]

    def test_shipped_sweep_grids(self):
        sizes = {at: len(sweep_configs(at)) for at in AGENT_TYPES}
        assert sizes == {"RW": 1, "GA": 12, "ACO": 12, "BO": 9, "RL": 6}
        for at in AGENT_TYPES:
            for config in sweep_configs(at):
                make_agent(at, SMALL_SPACE, config)  # every grid point constructs

    @pytest.mark.parametrize("agent_type", AGENT_TYPES)
    def test_string_values_rejected(self, agent_type):
        for key in AGENT_CLASSES[agent_type].DEFAULTS:
            with pytest.raises(ValueError, match=f"^{key} must be of type"):
                make_agent(agent_type, SMALL_SPACE, {key: "abc"})

    @pytest.mark.parametrize(
        "hyperparams",
        [{"population_size": True}, {"population_size": 8.0}, {"aging": 1},
         {"mutation_prob": False}, {"mutation_prob": None}],
    )
    def test_values_of_another_type_rejected(self, hyperparams):
        with pytest.raises(ValueError, match="must be of type"):
            make_agent("GA", SMALL_SPACE, hyperparams)

    def test_a_float_takes_an_int(self):
        agent = make_agent("GA", SMALL_SPACE, {"mutation_prob": 0, "aging": True})
        assert agent.hyperparams()["mutation_prob"] == 0

    @pytest.mark.parametrize("key", ["candidate_pool", "n_initial", "max_train_points"])
    def test_bo_names_a_count_below_one(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1, got 0$"):
            make_agent("BO", SMALL_SPACE, {key: 0})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_rng(), "at least one seed component is required"),
        (lambda: make_agent("RL", SMALL_SPACE).update([]), "empty update batch"),
        (lambda: GaussianProcess(0.0), "length_scale, signal_var and noise_var must be positive"),
        (lambda: GaussianProcess(1.0, signal_var=-1.0),
         "length_scale, signal_var and noise_var must be positive"),
        (lambda: GaussianProcess(1.0, noise_var=0.0),
         "length_scale, signal_var and noise_var must be positive"),
    ],
    ids=["rng-without-seed", "rl-empty-update", "gp-length-scale", "gp-signal-var",
         "gp-noise-var"],
)
def test_an_agent_building_block_refuses_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# each of GA's opt-in operators alone, then all three; a short aging limit
# lets elites age out within the test's budget
AGING = {"aging": True, "aging_limit": 2}
GA_OPERATORS = [AGING, {"growth": True}, {"reordering": True},
                {**AGING, "growth": True, "reordering": True}]


class TestGeneticOperators:
    @pytest.mark.parametrize(
        "env_args",
        [("dram-small", "stream", "low-power"), ("soc-small", "audio_decoder", "budget")],
        ids=["dram-small", "soc-small"],
    )
    @pytest.mark.parametrize(
        "operators", GA_OPERATORS, ids=["aging", "growth", "reordering", "all"]
    )
    def test_opt_in_operators(self, operators, env_args):
        size = 8

        def run(hyperparams):
            env = make_env(*env_args)
            agent = make_agent("GA", env.space(), {"population_size": size, **hyperparams})
            rng = make_rng(4)
            points, lengths = [], []
            for _ in range(300):
                point = agent.propose(rng)
                env.space().validate_point(point)
                agent.observe(point, env.step(point).reward)
                points.append(point)
                lengths.append(len(agent.population))
            return points, lengths

        points, lengths = run(operators)
        # growth adds one individual at most, and the next generation trims it
        assert set(lengths) == ({size, size + 1} if operators.get("growth") else {size})
        assert run(operators)[0] == points
        # the operator took part: the run differs from one without it
        assert run({})[0] != points

    @pytest.mark.parametrize("env_id", ENV_IDS)
    def test_initial_population_is_one_sample_uniform_per_individual(self, env_id):
        space = get_space(env_id)
        agent = make_agent("GA", space, {"population_size": 32})
        rng, reference = make_rng(7), make_rng(7)
        agent.propose(rng)
        assert [i.point for i in agent.population] == [
            sample_uniform(space, reference) for _ in range(32)
        ]
        # the generator is left where 32 calls leave it
        assert repr(rng.bit_generator.state) == repr(reference.bit_generator.state)

    def test_aging_keeps_the_two_fittest_when_fewer_than_two_are_young(self):
        agent = make_agent("GA", SMALL_SPACE, {"population_size": 2, "aging": True,
                                               "aging_limit": 0})
        rng = make_rng(3)
        drive(agent, rng, [1.0, 0.0])  # the first generation; its elite scored 1.0
        elite = agent.best_so_far()[0]
        drive(agent, rng, [-1.0])  # the second: the aged elite and one young child
        agent.propose(rng)  # breeds the third
        # only the child is young enough, so the aged elite survives and leads
        assert (agent.population[0].point, agent.population[0].age) == (elite, 2)


class TestRandomWalker:
    def test_single_point_space(self):
        space = ParameterSpace((ParameterSpec("a", Categorical(("only",))),))
        agent = make_agent("RW", space)
        assert agent.propose(make_rng(0)) == (0,)

    def test_seed_determinism(self):
        a = [make_agent("RW", SMALL_SPACE).propose(make_rng(4)) for _ in range(3)]
        assert len(set(a)) == 1

    def test_finds_optimum_of_small_space_with_large_budget(self):
        # coupon-collector style check on one seed; the 50-seed version
        # lives in the acceptance suite
        env = make_env("dram-small", "stream", "low-latency")
        agent = make_agent("RW", env.space())
        rng = make_rng(5)
        best = -math.inf
        for _ in range(30_000):
            p = agent.propose(rng)
            best = max(best, env.step(p).reward)
        from dsegym.orchestrator import enumerate_oracle

        oracle = enumerate_oracle("dram-small", "stream", "low-latency")
        assert best == oracle.best_reward
