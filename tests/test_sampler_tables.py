"""RL and ACO keep their sampling tables between policy updates.

The reference samplers below are the per-proposal versions that rebuild
each parameter's cumulative distribution on every call.  The agents must
draw the same points from the same rng stream and reach bit-identical
policies.
"""

import numpy as np
import pytest

from dsegym.agents import make_agent
from dsegym.agents.reinforce import softmax
from dsegym.envs import make_env
from dsegym.rng import make_rng

from .test_agents_common import SMALL_SPACE

# six updates at batch size 16, many more at smaller batches
STEPS = 6 * 16 + 3


def reference_rl_propose(agent, rng):
    indices = []
    for l in agent.logits:
        cum = np.cumsum(softmax(l))
        indices.append(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")))
    return tuple(indices)


def reference_aco_propose(agent, rng):
    hp = agent.hyperparams()
    indices = []
    for tau in agent.pheromone:
        if hp["epsilon"] > 0 and rng.random() < hp["epsilon"]:
            indices.append(int(rng.integers(0, len(tau))))
            continue
        weights = tau ** hp["beta"]
        cum = np.cumsum(weights)
        draw = rng.random() * cum[-1]
        indices.append(int(np.searchsorted(cum, draw, side="right")))
    return tuple(indices)


def _drive_pair(agent_type, hyperparams, space_name, steps, reference, policy):
    # env rewards on the full dram space, seeded normal rewards on the small one
    env = make_env("dram", "cloud-1", "low-latency") if space_name == "dram" else None
    space = SMALL_SPACE if env is None else env.space()
    agent = make_agent(agent_type, space, hyperparams)
    ref = make_agent(agent_type, space, hyperparams)
    rng, ref_rng = make_rng(17), make_rng(17)
    rewards = iter(np.random.Generator(np.random.Philox(9)).normal(0.0, 3.0, steps))
    for _ in range(steps):
        point = agent.propose(rng)
        assert point == reference(ref, ref_rng)
        reward = float(next(rewards)) if env is None else env.step(point).reward
        agent.observe(point, reward)
        ref.observe(point, reward)
        for mine, theirs in zip(policy(agent), policy(ref)):
            np.testing.assert_array_equal(mine, theirs)
    # both streams consumed the same number of draws
    assert rng.integers(2**63) == ref_rng.integers(2**63)


@pytest.mark.parametrize("space_name", ["small", "dram"])
@pytest.mark.parametrize("batch_size", [1, 16])
def test_rl_matches_reference_sampler(batch_size, space_name):
    _drive_pair(
        "RL", {"batch_size": batch_size}, space_name, STEPS,
        reference_rl_propose, lambda a: a.logits,
    )


@pytest.mark.parametrize("space_name", ["small", "dram"])
@pytest.mark.parametrize("beta", [0, 1, 2.5])
@pytest.mark.parametrize("epsilon", [0, 0.1, 1])
def test_aco_matches_reference_sampler(epsilon, beta, space_name):
    _drive_pair(
        "ACO", {"epsilon": epsilon, "beta": beta, "ants": 8}, space_name,
        STEPS, reference_aco_propose, lambda a: a.pheromone,
    )
