"""RL and ACO keep their sampling tables between policy updates.

The reference agents below sample the way the per-parameter versions did:
each proposal rebuilds every parameter's cumulative distribution and picks
with `np.searchsorted`.  They also update per parameter: RL runs the
per-point, per-parameter score-function loop with each parameter's own
entropy gradient, ACO evaporates and deposits each parameter's trail and
keeps a per-parameter tau^beta table.  The shipped agents must draw the
same points from the same rng stream and reach bit-identical policies.
"""

import numpy as np
import pytest

from dsegym.agents import make_agent
from dsegym.agents.ant_colony import mean_ranks
from dsegym.agents.reinforce import policy_gradient, softmax
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


def reference_entropy_gradient(probs):
    logp = np.log(np.maximum(probs, 1e-300))
    h = -np.sum(probs * logp)
    return -probs * (logp + h)


def reference_policy_gradient(logits, choices, advantages):
    probs = [softmax(l) for l in logits]
    grads = [np.zeros_like(l) for l in logits]
    for point, a in zip(choices, advantages):
        for j, k in enumerate(point):
            grads[j][k] += a
            grads[j] -= a * probs[j]
    return grads


def reference_rl_update(agent, batch):
    hp = agent.hyperparams()
    rewards = np.array([r for _, r in batch])
    mean = float(np.mean(rewards))
    if agent.baseline is None:
        agent.baseline = mean
    else:
        agent.baseline = hp["baseline_decay"] * agent.baseline + (1.0 - hp["baseline_decay"]) * mean
    advantages = rewards - agent.baseline
    grads = reference_policy_gradient(agent.logits, [p for p, _ in batch], advantages)
    for j, grad in enumerate(grads):
        if hp["entropy_weight"] > 0:
            grad = grad + hp["entropy_weight"] * reference_entropy_gradient(softmax(agent.logits[j]))
        agent.logits[j] += hp["learning_rate"] * grad


def reference_aco_propose(agent, rng):
    hp = agent.hyperparams()
    indices = []
    for weights in agent.reference_weights:
        if hp["epsilon"] > 0 and rng.random() < hp["epsilon"]:
            indices.append(int(rng.integers(0, len(weights))))
            continue
        cum = np.cumsum(weights)
        draw = rng.random() * cum[-1]
        indices.append(int(np.searchsorted(cum, draw, side="right")))
    return tuple(indices)


def reference_aco_update(agent, evaluated):
    hp = agent.hyperparams()
    ranks = mean_ranks(np.array([reward for _, reward in evaluated]))
    for j, tau in enumerate(agent.pheromone):
        np.maximum(tau * (1.0 - hp["evaporation"]), hp["tau_min"], out=tau)
        chosen = [point[j] for point, _ in evaluated]
        tau += hp["deposit"] / len(evaluated) * np.bincount(chosen, ranks, minlength=len(tau))
    agent.reference_weights = [tau ** hp["beta"] for tau in agent.pheromone]


def _assert_same_bits(mine, theirs):
    # bit patterns, so that -0.0 and 0.0 differ
    np.testing.assert_array_equal(mine.view(np.int64), theirs.view(np.int64))


REFERENCES = {
    "RL": (reference_rl_propose, reference_rl_update, lambda a: a.logits),
    "ACO": (reference_aco_propose, reference_aco_update, lambda a: a.pheromone),
}


def _drive_pair(agent_type, hyperparams, space_name, steps):
    # env rewards on the full dram space, seeded normal rewards on the small one
    env = make_env("dram", "cloud-1", "low-latency") if space_name == "dram" else None
    space = SMALL_SPACE if env is None else env.space()
    propose, update, policy = REFERENCES[agent_type]
    agent = make_agent(agent_type, space, hyperparams)
    ref = make_agent(agent_type, space, hyperparams)
    ref.update = lambda batch: update(ref, batch)
    if agent_type == "ACO":
        ref.reference_weights = [tau ** ref.hyperparams()["beta"] for tau in ref.pheromone]
    rng, ref_rng = make_rng(17), make_rng(17)
    rewards = iter(np.random.Generator(np.random.Philox(9)).normal(0.0, 3.0, steps))
    for _ in range(steps):
        point = agent.propose(rng)
        assert point == propose(ref, ref_rng)
        reward = float(next(rewards)) if env is None else env.step(point).reward
        agent.observe(point, reward)
        ref.observe(point, reward)
        for mine, theirs in zip(policy(agent), policy(ref)):
            _assert_same_bits(mine, theirs)
    # both streams consumed the same number of draws
    assert rng.integers(2**63) == ref_rng.integers(2**63)


# full dram has a 128-value parameter, whose entropy takes numpy's pairwise sum
@pytest.mark.parametrize("space_name", ["small", "dram"])
@pytest.mark.parametrize("batch_size", [1, 16])
def test_rl_matches_reference_sampler(batch_size, space_name):
    # the default entropy_weight is > 0
    _drive_pair("RL", {"batch_size": batch_size}, space_name, STEPS)


@pytest.mark.parametrize("space_name", ["small", "dram"])
@pytest.mark.parametrize("batch_size", [1, 16])
def test_rl_matches_reference_without_entropy_bonus(batch_size, space_name):
    _drive_pair("RL", {"batch_size": batch_size, "entropy_weight": 0}, space_name, STEPS)


@pytest.mark.parametrize("n", [0, 1, 16])
def test_policy_gradient_matches_reference(n):
    rng = np.random.Generator(np.random.Philox(2))
    sizes = (4, 128, 1, 9)
    logits = [rng.normal(size=s) for s in sizes]
    choices = [tuple(int(rng.integers(s)) for s in sizes) for _ in range(n)]
    advantages = rng.normal(size=n)
    got = policy_gradient(logits, choices, advantages)
    assert len(got) == len(sizes)
    for mine, theirs in zip(got, reference_policy_gradient(logits, choices, advantages)):
        _assert_same_bits(mine, theirs)


@pytest.mark.parametrize("space_name", ["small", "dram"])
@pytest.mark.parametrize("beta", [0, 1, 2.5])
@pytest.mark.parametrize("epsilon", [0, 0.1, 1])
def test_aco_matches_reference_sampler(epsilon, beta, space_name):
    _drive_pair("ACO", {"epsilon": epsilon, "beta": beta, "ants": 8}, space_name, STEPS)
