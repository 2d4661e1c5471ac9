"""GA's draw contract: one uniform block per generation, bred in plain Python.

A generation's randomness is one `rng.random((population_size - 1, m))`
block with a row per child: two tournaments of k uniforms each, the
crossover coin, then d crossover coins, d mutation coins and d resample
uniforms.  A tournament picks k distinct survivors by Floyd's algorithm;
a mutated gene takes `int(u * (size - 1))` and skips its current index.
"""

import math

import numpy as np
import pytest

from dsegym.agents import make_agent
from dsegym.agents.genetic import Individual, floyd_sample
from dsegym.envs import get_space
from dsegym.rng import make_rng
from dsegym.spaces import Categorical, Numeric, ParameterSpace

from .test_agents_common import SMALL_SPACE, drive


@pytest.mark.parametrize("tournament_size", [2, 3, 9])
@pytest.mark.parametrize("env_id", ["dram", "accel-small"])
def test_a_generation_is_one_uniform_block(env_id, tournament_size):
    space, size = get_space(env_id), 8
    agent = make_agent("GA", space, {"population_size": size, "tournament_size": tournament_size})
    rng, reference = make_rng(11), make_rng(11)
    reference.integers(0, space._bounds, size=(size, len(space)))
    # a tournament draws k = min(tournament_size, survivors) uniforms
    width = 2 * min(tournament_size, size) + 1 + 3 * len(space)
    drive(agent, rng, [float(r) for r in range(size)])
    for _ in range(3):
        # the first propose breeds; the rest evaluate the new children
        drive(agent, rng, [float(r) for r in range(size - 1)])
        reference.random((size - 1, width))
        assert repr(rng.bit_generator.state) == repr(reference.bit_generator.state)


@pytest.mark.parametrize("n, k", [(5, 3), (6, 2), (4, 4)])
def test_tournament_picks_are_distinct_and_every_subset_equally_likely(n, k):
    draws = 30_000
    counts = {}
    for row in make_rng(2).random((draws, k)).tolist():
        picks = floyd_sample(n, row)
        assert len(set(picks)) == k and all(0 <= i < n for i in picks)
        counts[frozenset(picks)] = counts.get(frozenset(picks), 0) + 1
    assert len(counts) == math.comb(n, k)
    # each count is binomial(draws, p): allow five standard deviations
    p = 1 / math.comb(n, k)
    tolerance = 5 * math.sqrt(draws * p * (1 - p))
    assert all(abs(c - draws * p) <= tolerance for c in counts.values()), counts


class TopOfUnitInterval:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("env_id", ["dram", "accel", "soc", "dram-small"])
@pytest.mark.parametrize("corner", ["lowest", "highest"])
def test_the_largest_uniform_mutates_onto_the_grid(env_id, corner):
    space = get_space(env_id)
    parent = tuple(0 if corner == "lowest" else s - 1 for s in space.sizes)
    agent = make_agent("GA", space, {"population_size": 6, "mutation_prob": 1.0,
                                     "crossover_prob": 1.0})
    agent.population = [Individual(parent, float(r)) for r in range(6)]
    agent._breed(TopOfUnitInterval())
    assert len(agent.population) == 6
    for child in agent.population[1:]:
        space.validate_point(child.point)
        # mutation_prob 1: every gene with another value to take moved
        assert all(c != p for c, p, s in zip(child.point, parent, space.sizes) if s > 1)


def test_a_size_one_parameter_never_mutates():
    space = ParameterSpace((
        Categorical("only", ("x",)),
        *SMALL_SPACE.parameters,
        Numeric("fixed", 4, 4, 1),
    ))
    assert (space.sizes[0], space.sizes[-1]) == (1, 1)
    agent = make_agent("GA", space, {"population_size": 4, "mutation_prob": 1.0})
    rng = make_rng(6)
    seen = set()
    for reward in np.random.Generator(np.random.Philox(1)).normal(size=60).tolist():
        point = agent.propose(rng)
        space.validate_point(point)
        seen.add(point)
        agent.observe(point, reward)
    assert {(p[0], p[-1]) for p in seen} == {(0, 0)}
    # the other genes did mutate
    assert len({p[1:-1] for p in seen}) > 1
