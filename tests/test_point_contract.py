"""A design point is a plain tuple of Python ints, whoever makes it.

A numpy row or numpy integers would pass most checks and still break
callers: a row's `==` is elementwise (GA matches its pending individual
with `==`), and numpy integers change how a point hashes and prints.
`reference_sample_uniform` is the per-point draw `sample_uniform` replaced,
and `reference_sample_uniform_indices` the per-parameter loop that
`sample_uniform_indices` replaced; each must draw the same indices and
leave the rng in the same state.
"""

import numpy as np
import pytest

from dsegym.agents import AGENT_TYPES, make_agent
from dsegym.envs import get_space
from dsegym.rng import make_rng
from dsegym.spaces import (
    Categorical,
    Numeric,
    ParameterSpace,
    design_map,
    point_from_map,
    resample_position,
    sample_uniform,
    sample_uniform_indices,
)

from .test_agents_common import FAST_HP

SHIPPED = ["dram", "accel", "soc", "dram-small", "accel-small", "soc-small"]
# size-1 parameters, which a draw returns without consuming the rng, between others
WITH_SIZE_ONE = ParameterSpace(
    (
        Numeric("a", 4, 4, 1),
        Categorical("b", ("x", "y", "z")),
        Categorical("c", ("only",)),
        Numeric("d", 0, 70, 10),
        Numeric("e", 2, 2, 1),
    )
)
SPACES = {name: get_space(name) for name in SHIPPED}
SPACES.update({"with-size-one": WITH_SIZE_ONE, "empty": ParameterSpace(())})
# past every agent's first policy update, BO's initial design and GA's first generation
STEPS = 40


def reference_sample_uniform(space, rng):
    return tuple(int(rng.integers(0, s)) for s in space.sizes)


def reference_sample_uniform_indices(space, rng, n):
    out = np.empty((n, len(space)), dtype=np.int64)
    for j, s in enumerate(space.sizes):
        out[:, j] = rng.integers(0, s, size=n)
    return out


def assert_point(space, point):
    assert type(point) is tuple
    assert all(type(k) is int for k in point)
    space.validate_point(point)


@pytest.mark.parametrize("space_name", SPACES)
def test_sample_uniform_matches_per_point_draw(space_name):
    space = SPACES[space_name]
    rng, ref_rng, row_rng = make_rng(31), make_rng(31), make_rng(31)
    for _ in range(2_000):
        point = sample_uniform(space, rng)
        assert point == reference_sample_uniform(space, ref_rng)
        assert point == tuple(sample_uniform_indices(space, row_rng, 1)[0].tolist())
        assert_point(space, point)
    # all three streams consumed the same number of draws
    assert rng.integers(2**63) == ref_rng.integers(2**63) == row_rng.integers(2**63)


@pytest.mark.parametrize("space_name", SPACES)
def test_sample_uniform_indices_matches_per_parameter_draws(space_name):
    space = SPACES[space_name]
    rng, ref_rng = make_rng(17), make_rng(17)
    for n in (1, 2, 7, 48, 256, 1000, 0, 3):
        batch = sample_uniform_indices(space, rng, n)
        expected = reference_sample_uniform_indices(space, ref_rng, n)
        assert batch.dtype == np.int64 and batch.shape == (n, len(space))
        assert np.array_equal(batch, expected)
        # both generators are left in the same state
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


@pytest.mark.parametrize("space_name", SHIPPED)
@pytest.mark.parametrize("agent_type", AGENT_TYPES)
def test_propose_returns_a_tuple_of_ints(agent_type, space_name):
    space = get_space(space_name)
    agent = make_agent(agent_type, space, FAST_HP[agent_type])
    rng = make_rng(8)
    rewards = np.random.Generator(np.random.Philox(2)).normal(0.0, 1.0, STEPS)
    for reward in rewards:
        point = agent.propose(rng)
        assert_point(space, point)
        agent.observe(point, float(reward))
    assert_point(space, agent.best_so_far()[0])


@pytest.mark.parametrize("space_name", SHIPPED)
def test_space_helpers_return_tuples_of_ints(space_name):
    space = get_space(space_name)
    rng = make_rng(4)
    point = sample_uniform(space, rng)
    assert_point(space, resample_position(space, point, len(space) - 1, rng))
    assert_point(space, point_from_map(space, design_map(space, point)))
