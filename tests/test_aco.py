import numpy as np
import pytest

from dsegym.agents import make_agent
from dsegym.rng import make_rng

from .test_agents_common import SMALL_SPACE


def _signs(rewards):
    return np.sign(np.subtract.outer(rewards, rewards))


class TestRankDeposit:
    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_invariant_to_affine_rescaling_of_rewards(self, scale):
        rewards = np.random.Generator(np.random.Philox(11)).normal(5.0, 2.0, 96)
        # shift far enough that most transformed rewards are negative
        shifted = scale * rewards - 6.0 * scale
        assert (shifted < 0).any() and (shifted > 0).any()
        # float rounding may not merge or reorder rewards, or the test
        # would compare different rankings
        assert np.array_equal(_signs(rewards), _signs(shifted))

        hp = {"ants": 4}
        a = make_agent("ACO", SMALL_SPACE, hp)
        b = make_agent("ACO", SMALL_SPACE, hp)
        rng_a, rng_b = make_rng(3), make_rng(3)
        for step, (r, s) in enumerate(zip(rewards, shifted)):
            point = a.propose(rng_a)
            assert b.propose(rng_b) == point
            a.observe(point, float(r))
            b.observe(point, float(s))
            if (step + 1) % hp["ants"] == 0:
                for tau_a, tau_b in zip(a.pheromone, b.pheromone):
                    np.testing.assert_array_equal(tau_a, tau_b)

    def test_tied_rewards_deposit_equally(self):
        agent = make_agent("ACO", SMALL_SPACE, {"ants": 3})
        batch = [
            ((0, 0, 0), -2.0),
            ((1, 1, 1), 7.5),
            ((2, 2, 1), 7.5),
        ]
        agent.update(batch)
        a, b, c = agent.pheromone
        assert a[1] == a[2] > a[0]
        assert b[1] == b[2] > b[0]

    def test_best_ant_deposits_exactly_deposit(self):
        hp = {"ants": 4, "deposit": 3.0, "evaporation": 0.5}
        agent = make_agent("ACO", SMALL_SPACE, hp)
        batch = [
            ((0, 0, 0), -1e300),
            ((0, 1, 0), 0.0),
            ((0, 2, 0), 1e-300),
            ((0, 3, 0), 1e300),
        ]
        agent.update(batch)
        # after evaporation tau = 0.5; ranks 1..4 deposit 3 * rank / 4
        np.testing.assert_array_equal(agent.pheromone[1], [1.25, 2.0, 2.75, 3.5])

    def test_update_independent_of_ant_order(self):
        rng = np.random.Generator(np.random.Philox(4))
        batch = [
            ((int(rng.integers(3)), int(rng.integers(4)), int(rng.integers(2))),
             float(rng.integers(-3, 3)))
            for _ in range(7)
        ]
        forward = make_agent("ACO", SMALL_SPACE, {"ants": 7})
        backward = make_agent("ACO", SMALL_SPACE, {"ants": 7})
        forward.update(batch)
        backward.update(batch[::-1])
        for tau_f, tau_b in zip(forward.pheromone, backward.pheromone):
            np.testing.assert_array_equal(tau_f, tau_b)

    def test_fitness_transform_is_not_a_hyperparameter(self):
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            make_agent("ACO", SMALL_SPACE, {"fitness_transform": "exp"})
