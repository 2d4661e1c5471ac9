import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsegym.core import (
    InvalidObservationError,
    MissingMetricError,
    Observation,
    RewardMode,
    RewardSpec,
    compute_budget_distance,
    compute_joint_reward,
    compute_target_reward,
    reward_spec_from_config,
    score,
)


class TestTargetReward:
    def test_hand_values(self):
        assert compute_target_reward(1.0, 2.0, 1e9) == 1.0
        assert compute_target_reward(2.0, 1.5, 1e9) == 4.0

    def test_singularity_cap_at_exact_match(self):
        assert compute_target_reward(1.0, 1.0, 1e9) == 1e9

    def test_cap_engages_near_target(self):
        # |target-observed| < target/cap forces the cap
        assert compute_target_reward(1.0, 1.0 + 1e-12, 1e9) == 1e9

    def test_non_finite_observed_rejected(self):
        with pytest.raises(InvalidObservationError, match="invalid observation"):
            compute_target_reward(1.0, math.nan)
        with pytest.raises(InvalidObservationError):
            compute_target_reward(1.0, math.inf)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            compute_target_reward(0.0, 1.0)

    @given(
        st.floats(0.1, 100.0),
        st.floats(-1000.0, 1000.0),
        st.floats(-1000.0, 1000.0),
    )
    @settings(max_examples=200)
    def test_monotone_in_distance(self, target, a, b):
        # strictly closer to target never decreases reward
        if abs(target - a) < abs(target - b):
            assert compute_target_reward(target, a) >= compute_target_reward(target, b)


class TestJointReward:
    def test_equal_values_pass_through(self):
        assert compute_joint_reward([4.0, 4.0]) == pytest.approx(4.0, rel=1e-12)

    def test_sqrt_of_product(self):
        assert compute_joint_reward([1.0, 1e9]) == pytest.approx(math.sqrt(1e9), rel=1e-12)

    def test_single_metric_identity(self):
        assert compute_joint_reward([2.0]) == pytest.approx(2.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_joint_reward([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            compute_joint_reward([1.0, 0.0])


class TestBudgetDistance:
    def test_at_budget_distance_zero(self):
        assert compute_budget_distance([10.0, 2.0, 1.0], [10.0, 2.0, 1.0], [1, 5, 9]) == 0.0

    def test_overshoot(self):
        assert compute_budget_distance([12, 2, 1], [10, 2, 1], [1, 1, 1]) == pytest.approx(0.2)

    def test_signed_under_budget(self):
        assert compute_budget_distance([8, 2, 1], [10, 2, 1], [1, 1, 1]) == pytest.approx(-0.2)

    def test_misaligned_lists_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            compute_budget_distance([1.0], [1.0, 2.0], [1.0, 1.0])

    @given(
        st.lists(st.floats(0.1, 50.0), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=100)
    def test_linear_in_each_deviation(self, budgets, data):
        n = len(budgets)
        weights = data.draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
        deltas = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        base = compute_budget_distance(budgets, budgets, weights)
        single = compute_budget_distance(
            [b + d for b, d in zip(budgets, deltas)], budgets, weights
        )
        doubled = compute_budget_distance(
            [b + 2 * d for b, d in zip(budgets, deltas)], budgets, weights
        )
        assert doubled - base == pytest.approx(2 * (single - base), rel=1e-9, abs=1e-9)


def target_spec(**targets):
    return RewardSpec(RewardMode.TARGET_PROXIMITY, targets=tuple(targets.items()))


class TestScore:
    def test_single_target_delegates(self):
        spec = target_spec(power=1.0)
        assert score(spec, Observation({"power": 2.0})) == 1.0

    def test_budget_negated(self):
        spec = RewardSpec(
            RewardMode.BUDGET_DISTANCE,
            budgets=(("performance", 10.0, 1.0), ("power", 2.0, 1.0), ("area", 1.0, 1.0)),
        )
        obs = Observation({"performance": 10.0, "power": 2.0, "area": 1.0})
        assert score(spec, obs) == 0.0
        over = Observation({"performance": 12.0, "power": 2.0, "area": 1.0})
        assert score(spec, over) == pytest.approx(-0.2)

    def test_joint_targets_combine(self):
        spec = target_spec(latency=1.0, power=2.0)
        obs = Observation({"latency": 2.0, "power": 1.5})
        assert score(spec, obs) == pytest.approx(math.sqrt(1.0 * 4.0), rel=1e-12)

    def test_missing_metric_named(self):
        spec = target_spec(power=1.0)
        with pytest.raises(MissingMetricError, match="power"):
            score(spec, Observation({"latency": 1.0}))

    def test_invalid_observation_scores_zero(self):
        spec = target_spec(power=1.0)
        assert score(spec, Observation({}, valid=False)) == 0.0

    @given(st.lists(st.floats(0.1, 100.0), min_size=100, max_size=100), st.data())
    @settings(max_examples=30)
    def test_argmax_matches_paper_convention(self, observed, data):
        # for targets: max r <=> min |target-observed|; for budgets the
        # negation makes max score <=> min distance
        target = data.draw(st.floats(0.5, 50.0))
        spec = target_spec(power=target)
        scores = [score(spec, Observation({"power": v})) for v in observed]
        assert np.argmax(scores) == np.argmin([abs(target - v) for v in observed])

        bspec = RewardSpec(RewardMode.BUDGET_DISTANCE, budgets=(("power", target, 1.0),))
        bscores = [score(bspec, Observation({"power": v})) for v in observed]
        distances = [(v - target) / target for v in observed]
        assert np.argmax(bscores) == np.argmin(distances)

    @given(st.floats(0.01, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=200)
    def test_deterministic_and_finite(self, target, value):
        spec = target_spec(latency=target)
        obs = Observation({"latency": value})
        first = score(spec, obs)
        assert math.isfinite(first)
        assert score(spec, obs) == first


class TestObservation:
    def test_rejects_nan_metrics(self):
        with pytest.raises(InvalidObservationError):
            Observation({"latency": math.nan})

    def test_invalid_observation_carries_no_metrics(self):
        obs = Observation({}, valid=False)
        assert obs.metrics == {}


class TestRewardSpecValidation:
    def test_mode_fields_enforced(self):
        with pytest.raises(ValueError, match="requires targets"):
            RewardSpec(RewardMode.TARGET_PROXIMITY)
        with pytest.raises(ValueError, match="must not set budgets"):
            RewardSpec(
                RewardMode.TARGET_PROXIMITY,
                targets=(("a", 1.0),),
                budgets=(("a", 1.0, 1.0),),
            )

    def test_positivity(self):
        with pytest.raises(ValueError):
            RewardSpec(RewardMode.TARGET_PROXIMITY, targets=(("a", -1.0),))
        with pytest.raises(ValueError):
            RewardSpec(RewardMode.BUDGET_DISTANCE, budgets=(("a", 1.0, 0.0),))

    def test_from_config(self):
        spec = reward_spec_from_config({"mode": "target", "targets": {"latency": 2.0}})
        assert spec.mode is RewardMode.TARGET_PROXIMITY
        assert spec.targets == (("latency", 2.0),)
        bspec = reward_spec_from_config({"mode": "budget", "budgets": {"power": [1.0, 2.0]}})
        assert bspec.budgets == (("power", 1.0, 2.0),)

    def test_from_config_rejects_reciprocal_mode(self):
        with pytest.raises(ValueError, match="reciprocal"):
            reward_spec_from_config({"mode": "reciprocal", "metric": "latency"})

    def test_from_config_rejects_unread_keys(self):
        config = {"mode": "target", "targets": {"latency": 2.0}, "singularity_cap": 1e6}
        with pytest.raises(ValueError, match="singularity_cap"):
            reward_spec_from_config(config)
