import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsegym.core import (
    DEFAULT_SINGULARITY_CAP,
    InvalidObservationError,
    MissingMetricError,
    Observation,
    RewardSpec,
    finite_number,
    reward_spec_from_config,
    score,
    score_batch,
)
from dsegym.agents import make_agent
from dsegym.envs import WorkloadSpec, get_space
from dsegym.proxy import RegressionTree
from dsegym.spaces import Numeric


@pytest.mark.parametrize(
    "value, expected",
    [(True, False), (1, True), (-0.0, True), (1.5, True), (10**400, False), (math.nan, False),
     (math.inf, False), (-math.inf, False), ("1", False), (None, False),
     (np.float64(1.0), True)],
    ids=["bool", "int", "negative-zero", "float", "huge-int", "nan", "inf", "negative-inf",
         "string", "none", "numpy-float"],
)
def test_finite_number(value, expected):
    assert finite_number(value) == expected


# More digits than Python prints an int with (4300 by default); 16610 bits.
_HUGE = 10**5000


def _fit(max_depth=None, min_samples_leaf=1, feature_subsample=1.0):
    X, y = np.arange(8.0).reshape(4, 2), np.arange(4.0)
    RegressionTree.fit(X, y, max_depth, min_samples_leaf, feature_subsample,
                       np.random.default_rng(0))


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: make_agent("GA", get_space("dram-small"), {"population_size": _HUGE}),
         "population_size must be of type int64, got an int of 16610 bits"),
        (lambda: Numeric("a", 0, 4, _HUGE),
         "parameter 'a': numeric grid must be finite, got (0, 4, an int of 16610 bits)"),
        (lambda: RewardSpec(targets=(("m", _HUGE),)),
         "target for 'm' must be positive and finite, got an int of 16610 bits"),
        (lambda: reward_spec_from_config({"budgets": {"m": [1.0, _HUGE]}}),
         "weight for 'm' must be positive and finite, got an int of 16610 bits"),
        (lambda: reward_spec_from_config({"budgets": {"m": [_HUGE]}}),
         "budgets for 'm' must be a [budget, weight] pair, got a list holding an int too long "
         "to print"),
        (lambda: WorkloadSpec("w", {"flops": _HUGE}),
         "trait 'flops' must be finite, got an int of 16610 bits"),
        (lambda: _fit(max_depth=_HUGE),
         "max_depth must be None or an int >= 0 that fits in int64, got an int of 16610 bits"),
        (lambda: _fit(min_samples_leaf=-_HUGE),
         "min_samples_leaf must be an int >= 1 that fits in int64, got an int of 16610 bits"),
        (lambda: _fit(feature_subsample=_HUGE),
         "feature_subsample must lie in (0, 1], got an int of 16610 bits"),
    ],
    ids=["agent", "numeric", "reward-spec", "reward-config", "reward-config-pair", "workload",
         "max-depth", "min-samples-leaf", "feature-subsample"],
)
def test_a_refusal_shows_a_huge_int_by_its_size(refuse, message):
    with pytest.raises(ValueError) as info:
        refuse()
    assert str(info.value) == message


# what `reward_spec_from_config` says of a value that is not a finite number
_NOT_A_NUMBER = "must be positive and finite, got "


def target_spec(**targets):
    return RewardSpec(targets=tuple(targets.items()))


def budget_spec(*budgets):
    return RewardSpec(budgets=tuple(budgets))


def target_reward(target, observed):
    return score(target_spec(m=target), Observation({"m": observed}))


def budget_distance(observed, budgets, weights):
    """Unnegated budget distance: -score of one spec over metrics m0, m1, ..."""
    names = [f"m{i}" for i in range(len(budgets))]
    spec = budget_spec(*zip(names, budgets, weights))
    return -score(spec, Observation(dict(zip(names, observed))))


class TestTargetReward:
    def test_hand_values(self):
        assert target_reward(1.0, 2.0) == 1.0
        assert target_reward(2.0, 1.5) == 4.0

    def test_singularity_cap_at_exact_match(self):
        assert target_reward(1.0, 1.0) == 1e9

    def test_cap_engages_near_target(self):
        # |target-observed| < target/cap forces the cap
        assert target_reward(1.0, 1.0 + 1e-12) == 1e9

    def test_non_finite_observed_rejected(self):
        # an observation cannot carry a non-finite metric, so score never sees one
        with pytest.raises(InvalidObservationError, match="invalid observation"):
            Observation({"m": math.nan})
        with pytest.raises(InvalidObservationError):
            Observation({"m": math.inf})

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            target_spec(m=0.0)
        with pytest.raises(ValueError, match="positive"):
            target_spec(m=-1.0)

    @given(
        st.floats(0.1, 100.0),
        st.floats(-1000.0, 1000.0),
        st.floats(-1000.0, 1000.0),
    )
    @settings(max_examples=200)
    def test_monotone_in_distance(self, target, a, b):
        # strictly closer to target never decreases reward
        if abs(target - a) < abs(target - b):
            assert target_reward(target, a) >= target_reward(target, b)


class TestJointReward:
    def test_equal_values_pass_through(self):
        # both metrics score 4 on their own
        spec = target_spec(latency=2.0, power=1.0)
        obs = Observation({"latency": 1.5, "power": 1.25})
        assert score(spec, obs) == pytest.approx(4.0, rel=1e-12)

    def test_sqrt_of_product(self):
        # per-metric rewards 1 and the cap 1e9
        spec = target_spec(latency=1.0, power=1.0)
        obs = Observation({"latency": 2.0, "power": 1.0})
        assert score(spec, obs) == pytest.approx(math.sqrt(1e9), rel=1e-12)

    def test_single_metric_identity(self):
        spec = target_spec(power=2.0)
        assert score(spec, Observation({"power": 1.0, "latency": 5.0})) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            RewardSpec(targets=())

    def test_nonpositive_rejected(self):
        # every target of a joint spec is checked, not only the first
        with pytest.raises(ValueError, match="'power'"):
            target_spec(latency=1.0, power=0.0)


class TestBudgetDistance:
    def test_at_budget_distance_zero(self):
        assert budget_distance([10.0, 2.0, 1.0], [10.0, 2.0, 1.0], [1, 5, 9]) == 0.0

    def test_overshoot(self):
        assert budget_distance([12, 2, 1], [10, 2, 1], [1, 1, 1]) == pytest.approx(0.2)

    def test_signed_under_budget(self):
        assert budget_distance([8, 2, 1], [10, 2, 1], [1, 1, 1]) == pytest.approx(-0.2)

    @given(
        st.lists(st.floats(0.1, 50.0), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=100)
    def test_linear_in_each_deviation(self, budgets, data):
        n = len(budgets)
        weights = data.draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
        deltas = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        base = budget_distance(budgets, budgets, weights)
        single = budget_distance([b + d for b, d in zip(budgets, deltas)], budgets, weights)
        doubled = budget_distance([b + 2 * d for b, d in zip(budgets, deltas)], budgets, weights)
        assert doubled - base == pytest.approx(2 * (single - base), rel=1e-9, abs=1e-9)


# The reward formulas as three separate helpers, each checking its inputs,
# kept as the reference that `score` must equal bit for bit.


def _ref_target_reward(target, observed, cap=1e9):
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    if not math.isfinite(observed):
        raise InvalidObservationError(f"invalid observation: {observed}")
    gap = abs(target - observed)
    if gap < target / cap:
        return cap
    return min(target / gap, cap)


def _ref_joint_reward(per_metric_rewards):
    logs = []
    for r in per_metric_rewards:
        if not (r > 0 and math.isfinite(r)):
            raise ValueError(f"per-metric rewards must be positive finite, got {r}")
        logs.append(math.log(r))
    return math.exp(sum(logs) / len(logs))


def _ref_budget_distance(observed, budgets, weights):
    total = 0.0
    for d, b, a in zip(observed, budgets, weights):
        if b <= 0:
            raise ValueError(f"budget must be positive, got {b}")
        total += a * (d - b) / b
    return total


def _ref_score(spec, obs):
    if not obs.valid:
        return 0.0
    if spec.targets:
        rewards = [_ref_target_reward(t, obs[m]) for m, t in spec.targets]
        return rewards[0] if len(rewards) == 1 else _ref_joint_reward(rewards)
    observed = [obs[m] for m, _, _ in spec.budgets]
    return -_ref_budget_distance(
        observed, [b for _, b, _ in spec.budgets], [a for _, _, a in spec.budgets]
    )


def _random_case(rng):
    """A spec and an observation: 1-3 metrics, values near, at or far from target."""
    n = int(rng.integers(1, 4))
    names = [f"m{i}" for i in range(n)]
    refs = 10.0 ** rng.uniform(-4, 4, n)
    observed = {}
    for name, ref in zip(names, refs):
        kind = rng.integers(0, 4)
        if kind == 0:
            observed[name] = float(ref)
        elif kind == 1:
            observed[name] = float(ref * (1 + rng.normal(0, 1e-10)))
        else:
            observed[name] = float(ref * rng.uniform(-2, 4))
    if rng.integers(0, 2):
        spec = RewardSpec(targets=tuple(zip(names, map(float, refs))))
    else:
        weights = map(float, rng.uniform(0.01, 10, n))
        spec = RewardSpec(budgets=tuple(zip(names, map(float, refs), weights)))
    return spec, Observation(observed, valid=bool(rng.random() > 0.01))


class TestScore:
    def test_single_target_delegates(self):
        spec = target_spec(power=1.0)
        assert score(spec, Observation({"power": 2.0})) == 1.0

    def test_budget_negated(self):
        spec = budget_spec(("performance", 10.0, 1.0), ("power", 2.0, 1.0), ("area", 1.0, 1.0))
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
        # the first missing metric in spec order is the one named
        spec = budget_spec(("latency", 1.0, 1.0), ("power", 1.0, 1.0), ("area", 1.0, 1.0))
        with pytest.raises(MissingMetricError, match="power"):
            score(spec, Observation({"latency": 1.0}))

    def test_invalid_observation_scores_zero(self):
        spec = target_spec(power=1.0)
        assert score(spec, Observation({}, valid=False)) == 0.0

    def test_matches_reference_formulas_bit_for_bit(self):
        rng = np.random.Generator(np.random.Philox(2024))
        for _ in range(100_000):
            spec, obs = _random_case(rng)
            expected = _ref_score(spec, obs)
            got = score(spec, obs)
            assert got.hex() == float(expected).hex(), (spec, obs)

    @given(st.lists(st.floats(0.1, 100.0), min_size=100, max_size=100), st.data())
    @settings(max_examples=30)
    def test_argmax_matches_paper_convention(self, observed, data):
        # for targets: max r <=> min |target-observed|; for budgets the
        # negation makes max score <=> min distance
        target = data.draw(st.floats(0.5, 50.0))
        spec = target_spec(power=target)
        scores = [score(spec, Observation({"power": v})) for v in observed]
        assert np.argmax(scores) == np.argmin([abs(target - v) for v in observed])

        bspec = budget_spec(("power", target, 1.0))
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


def _score_batch_row(spec, obs):
    """`score_batch` of a one-row batch; an invalid row's metrics are NaN."""
    columns = {t[0]: np.array([obs.metrics.get(t[0], math.nan)])
               for t in spec.targets + spec.budgets}
    (reward,) = score_batch(spec, columns, np.array([obs.valid]))
    return float(reward)


_ULP = 2.0**-52  # the spacing of floats in [1, 2), so 1 + k * _ULP - 1 is exact
_BELOW = int(1e-9 / _ULP)  # k * _ULP < target / cap = 1e-9 < (k + 1) * _ULP


@pytest.mark.parametrize("scorer", [score, _score_batch_row], ids=["score", "score_batch"])
@pytest.mark.parametrize(
    "spec, metrics, expected",
    [
        pytest.param(target_spec(m=1.0), {"m": 1.0}, 1e9, id="exact-match"),
        pytest.param(target_spec(m=1.0), {"m": 1.0 + _BELOW * _ULP}, 1e9,
                     id="gap-just-below-cap"),
        pytest.param(target_spec(m=1.0), {"m": 1.0 + (_BELOW + 1) * _ULP},
                     1.0 / ((_BELOW + 1) * _ULP), id="gap-just-above-cap"),
        pytest.param(target_spec(m=2.0, q=1.0), {"m": 2.0, "q": 1.5},
                     math.exp((math.log(1e9) + math.log(2.0)) / 2), id="joint-exact-match"),
        pytest.param(target_spec(m=1.0), None, 0.0, id="invalid"),
        pytest.param(budget_spec(("m", 1.0, 1.0)), None, 0.0, id="invalid-budget"),
        pytest.param(budget_spec(("m", 10.0, 1.0), ("q", 2.0, 3.0)), {"m": 8.0, "q": 2.0}, 0.2,
                     id="negative-budget-distance"),
    ],
)
def test_edge_cases_score_alike_for_a_point_and_a_batch(spec, metrics, expected, scorer):
    assert _BELOW * _ULP < 1e-9 < (_BELOW + 1) * _ULP
    obs = Observation({}, valid=False) if metrics is None else Observation(metrics)
    got = scorer(spec, obs)
    if len(spec.targets) > 1:  # numpy's log and exp may differ from math's in the last bits
        assert got == pytest.approx(expected, rel=1e-15, abs=0)
    else:
        assert got == expected


class TestObservation:
    def test_rejects_nan_metrics(self):
        with pytest.raises(InvalidObservationError):
            Observation({"latency": math.nan})

    def test_invalid_observation_carries_no_metrics(self):
        obs = Observation({}, valid=False)
        assert obs.metrics == {}


class TestRewardSpecValidation:
    def test_mode_fields_enforced(self):
        # the field that is set is the mode, so exactly one must be
        with pytest.raises(ValueError, match="exactly one"):
            RewardSpec()
        with pytest.raises(ValueError, match="exactly one"):
            RewardSpec(targets=(("a", 1.0),), budgets=(("a", 1.0, 1.0),))

    def test_positivity(self):
        with pytest.raises(ValueError, match="target"):
            RewardSpec(targets=(("a", -1.0),))
        with pytest.raises(ValueError, match="budget"):
            RewardSpec(budgets=(("a", 0.0, 1.0),))
        with pytest.raises(ValueError, match="weight"):
            RewardSpec(budgets=(("a", 1.0, 0.0),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10**400, id="huge-int")])
    def test_non_finite_values_refused(self, value):
        # NaN passes a `<= 0` check, and score would return NaN or -inf
        finite = r"for 'power' must be positive and finite, got "
        with pytest.raises(ValueError, match="target " + finite):
            RewardSpec(targets=(("latency", 1.0), ("power", value)))
        with pytest.raises(ValueError, match="budget " + finite):
            RewardSpec(budgets=(("latency", 1.0, 1.0), ("power", value, 1.0)))
        with pytest.raises(ValueError, match="weight " + finite):
            RewardSpec(budgets=(("latency", 1.0, 1.0), ("power", 1.0, value)))

    def test_a_target_that_underflows_against_the_cap_is_refused(self):
        # score would divide by target / cap, which is 0 for such a target
        with pytest.raises(ValueError, match=r"^target for 'm' is so small that target / 1e\+09 "
                                             r"underflows to 0, got 1e-320$"):
            target_spec(m=1e-320)

    def test_the_smallest_target_that_does_not_underflow_scores_the_cap(self):
        # halve until target / cap would round to 0
        target = 1e-300
        while target / 2 / DEFAULT_SINGULARITY_CAP > 0:
            target /= 2
        spec = target_spec(m=target)
        assert score(spec, Observation({"m": target})) == DEFAULT_SINGULARITY_CAP
        batch = score_batch(spec, {"m": np.array([target])}, np.array([True]))
        assert batch.tolist() == [DEFAULT_SINGULARITY_CAP]
        with pytest.raises(ValueError, match="underflows to 0"):
            target_spec(m=target / 2)

    @pytest.mark.parametrize(
        "config, kind",
        [
            ({"targets": {"latency": 1.0, "power": "nan"}}, "target"),
            ({"targets": {"power": math.inf}}, "target"),
            ({"budgets": {"power": [math.nan, 1.0]}}, "budget"),
            ({"budgets": {"latency": [1.0, 1.0], "power": [1.0, "inf"]}}, "weight"),
        ],
    )
    def test_from_config_refuses_non_finite_values(self, config, kind):
        with pytest.raises(ValueError, match=f"{kind} for 'power' must be positive and finite"):
            reward_spec_from_config(config)

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"targets": {"power": 10**400}}, f"target for 'power' {_NOT_A_NUMBER}{10**400}"),
            ({"targets": {"power": "3"}}, f"target for 'power' {_NOT_A_NUMBER}'3'"),
            ({"targets": {"power": "nan"}}, f"target for 'power' {_NOT_A_NUMBER}'nan'"),
            ({"targets": {"power": True}}, f"target for 'power' {_NOT_A_NUMBER}True"),
            ({"budgets": {"power": [10**400, 1.0]}},
             f"budget for 'power' {_NOT_A_NUMBER}{10**400}"),
            ({"budgets": {"power": [1.0, "2"]}}, f"weight for 'power' {_NOT_A_NUMBER}'2'"),
            ({"budgets": {"power": [1.0, True]}}, f"weight for 'power' {_NOT_A_NUMBER}True"),
            ({"budgets": {"power": {"m": 5}}},
             "budgets for 'power' must be a [budget, weight] pair, got {'m': 5}"),
            ({"budgets": {"power": [1.0]}},
             "budgets for 'power' must be a [budget, weight] pair, got [1.0]"),
        ],
        ids=["huge-int-target", "string-target", "nan-string-target", "bool-target",
             "huge-int-budget", "string-weight", "bool-weight", "budget-mapping", "short-budget"],
    )
    def test_from_config_applies_the_number_rule_before_float(self, config, message):
        with pytest.raises(ValueError) as info:
            reward_spec_from_config(config)
        assert str(info.value) == message

    def test_from_config(self):
        spec = reward_spec_from_config({"targets": {"latency": 2.0}})
        assert spec == RewardSpec(targets=(("latency", 2.0),))
        bspec = reward_spec_from_config({"budgets": {"power": [1.0, 2.0]}})
        assert bspec == RewardSpec(budgets=(("power", 1.0, 2.0),))

    def test_from_config_rejects_reciprocal_mode(self):
        with pytest.raises(ValueError, match="unknown objective keys: metric, mode"):
            reward_spec_from_config({"mode": "reciprocal", "metric": "latency"})

    def test_from_config_refuses_a_mode_key(self):
        # the field an objective sets is its mode
        with pytest.raises(ValueError, match="unknown objective keys: mode$"):
            reward_spec_from_config({"mode": "target", "targets": {"latency": 2.0}})

    @pytest.mark.parametrize(
        "config", [{}, {"targets": {"latency": 2.0}, "budgets": {"power": [1.0, 2.0]}}]
    )
    def test_from_config_sets_exactly_one_field(self, config):
        with pytest.raises(ValueError, match="exactly one of targets and budgets"):
            reward_spec_from_config(config)

    def test_from_config_rejects_unread_keys(self):
        config = {"targets": {"latency": 2.0}, "singularity_cap": 1e6}
        with pytest.raises(ValueError, match="singularity_cap"):
            reward_spec_from_config(config)
