"""Observations, rewards and objectives shared by environments and agents.

Three reward modes cover the built-in environments:

* target proximity   r = target / |target - observed|, capped at a large
  finite value at the singularity (multiple targets combine by geometric
  mean);
* budget distance    sum_m alpha_m * (D_m - B_m) / B_m, negated by `score`
  so that higher is better in every mode;
* reciprocal         r = 1 / x for a single positive metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

DEFAULT_SINGULARITY_CAP = 1e9


class MissingMetricError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"missing metric {name!r} in observation")
        self.metric = name


class InvalidObservationError(ValueError):
    pass


@dataclass
class Observation:
    """Metric vector returned by a cost model.

    Metric values are always finite; an infeasible design carries
    ``valid=False`` and an empty metric map (never NaN).
    """

    metrics: dict[str, float]
    valid: bool = True

    def __post_init__(self):
        for name, value in self.metrics.items():
            if not math.isfinite(value):
                raise InvalidObservationError(f"invalid observation: metric {name!r} = {value}")

    def __getitem__(self, name: str) -> float:
        if name not in self.metrics:
            raise MissingMetricError(name)
        return self.metrics[name]


class RewardMode(str, Enum):
    TARGET_PROXIMITY = "target"
    BUDGET_DISTANCE = "budget"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class RewardSpec:
    """Objective definition mapping an observation to a scalar reward.

    Exactly the fields of the active mode are populated: `targets` holds
    (metric, target) pairs, `budgets` holds (metric, budget, weight)
    triples, `reciprocal_metric` names the metric for reciprocal mode.
    """

    mode: RewardMode
    targets: tuple[tuple[str, float], ...] = ()
    budgets: tuple[tuple[str, float, float], ...] = ()
    reciprocal_metric: str | None = None
    singularity_cap: float = DEFAULT_SINGULARITY_CAP

    def __post_init__(self):
        if self.singularity_cap <= 0:
            raise ValueError("singularity cap must be positive")
        populated = {
            "targets": bool(self.targets),
            "budgets": bool(self.budgets),
            "reciprocal_metric": self.reciprocal_metric is not None,
        }
        wanted = {
            RewardMode.TARGET_PROXIMITY: "targets",
            RewardMode.BUDGET_DISTANCE: "budgets",
            RewardMode.RECIPROCAL: "reciprocal_metric",
        }[self.mode]
        for name, present in populated.items():
            if name == wanted and not present:
                raise ValueError(f"mode {self.mode.value!r} requires {name}")
            if name != wanted and present:
                raise ValueError(f"mode {self.mode.value!r} must not set {name}")
        for metric, target in self.targets:
            if target <= 0:
                raise ValueError(f"target for {metric!r} must be positive, got {target}")
        for metric, budget, weight in self.budgets:
            if budget <= 0:
                raise ValueError(f"budget for {metric!r} must be positive, got {budget}")
            if weight <= 0:
                raise ValueError(f"weight for {metric!r} must be positive, got {weight}")


@dataclass
class StepResult:
    observation: Observation
    reward: float
    info: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Reward formulas


def compute_target_reward(target: float, observed: float, cap: float = DEFAULT_SINGULARITY_CAP) -> float:
    """Proximity reward target/|target-observed|, capped at `cap`."""
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    if not math.isfinite(observed):
        raise InvalidObservationError(f"invalid observation: {observed}")
    gap = abs(target - observed)
    if gap < target / cap:
        return cap
    return min(target / gap, cap)


def compute_joint_reward(per_metric_rewards: Sequence[float]) -> float:
    """Geometric mean of per-metric proximity rewards."""
    if not per_metric_rewards:
        raise ValueError("no per-metric rewards to combine")
    logs = []
    for r in per_metric_rewards:
        if not (r > 0 and math.isfinite(r)):
            raise ValueError(f"per-metric rewards must be positive finite, got {r}")
        logs.append(math.log(r))
    return math.exp(sum(logs) / len(logs))


def compute_budget_distance(
    observed: Sequence[float], budgets: Sequence[float], weights: Sequence[float]
) -> float:
    """Signed weighted relative deviation from budget; lower is better."""
    if not (len(observed) == len(budgets) == len(weights)):
        raise ValueError(
            f"misaligned lists: {len(observed)} observed, {len(budgets)} budgets, "
            f"{len(weights)} weights"
        )
    if not observed:
        raise ValueError("empty budget lists")
    total = 0.0
    for d, b, a in zip(observed, budgets, weights):
        if b <= 0:
            raise ValueError(f"budget must be positive, got {b}")
        total += a * (d - b) / b
    return total


def compute_reciprocal_reward(x: float) -> float:
    if x <= 0:
        raise ValueError(f"reciprocal reward needs a positive value, got {x}")
    return 1.0 / x


def score(spec: RewardSpec, obs: Observation) -> float:
    """Scalar reward for an observation; higher is better in every mode.

    Infeasible observations score 0 (the environment flags them in the
    step info instead of raising).
    """
    if not obs.valid:
        return 0.0
    if spec.mode is RewardMode.TARGET_PROXIMITY:
        rewards = [
            compute_target_reward(target, obs[metric], spec.singularity_cap)
            for metric, target in spec.targets
        ]
        return rewards[0] if len(rewards) == 1 else compute_joint_reward(rewards)
    if spec.mode is RewardMode.BUDGET_DISTANCE:
        observed = [obs[m] for m, _, _ in spec.budgets]
        return -compute_budget_distance(
            observed, [b for _, b, _ in spec.budgets], [a for _, _, a in spec.budgets]
        )
    return compute_reciprocal_reward(obs[spec.reciprocal_metric])


def reward_spec_from_config(config: dict) -> RewardSpec:
    """Build a RewardSpec from the objective schema used in fixture files."""
    mode = RewardMode(config["mode"])
    cap = config.get("singularity_cap", DEFAULT_SINGULARITY_CAP)
    if mode is RewardMode.TARGET_PROXIMITY:
        targets = tuple((m, float(t)) for m, t in config["targets"].items())
        return RewardSpec(mode, targets=targets, singularity_cap=cap)
    if mode is RewardMode.BUDGET_DISTANCE:
        budgets = tuple(
            (m, float(bw[0]), float(bw[1])) for m, bw in config["budgets"].items()
        )
        return RewardSpec(mode, budgets=budgets, singularity_cap=cap)
    return RewardSpec(mode, reciprocal_metric=config["metric"], singularity_cap=cap)
