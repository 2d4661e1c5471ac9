"""Observations, rewards and objectives shared by environments and agents.

Two reward modes cover the built-in environments:

* target proximity   r = target / |target - observed|, capped at a large
  finite value at the singularity (multiple targets combine by geometric
  mean);
* budget distance    sum_m alpha_m * (D_m - B_m) / B_m, negated by `score`
  so that higher is better in every mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

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


@dataclass(frozen=True)
class RewardSpec:
    """Objective definition mapping an observation to a scalar reward.

    Exactly the field of the active mode is populated: `targets` holds
    (metric, target) pairs, `budgets` holds (metric, budget, weight)
    triples.
    """

    mode: RewardMode
    targets: tuple[tuple[str, float], ...] = ()
    budgets: tuple[tuple[str, float, float], ...] = ()

    def __post_init__(self):
        target_mode = self.mode is RewardMode.TARGET_PROXIMITY
        wanted, other = ("targets", "budgets") if target_mode else ("budgets", "targets")
        if not getattr(self, wanted):
            raise ValueError(f"mode {self.mode.value!r} requires {wanted}")
        if getattr(self, other):
            raise ValueError(f"mode {self.mode.value!r} must not set {other}")
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


def score(spec: RewardSpec, obs: Observation) -> float:
    """Scalar reward for an observation; higher is better in every mode.

    Infeasible observations score 0 (the observation's `valid` flag marks
    them instead of an exception).
    """
    if not obs.valid:
        return 0.0
    if spec.mode is RewardMode.TARGET_PROXIMITY:
        rewards = [compute_target_reward(target, obs[metric]) for metric, target in spec.targets]
        return rewards[0] if len(rewards) == 1 else compute_joint_reward(rewards)
    observed = [obs[m] for m, _, _ in spec.budgets]
    return -compute_budget_distance(
        observed, [b for _, b, _ in spec.budgets], [a for _, _, a in spec.budgets]
    )


def score_batch(
    spec: RewardSpec, metrics: Mapping[str, np.ndarray], valid: np.ndarray
) -> np.ndarray:
    """`score` of every row of metric columns and a validity mask.

    Each row takes `score`'s float operations in the same order, so its
    reward is `score`'s bit for bit, except a joint target's geometric
    mean: numpy's log and exp may differ from `math`'s in the last bits.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.mode is RewardMode.TARGET_PROXIMITY:
            cap = DEFAULT_SINGULARITY_CAP
            rewards = []
            for metric, target in spec.targets:
                gap = np.abs(target - metrics[metric])
                rewards.append(np.where(gap < target / cap, cap, np.minimum(target / gap, cap)))
            if len(rewards) == 1:
                reward = rewards[0]
            else:
                reward = np.exp(sum(np.log(r) for r in rewards) / len(rewards))
        else:
            total = 0.0
            for metric, budget, weight in spec.budgets:
                total += weight * (metrics[metric] - budget) / budget
            reward = -total
    return np.where(valid, reward, 0.0)


def reward_spec_from_config(config: dict) -> RewardSpec:
    """Build a RewardSpec from the objective schema used in fixture files."""
    mode = RewardMode(config["mode"])
    unknown = sorted(set(config) - {"mode", "targets", "budgets"})
    if unknown:
        raise ValueError(f"unknown objective keys: {', '.join(unknown)}")
    if mode is RewardMode.TARGET_PROXIMITY:
        targets = tuple((m, float(t)) for m, t in config["targets"].items())
        return RewardSpec(mode, targets=targets)
    budgets = tuple((m, float(bw[0]), float(bw[1])) for m, bw in config["budgets"].items())
    return RewardSpec(mode, budgets=budgets)
