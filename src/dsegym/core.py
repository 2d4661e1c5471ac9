"""Observations, rewards and objectives shared by environments and agents.

A `RewardSpec` sets one of two fields, and the field it sets is its mode:

* `targets`, target proximity: r = target / |target - observed|, capped at
  a large finite value at the singularity (multiple targets combine by
  geometric mean);
* `budgets`, budget distance: sum_m alpha_m * (D_m - B_m) / B_m, negated
  by `score` so that higher is better in every mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

DEFAULT_SINGULARITY_CAP = 1e9


class MissingMetricError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"missing metric {name!r} in observation")


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


@dataclass(frozen=True)
class RewardSpec:
    """Objective definition mapping an observation to a scalar reward.

    Exactly one field is set, and it is the mode: `targets` holds
    (metric, target) pairs, `budgets` holds (metric, budget, weight)
    triples.
    """

    targets: tuple[tuple[str, float], ...] = ()
    budgets: tuple[tuple[str, float, float], ...] = ()

    def __post_init__(self):
        if bool(self.targets) == bool(self.budgets):
            raise ValueError("a reward spec sets exactly one of targets and budgets")
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


def score(spec: RewardSpec, obs: Observation) -> float:
    """Scalar reward for an observation; higher is better in every mode.

    Infeasible observations score 0 (the observation's `valid` flag marks
    them instead of an exception).
    """
    if not obs.valid:
        return 0.0
    if spec.targets:
        cap = DEFAULT_SINGULARITY_CAP
        rewards = []
        for metric, target in spec.targets:
            gap = abs(target - obs[metric])
            rewards.append(cap if gap < target / cap else min(target / gap, cap))
        if len(rewards) == 1:
            return rewards[0]
        logs = [math.log(r) for r in rewards]
        return math.exp(sum(logs) / len(logs))
    observed = [obs[metric] for metric, _, _ in spec.budgets]
    total = 0.0
    for d, (_, b, w) in zip(observed, spec.budgets):
        total += w * (d - b) / b
    return -total


def score_batch(
    spec: RewardSpec, metrics: Mapping[str, np.ndarray], valid: np.ndarray
) -> np.ndarray:
    """`score` of every row of metric columns and a validity mask.

    Each row takes `score`'s float operations in the same order, so its
    reward is `score`'s bit for bit, except a joint target's geometric
    mean: numpy's log and exp may differ from `math`'s in the last bits.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.targets:
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
    """Build a RewardSpec from an objective of a fixture file: its `targets`
    (metric: target) or its `budgets` (metric: [budget, weight])."""
    unknown = sorted(set(config) - {"targets", "budgets"})
    if unknown:
        raise ValueError(f"unknown objective keys: {', '.join(unknown)}")
    return RewardSpec(
        targets=tuple((m, float(t)) for m, t in config.get("targets", {}).items()),
        budgets=tuple((m, float(b), float(w)) for m, (b, w) in config.get("budgets", {}).items()),
    )
