"""Common agent contract: a policy plus hyperparameters behind propose/observe.

Every agent proposes design points, consumes scalar rewards, and tracks
the best design seen so far.  Hyperparameters carry a collision-resistant
digest so trajectory records can attribute data to an exact configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
from abc import ABC, abstractmethod
from typing import Iterator, Mapping

import numpy as np

from ..spaces import DesignPoint, ParameterSpace


class HyperparamSet(Mapping):
    """Immutable named hyperparameter map with a stable digest."""

    def __init__(self, values: Mapping):
        self._values = dict(sorted(values.items()))
        canonical = json.dumps(self._values, sort_keys=True, separators=(",", ":"))
        self._digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def digest(self) -> str:
        return self._digest

    def as_dict(self) -> dict:
        return dict(self._values)

    def __getitem__(self, key):
        return self._values[key]

    def __iter__(self) -> Iterator:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"HyperparamSet({self._values})"


class Agent(ABC):
    """One search algorithm bound to one space for one trial.

    propose/observe alternate from a single thread of control; the
    best-so-far reward equals the exact maximum of observed rewards and
    never decreases.
    """

    agent_type: str = "?"
    DEFAULTS: dict = {}

    def __init__(self, space: ParameterSpace, hyperparams: Mapping | None = None):
        merged = dict(self.DEFAULTS)
        if hyperparams:
            unknown = set(hyperparams) - set(self.DEFAULTS)
            if unknown:
                raise ValueError(
                    f"unknown hyperparameters for {self.agent_type}: {sorted(unknown)}"
                )
            merged.update(hyperparams)
        self.space = space
        self._hyperparams = HyperparamSet(merged)
        self._best_point: DesignPoint | None = None
        self._best_reward = -math.inf

    def hyperparams(self) -> HyperparamSet:
        return self._hyperparams

    def best_so_far(self) -> tuple[DesignPoint | None, float]:
        return self._best_point, self._best_reward

    @abstractmethod
    def propose(self, rng: np.random.Generator) -> DesignPoint: ...

    def observe(self, point: DesignPoint, reward: float) -> None:
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        if reward > self._best_reward:
            self._best_point, self._best_reward = point, reward
        self._on_observe(point, reward)

    def _on_observe(self, point: DesignPoint, reward: float) -> None:
        """Policy update hook; the default policy is stateless."""
