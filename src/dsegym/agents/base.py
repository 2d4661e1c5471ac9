"""Common agent contract: a policy plus hyperparameters behind propose/observe.

Every agent proposes design points, consumes scalar rewards, and tracks
the best design seen so far.  Hyperparameters carry a collision-resistant
digest so trajectory records can attribute data to an exact configuration.
A float hyperparameter is stored as a float, so ``1`` and ``1.0`` are one
configuration with one digest; an int one must fit in int64.
"""

from __future__ import annotations

import hashlib
import json
import math
from abc import ABC, abstractmethod
from itertools import accumulate
from typing import Iterator, Mapping

import numpy as np

from ..core import finite_number, shown, whole_number
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
    # hyperparameter -> values; a sweep runs the cartesian product
    SWEEP_GRID: dict = {}

    def __init__(self, space: ParameterSpace, hyperparams: Mapping | None = None):
        merged = dict(self.DEFAULTS)
        if hyperparams:
            unknown = set(hyperparams) - set(self.DEFAULTS)
            if unknown:
                raise ValueError(
                    f"unknown hyperparameters for {self.agent_type}: {sorted(unknown)}"
                )
            for key, value in hyperparams.items():
                kind = type(self.DEFAULTS[key])
                # a float takes a finite int too; a bool (an int subclass) passes only for a bool
                if not (finite_number(value) if kind is float else
                        whole_number(value) if kind is int else type(value) is kind):
                    name = {float: "finite float", int: "int64"}.get(kind, kind.__name__)
                    raise ValueError(f"{key} must be of type {name}, got {shown(value)}")
                merged[key] = kind(value)
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

    def _require(self, key: str, ok: bool, rule: str) -> None:
        """Reject hyperparameter `key` unless `ok`; `rule` is what it must do."""
        if not ok:
            raise ValueError(f"{key} must {rule}, got {self._hyperparams[key]}")


class SamplingTableAgent(Agent):
    """A policy of one weight per value of each parameter, updated in batches.

    The policy of all parameters lives end to end in one flat vector,
    `_flat`, with a view per parameter in `_views`.  A subclass supplies
    `_weights`, the vector's sampling weights as a flat list, and
    `update(batch)`, which changes the vector and then calls `_tabulate`;
    `observe` hands it every `hyperparams()[BATCH_KEY]` (point, reward) pairs.

    Each parameter's cumulative weight table changes only in `update`, so it
    is built there and reused by every proposal until the next one.  The
    tables are Python lists because a proposal picks one value per
    parameter: `bisect.bisect_right` on a list makes the same comparisons on
    the same doubles as `np.searchsorted(side="right")` on the array (both
    return the number of entries <= the draw in a nondecreasing table)
    without a numpy call per parameter.
    """

    BATCH_KEY: str

    def __init__(self, space: ParameterSpace, hyperparams: Mapping | None, initial: float):
        super().__init__(space, hyperparams)
        sizes = space.sizes
        self._flat = np.full(sum(sizes), initial)
        self._offsets = np.cumsum((0,) + sizes[:-1])
        self._views = [self._flat[o : o + s] for o, s in zip(self._offsets, sizes)]
        self._batch: list[tuple[DesignPoint, float]] = []
        self._tabulate()

    @abstractmethod
    def _weights(self) -> list[float]: ...

    def _tabulate(self) -> None:
        weights = self._weights()
        # accumulate adds in np.cumsum's order: one running sum, left to right
        self._cum = [
            list(accumulate(weights[o : o + s])) for o, s in zip(self._offsets, self.space.sizes)
        ]

    def _on_observe(self, point: DesignPoint, reward: float) -> None:
        self._batch.append((point, reward))
        if len(self._batch) >= self._hyperparams[self.BATCH_KEY]:
            self.update(self._batch)
            self._batch = []
