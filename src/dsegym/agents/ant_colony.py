"""Ant-colony optimization over categorical/grid parameter values.

The policy is one pheromone vector per parameter.  Each ant picks a value
per parameter with probability proportional to pheromone^beta (or
uniformly with probability epsilon).  After `ants` evaluations the trail
evaporates multiplicatively and is floored at tau_min (the MAX-MIN lower
bound of Stuetzle & Hoos 2000); then every ant deposits deposit * rank / n
on the values it chose, where n is the batch size and rank runs from 1
(worst reward in the batch) to n (best), tied rewards sharing their mean
rank (ASrank, Bullnheimer, Hartl & Strauss 1999).

Deposits depend only on the order of the rewards within a batch, so any
finite reward works whatever its scale or sign.  No ant deposits more than
`deposit`, so the trails stay bounded without a tau_max.

Ants sample through `SamplingTableAgent`'s cumulative tables of
pheromone^beta.  The draws stay scalar: the epsilon branch interleaves
`integers` calls with the uniforms, so batching them would reorder the
stream.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..spaces import DesignPoint
from .base import SamplingTableAgent


def mean_ranks(rewards: np.ndarray) -> np.ndarray:
    """Rank of each reward, 1 (lowest) to n (highest); ties share their mean rank."""
    ordered = np.sort(rewards)
    below = np.searchsorted(ordered, rewards, side="left")
    at_most = np.searchsorted(ordered, rewards, side="right")
    return (below + at_most + 1) / 2.0


class AntColony(SamplingTableAgent):
    agent_type = "ACO"
    DEFAULTS = {
        "evaporation": 0.2,
        "deposit": 1.0,
        "epsilon": 0.1,
        "beta": 1.0,
        "tau_min": 0.01,
        "ants": 8,
    }
    SWEEP_GRID = {"evaporation": [0.05, 0.2, 0.5], "beta": [1, 2], "epsilon": [0, 0.1]}
    BATCH_KEY = "ants"

    def __init__(self, space, hyperparams=None):
        super().__init__(space, hyperparams, 1.0)
        hp = self._hyperparams
        self._require("evaporation", 0.0 < hp["evaporation"] < 1.0, "lie in (0, 1)")
        self._require("deposit", hp["deposit"] > 0, "be positive")
        self._require("epsilon", 0.0 <= hp["epsilon"] <= 1.0, "lie in [0, 1]")
        self._require("beta", hp["beta"] >= 0, "be >= 0")
        self._require("tau_min", hp["tau_min"] > 0, "be positive")
        self._require("ants", hp["ants"] >= 1, "be >= 1")
        self.pheromone = self._views

    def _weights(self) -> list[float]:
        return (self._flat ** self._hyperparams["beta"]).tolist()

    def propose(self, rng: np.random.Generator) -> DesignPoint:
        epsilon = self._hyperparams["epsilon"]
        random = rng.random
        indices = []
        for cum in self._cum:
            if epsilon > 0 and random() < epsilon:
                indices.append(int(rng.integers(0, len(cum))))
            else:
                indices.append(bisect_right(cum, random() * cum[-1]))
        return tuple(indices)

    def update(self, evaluated: list[tuple[DesignPoint, float]]) -> None:
        """Evaporate, floor at tau_min, then deposit by rank for every ant."""
        hp = self._hyperparams
        ranks = mean_ranks(np.array([reward for _, reward in evaluated]))
        chosen = np.array([point for point, _ in evaluated], dtype=np.intp)
        chosen += self._offsets
        np.maximum(self._flat * (1.0 - hp["evaporation"]), hp["tau_min"], out=self._flat)
        # ranks are half-integers, so each value's rank sum is exact in any
        # order and the update depends only on the batch's multiset
        rank_sums = np.bincount(
            chosen.ravel(), np.repeat(ranks, chosen.shape[1]), minlength=self._flat.size
        )
        self._flat += hp["deposit"] / len(evaluated) * rank_sums
        self._tabulate()
