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

The trails of all parameters live end to end in one flat vector, and
`pheromone` holds a view per parameter.  Each parameter's cumulative
tau^beta table changes only in `update`, so it is built there and reused by
every proposal until the next one.  The tables are Python lists because a
proposal picks one value per parameter: `bisect.bisect_right` on a list
makes the same comparisons on the same doubles as
`np.searchsorted(side="right")` on the array (both return the number of
entries <= the draw in a nondecreasing table) without a numpy call per
parameter.  The draws stay scalar: the epsilon branch interleaves
`integers` calls with the uniforms, so batching them would reorder the
stream.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from ..spaces import DesignPoint
from .base import Agent


def mean_ranks(rewards: np.ndarray) -> np.ndarray:
    """Rank of each reward, 1 (lowest) to n (highest); ties share their mean rank."""
    ordered = np.sort(rewards)
    below = np.searchsorted(ordered, rewards, side="left")
    at_most = np.searchsorted(ordered, rewards, side="right")
    return (below + at_most + 1) / 2.0


class AntColony(Agent):
    agent_type = "ACO"
    DEFAULTS = {
        "evaporation": 0.2,
        "deposit": 1.0,
        "epsilon": 0.1,
        "beta": 1.0,
        "tau_min": 0.01,
        "ants": 8,
    }

    def __init__(self, space, hyperparams=None):
        super().__init__(space, hyperparams)
        hp = self._hyperparams
        if not 0.0 < hp["evaporation"] < 1.0:
            raise ValueError(f"evaporation must lie in (0, 1), got {hp['evaporation']}")
        if hp["deposit"] <= 0:
            raise ValueError(f"deposit must be positive, got {hp['deposit']}")
        if not 0.0 <= hp["epsilon"] <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {hp['epsilon']}")
        if hp["beta"] < 0:
            raise ValueError(f"beta must be >= 0, got {hp['beta']}")
        if hp["tau_min"] <= 0:
            raise ValueError(f"tau_min must be positive, got {hp['tau_min']}")
        if hp["ants"] < 1:
            raise ValueError(f"ants must be >= 1, got {hp['ants']}")
        sizes = space.sizes
        self._trail = np.ones(sum(sizes))
        self._offsets = np.cumsum((0,) + sizes[:-1])
        # one view per parameter into the flat trail
        self.pheromone = [self._trail[o : o + s] for o, s in zip(self._offsets, sizes)]
        self._batch: list[tuple[DesignPoint, float]] = []
        self._tabulate()

    def _tabulate(self) -> None:
        """Cumulative tau^beta per parameter; the trail changes only in `update`."""
        weights = (self._trail ** self._hyperparams["beta"]).tolist()
        # accumulate adds in np.cumsum's order: one running sum, left to right
        self._cum = [
            list(accumulate(weights[o : o + s])) for o, s in zip(self._offsets, self.space.sizes)
        ]

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

    def _on_observe(self, point: DesignPoint, reward: float) -> None:
        self._batch.append((point, reward))
        if len(self._batch) >= self._hyperparams["ants"]:
            self.update(self._batch)
            self._batch = []

    def update(self, evaluated: list[tuple[DesignPoint, float]]) -> None:
        """Evaporate, floor at tau_min, then deposit by rank for every ant."""
        hp = self._hyperparams
        ranks = mean_ranks(np.array([reward for _, reward in evaluated]))
        chosen = np.array([point for point, _ in evaluated], dtype=np.intp)
        chosen += self._offsets
        np.maximum(self._trail * (1.0 - hp["evaporation"]), hp["tau_min"], out=self._trail)
        # ranks are half-integers, so each value's rank sum is exact in any
        # order and the update depends only on the batch's multiset
        rank_sums = np.bincount(
            chosen.ravel(), np.repeat(ranks, chosen.shape[1]), minlength=self._trail.size
        )
        self._trail += hp["deposit"] / len(evaluated) * rank_sums
        self._tabulate()
