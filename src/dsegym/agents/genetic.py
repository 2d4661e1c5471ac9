"""Genetic algorithm: tournament selection, uniform crossover, per-gene mutation.

The population is generational with single-individual elitism.  Three
optional domain operators mirror accelerator-mapping GA variants: gene
reordering before crossover, aging out of long-lived individuals, and
growth (an extra mutated copy of the elite, with the population trimmed
back to size at the next generation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spaces import DesignPoint, ParameterSpace, resample_position
from .base import Agent


@dataclass
class Individual:
    point: DesignPoint
    fitness: float | None = None
    age: int = 0


def uniform_crossover(
    a: DesignPoint,
    b: DesignPoint,
    rng: np.random.Generator,
    order: np.ndarray | None = None,
) -> DesignPoint:
    """Per-gene 50/50 mix of two parents, visited in `order` if given.

    The coins are one `rng.random(n)` batch used in visiting order: the
    same doubles as n scalar draws.
    """
    indices = list(a)
    positions = order if order is not None else range(len(indices))
    coins = rng.random(len(positions)).tolist()
    for pos, coin in zip(positions, coins):
        if coin < 0.5:
            indices[pos] = b[pos]
    return tuple(indices)


def mutate(
    space: ParameterSpace, point: DesignPoint, prob: float, rng: np.random.Generator
) -> DesignPoint:
    """Each gene independently resampled (excluding its value) with prob `prob`."""
    for pos in range(len(space)):
        if rng.random() < prob:
            point = resample_position(space, point, pos, rng)
    return point


class GeneticAlgorithm(Agent):
    agent_type = "GA"
    DEFAULTS = {
        "population_size": 32,
        "mutation_prob": 0.1,
        "crossover_prob": 0.7,
        "tournament_size": 3,
        "aging": False,
        "aging_limit": 8,
        "growth": False,
        "growth_prob": 0.2,
        "reordering": False,
    }
    SWEEP_GRID = {"mutation_prob": [0.01, 0.05, 0.1, 0.3], "population_size": [8, 32, 128]}

    def __init__(self, space, hyperparams=None):
        super().__init__(space, hyperparams)
        hp = self._hyperparams
        self._require("population_size", hp["population_size"] >= 2, "be >= 2")
        self._require("tournament_size", hp["tournament_size"] >= 2, "be >= 2")
        for key in ("mutation_prob", "crossover_prob", "growth_prob"):
            self._require(key, 0.0 <= hp[key] <= 1.0, "lie in [0, 1]")
        self.population: list[Individual] = []
        self._pending: Individual | None = None

    # -- contract ------------------------------------------------------------

    def propose(self, rng: np.random.Generator) -> DesignPoint:
        if not self.population:
            # one draw of every gene, individual by individual: the same
            # draws as one `sample_uniform` per individual
            size = (self._hyperparams["population_size"], len(self.space))
            genes = rng.integers(0, self.space._bounds, size=size).tolist()
            self.population = [Individual(tuple(row)) for row in genes]
        pending = self._first_unevaluated()
        if pending is None:
            self._breed(rng)
            pending = self._first_unevaluated()
        self._pending = pending
        return pending.point

    def _on_observe(self, point: DesignPoint, reward: float) -> None:
        if self._pending is not None and self._pending.point == point:
            self._pending.fitness = reward
            self._pending = None

    def _first_unevaluated(self) -> Individual | None:
        for ind in self.population:
            if ind.fitness is None:
                return ind
        return None

    def _tournament(self, pool: list[Individual], rng: np.random.Generator) -> Individual:
        k = min(self._hyperparams["tournament_size"], len(pool))
        picks = rng.choice(len(pool), size=k, replace=False)
        return max((pool[int(i)] for i in picks), key=lambda i: i.fitness)

    def _breed(self, rng: np.random.Generator) -> None:
        hp = self._hyperparams
        size = hp["population_size"]
        pool = self.population
        # growth from the previous generation resettles here
        if len(pool) > size:
            pool = sorted(pool, key=lambda i: i.fitness, reverse=True)[:size]
        if hp["aging"]:
            survivors = [i for i in pool if i.age <= hp["aging_limit"]]
            if len(survivors) < 2:
                survivors = sorted(pool, key=lambda i: i.fitness, reverse=True)[:2]
        else:
            survivors = pool
        elite = max(survivors, key=lambda i: i.fitness)

        order = rng.permutation(len(self.space)) if hp["reordering"] else None
        children = [Individual(elite.point, elite.fitness, elite.age + 1)]
        while len(children) < size:
            parent = self._tournament(survivors, rng)
            if rng.random() < hp["crossover_prob"]:
                other = self._tournament(survivors, rng)
                child = uniform_crossover(parent.point, other.point, rng, order)
            else:
                child = parent.point
            child = mutate(self.space, child, hp["mutation_prob"], rng)
            children.append(Individual(child))
        if hp["growth"] and rng.random() < hp["growth_prob"]:
            sprout = resample_position(
                self.space, elite.point, int(rng.integers(0, len(self.space))), rng
            )
            children.append(Individual(sprout))
        self.population = children
