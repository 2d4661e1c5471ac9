"""Genetic algorithm: tournament selection, uniform crossover, per-gene mutation.

The population is generational with single-individual elitism.  A
generation draws its randomness as one `rng.random((population_size - 1,
m))` block, one row per child, and breeds from it in plain Python.  Three
optional domain operators mirror accelerator-mapping GA variants: gene
reordering before crossover, aging out of long-lived individuals, and
growth (an extra mutated copy of the elite, with the population trimmed
back to size at the next generation).  Reordering and growth make their
own draws besides the block.

The first `population_size` proposals are the uniform initial population,
so a trial whose budget is at most `population_size` never breeds: at the
default of 32 it is uniform random sampling, and its best reward depends on
no GA operator or hyperparameter but `population_size`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..spaces import DesignPoint, resample_position
from .base import Agent


@dataclass
class Individual:
    point: DesignPoint
    fitness: float | None = None
    age: int = 0


def floyd_sample(n: int, uniforms: Sequence[float]) -> list[int]:
    """`len(uniforms)` distinct indices of `range(n)`, every subset equally likely.

    Floyd's algorithm (Bentley & Floyd, CACM 1987): the step for j in
    `n - k .. n - 1` picks `v = int(u * (j + 1))` from `0 .. j`, or j
    itself if v is already picked.
    """
    picks: list[int] = []
    for j, u in zip(range(n - len(uniforms), n), uniforms):
        v = int(u * (j + 1))
        picks.append(j if v in picks else v)
    return picks


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

        d = len(self.space)
        order = rng.permutation(d).tolist() if hp["reordering"] else range(d)
        n = len(survivors)
        k = min(hp["tournament_size"], n)
        # a child's row: two tournaments' k uniforms each, the crossover
        # coin, then d crossover coins, d mutation coins, d resample uniforms
        cx, mut, res = 2 * k + 1, 2 * k + 1 + d, 2 * k + 1 + 2 * d
        block = rng.random((size - 1, res + d)).tolist()
        points = [i.point for i in survivors]
        fitness = [i.fitness for i in survivors]

        def winner(uniforms):
            return points[max(floyd_sample(n, uniforms), key=fitness.__getitem__)]

        crossover_prob, mutation_prob = hp["crossover_prob"], hp["mutation_prob"]
        # a mutated gene takes one of the size - 1 other grid indices
        others = [s - 1 for s in self.space.sizes]
        children = [Individual(elite.point, elite.fitness, elite.age + 1)]
        for row in block:
            child = list(winner(row[:k]))
            if row[2 * k] < crossover_prob:
                other = winner(row[k : 2 * k])
                for pos, coin in zip(order, row[cx:mut]):
                    if coin < 0.5:
                        child[pos] = other[pos]
            for pos, coin in enumerate(row[mut:res]):
                if coin < mutation_prob and others[pos]:
                    new = int(row[res + pos] * others[pos])
                    child[pos] = new + 1 if new >= child[pos] else new
            children.append(Individual(tuple(child)))
        if hp["growth"] and rng.random() < hp["growth_prob"]:
            sprout = resample_position(
                self.space, elite.point, int(rng.integers(0, d)), rng
            )
            children.append(Individual(sprout))
        self.population = children
