"""The five search agents, their registry and their sweep grids."""

from __future__ import annotations

import itertools
from typing import Mapping

from ..spaces import ParameterSpace
from .ant_colony import AntColony
from .base import Agent, HyperparamSet
from .bayesian import BayesOpt, GaussianProcess, expected_improvement
from .genetic import GeneticAlgorithm, Individual
from .random_walker import RandomWalker
from .reinforce import Reinforce

AGENT_CLASSES: dict[str, type[Agent]] = {
    cls.agent_type: cls
    for cls in (RandomWalker, GeneticAlgorithm, AntColony, BayesOpt, Reinforce)
}

AGENT_TYPES = tuple(sorted(AGENT_CLASSES))


def _agent_class(agent_type: str) -> type[Agent]:
    if agent_type not in AGENT_CLASSES:
        raise ValueError(f"unknown agent type {agent_type!r} (have {sorted(AGENT_CLASSES)})")
    return AGENT_CLASSES[agent_type]


def make_agent(
    agent_type: str, space: ParameterSpace, hyperparams: Mapping | None = None
) -> Agent:
    return _agent_class(agent_type)(space, hyperparams)


def sweep_configs(agent_type: str, grid: Mapping | None = None) -> list[dict]:
    """The product of a grid's per-hyperparameter value lists; SWEEP_GRID unless given."""
    shipped = _agent_class(agent_type).SWEEP_GRID
    grid = shipped if grid is None else grid
    if not isinstance(grid, Mapping) or not all(
        isinstance(values, (list, tuple)) and values for values in grid.values()
    ):
        raise ValueError(
            f"the sweep grid for {agent_type} must map hyperparameter names to non-empty"
            f" lists of values, got {grid!r}"
        )
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


__all__ = [
    "AGENT_CLASSES",
    "AGENT_TYPES",
    "Agent",
    "AntColony",
    "BayesOpt",
    "GaussianProcess",
    "GeneticAlgorithm",
    "HyperparamSet",
    "Individual",
    "RandomWalker",
    "Reinforce",
    "expected_improvement",
    "make_agent",
    "sweep_configs",
]
