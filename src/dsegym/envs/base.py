"""Shared machinery for every environment: built-in and external.

Each built-in environment is a pure function of (design point, workload,
fixture constants).  All constants live in the YAML fixture files next to
this module, so golden-value tests stay stable and brute-force oracles are
exact.  An external simulator plugs in as a cost function
(:class:`dsegym.envs.external.SimulatorProcess`) behind the same env class.
An env step is one cost-function evaluation, and the env keeps no
per-step state.

A built-in family writes its cost formula once, as a `cost_model`, over
parameter values that are either one design's (`PointValues`) or the
index columns of a batch (`Columns`).  Only the lookups differ: a point
reads `table[value]`, a batch reads a per-parameter array of the same
`Table` entries indexed by the index column.  Every other operation is the
same float operation in the same order, so a batch row equals its point
bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import numpy as np
import yaml

from ..core import Observation, RewardSpec, StepResult, score
from ..spaces import DesignPoint, ParameterSpace, check_indices, design_map, point_from_map


@dataclass(frozen=True)
class WorkloadSpec:
    """Workload as a trait vector; task graphs live in the env fixture."""

    id: str
    traits: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, value in self.traits.items():
            if not math.isfinite(value):
                raise ValueError(f"trait {name!r} must be finite, got {value}")
            if name.endswith(("_fraction", "_locality")) and not 0.0 <= value <= 1.0:
                raise ValueError(f"trait {name!r} must lie in [0, 1], got {value}")

    def __getitem__(self, name: str) -> float:
        return self.traits[name]


def load_fixture(name: str) -> dict:
    """Load a YAML fixture shipped with the package."""
    ref = resources.files("dsegym.envs") / "fixtures" / name
    with ref.open(encoding="utf-8") as f:
        return yaml.safe_load(f)


# Cost function: (design name->value map, workload, constants) ->
# (metrics dict, valid flag)
CostFn = Callable[[dict, WorkloadSpec, dict], tuple[dict, bool]]


class Table(dict):
    """A per-value term of a cost formula: `fn` of one parameter value,
    computed on first use.  A term of two parameters is a table of tables.

    A point reads `table[value]` (`table[value_a][value_b]`); a batch reads
    `over(grids)`, the same entries as an array over the parameters' grids.
    """

    __slots__ = ("fn", "_arrays")

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn
        self._arrays: dict[tuple, np.ndarray] = {}

    def __missing__(self, value):
        entry = self[value] = self.fn(value)
        return entry

    def over(self, grids: tuple[tuple, ...]) -> np.ndarray:
        """Every entry over the product of `grids`, one tuple of values per
        parameter: one axis per parameter, then one for a tuple entry."""
        array = self._arrays.get(grids)
        if array is None:
            entries = [self[value] for value in grids[0]]
            if len(grids) > 1:
                entries = [entry.over(grids[1:]) for entry in entries]
            array = self._arrays[grids] = np.array(entries)
            array.flags.writeable = False  # shared by every batch of the workload
        return array


class PointValues(dict):
    """One design's parameter values, with `defaults` for the parameters it
    leaves out: how a cost formula reads a point.

    `x[name]` is a value, `x.at(table, name)` is `table[value]` and
    `x.at(table, a, b)` is `table[value_a][value_b]`.  `maximum` is `max`;
    `argmin` and `put` are list operations.  `Columns` answers the same
    calls for a batch.
    """

    __slots__ = ("defaults",)
    maximum = staticmethod(max)
    # whether the formula may stop here: a point stops once infeasible
    stop = staticmethod(operator.not_)

    def __missing__(self, name: str):
        return self.defaults[name]

    def at(self, table: Table, name: str, other: str | None = None):
        if other is None:
            return table[self[name]]
        return table[self[name]][self[other]]

    @staticmethod
    def argmin(values: list) -> tuple:
        """The smallest of `values` and the first position that holds it."""
        best = min(values)
        return best, values.index(best)

    @staticmethod
    def put(values: list, position, value) -> None:
        values[position] = value


class Columns:
    """A batch of designs as index columns: how a cost formula reads a batch.

    `x[name]` is the column of a parameter's values.  `x.at(table, ...)` is
    the column of its entries: `table.over(grids)` indexed by the index
    columns, so every row reads the float its point reads; a tuple entry
    gives one column per position.  A parameter the space leaves out takes
    its default in every row.  `maximum`, `argmin` and `put` act row by row,
    and a batch never `stop`s: it scores every row, feasible or not.
    """

    def __init__(self, space: ParameterSpace, indices: np.ndarray, defaults: dict):
        self._columns = {
            name: (values, indices[:, j]) for j, (name, values) in enumerate(space._grid_values)
        }
        self._defaults = defaults

    def _column(self, name: str) -> tuple[tuple, np.ndarray | int]:
        """A parameter's grid values and its index column."""
        if name in self._columns:
            return self._columns[name]
        return (self._defaults[name],), 0

    def __getitem__(self, name: str):
        values, index = self._column(name)
        return np.array(values)[index]

    @staticmethod
    def stop(valid) -> bool:
        return False

    def at(self, table: Table, name: str, other: str | None = None):
        grids, index = zip(*map(self._column, (name,) if other is None else (name, other)))
        array = table.over(grids)
        entries = array[index]
        return np.moveaxis(entries, -1, 0) if array.ndim > len(grids) else entries

    @staticmethod
    def maximum(*values):
        """`max` row by row: of two or more columns, or of one list of them."""
        return functools.reduce(np.maximum, values[0] if len(values) == 1 else values)

    @staticmethod
    def argmin(values: list) -> tuple:
        stacked = np.stack(np.broadcast_arrays(*values))
        return stacked.min(axis=0), stacked.argmin(axis=0)

    @staticmethod
    def put(values: list, position: np.ndarray, value: np.ndarray) -> None:
        for i, old in enumerate(values):
            values[i] = np.where(position == i, value, old)


def cost_model(formula: Callable) -> CostFn:
    """The `CostFn` of a built-in family's formula: one formula for a point
    and a batch.

    `formula(x, workload, c)` returns (metrics, valid).  It reads the design
    only through `x`, and what it needs beyond the design from `c["terms"]`:
    the family's `terms(constants, workload)`, which `make_env` puts there.
    The cost function runs it on one design's `PointValues`;
    `SyntheticEnv.metrics_batch` runs the same formula, the function's
    `formula` attribute, on `Columns`.
    """

    def cost_fn(design: dict, workload: WorkloadSpec, c: dict) -> tuple[dict, bool]:
        x = PointValues(design)
        x.defaults = c["defaults"]
        return formula(x, workload, c)

    cost_fn.formula = formula
    return cost_fn


class SyntheticEnv:
    """Any cost function behind the gym-style contract.

    The cost function runs in-process (the built-in models) or in a
    simulator process (:class:`dsegym.envs.external.SimulatorProcess`).
    `delay_s` injects artificial per-step latency for proxy speed-up
    benchmarking.
    """

    def __init__(
        self,
        env_id: str,
        space: ParameterSpace,
        workload: WorkloadSpec,
        reward_spec: RewardSpec,
        cost_fn: CostFn,
        constants: dict,
        reference_design: dict,
        delay_s: float = 0.0,
    ):
        self.env_id = env_id
        self._space = space
        self._workload = workload
        self.reward_spec = reward_spec
        self._cost_fn = cost_fn
        self._constants = constants
        self._reference = point_from_map(space, reference_design)
        self.delay_s = delay_s

    # -- contract ----------------------------------------------------------

    def space(self) -> ParameterSpace:
        return self._space

    def workload(self) -> WorkloadSpec:
        return self._workload

    def reset(self) -> Observation:
        """The reference design's observation."""
        return self.observe(self._reference)

    def step(self, point: DesignPoint) -> StepResult:
        self._space.validate_point(point)
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        # not `observe`: the benchmark counts `observe` calls as evaluations beyond the steps
        obs = self._evaluate(point)
        return StepResult(observation=obs, reward=score(self.reward_spec, obs))

    # -- helpers -----------------------------------------------------------

    def observe(self, point: DesignPoint) -> Observation:
        """Metrics for a point, without the reward or the step delay."""
        return self._evaluate(point)

    def metrics_batch(self, indices) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """`observe` of every row of an (n, len(space)) index array, bit for bit.

        Returns one read-only column per metric and the validity mask; an
        invalid row's metric entries mean nothing.  Only a `cost_model` has a
        batch form: an external simulator scores one design at a time.
        """
        formula = getattr(self._cost_fn, "formula", None)
        if formula is None:
            raise TypeError(f"the cost function of {self.env_id!r} scores one design at a time")
        indices = check_indices(self._space, indices)
        x = Columns(self._space, indices, self._constants["defaults"])
        metrics, valid = formula(x, self._workload, self._constants)
        n = len(indices)
        return (
            {name: np.broadcast_to(column, (n,)) for name, column in metrics.items()},
            np.broadcast_to(valid, (n,)),
        )

    def _evaluate(self, point: DesignPoint) -> Observation:
        design = design_map(self._space, point)
        metrics, valid = self._cost_fn(design, self._workload, self._constants)
        if not valid:
            return Observation(metrics={}, valid=False)
        return Observation(metrics=metrics)

    def reference_point(self) -> DesignPoint:
        return self._reference
