"""Observations, rewards and objectives shared by environments and agents.

A `RewardSpec` sets one of two fields, and the field it sets is its mode:

* `targets`, target proximity: r = target / |target - observed|, capped at
  a large finite value at the singularity (multiple targets combine by
  geometric mean);
* `budgets`, budget distance: sum_m alpha_m * (D_m - B_m) / B_m, negated
  by `score` so that higher is better in every mode.

Each formula is written once, in `_reward`: `score` runs it on one
observation with `math`'s operations, `score_batch` on metric columns with
numpy's.

The reader rules live here too.  `finite_number` decides what a number
is, and every reader of a file, a child process or the command line calls
it; `whole_number` decides what an int64 is.  `check_fields` decides what
makes a JSON object one of the package's documents or one of their parts,
and how a refusal reads; each reader passes it a table of its fields.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping

import numpy as np

DEFAULT_SINGULARITY_CAP = 1e9
_FLOAT_MAX = sys.float_info.max  # bound once: each record's metrics call `finite_number`


def finite_number(value) -> bool:
    """A finite int or float, not a bool; unlike `math.isfinite`, no overflow on a huge int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and (
        abs(value) <= _FLOAT_MAX)


def whole_number(value) -> bool:
    """An int or numpy integer, not a bool, that fits in int64."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool and abs(value) < 2**63


def natural_number(value) -> bool:
    """A `whole_number` >= 0: a seed, an index or a count."""
    return whole_number(value) and value >= 0


def shown(value) -> str:
    """`repr(value)`, or, where it holds an int too long for Python to print
    (past `sys.get_int_max_str_digits()`), that int's size."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an int too long to print"


_SHOWN_MAX = 200  # characters of a value a refusal quotes at most


def check_fields(doc, fields: Mapping[str, tuple], what: str):
    """`doc`, if it is a JSON object with exactly the keys of `fields` and
    every value fits its field `(types, check, shape)`: its exact type is in
    `types` (`json.loads` yields exact types, so a bool never passes for an
    int) and it passes `check` unless that is None.  Any other `doc` raises
    a `ValueError` naming the key, its shape and its value."""
    if type(doc) is not dict:
        raise ValueError(f"a {what} is a JSON object, not {type(doc).__name__}")
    # as many keys as `fields`, each of them in `doc`, are exactly its keys
    if len(doc) == len(fields):
        for key, (types, check, shape) in fields.items():
            try:
                value = doc[key]
            except KeyError:
                break
            if type(value) not in types or not (check is None or check(value)):
                raise ValueError(f"{key} is not {shape}, got {shown(value)[:_SHOWN_MAX]}")
        else:
            return doc
    unknown = sorted(doc.keys() - fields.keys())
    if unknown:
        raise ValueError(f"{what} has unknown keys {shown(unknown)[:_SHOWN_MAX]}")
    raise ValueError(f"{what} lacks key {next(k for k in fields if k not in doc)!r}")


def fits(doc, fields: Mapping[str, tuple]) -> bool:
    """Whether `check_fields` accepts `doc`."""
    try:
        check_fields(doc, fields, "")
    except ValueError:
        return False
    return True


def read_json(text: str, fields: Mapping[str, tuple], what: str):
    """`check_fields` of the JSON in `text`; no JSON, or JSON nested too deep, is a `ValueError`."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"a {what} nested too deep to parse") from None
    except ValueError as exc:
        raise ValueError(f"not a JSON {what}: {exc}") from None
    return check_fields(doc, fields, what)


# field shapes the readers share
STRING = ((str,), None, "a string")
STRINGS = ((list,), lambda values: all(type(v) is str for v in values), "a list of strings")
REAL = ((float, int), finite_number, "a finite number")
NATURAL = ((int,), natural_number, "an int64 >= 0")
COUNT = ((int,), lambda n: whole_number(n) and n >= 1, "an int64 >= 1")
METRICS = ((dict,), lambda m: all(map(finite_number, m.values())),
           "a JSON object of finite numbers")


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
        checks = [("target", m, t) for m, t in self.targets]
        for m, b, w in self.budgets:
            checks += [("budget", m, b), ("weight", m, w)]
        for kind, metric, value in checks:
            if not (finite_number(value) and value > 0):
                raise ValueError(f"{kind} for {metric!r} must be positive and finite, "
                                 f"got {shown(value)}")
            # `_reward` divides by target / cap on an exact match
            if kind == "target" and value / DEFAULT_SINGULARITY_CAP == 0:
                raise ValueError(f"target for {metric!r} is so small that target / "
                                 f"{DEFAULT_SINGULARITY_CAP:g} underflows to 0, got {value}")


@dataclass
class StepResult:
    observation: Observation
    reward: float


# `_reward`'s operations on one point; numpy's serve a batch
_POINT_OPS = SimpleNamespace(where=lambda cond, a, b: a if cond else b, minimum=min, maximum=max,
                             log=math.log, exp=math.exp)


def _reward(spec: RewardSpec, read, x):
    """`spec`'s reward from `read(metric)`, a value or a column, with `x`'s operations.

    `maximum` only keeps an exact match on a point from dividing by zero;
    `where` has already picked the cap there.
    """
    if spec.targets:
        cap = DEFAULT_SINGULARITY_CAP
        rewards = []
        for metric, target in spec.targets:
            gap = abs(target - read(metric))
            floor = target / cap
            rewards.append(x.where(gap < floor, cap, x.minimum(target / x.maximum(gap, floor), cap)))
        if len(rewards) == 1:
            return rewards[0]
        return x.exp(sum(map(x.log, rewards)) / len(rewards))
    total = 0.0
    for metric, budget, weight in spec.budgets:
        total += weight * (read(metric) - budget) / budget
    return -total


def score(spec: RewardSpec, obs: Observation) -> float:
    """Scalar reward for an observation; higher is better in every mode.

    Infeasible observations score 0 (the observation's `valid` flag marks
    them instead of an exception).
    """
    return _reward(spec, obs.__getitem__, _POINT_OPS) if obs.valid else 0.0


def score_batch(
    spec: RewardSpec, metrics: Mapping[str, np.ndarray], valid: np.ndarray
) -> np.ndarray:
    """`score` of every row of metric columns and a validity mask, bit for bit,
    except a joint target's geometric mean: numpy's log and exp may differ
    from `math`'s in the last bits."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(valid, _reward(spec, metrics.__getitem__, np), 0.0)


def reward_spec_from_config(config: dict) -> RewardSpec:
    """Build a RewardSpec from an objective of a fixture file: its `targets`
    (metric: target) or its `budgets` (metric: [budget, weight])."""
    unknown = sorted(set(config) - {"targets", "budgets"})
    if unknown:
        raise ValueError(f"unknown objective keys: {', '.join(unknown)}")

    def number(kind: str, metric: str, value) -> float:
        if not finite_number(value):
            raise ValueError(f"{kind} for {metric!r} must be positive and finite, "
                             f"got {shown(value)}")
        return float(value)

    budgets = config.get("budgets", {})
    for m, pair in budgets.items():
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"budgets for {m!r} must be a [budget, weight] pair, "
                             f"got {shown(pair)}")
    return RewardSpec(
        targets=tuple((m, number("target", m, t)) for m, t in config.get("targets", {}).items()),
        budgets=tuple((m, number("budget", m, b), number("weight", m, w))
                      for m, (b, w) in budgets.items()),
    )
