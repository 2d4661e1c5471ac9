"""Shared machinery for every environment: built-in and external.

Each built-in environment is a pure function of (design point, workload,
fixture constants).  All constants live in the YAML fixture files next to
this module, so golden-value tests stay stable and brute-force oracles are
exact.  An external simulator plugs in as a cost function
(:class:`dsegym.envs.external.SimulatorProcess`) behind the same env class.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import yaml

from ..core import Environment, Observation, RewardSpec, StepResult, score
from ..spaces import DesignPoint, ParameterSpace, design_map, point_from_map


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
# (metrics dict, valid flag, reason string for invalid points)
CostFn = Callable[[dict, WorkloadSpec, dict], tuple[dict, bool, str]]


class SyntheticEnv(Environment):
    """Any cost function behind the gym-style contract.

    The cost function runs in-process (the built-in models) or in a
    simulator process (:class:`dsegym.envs.external.SimulatorProcess`); it
    is assumed deterministic, so the reference design is evaluated once.
    Episodes have length 1 by default: every step is a full design
    evaluation and `done` comes back true.  `delay_s` injects artificial
    per-step latency for proxy speed-up benchmarking.
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
        episode_length: int = 1,
        delay_s: float = 0.0,
    ):
        if episode_length < 1:
            raise ValueError("episode length must be >= 1")
        self.env_id = env_id
        self._space = space
        self._workload = workload
        self.reward_spec = reward_spec
        self._cost_fn = cost_fn
        self._constants = constants
        self._reference = point_from_map(space, reference_design)
        self._reference_obs: Observation | None = None  # evaluated on first reset
        self.episode_length = episode_length
        self.delay_s = delay_s
        self._steps_in_episode = 0

    # -- contract ----------------------------------------------------------

    def space(self) -> ParameterSpace:
        return self._space

    def workload(self) -> WorkloadSpec:
        return self._workload

    def reset(self) -> Observation:
        """Start an episode; returns the reference design's observation.

        The cost function is deterministic, so the reference is evaluated
        once.  Each call returns a fresh copy, because callers may edit
        `metrics`.
        """
        self._steps_in_episode = 0
        if self._reference_obs is None:
            self._reference_obs = self.observe(self._reference)
        ref = self._reference_obs
        return Observation(dict(ref.metrics), ref.valid, dict(ref.units))

    def step(self, point: DesignPoint) -> StepResult:
        self._space.validate_point(point)
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        obs, reason = self._evaluate(point)
        reward = score(self.reward_spec, obs)
        self._steps_in_episode += 1
        done = self._steps_in_episode >= self.episode_length
        info: dict[str, str] = {}
        if not obs.valid:
            info["invalid"] = reason or "infeasible"
        return StepResult(observation=obs, reward=reward, done=done, info=info)

    # -- helpers -----------------------------------------------------------

    def observe(self, point: DesignPoint) -> Observation:
        """Metrics for a point without episode bookkeeping or delay."""
        return self._evaluate(point)[0]

    def _evaluate(self, point: DesignPoint) -> tuple[Observation, str]:
        design = design_map(self._space, point)
        metrics, valid, reason = self._cost_fn(design, self._workload, self._constants)
        if not valid:
            return Observation(metrics={}, valid=False), reason
        return Observation(metrics=metrics), ""

    def reference_point(self) -> DesignPoint:
        return self._reference
