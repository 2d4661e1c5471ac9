"""Built-in environments and the registry that constructs them.

Environment ids: ``dram``, ``accel``, ``soc`` plus their brute-force-
tractable ``*-small`` variants.  `make_env` puts a family's cost model
behind a :class:`SyntheticEnv`, whose every step is one evaluation, bound
to the terms its formula computes once per workload.  An
external simulator becomes an env by passing a
:class:`dsegym.envs.external.SimulatorProcess` as the cost function of a
:class:`SyntheticEnv`.

A family is described once.  To add one, write:

* a module with `terms(constants, workload)`, what its formula needs
  beyond the design, and `formula(x, t)`, which returns (metrics, valid)
  from the design `x` and those terms `t` alone (see `cost_model`);
* its entry in `_FAMILIES`;
* a fixture ``fixtures/<family>.yaml`` with five keys: `defaults` (the
  value of each parameter a space leaves out, and the reference design),
  `workloads` (each workload's traits), `constants` (what `terms` reads),
  `objectives` (per workload, each name's `targets` or `budgets`) and
  `golden` (the reference design's metrics per workload, which
  ``scripts/calibrate_fixtures.py`` writes);
* its spaces, ``fixtures/spaces/<family>.yaml`` and
  ``fixtures/spaces/<family>-small.yaml``.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from ..core import RewardSpec, reward_spec_from_config
from ..spaces import ParameterSpace, load_space
from . import accel, dram, soc
from .base import SyntheticEnv, WorkloadSpec, cost_model, load_fixture

# each family's module: its `terms` and its `formula`
_FAMILIES = {"dram": dram, "accel": accel, "soc": soc}

ENV_IDS = tuple(sorted([*_FAMILIES, *(f"{family}-small" for family in _FAMILIES)]))


@lru_cache(maxsize=None)
def _fixture(family: str) -> dict:
    if family not in _FAMILIES:
        raise ValueError(f"unknown environment family {family!r} (have {sorted(_FAMILIES)})")
    return load_fixture(f"{family}.yaml")


@lru_cache(maxsize=None)
def get_space(env_id: str) -> ParameterSpace:
    if env_id not in ENV_IDS:
        raise ValueError(f"unknown environment {env_id!r} (have {list(ENV_IDS)})")
    ref = resources.files("dsegym.envs") / "fixtures" / "spaces" / f"{env_id}.yaml"
    with resources.as_file(ref) as path:
        return load_space(path)


@lru_cache(maxsize=None)
def _terms(family: str, workload_id: str) -> dict:
    """The terms of a family's formula for one workload; every env of the
    workload shares them, and their tables fill as they are read."""
    constants = _fixture(family)["constants"]
    return _FAMILIES[family].terms(constants, get_workload(family, workload_id))


def list_workloads(env_id: str) -> list[str]:
    return sorted(_fixture(env_id.removesuffix("-small"))["workloads"])


def get_workload(env_id: str, workload_id: str) -> WorkloadSpec:
    workloads = _fixture(env_id.removesuffix("-small"))["workloads"]
    if workload_id not in workloads:
        raise ValueError(
            f"unknown workload {workload_id!r} for {env_id!r} (have {sorted(workloads)})"
        )
    return WorkloadSpec(id=workload_id, traits=dict(workloads[workload_id]))


def list_objectives(env_id: str, workload_id: str) -> list[str]:
    return sorted(_fixture(env_id.removesuffix("-small"))["objectives"][workload_id])


def get_objective(env_id: str, workload_id: str, objective: str) -> RewardSpec:
    table = _fixture(env_id.removesuffix("-small"))["objectives"]
    if workload_id not in table or objective not in table[workload_id]:
        raise ValueError(
            f"no objective {objective!r} for {env_id!r}/{workload_id!r}"
        )
    return reward_spec_from_config(table[workload_id][objective])


def make_env(
    env_id: str,
    workload_id: str,
    objective: str | RewardSpec = "low-latency",
) -> SyntheticEnv:
    family = env_id.removesuffix("-small")
    fix = _fixture(family)
    terms = _terms(family, workload_id)  # before the objective: names an unknown workload
    if isinstance(objective, RewardSpec):
        reward_spec = objective
    else:
        reward_spec = get_objective(env_id, workload_id, objective)
    return SyntheticEnv(
        env_id=env_id,
        space=get_space(env_id),
        reward_spec=reward_spec,
        cost_fn=cost_model(_FAMILIES[family].formula, terms, fix["defaults"]),
        reference_design=fix["defaults"],
    )
