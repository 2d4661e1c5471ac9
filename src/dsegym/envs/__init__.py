"""Built-in environments and the registry that constructs them.

Environment ids: ``dram``, ``accel``, ``soc`` plus their brute-force-
tractable ``*-small`` variants.  `make_env` puts a family's cost model
behind a :class:`SyntheticEnv`, whose every step is one evaluation, with
the terms its formula computes once per workload in its constants.  An
external simulator becomes an env by passing a
:class:`dsegym.envs.external.SimulatorProcess` as the cost function of a
:class:`SyntheticEnv`.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from ..core import RewardSpec, reward_spec_from_config
from ..spaces import ParameterSpace, load_space
from . import accel, dram, soc
from .base import SyntheticEnv, WorkloadSpec, load_fixture

# each family's module: its cost function and the `terms` its formula reads
_MODULES = {"dram": dram, "accel": accel, "soc": soc}
# the cost function `make_env` puts behind a family's envs
_FAMILIES = {family: module.cost_metrics for family, module in _MODULES.items()}

ENV_IDS = tuple(
    sorted([family for family in _FAMILIES] + [f"{family}-small" for family in _FAMILIES])
)


def split_env_id(env_id: str) -> tuple[str, bool]:
    if env_id.endswith("-small"):
        return env_id[: -len("-small")], True
    return env_id, False


@lru_cache(maxsize=None)
def _fixture(family: str) -> dict:
    if family not in _FAMILIES:
        raise ValueError(f"unknown environment family {family!r} (have {sorted(_FAMILIES)})")
    return load_fixture(f"{family}.yaml")


@lru_cache(maxsize=None)
def get_space(env_id: str) -> ParameterSpace:
    family, small = split_env_id(env_id)
    fix = _fixture(family)
    name = fix["small_space_file"] if small else fix["space_file"]
    ref = resources.files("dsegym.envs") / "fixtures" / "spaces" / name
    with resources.as_file(ref) as path:
        return load_space(path)


@lru_cache(maxsize=None)
def _terms(family: str, workload_id: str) -> dict:
    """The terms of a family's formula for one workload; every env of the
    workload shares them, and their tables fill as they are read."""
    return _MODULES[family].terms(_fixture(family)["constants"], get_workload(family, workload_id))


def list_workloads(env_id: str) -> list[str]:
    family, _ = split_env_id(env_id)
    return sorted(_fixture(family)["workloads"])


def get_workload(env_id: str, workload_id: str) -> WorkloadSpec:
    family, _ = split_env_id(env_id)
    workloads = _fixture(family)["workloads"]
    if workload_id not in workloads:
        raise ValueError(
            f"unknown workload {workload_id!r} for {env_id!r} (have {sorted(workloads)})"
        )
    return WorkloadSpec(id=workload_id, traits=dict(workloads[workload_id]))


def list_objectives(env_id: str, workload_id: str) -> list[str]:
    family, _ = split_env_id(env_id)
    return sorted(_fixture(family)["objectives"][workload_id])


def get_objective(env_id: str, workload_id: str, objective: str) -> RewardSpec:
    family, _ = split_env_id(env_id)
    table = _fixture(family)["objectives"]
    if workload_id not in table or objective not in table[workload_id]:
        raise ValueError(
            f"no objective {objective!r} for {env_id!r}/{workload_id!r}"
        )
    return reward_spec_from_config(table[workload_id][objective])


def golden_metrics(env_id: str, workload_id: str) -> dict:
    family, _ = split_env_id(env_id)
    return dict(_fixture(family)["golden"][workload_id])


def make_env(
    env_id: str,
    workload_id: str,
    objective: str | RewardSpec = "low-latency",
) -> SyntheticEnv:
    family, _ = split_env_id(env_id)
    fix = _fixture(family)
    workload = get_workload(env_id, workload_id)
    if isinstance(objective, RewardSpec):
        reward_spec = objective
    else:
        reward_spec = get_objective(env_id, workload_id, objective)
    constants = {**fix["constants"], "defaults": fix["defaults"]}
    constants["terms"] = _terms(family, workload_id)
    return SyntheticEnv(
        env_id=env_id,
        space=get_space(env_id),
        workload=workload,
        reward_spec=reward_spec,
        cost_fn=_FAMILIES[family],
        constants=constants,
        reference_design=fix["reference"],
    )
