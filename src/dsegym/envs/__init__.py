"""Built-in environments and the registry that constructs them.

Environment ids: ``dram``, ``accel``, ``soc`` plus their brute-force-
tractable ``*-small`` variants.  An external simulator becomes an env by
passing a :class:`dsegym.envs.external.SimulatorProcess` as the cost
function of a :class:`SyntheticEnv`.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from ..core import RewardSpec, reward_spec_from_config
from ..spaces import ParameterSpace, load_space
from . import accel, dram, soc
from .base import SyntheticEnv, WorkloadSpec, load_fixture

_FAMILIES = {
    "dram": dram.cost_metrics,
    "accel": accel.cost_metrics,
    "soc": soc.cost_metrics,
}

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
    episode_length: int = 1,
    delay_ms: float = 0.0,
) -> SyntheticEnv:
    family, _ = split_env_id(env_id)
    fix = _fixture(family)
    workload = get_workload(env_id, workload_id)
    if isinstance(objective, RewardSpec):
        reward_spec = objective
    else:
        reward_spec = get_objective(env_id, workload_id, objective)
    constants = {**fix["constants"], "defaults": fix["defaults"]}
    return SyntheticEnv(
        env_id=env_id,
        space=get_space(env_id),
        workload=workload,
        reward_spec=reward_spec,
        cost_fn=_FAMILIES[family],
        constants=constants,
        reference_design=fix["reference"],
        episode_length=episode_length,
        delay_s=delay_ms / 1000.0,
    )
