"""Experiment driver: (agent x hyperparams x seed x budget) trials.

A trial is the unit of parallelism: one env instance, one agent, one rng
stream, one trajectory file.  Sweeps run the Cartesian product of configs,
seeds and budgets; nested budgets are evaluated on a single seed stream by
checkpointing best-so-far at each budget, which makes reward-vs-budget
curves monotone per trial.  One env step is one sample; agent-internal
computation is free.

Parallel sweeps run trials in a process pool.  Each worker caps every
OpenBLAS library it has loaded at max(1, usable cores // workers) threads
before its first trial, and never raises a count it inherited; the caller's
own thread counts and environment are left alone.  Without the cap each
worker's BLAS calls spin on every core and the workers slow each other down.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .agents import make_agent, sweep_configs
from .dataset import TrajectoryRecord, TrajectoryWriter
from .envs import get_objective, make_env
from .rng import digest_stream, make_rng
from .spaces import SpaceTooLargeError, cardinality, design_map, enumerate_points


class TrialError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrialSpec:
    """Everything needed to run (and replay) one trial."""

    env_id: str
    workload_id: str
    objective: str
    agent_type: str
    budget: int
    seed: int
    hyperparams: tuple = ()  # sorted (name, value) pairs; dicts don't hash
    delay_ms: float = 0.0
    out_dir: str | None = None
    checkpoints: tuple[int, ...] = ()

    @staticmethod
    def hyperparams_tuple(hp: Mapping | None) -> tuple:
        return tuple(sorted((hp or {}).items()))

    def hyperparams_dict(self) -> dict:
        return dict(self.hyperparams)

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"sample budget must be >= 1, got {self.budget}")


@dataclass
class TrialResult:
    experiment_id: str
    agent_type: str
    hyperparam_digest: str
    hyperparams: dict
    seed: int
    budget: int
    best_design: dict | None
    best_reward: float
    samples_used: int
    wall_time_s: float
    trajectory_file: str | None
    best_at: dict[int, float] = field(default_factory=dict)
    error: str | None = None


def experiment_id(spec: TrialSpec, digest: str) -> str:
    return (
        f"{spec.env_id}_{spec.workload_id}_{spec.objective}_"
        f"{spec.agent_type}_{digest[:12]}_b{spec.budget}_s{spec.seed}"
    )


def run_trial(spec: TrialSpec) -> TrialResult:
    """propose -> step -> observe for exactly `budget` samples, logging each.

    Records go to `<experiment_id>.jsonl.partial`, which is renamed to
    `<experiment_id>.jsonl` after the last step; a failed trial leaves only
    the partial file, and a rerun replaces the earlier trajectory.
    """
    env = make_env(spec.env_id, spec.workload_id, spec.objective, delay_ms=spec.delay_ms)
    agent = make_agent(spec.agent_type, env.space(), spec.hyperparams_dict())
    digest = agent.hyperparams().digest
    exp_id = experiment_id(spec, digest)
    rng = make_rng(spec.seed, digest_stream(digest))

    writer = None
    path = None
    if spec.out_dir is not None:
        path = Path(spec.out_dir) / f"{exp_id}.jsonl"
        writer = TrajectoryWriter(path.with_name(path.name + ".partial"))

    checkpoints = set(spec.checkpoints) | {spec.budget}
    best_at: dict[int, float] = {}
    t_start = time.perf_counter()
    step = 0
    try:
        env.reset()
        done = False
        for step in range(spec.budget):
            if done:
                env.reset()
            t0 = time.perf_counter()
            point = agent.propose(rng)
            result = env.step(point)
            agent.observe(point, result.reward)
            done = result.done
            if writer is not None:
                writer.append(
                    TrajectoryRecord(
                        experiment_id=exp_id,
                        env_id=spec.env_id,
                        workload_id=spec.workload_id,
                        agent_type=spec.agent_type,
                        hyperparam_digest=digest,
                        seed=spec.seed,
                        step_index=step,
                        design=design_map(env.space(), point),
                        observation=dict(result.observation.metrics),
                        reward=result.reward,
                        wall_time_ms=int((time.perf_counter() - t0) * 1000),
                    )
                )
            if step + 1 in checkpoints:
                best_at[step + 1] = agent.best_so_far()[1]
    except Exception as exc:
        raise TrialError(f"trial {exp_id} failed at step {step}: {exc}") from exc
    finally:
        if writer is not None:
            writer.close()
    if writer is not None:
        os.replace(writer.path, path)

    best_point, best_reward = agent.best_so_far()
    return TrialResult(
        experiment_id=exp_id,
        agent_type=spec.agent_type,
        hyperparam_digest=digest,
        hyperparams=agent.hyperparams().as_dict(),
        seed=spec.seed,
        budget=spec.budget,
        best_design=design_map(env.space(), best_point) if best_point else None,
        best_reward=best_reward,
        samples_used=spec.budget,
        wall_time_s=time.perf_counter() - t_start,
        trajectory_file=str(path) if path is not None else None,
        best_at=best_at,
    )


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepConfig:
    env_id: str
    workload_id: str
    objective: str
    agent_types: tuple[str, ...]
    budgets: tuple[int, ...]
    seeds: tuple[int, ...]
    grids: Mapping[str, Sequence[Mapping]] | None = None  # agent -> config dicts
    delay_ms: float = 0.0
    out_dir: str | None = None
    parallelism: int = 1

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if not self.budgets or min(self.budgets) < 1:
            raise ValueError("budgets must be >= 1")


def _sweep_specs(config: SweepConfig) -> list[TrialSpec]:
    max_budget = max(config.budgets)
    specs = []
    for agent_type in config.agent_types:
        if config.grids is not None and agent_type in config.grids:
            grid = [dict(g) for g in config.grids[agent_type]]
        else:
            grid = sweep_configs(agent_type)
        for hp in grid:
            for seed in config.seeds:
                specs.append(
                    TrialSpec(
                        env_id=config.env_id,
                        workload_id=config.workload_id,
                        objective=config.objective,
                        agent_type=agent_type,
                        budget=max_budget,
                        seed=seed,
                        hyperparams=TrialSpec.hyperparams_tuple(hp),
                        delay_ms=config.delay_ms,
                        out_dir=config.out_dir,
                        checkpoints=tuple(config.budgets),
                    )
                )
    return specs


_OPENBLAS_THREAD_SYMBOLS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("openblas", "scipy_openblas")
    for suffix in ("", "64_")
]


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS mapped into this
    process; empty where /proc/self/maps or OpenBLAS is missing."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            # address perms offset dev inode [path]
            mapped = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


def _cap_blas_threads(parallelism: int) -> None:
    """Pool initializer: share the usable cores among the workers."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    limit = max(1, cores // parallelism)
    for get, set_ in _openblas_thread_controls():
        if get() > limit:
            set_(limit)


def _run_spec(spec: TrialSpec) -> tuple[TrialSpec, TrialResult | None, str | None]:
    try:
        return spec, run_trial(spec), None
    except TrialError as exc:
        return spec, None, str(exc)


@dataclass
class SweepSummary:
    """Reward statistics of a sweep; wall times live in a separate section
    so determinism checks can compare `stats` alone."""

    env_id: str
    workload_id: str
    objective: str
    budgets: list[int]
    seeds: list[int]
    configs: dict  # agent -> digest -> hyperparams
    best_rewards: dict  # agent -> digest -> str(budget) -> str(seed) -> reward
    stats: dict  # agent -> str(budget) -> five-number summary + iqr + best digest
    mean_normalized: dict  # agent -> str(budget) -> [0, 1], min-max over all agents
    timing: dict  # agent -> mean/total wall seconds (not deterministic)
    failures: list

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SweepSummary":
        return cls(**json.loads(text))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "SweepSummary":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def run_sweep(config: SweepConfig) -> SweepSummary:
    """Run the grid; trial failures are recorded and the sweep continues.

    With parallelism > 1 the trials run in that many worker processes, each
    with every loaded OpenBLAS capped at max(1, usable cores // parallelism)
    threads (never raised); parallelism 1 runs in the caller's process with
    its own BLAS settings.
    """
    specs = _sweep_specs(config)
    if config.parallelism > 1:
        with ProcessPoolExecutor(
            max_workers=config.parallelism,
            initializer=_cap_blas_threads,
            initargs=(config.parallelism,),
        ) as pool:
            outcomes = list(pool.map(_run_spec, specs))
    else:
        outcomes = [_run_spec(s) for s in specs]
    # deterministic fold regardless of completion order
    outcomes.sort(
        key=lambda o: (o[0].agent_type, o[1].hyperparam_digest if o[1] else "", o[0].seed)
    )

    results = [r for _, r, _ in outcomes if r is not None]
    failures = [
        {"agent_type": s.agent_type, "seed": s.seed, "error": err}
        for s, r, err in outcomes
        if r is None
    ]
    return summarize(config, results, failures)


def summarize(
    config: SweepConfig, results: list[TrialResult], failures: list | None = None
) -> SweepSummary:
    configs: dict = {}
    best_rewards: dict = {}
    timing: dict = {}
    for r in results:
        configs.setdefault(r.agent_type, {})[r.hyperparam_digest] = r.hyperparams
        by_digest = best_rewards.setdefault(r.agent_type, {})
        by_budget = by_digest.setdefault(r.hyperparam_digest, {})
        for budget in config.budgets:
            by_budget.setdefault(str(budget), {})[str(r.seed)] = r.best_at[budget]
        t = timing.setdefault(r.agent_type, {"total_wall_s": 0.0, "trials": 0})
        t["total_wall_s"] += r.wall_time_s
        t["trials"] += 1

    stats: dict = {}
    for agent_type, by_digest in best_rewards.items():
        stats[agent_type] = {}
        for budget in config.budgets:
            pooled = []
            best_digest, best_value = "", -math.inf
            for digest, by_budget in sorted(by_digest.items()):
                values = list(by_budget[str(budget)].values())
                pooled.extend(values)
                top = max(values)
                if top > best_value:
                    best_digest, best_value = digest, top
            q1, q3, iqr = interquartile_range(pooled)
            stats[agent_type][str(budget)] = {
                "min": min(pooled),
                "q1": q1,
                "median": float(np.percentile(pooled, 50)),
                "q3": q3,
                "max": max(pooled),
                "iqr": iqr,
                "n": len(pooled),
                "best_digest": best_digest,
            }

    normalized = mean_normalized_reward(
        {
            agent: {
                int(b): [v for by_b in by_digest.values() for v in by_b[b].values()]
                for b in map(str, config.budgets)
            }
            for agent, by_digest in best_rewards.items()
        }
    )

    return SweepSummary(
        env_id=config.env_id,
        workload_id=config.workload_id,
        objective=config.objective,
        budgets=list(config.budgets),
        seeds=list(config.seeds),
        configs=configs,
        best_rewards=best_rewards,
        stats=stats,
        mean_normalized={
            agent: {str(b): v for b, v in by_budget.items()}
            for agent, by_budget in normalized.items()
        },
        timing=timing,
        failures=failures or [],
    )


# ---------------------------------------------------------------------------
# Statistics


def interquartile_range(values: Sequence[float]) -> tuple[float, float, float]:
    """Linear-interpolation quartiles: quantile q sits at position q*(n-1)."""
    if len(values) == 0:
        raise ValueError("no values")
    q1 = float(np.percentile(values, 25))
    q3 = float(np.percentile(values, 75))
    return q1, q3, q3 - q1


def mean_normalized_reward(
    best_by_agent_budget: Mapping[str, Mapping[int, Sequence[float]]],
) -> dict[str, dict[int, float]]:
    """Per (agent, budget) mean of best rewards, min-max scaled into [0, 1].

    The scale runs from the lowest to the highest best reward of any agent
    at the same budget, so it holds for rewards of any sign; a budget where
    every best reward is equal normalizes to 1.
    """
    budgets = sorted({b for by_b in best_by_agent_budget.values() for b in by_b})
    out: dict[str, dict[int, float]] = {a: {} for a in best_by_agent_budget}
    for budget in budgets:
        pooled = [
            v for by_b in best_by_agent_budget.values() if budget in by_b for v in by_b[budget]
        ]
        group_min, group_max = min(pooled), max(pooled)
        for agent, by_b in best_by_agent_budget.items():
            if budget not in by_b:
                continue
            if group_max == group_min:
                out[agent][budget] = 1.0
            else:
                # np.mean can round just past the values it averages
                mean = min(max(float(np.mean(by_b[budget])), group_min), group_max)
                out[agent][budget] = (mean - group_min) / (group_max - group_min)
    return out


# ---------------------------------------------------------------------------
# Brute-force oracle


@dataclass
class OracleResult:
    env_id: str
    workload_id: str
    objective: str
    best_design: dict
    best_reward: float
    space_cardinality: int


def enumerate_oracle(
    env_id: str, workload_id: str, objective: str, limit: int = 100_000
) -> OracleResult:
    """Exact global optimum of a small space by full enumeration."""
    env = make_env(env_id, workload_id, objective)
    space = env.space()
    n = cardinality(space)
    if n > limit:
        raise SpaceTooLargeError(f"space too large to enumerate: {n} > limit {limit}")
    from .core import score

    best_point, best_reward = None, -math.inf
    for point in enumerate_points(space, limit):
        reward = score(env.reward_spec, env.observe(point))
        if reward > best_reward:
            best_point, best_reward = point, reward
    return OracleResult(
        env_id=env_id,
        workload_id=workload_id,
        objective=objective,
        best_design=design_map(space, best_point),
        best_reward=best_reward,
        space_cardinality=n,
    )


# ---------------------------------------------------------------------------
# Report files


def _csv_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def report(summary: SweepSummary, out_dir) -> list[str]:
    """Emit machine-readable tables; byte-identical for the same summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary.save(out / "summary.json")

    rows = []
    for agent in sorted(summary.stats):
        for budget in sorted(summary.stats[agent], key=int):
            s = summary.stats[agent][budget]
            rows.append(
                [agent, summary.objective, int(budget), s["min"], s["q1"], s["median"],
                 s["q3"], s["max"], s["iqr"], s["n"], s["best_digest"]]
            )
    _write_csv(
        out / "quartiles.csv",
        ["agent", "objective", "budget", "min", "q1", "median", "q3", "max", "iqr", "n",
         "best_digest"],
        rows,
    )

    budgets = sorted(summary.budgets)
    rows = []
    for agent in sorted(summary.mean_normalized):
        row = [agent]
        for b in budgets:
            row.append(summary.mean_normalized[agent].get(str(b), ""))
        rows.append(row)
    _write_csv(
        out / "normalized_rewards.csv",
        ["agent"] + [f"budget_{b}" for b in budgets],
        rows,
    )

    rows = []
    for agent in sorted(summary.timing):
        t = summary.timing[agent]
        mean_s = t["total_wall_s"] / t["trials"] if t["trials"] else 0.0
        rows.append([agent, t["trials"], t["total_wall_s"], mean_s])
    _write_csv(
        out / "time_to_completion.csv",
        ["agent", "trials", "total_wall_s", "mean_wall_s"],
        rows,
    )
    return [str(out / name) for name in
            ("summary.json", "quartiles.csv", "normalized_rewards.csv",
             "time_to_completion.csv")]
