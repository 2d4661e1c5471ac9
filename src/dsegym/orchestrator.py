"""Experiment driver: (agent x hyperparams x seed x budget) trials.

A trial is the unit of parallelism: one env instance, one agent, one rng
stream, one trajectory file.  Sweeps run the Cartesian product of configs,
seeds and budgets; nested budgets are evaluated on a single seed stream by
checkpointing best-so-far at each budget, which makes reward-vs-budget
curves monotone per trial.  One env step is one sample and one
cost-model evaluation, so a budget-N trial evaluates exactly N designs;
agent-internal computation is free.

A sweep runs each trial once: `SweepConfig` refuses a repeated seed, budget
or agent type, and two configs of one agent with the same hyperparameter
digest, before any trial runs.  `summarize` expects results in (agent type,
digest, seed) order, the order `run_sweep` sorts them into.  It builds each
(agent, budget) pool of best rewards once, in that order, and
`mean_normalized` sums each pool in that order, so another order can change
its last bits.

A parallel sweep splits its trials round-robin into one share per worker.
The caller runs the first share itself and forks one child per other
share when the sweep starts, so each child sees the caller's process as it
is then; a child sends its outcomes back over a pipe and ends.  Children
inherit the caller's BLAS thread count.  No BLAS call of a shipped agent
config is large enough for OpenBLAS to thread it, even at 64 threads; a BO
window or candidate pool far above the defaults can be, and then each
worker may use every core.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .agents import make_agent, sweep_configs
from .core import score, score_batch
from .dataset import DataError, TrajectoryWriter
from .envs import get_objective, get_space, make_env
from .rng import digest_stream, make_rng
from .spaces import cardinality, design_map


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
    out_dir: str | None = None
    checkpoints: tuple[int, ...] = ()

    @staticmethod
    def hyperparams_tuple(hp: Mapping | None) -> tuple:
        return tuple(sorted((hp or {}).items()))

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
    wall_time_s: float
    trajectory_file: str | None
    best_at: dict[int, float] = field(default_factory=dict)


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
    env = make_env(spec.env_id, spec.workload_id, spec.objective)
    agent = make_agent(spec.agent_type, env.space(), dict(spec.hyperparams))
    digest = agent.hyperparams().digest
    exp_id = experiment_id(spec, digest)
    rng = make_rng(spec.seed, digest_stream(digest))

    writer = None
    path = None if spec.out_dir is None else Path(spec.out_dir) / f"{exp_id}.jsonl"
    checkpoints = set(spec.checkpoints) | {spec.budget}
    best_at: dict[int, float] = {}
    t_start = time.perf_counter()
    step = 0
    try:
        if path is not None:
            # a log that cannot be opened fails the trial, not the sweep
            writer = TrajectoryWriter(
                path.with_name(path.name + ".partial"),
                env.space(),
                experiment_id=exp_id,
                env_id=spec.env_id,
                workload_id=spec.workload_id,
                agent_type=spec.agent_type,
                hyperparam_digest=digest,
                seed=spec.seed,
            )
        for step in range(spec.budget):
            t0 = time.perf_counter()
            point = agent.propose(rng)
            result = env.step(point)
            agent.observe(point, result.reward)
            if writer is not None:
                writer.append(
                    step,
                    point,
                    result.observation.metrics,
                    result.reward,
                    int((time.perf_counter() - t0) * 1000),
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
        best_design=design_map(env.space(), best_point) if best_point is not None else None,
        best_reward=best_reward,
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
    out_dir: str | None = None
    parallelism: int = 1

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if not self.budgets or min(self.budgets) < 1:
            raise ValueError("budgets must be >= 1")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        _reject_repeats("seed", self.seeds)
        _reject_repeats("budget", self.budgets)
        _reject_repeats("agent type", self.agent_types)
        # a bad or repeated config fails here, before any trial runs
        space = get_space(self.env_id)
        for agent_type in self.agent_types:
            digests = [
                make_agent(agent_type, space, hp).hyperparams().digest
                for hp in self.configs(agent_type)
            ]
            _reject_repeats(f"{agent_type} hyperparameter digest", digests)

    def configs(self, agent_type: str) -> list[dict]:
        """The hyperparameter configs the sweep runs for `agent_type`."""
        if self.grids is not None and agent_type in self.grids:
            return [dict(g) for g in self.grids[agent_type]]
        return sweep_configs(agent_type)


def _reject_repeats(what: str, values: Sequence) -> None:
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"repeated {what} {value!r}: a sweep runs each trial once")


def _sweep_specs(config: SweepConfig) -> list[TrialSpec]:
    max_budget = max(config.budgets)
    specs = []
    for agent_type in config.agent_types:
        for hp in config.configs(agent_type):
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
                        out_dir=config.out_dir,
                        checkpoints=tuple(config.budgets),
                    )
                )
    return specs


def _run_spec(spec: TrialSpec) -> tuple[TrialSpec, TrialResult | None, str | None]:
    try:
        return spec, run_trial(spec), None
    except TrialError as exc:
        return spec, None, str(exc)


def _run_share(specs: list[TrialSpec]) -> list:
    return [_run_spec(s) for s in specs]


_FORK = multiprocessing.get_context("fork")


def _share_child(specs: list[TrialSpec], conn) -> None:
    """A forked child's work: run one share, send (outcomes, None) or (None, exception)."""
    try:
        reply = (_run_share(specs), None)
    except Exception as exc:
        reply = (None, exc)
    conn.send(reply)
    conn.close()


def _fork_share(specs: list[TrialSpec]):
    """Fork a child that runs `specs`; returns it and the read end of its pipe."""
    conn, child_conn = _FORK.Pipe(duplex=False)
    child = _FORK.Process(target=_share_child, args=(specs, child_conn))
    child.start()
    child_conn.close()  # the caller keeps no write end, so a dead child reads as EOF
    return child, conn


def _join_share(child, conn) -> list:
    """The outcomes a child sent; re-raises the exception it sent instead."""
    try:
        outcomes, exc = conn.recv()
    except EOFError:
        child.join()
        raise RuntimeError(
            f"sweep child {child.pid} exited with code {child.exitcode} before sending its share"
        ) from None
    if exc is not None:
        raise exc
    return outcomes


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

    def save(self, path) -> None:
        text = json.dumps(asdict(self), sort_keys=True, indent=2)
        Path(path).write_text(text + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "SweepSummary":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise DataError(f"{path}: not a JSON sweep summary: {exc}") from exc
        if not isinstance(doc, dict):
            raise DataError(f"{path}: a sweep summary is a JSON object, not {type(doc).__name__}")
        names = {f.name for f in fields(cls)}
        if doc.keys() != names:
            raise DataError(f"{path}: missing keys {sorted(names - doc.keys())}, "
                            f"unknown keys {sorted(doc.keys() - names)}")
        for name, (ok, shape) in _SUMMARY_SHAPES.items():
            if not ok(doc[name]):
                raise DataError(f"{path}: {name} is not {shape}")
        return cls(**doc)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _table(value, depth: int, leaf) -> bool:
    """`depth` levels of JSON objects whose innermost values pass `leaf`."""
    if depth == 0:
        return leaf(value)
    return isinstance(value, dict) and all(_table(v, depth - 1, leaf) for v in value.values())


def _by_budget(value, leaf) -> bool:
    """A JSON object keyed by decimal budgets whose values pass `leaf`."""
    return isinstance(value, dict) and all(b.isdigit() and leaf(v) for b, v in value.items())


_STAT_KEYS = {"min", "q1", "median", "q3", "max", "iqr", "n", "best_digest"}


def _stat_record(value) -> bool:
    return isinstance(value, dict) and _STAT_KEYS <= value.keys()


def _wall_time(value) -> bool:
    return (isinstance(value, dict) and value.keys() == {"total_wall_s", "trials"}
            and all(map(_number, value.values())))


_TEXT = (lambda v: isinstance(v, str), "a string")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_number, v)), "a list of numbers")

# field -> (check of its value, what the error calls the expected shape);
# the nested checks cover what `report` reads
_SUMMARY_SHAPES = {
    "env_id": _TEXT,
    "workload_id": _TEXT,
    "objective": _TEXT,
    "budgets": _NUMBERS,
    "seeds": _NUMBERS,
    "configs": (lambda v: _table(v, 2, lambda hp: isinstance(hp, dict)),
                "agent -> digest -> hyperparameters"),
    "best_rewards": (lambda v: _table(v, 4, _number),
                     "agent -> digest -> budget -> seed -> reward"),
    "stats": (lambda v: _table(v, 1, lambda by_b: _by_budget(by_b, _stat_record)),
              "agent -> budget -> statistics record"),
    "mean_normalized": (lambda v: _table(v, 1, lambda by_b: _by_budget(by_b, _number)),
                        "agent -> budget -> number"),
    "timing": (lambda v: _table(v, 1, _wall_time), "agent -> {total_wall_s, trials}"),
    "failures": (lambda v: isinstance(v, list), "a list"),
}


def run_sweep(config: SweepConfig) -> SweepSummary:
    """Run the grid; trial failures are recorded and the sweep continues.

    The trials split round-robin into min(parallelism, number of trials)
    shares: share k holds trials k, k + workers, k + 2 * workers, ...  The
    caller runs share 0 in its own process and, before that, forks one
    child for each other share, so a one-worker sweep forks nothing.  A
    child keeps the caller's BLAS thread count.  An exception other than
    `TrialError` in any share, or a child that ends before sending its
    outcomes, fails the sweep; no child outlives the call.
    """
    specs = _sweep_specs(config)
    workers = min(config.parallelism, len(specs))
    children = []
    try:
        for k in range(1, workers):
            children.append(_fork_share(specs[k::workers]))
        shares = [_run_share(specs[::workers])] + [_join_share(*c) for c in children]
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, conn in children:
            child.join()
            conn.close()
    outcomes = [None] * len(specs)
    for k, share in enumerate(shares):
        outcomes[k::workers] = share
    # the (agent type, digest, seed) order `summarize` folds in
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


def summarize(config: SweepConfig, results: list[TrialResult], failures: list) -> SweepSummary:
    """Fold results, in (agent type, digest, seed) order, into a summary."""
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
    pools: dict = {}  # agent -> budget -> best rewards of every config and seed
    for agent_type, by_digest in best_rewards.items():
        for budget in config.budgets:
            key = str(budget)
            pooled = [v for by_budget in by_digest.values() for v in by_budget[key].values()]
            q1, median, q3 = map(float, np.percentile(pooled, [25, 50, 75]))
            stats.setdefault(agent_type, {})[key] = {
                "min": min(pooled),
                "q1": q1,
                "median": median,
                "q3": q3,
                "max": max(pooled),
                "iqr": q3 - q1,
                "n": len(pooled),
                "best_digest": max(
                    sorted(by_digest), key=lambda d: max(by_digest[d][key].values())
                ),
            }
            pools.setdefault(agent_type, {})[budget] = pooled

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
            for agent, by_budget in mean_normalized_reward(pools).items()
        },
        timing=timing,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Statistics


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


# Rows per chunk of the enumeration: each float temporary stays at 32 KiB.
_ORACLE_CHUNK = 4096
# Relative distance from the running maximum within which a joint target's
# batch reward, whose numpy log/exp may differ in the last bits, is re-scored.
_RESCORE_RTOL = 1e-12


def enumerate_oracle(env_id: str, workload_id: str, objective: str) -> OracleResult:
    """Exact global optimum of a task by enumerating its whole space.

    The space is walked in chunks of `_ORACLE_CHUNK` rows, in enumeration
    order (first parameter slowest).  `metrics_batch` scores each chunk
    with the family's one cost formula, bit for bit as `observe` would, and
    `score_batch` gives each row `score`'s reward.  A joint target's batch
    reward may differ from `score` in the last bits, so there every row
    within `_RESCORE_RTOL` of the running maximum is re-scored with `score`.
    The first design in enumeration order with the highest reward wins.
    Every shipped space is enumerable: the largest, full dram (18.9M
    designs), takes 6-7 s at 38 MB peak RSS on a 2-vCPU host, and each
    full accel or soc task under 0.03 s.
    """
    return enumerate_oracles(env_id, workload_id, (objective,))[0]


def enumerate_oracles(
    env_id: str, workload_id: str, objectives: Sequence[str]
) -> list[OracleResult]:
    """`enumerate_oracle` of each objective, from one metric pass over the space."""
    env = make_env(env_id, workload_id, objectives[0])
    specs = [get_objective(env_id, workload_id, objective) for objective in objectives]
    space = env.space()
    n = cardinality(space)
    best = [(None, -math.inf)] * len(specs)
    for start in range(0, n, _ORACLE_CHUNK):
        rows = np.stack(np.unravel_index(np.arange(start, min(n, start + _ORACLE_CHUNK)),
                                         space.sizes), axis=1)
        metrics, valid = env.metrics_batch(rows)
        for k, spec in enumerate(specs):
            best[k] = _running_best(env, spec, rows, score_batch(spec, metrics, valid), *best[k])
    return [
        OracleResult(env_id, workload_id, objective, design_map(space, point), reward, n)
        for objective, (point, reward) in zip(objectives, best)
    ]


def _running_best(env, spec, rows, rewards, best_point, best_reward):
    """The first (point, reward) with the highest reward, after one more chunk."""
    if len(spec.targets) > 1:
        top = max(best_reward, float(rewards.max()))
        for i in np.flatnonzero(rewards >= top - _RESCORE_RTOL * abs(top)):
            point = tuple(rows[i].tolist())
            reward = score(spec, env.observe(point))
            if reward > best_reward:
                best_point, best_reward = point, reward
    else:
        i = int(rewards.argmax())
        if rewards[i] > best_reward:
            best_point, best_reward = tuple(rows[i].tolist()), float(rewards[i])
    return best_point, best_reward


# ---------------------------------------------------------------------------
# Report files


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([header, *rows])


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
