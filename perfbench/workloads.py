"""The benchmark's three workloads, built from two stages of the ArchGym loop.

* The *search* stage runs rounds of ``run_sweep``: every round sweeps each
  of the workload's spaces once with fresh trial seeds.
* The *proxy* stage loads logged trajectory files, merges them, holds out a
  test split, fits one forest per target (``power``, ``latency``), queries
  every held-out point one at a time, and steps the undelayed environment
  on the same points as the speed-up base.

Each workload is one caller in one process (a closed loop) with at most
two worker processes.  Every workload reports every end-to-end metric, so
each one runs both stages; the workload's subject gets most of the run:

=========== ========================================= =====================
workload    subject                                   other stage
=========== ========================================= =====================
explore     logged sweeps on the full spaces, p=1     proxy on the dram
                                                      logs of rounds 0-1
tune-small  unlogged sweeps on the -small spaces,     proxy on a dram set
            p=2, all five agents                      logged in set-up
proxy       proxy stage on an agent-diverse dram set  none: samples_per_s
            logged in set-up                          is the held-out
                                                      env.step rate;
                                                      oracle_gap_pct is
                                                      proxy-guided
                                                      selection regret
=========== ========================================= =====================

Timings are medians over the units of the whole run, each unit's timing
scaled to a nominal host speed (see :class:`HostSpeed`).
"""

from __future__ import annotations

import hashlib
import re
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dsegym.core import Observation, score
from dsegym.dataset import load_dataset, merge, split
from dsegym.envs import get_objective, get_space, make_env
from dsegym.orchestrator import (
    SweepConfig,
    SweepSummary,
    enumerate_oracle,
    run_sweep,
)
from dsegym.proxy import dataset_matrix, evaluate_rmse, train_forest
from dsegym.rng import make_rng
from dsegym.spaces import point_from_map

FULL_SPACES = (
    ("dram", "cloud-1", "low-latency"),
    ("accel", "large_cnn", "joint"),
    ("soc", "audio_decoder", "budget"),
)
SMALL_SPACES = tuple((f"{env}-small", wl, obj) for env, wl, obj in FULL_SPACES)
LOGGING_AGENTS = ("ACO", "GA", "RL", "RW")
ALL_AGENTS = ("ACO", "BO", "GA", "RL", "RW")
TARGETS = ("power", "latency")
TEST_FRACTION = 0.2
# Held-out points are screened in pools of this many candidates (as a
# surrogate-driven search would): the proxy picks one per pool.
SELECTION_POOL = 16
PROXY_SHARE = 0.3  # of the run, when a workload runs both stages
# Seconds the calibration loop takes on the nominal host that scaled
# timings refer to.
NOMINAL_CALIBRATION_S = 0.010


@dataclass(frozen=True)
class Sizes:
    explore_budget: int
    explore_seeds: int  # per round
    explore_rounds: int  # at least; oracle_gap_pct averages exactly these
    explore_proxy_rounds: int  # rounds whose dram logs train explore's proxy
    tune_budgets: tuple[int, ...]
    tune_seeds: int  # per round
    tune_rounds: int  # at least; oracle_gap_pct averages exactly these
    proxy_seeds: int  # logged proxy dataset: seeds x budget x 4 agents
    proxy_budget: int
    proxy_trees: int
    side_fits: int  # at least, on explore and tune-small; accuracy averages these
    proxy_fits: int  # the same on proxy


FULL = Sizes(
    explore_budget=100, explore_seeds=2, explore_rounds=28, explore_proxy_rounds=2,
    tune_budgets=(15, 30, 60), tune_seeds=2, tune_rounds=12,
    proxy_seeds=4, proxy_budget=200, proxy_trees=1, side_fits=8, proxy_fits=16,
)
TINY = Sizes(
    explore_budget=12, explore_seeds=1, explore_rounds=1, explore_proxy_rounds=1,
    tune_budgets=(4, 8, 16), tune_seeds=1, tune_rounds=1,
    proxy_seeds=1, proxy_budget=40, proxy_trees=1, side_fits=1, proxy_fits=1,
)


def trial_seeds(n: int, *key: int) -> tuple[int, ...]:
    """n trial seeds drawn from the benchmark seed and a stream key."""
    state = np.random.SeedSequence(list(key)).generate_state(n)
    return tuple(int(s) for s in state)


# Records carry the step's wall time, which is not behaviour.
_WALL_TIME = re.compile(rb'"wall_time_[a-z]+":[-+.0-9eE]+')


def sha256_files(paths) -> str:
    """Digest of trajectory files with their wall-time fields blanked."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(_WALL_TIME.sub(b'"wall_time":0', Path(path).read_bytes()))
    return h.hexdigest()


def sweep(space, agents, budgets, seeds, parallelism, out_dir) -> SweepSummary:
    env_id, workload_id, objective = space
    return run_sweep(
        SweepConfig(
            env_id=env_id,
            workload_id=workload_id,
            objective=objective,
            agent_types=tuple(agents),
            budgets=tuple(budgets),
            seeds=tuple(seeds),
            grids={a: [{}] for a in agents},  # default hyperparameters
            out_dir=None if out_dir is None else str(out_dir),
            parallelism=parallelism,
        )
    )


# ---------------------------------------------------------------------------
# Host speed


class HostSpeed:
    """Scales timings to a nominal host speed.

    The shared hosts this benchmark runs on change speed by up to a half for
    seconds to a minute at a time, which moves every timing of a run
    together.  A fixed calibration loop (benchmark code only: bytecode, dict
    inserts and a numpy sort) runs between consecutive timed units (set-ups,
    sweep rounds, fits, probes).  A unit's speed factor is
    ``NOMINAL_CALIBRATION_S`` / the mean of the calibration times just
    before and just after it; its timing is reported multiplied by that
    factor (rates divided), so it tracks the package's speed rather than the
    host's.  Raw values are printed beside the metrics.
    """

    def __init__(self):
        self.factors: list[float] = []
        self._keys = np.random.default_rng(0).random(50_000)
        self._last = 0.0

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(60_000):
            acc += i * 0.5
        table = {}
        for i in range(20_000):
            table[str(i)] = i
        np.sort(self._keys)
        return time.perf_counter() - t0

    def start(self) -> None:
        """Calibrate before the first unit of a sequence."""
        self._last = self._calibrate()

    def end_unit(self) -> float:
        """Calibrate after a unit; return the unit's speed factor."""
        now = self._calibrate()
        factor = 2.0 * NOMINAL_CALIBRATION_S / (self._last + now)
        self._last = now
        self.factors.append(factor)
        return factor


def speed(unit, scaled: bool) -> float:
    return unit.speed if scaled else 1.0


# ---------------------------------------------------------------------------
# Search stage


@dataclass
class SweepRound:
    wall_s: float
    samples: int
    summaries: list[SweepSummary]
    log_dir: Path | None
    speed: float = 1.0  # HostSpeed factor


@dataclass
class SearchPlan:
    spaces: tuple
    agents: tuple[str, ...]
    budgets: tuple[int, ...]
    seeds_per_round: int
    parallelism: int
    logged: bool


def search_round(plan: SearchPlan, seed: int, r: int, log_root: Path) -> SweepRound:
    """Sweep every space of the plan once with round r's trial seeds."""
    seeds = trial_seeds(plan.seeds_per_round, seed, 0, r)
    log_dir = log_root / f"round{r}" if plan.logged else None
    t0 = time.perf_counter()
    summaries = [
        sweep(space, plan.agents, plan.budgets, seeds, plan.parallelism,
              None if log_dir is None else log_dir / space[0])
        for space in plan.spaces
    ]
    wall = time.perf_counter() - t0
    samples = len(plan.spaces) * len(plan.agents) * len(seeds) * max(plan.budgets)
    return SweepRound(wall, samples, summaries, log_dir)


def final_rewards(summary: SweepSummary) -> list[float]:
    b = str(max(summary.budgets))
    return [v for by_digest in summary.best_rewards.values()
            for by_budget in by_digest.values() for v in by_budget[b].values()]


def oracle_gap_pct(rounds: list[SweepRound], oracles: dict) -> float:
    """Mean relative gap (percent) of final best rewards to the oracle."""
    gaps = []
    for rnd in rounds:
        for summary in rnd.summaries:
            if summary.env_id in oracles:
                best = oracles[summary.env_id]
                gaps += [(best - v) / abs(best) * 100.0 for v in final_rewards(summary)]
    return float(np.mean(gaps))


def check_rounds(rounds: list[SweepRound], oracles: dict, problems: list[str]) -> None:
    for rnd in rounds:
        for summary in rnd.summaries:
            if summary.failures:
                problems.append(f"{summary.env_id}: failed trials {summary.failures}")
            for agent, by_digest in summary.best_rewards.items():
                for by_budget in by_digest.values():
                    for s in summary.seeds:
                        curve = [by_budget[str(b)][str(s)] for b in sorted(summary.budgets)]
                        if any(b < a for a, b in zip(curve, curve[1:])):
                            problems.append(f"{summary.env_id} {agent} seed {s}: best_at decreases")
            best = oracles.get(summary.env_id)
            if best is not None and max(final_rewards(summary)) > best:
                problems.append(f"{summary.env_id}: a trial beats the enumerated optimum")
        if rnd.log_dir is not None:
            check_trajectories(rnd.log_dir, max(rnd.summaries[0].budgets), problems)


def check_trajectories(log_dir: Path, budget: int, problems: list[str]) -> None:
    """Every file loads with validation and holds exactly `budget` records."""
    for path in sorted(log_dir.rglob("*.jsonl")):
        n = len(load_dataset(path, validate=True))
        if n != budget:
            problems.append(f"{path.name}: {n} records, expected {budget}")


def trajectory_fingerprints(log_dir: Path) -> dict:
    """sha256 over each agent x env's trajectory files (all seeds)."""
    groups: dict[str, list[Path]] = {}
    for path in log_dir.rglob("*.jsonl"):
        env_id = path.parent.name
        agent = next(a for a in ALL_AGENTS if f"_{a}_" in path.name)
        groups.setdefault(f"{agent}/{env_id}", []).append(path)
    return {key: sha256_files(paths) for key, paths in sorted(groups.items())}


# ---------------------------------------------------------------------------
# Proxy stage


@dataclass
class ProxyFit:
    """One load -> split -> fit, with the accuracy of the fitted forests."""

    train_s: float
    records: int
    X: np.ndarray  # held-out features
    points: list  # held-out design points
    predictions: dict  # target -> np.ndarray over the held-out points
    rewards: np.ndarray  # true joint reward of each held-out point
    predicted_rewards: np.ndarray  # joint reward of the predicted metrics
    nrmse: dict
    out_of_range: list[str]  # targets with a prediction outside the training range
    speed: float = 1.0  # HostSpeed factor of the load -> fit part


@dataclass
class ProxyProbe:
    """One timed pass over the latest fit's held-out points."""

    query_ns: list[int]  # predict_features, every point, both targets
    step_ns: list[int]  # undelayed env.step, every point
    speed: float = 1.0  # HostSpeed factor


class ProxyStage:
    """Fits (load -> split -> fit; fit k holds out split k) and probes (time
    every held-out query and env.step of the latest fit), interleaved by the
    caller so that both are sampled over the whole run."""

    def __init__(self, files: list[Path], env_id: str, workload_id: str, n_trees: int,
                 seed: int, scored_fits: int):
        self.files = files
        self.n_trees = n_trees
        self.seed = seed
        self.scored_fits = scored_fits  # accuracy averages the first this many fits
        self.space = get_space(env_id)
        self.joint = get_objective(env_id, workload_id, "joint")
        self.env = make_env(env_id, workload_id, self.joint)
        self.fits: list[ProxyFit] = []
        self.probes: list[ProxyProbe] = []
        self.models: dict = {}  # of the latest fit

    def fit(self) -> None:
        space = self.space
        t0 = time.perf_counter()
        dataset = merge([load_dataset(f) for f in self.files])
        train, test = split(dataset, TEST_FRACTION, make_rng(self.seed, 1, len(self.fits)))
        for target in TARGETS:
            self.models[target] = train_forest(train, target, {"n_trees": self.n_trees},
                                               seed=self.seed, space=space)
        train_s = time.perf_counter() - t0

        X, _ = dataset_matrix(test, TARGETS[0], space)
        predictions, nrmse, out_of_range = {}, {}, []
        for target, model in self.models.items():
            preds = np.array([model.predict_features(x) for x in X])
            predictions[target] = preds
            excess = range_excess_ulps(preds, model.train_min, model.train_max)
            if excess > RANGE_SLACK_ULPS:
                out_of_range.append(f"{target} ({excess:.3g} ulps)")
            nrmse[target] = evaluate_rmse(model, test, space).normalized_rmse_percent
        points = [point_from_map(space, r.design) for r in test.records]
        rewards = np.array([self.env.step(point).reward for point in points])
        predicted = np.array([
            score(self.joint, Observation(metrics={t: float(predictions[t][i]) for t in TARGETS}))
            for i in range(len(points))
        ])
        self.fits.append(ProxyFit(train_s, len(dataset), X, points, predictions, rewards,
                                  predicted, nrmse, out_of_range))

    def probe(self) -> None:
        latest = self.fits[-1]
        query_ns: list[int] = []
        for model in self.models.values():
            for x in latest.X:
                q0 = time.perf_counter_ns()
                model.predict_features(x)
                query_ns.append(time.perf_counter_ns() - q0)
        step_ns: list[int] = []
        for point in latest.points:
            s0 = time.perf_counter_ns()
            self.env.step(point)
            step_ns.append(time.perf_counter_ns() - s0)
        self.probes.append(ProxyProbe(query_ns, step_ns))


# A leaf holds the mean of its rows' targets, and the mean of values inside
# [lo, hi] can round a few ulps past hi (the mean of n copies of hi is not
# always hi).  An excess beyond this many ulps of the range's magnitude is
# extrapolation, not rounding.
RANGE_SLACK_ULPS = 64


def range_excess_ulps(values: np.ndarray, lo: float, hi: float) -> float:
    """How far the values lie outside [lo, hi], in ulps of max(|lo|, |hi|)."""
    excess = max(0.0, lo - float(np.min(values)), float(np.max(values)) - hi)
    return excess / float(np.spacing(max(abs(lo), abs(hi))))


def selection_regret_pct(stage: ProxyStage) -> float:
    """Mean relative loss from picking each pool's best held-out design by the
    proxy's predicted reward instead of by the true one (the pool's
    exhaustive oracle)."""
    regrets = []
    for fit in stage.fits[:stage.scored_fits]:
        for start in range(0, len(fit.rewards), SELECTION_POOL):
            true = fit.rewards[start:start + SELECTION_POOL]
            picked = true[int(np.argmax(fit.predicted_rewards[start:start + SELECTION_POOL]))]
            best = float(np.max(true))
            regrets.append((best - float(picked)) / abs(best) * 100.0)
    return float(np.mean(regrets))


def check_proxy(stage: ProxyStage, problems: list[str]) -> None:
    for k, fit in enumerate(stage.fits):
        for target in fit.out_of_range:
            problems.append(f"proxy {target}, split {k}: prediction outside "
                            f"[train_min, train_max] by more than {RANGE_SLACK_ULPS} ulps")


def prediction_fingerprint(stage: ProxyStage) -> str:
    h = hashlib.sha256()
    for target in TARGETS:
        h.update(np.ascontiguousarray(stage.fits[0].predictions[target]).tobytes())
    return h.hexdigest()


def p(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def proxy_timings(stage: ProxyStage, scaled: bool) -> dict:
    """The median fit, and the median over probes of each probe's query
    percentile (a probe makes 2 x 640 queries, so 12 lie beyond its p99)."""
    return {
        "proxy_train_s": statistics.median(fit.train_s * speed(fit, scaled)
                                           for fit in stage.fits),
        **{f"proxy_query_us_p{q}": statistics.median(
            p(probe.query_ns, q) / 1e3 * speed(probe, scaled) for probe in stage.probes)
           for q in (50, 99)},
    }


def proxy_accuracy(stage: ProxyStage) -> dict:
    """Held-out nRMSE averaged over the first `scored_fits` splits."""
    scored = stage.fits[:stage.scored_fits]
    return {f"proxy_nrmse_{t}_pct": float(np.mean([fit.nrmse[t] for fit in scored]))
            for t in TARGETS}


def env_step_rate(stage: ProxyStage, scaled: bool) -> float:
    """Undelayed env.step calls per second, median probe."""
    return statistics.median(len(probe.step_ns) / (sum(probe.step_ns) / 1e9)
                             / speed(probe, scaled) for probe in stage.probes)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up (repeatable) plus a timed run of both stages."""

    name = "?"
    trial_phase = "sweep"  # phase whose trials the per-layer trial metrics use
    plan: SearchPlan | None = None
    min_rounds = 0

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.scored_fits = sizes.side_fits
        self.work_dir = work_dir
        self.oracles: dict[str, float] = {}
        self.setup_count = 0
        self.setup_logs: Path | None = None
        self.setup_sweep: tuple[SweepSummary, float] | None = None  # summary, wall_s
        self.speed = HostSpeed()

    def setup(self) -> None:
        self.setup_count += 1
        self._setup(self.work_dir / f"setup{self.setup_count}")

    def _setup(self, out: Path) -> None:
        raise NotImplementedError

    def _oracles(self, spaces) -> None:
        self.oracles = {
            env: enumerate_oracle(env, wl, obj).best_reward for env, wl, obj in spaces
        }

    def _log_proxy_dataset(self, out: Path) -> None:
        """The agent-diverse dram/cloud-1 dataset the proxy stage trains on."""
        t0 = time.perf_counter()
        seeds = trial_seeds(self.sizes.proxy_seeds, self.seed, 1)
        summary = sweep(FULL_SPACES[0], LOGGING_AGENTS, (self.sizes.proxy_budget,), seeds, 1,
                        out / FULL_SPACES[0][0])
        self.setup_sweep = (summary, time.perf_counter() - t0)
        self.setup_logs = out

    def run(self, seconds: float, tag: str, tracer=None, scored: bool = True) -> "RunResult":
        """Alternate sweep rounds and proxy fits, so that each stage gets its
        share of the run and its repetitions span the whole run; probe the
        proxy after every round and fit.  With `scored`, run at least the
        rounds and fits that the deterministic accuracy figures average."""
        end = time.perf_counter() + seconds
        min_rounds = self.min_rounds if scored else 1
        min_fits = self.scored_fits if scored else 1
        rounds: list[SweepRound] = []
        stage: ProxyStage | None = None
        spent = {"sweep": 0.0, "proxy": 0.0}
        self.speed.start()
        while True:
            now = time.perf_counter()
            more_rounds = self.plan is not None and len(rounds) < min_rounds
            more_fits = stage is None or len(stage.fits) < min_fits
            if now >= end and not (more_rounds or more_fits):
                break
            if stage is None and self._proxy_ready(rounds):
                stage = ProxyStage(self._proxy_files(rounds), *FULL_SPACES[0][:2],
                                   self.sizes.proxy_trees, self.seed, self.scored_fits)
            if stage is None or (now >= end and more_rounds):
                unit = "sweep"
            elif self.plan is None or now >= end:
                unit = "proxy"
            else:
                behind = spent["proxy"] < PROXY_SHARE * (spent["sweep"] + spent["proxy"])
                unit = "proxy" if behind else "sweep"
            if tracer is not None:
                tracer.phase = unit
            t0 = time.perf_counter()
            if unit == "sweep":
                rounds.append(search_round(self.plan, self.seed, len(rounds), self.work_dir / tag))
                done = rounds[-1]
            else:
                stage.fit()
                done = stage.fits[-1]
            spent[unit] += time.perf_counter() - t0
            done.speed = self.speed.end_unit()
            if tracer is not None and unit == "sweep":
                tracer.collect()
                tracer.phase = "proxy"
            if stage is not None and stage.fits:
                t0 = time.perf_counter()
                stage.probe()
                spent["proxy"] += time.perf_counter() - t0
                stage.probes[-1].speed = self.speed.end_unit()
        attempted, failed = trial_counts(rounds)
        queries = sum(len(probe.query_ns) for probe in stage.probes)
        metrics = {**self._timings(rounds, stage, True), **self._accuracy(rounds, stage)}
        return RunResult(rounds, stage, metrics, self._timings(rounds, stage, False),
                         attempted + queries, failed)

    def _timings(self, rounds: list[SweepRound], stage: ProxyStage, scaled: bool) -> dict:
        """Timings scaled to the nominal host, or as measured."""
        return {
            "samples_per_s": statistics.median(r.samples / r.wall_s / speed(r, scaled)
                                               for r in rounds),
            **proxy_timings(stage, scaled),
        }

    def _accuracy(self, rounds: list[SweepRound], stage: ProxyStage) -> dict:
        return {
            "oracle_gap_pct": oracle_gap_pct(rounds[:self.min_rounds], self.oracles),
            **proxy_accuracy(stage),
        }

    def _proxy_ready(self, rounds) -> bool:
        return True

    def _proxy_files(self, rounds) -> list[Path]:
        return sorted(self.setup_logs.rglob("*.jsonl"))


@dataclass
class RunResult:
    rounds: list[SweepRound]
    proxy: ProxyStage
    metrics: dict  # timings scaled to the nominal host, and accuracy figures
    raw_timings: dict  # the same timings as measured on this host
    attempted: int
    failed: int


def trial_counts(rounds: list[SweepRound]) -> tuple[int, int]:
    attempted = failed = 0
    for rnd in rounds:
        for s in rnd.summaries:
            failed += len(s.failures)
            attempted += len(s.failures) + sum(t["trials"] for t in s.timing.values())
    return attempted, failed


class Explore(Workload):
    name = "explore"

    def __init__(self, seed, sizes, work_dir):
        super().__init__(seed, sizes, work_dir)
        self.plan = SearchPlan(FULL_SPACES, LOGGING_AGENTS, (sizes.explore_budget,),
                               sizes.explore_seeds, 1, logged=True)
        self.min_rounds = sizes.explore_rounds

    def _setup(self, out):
        # dram has 18.9M points; accel and soc can be enumerated
        self._oracles(FULL_SPACES[1:])

    def _proxy_ready(self, rounds):
        return len(rounds) >= self.sizes.explore_proxy_rounds

    def _proxy_files(self, rounds):
        first = rounds[:self.sizes.explore_proxy_rounds]
        return sorted(f for r in first for f in (r.log_dir / FULL_SPACES[0][0]).glob("*.jsonl"))


class TuneSmall(Workload):
    name = "tune-small"

    def __init__(self, seed, sizes, work_dir):
        super().__init__(seed, sizes, work_dir)
        self.plan = SearchPlan(SMALL_SPACES, ALL_AGENTS, sizes.tune_budgets, sizes.tune_seeds,
                               2, logged=False)
        self.min_rounds = sizes.tune_rounds

    def _setup(self, out):
        self._oracles(SMALL_SPACES)
        self._log_proxy_dataset(out)


class Proxy(Workload):
    name = "proxy"
    trial_phase = "setup"

    def __init__(self, seed, sizes, work_dir):
        super().__init__(seed, sizes, work_dir)
        self.scored_fits = sizes.proxy_fits

    def _setup(self, out):
        self._log_proxy_dataset(out)

    def _timings(self, rounds, stage, scaled):
        return {"samples_per_s": env_step_rate(stage, scaled), **proxy_timings(stage, scaled)}

    def _accuracy(self, rounds, stage):
        return {"oracle_gap_pct": selection_regret_pct(stage), **proxy_accuracy(stage)}


WORKLOADS = {cls.name: cls for cls in (Explore, TuneSmall, Proxy)}
