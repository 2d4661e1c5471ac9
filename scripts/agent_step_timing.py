#!/usr/bin/env python3
"""Per-step cost of each agent, in process: mean/p50/p99 µs of propose, observe, env.step.

Runs fixed-seed trials of every agent at its default hyperparameters on
the three `-small` and the three full benchmark tasks, times each call
with `time.perf_counter_ns`, and prints one JSON object:
agent -> env id -> {propose, observe, step} -> {mean, p50, p99} in µs.
The mean counts a cost that falls on few calls, which the percentiles
hide: GA breeds a whole generation in one `propose` of every
`population_size`.

It profiles one checkout: where a step's time goes, and which agent or
env is slow.  It cannot resolve a ±10 % difference between two checkouts
timed in separate processes: on a 2-vCPU host whose speed swings ~1.7×
within seconds, per-run ratios of BO's timings spread 0.37-1.0 over six
alternating runs of two checkouts, while trials paired in one process
held ±0.02.  An A/B comparison needs both trees timed in lockstep by one
harness (ROADMAP direction 10).  Usage:

    python scripts/agent_step_timing.py --steps 60 --seeds 5
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dsegym.agents import AGENT_TYPES, make_agent  # noqa: E402
from dsegym.envs import make_env  # noqa: E402
from dsegym.rng import make_rng  # noqa: E402

FULL_TASKS = (
    ("dram", "cloud-1", "low-latency"),
    ("accel", "large_cnn", "joint"),
    ("soc", "audio_decoder", "budget"),
)
TASKS = tuple((f"{env}-small", wl, obj) for env, wl, obj in FULL_TASKS) + FULL_TASKS
CALLS = ("propose", "observe", "step")
STATS = ("mean", "p50", "p99")


def time_trial(agent_type: str, task: tuple, steps: int, seed: int) -> dict[str, list[int]]:
    """ns per call of one trial's propose, env.step and observe."""
    env = make_env(*task)
    agent = make_agent(agent_type, env.space())
    rng = make_rng(seed)
    ns = {call: [] for call in CALLS}
    clock = time.perf_counter_ns
    for _ in range(steps):
        t0 = clock()
        point = agent.propose(rng)
        t1 = clock()
        reward = env.step(point).reward
        t2 = clock()
        agent.observe(point, reward)
        t3 = clock()
        ns["propose"].append(t1 - t0)
        ns["step"].append(t2 - t1)
        ns["observe"].append(t3 - t2)
    return ns


def step_timing(steps: int, seeds: int, agents=AGENT_TYPES) -> dict:
    """agent -> env id -> call -> {mean, p50, p99} in µs, over `seeds` trials each."""
    table: dict = {}
    for agent_type in agents:
        for task in TASKS:
            pooled = {call: [] for call in CALLS}
            for seed in range(seeds):
                for call, ns in time_trial(agent_type, task, steps, seed).items():
                    pooled[call].extend(ns)
            table.setdefault(agent_type, {})[task[0]] = {
                call: {
                    q: round(float(v) / 1e3, 1)
                    for q, v in zip(STATS, (np.mean(ns), *np.percentile(ns, [50, 99])))
                }
                for call, ns in pooled.items()
            }
    return table


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--steps", type=int, default=60, help="steps per trial (>= 1)")
    p.add_argument("--seeds", type=int, default=5, help="trials per agent and task (>= 1)")
    p.add_argument("--agents", default=",".join(AGENT_TYPES), help="comma-separated agent types")
    args = p.parse_args(argv)
    if args.steps < 1 or args.seeds < 1:
        p.error("--steps and --seeds must be >= 1")
    doc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "steps": args.steps,
        "seeds": args.seeds,
        "us": step_timing(args.steps, args.seeds, args.agents.split(",")),
    }
    print(json.dumps(doc, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
