"""Pinned proposals of BO on the three `-small` benchmark tasks.

Every shipped sweep config runs 60 steps on each task, and one default
trial runs 120 steps, past `max_train_points` (96), so the GP's window
slides.  A digest is the sha256 of the proposed points in order; any change
to a draw or to the last bit of the posterior that moves a proposal moves
it.
"""

import hashlib

from dsegym.agents import make_agent, sweep_configs
from dsegym.envs import make_env
from dsegym.rng import make_rng

TASKS = (
    ("dram-small", "cloud-1", "low-latency"),
    ("accel-small", "large_cnn", "joint"),
    ("soc-small", "audio_decoder", "budget"),
)


def _proposals(task, hyperparams, steps, seed):
    env = make_env(*task)
    agent = make_agent("BO", env.space(), hyperparams)
    rng = make_rng(seed)
    points = []
    for _ in range(steps):
        point = agent.propose(rng)
        agent.observe(point, env.step(point).reward)
        points.append(point)
    return points


def _digest(points):
    return hashlib.sha256(repr(points).encode("utf-8")).hexdigest()


def test_sweep_configs_propose_the_pinned_points():
    points = [
        _proposals(task, config, 60, seed)
        for task in TASKS
        for seed, config in enumerate(sweep_configs("BO"))
    ]
    assert _digest(points) == (
        "6f649bd8daea1de3a579c4c950f5f5363c0ef994a2010711595eb99ecd0b3639"
    )


def test_a_sliding_window_proposes_the_pinned_points():
    assert _digest(_proposals(TASKS[0], {}, 120, 11)) == (
        "330f4bc44a9106ae8ffb8e6abc9a15f599d0c1b2059dc13e8f96d6045d7b886f"
    )
