"""Pinned proposals of BO on the three `-small` benchmark tasks.

Every shipped sweep config runs 60 steps on each task, and one default
trial runs 120 steps, past `max_train_points` (96), so the GP's window
slides.  Longer trials, 400 default steps on each task and 150 steps with
one- and two-point windows, also cover the GP's buffer moves and its
smallest windows.  A digest is the sha256 of the proposed points in order; any change
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


def test_long_trials_propose_the_pinned_points():
    """400 default steps: the window slides 304 times, and the GP moves it
    into new buffers whenever it reaches their end."""
    digests = [_digest(_proposals(task, {}, 400, 20 + i)) for i, task in enumerate(TASKS)]
    assert digests == [
        "b318f4540c1d433225ebdcd4254586ecf61803e00f4806be11e7f6ac3d236042",
        "d371a8fa63e2127386837d6b1af30c23a5cdb2602f19ed0a5a55eaeff7466a1e",
        "dee5b3491544eba2cf8f962b3e46153534812503f27a25060f6faaf38dacefd9",
    ]


def test_one_and_two_point_windows_propose_the_pinned_points():
    digests = [
        _digest([_proposals(task, {"max_train_points": window}, 150, 30 + window)
                 for task in TASKS])
        for window in (1, 2)
    ]
    assert digests == [
        "e6ffaca5475e72c052789ed06145e24f458be6e729d17a9524cf87deb6683f88",
        "ed02b3e2365aba535bd0500c6376620070cf61f87055f756f41f772e35e27df0",
    ]
