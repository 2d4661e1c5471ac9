"""Pinned trajectories of the benchmark's explore sweep.

ACO, GA, RL and RW on the full dram, accel and soc spaces at budget 100,
long enough for several ACO (8 ants) and RL (batch 16) policy updates and
three GA generations, which the budget-5 golden file never reaches.  A
digest is the sha256 of one agent x env's trajectories for seeds 0 and 1,
with wall time blanked; any change to a draw, a float or a logged byte
moves it.
"""

import hashlib
import re

import pytest

from dsegym.orchestrator import TrialSpec, run_trial

SPACES = {
    "dram": ("cloud-1", "low-latency"),
    "accel": ("large_cnn", "joint"),
    "soc": ("audio_decoder", "budget"),
}
BUDGET = 100
SEEDS = (0, 1)

DIGESTS = {
    ("dram", "ACO"): "fad7dc936a2667a36604d7f7664e1ac6e467b1a39fe5f5bcb9a018cd27e5fb95",
    ("dram", "GA"): "695beb3972b6472861b0ccc72614118f3833cc1a2ca6652b8c7ba03778c3b084",
    ("dram", "RL"): "79e6506d989e7e5518c45b38b568c2e8d955fb5acf5f28460dd93ad4a2cd9f32",
    ("dram", "RW"): "3609e444422601a679bada470adf58dcdd8d55eaa42e656f857f16bc2d0931c7",
    ("accel", "ACO"): "a47f8562ecbe61963dd73138bb3ac3d81622f06f0882160adb3d5911423366f4",
    ("accel", "GA"): "0a04563cc571780fac8fd391b69d36be609e654bf6886cbbc23db7e2c35f064e",
    ("accel", "RL"): "621a71e1dc751832f89a3adb95eafc63004faaa07734d30d9b6f94bbaf5dac44",
    ("accel", "RW"): "37644d742eb8ba5866fb826d5a3ec5a50a8d1be1c1a7e30d1850cf2f17ddd638",
    ("soc", "ACO"): "3468891cdefd75cdba4380aa61603dc605ff445fb7372600ad8772b2a5b5692e",
    ("soc", "GA"): "54242cc25f586e776b0e12ffef3924171687e2c28efc98796a75eed90c56849b",
    ("soc", "RL"): "f5200f87947ca337e787dd51b25094e5390591a2423a24eb94d47bbb51648750",
    ("soc", "RW"): "6f7da57af45aa77fc036c9a2ba92a82616647df6e853f75aa03d67ad59e1080e",
}


def _digest(env_id, agent_type, out_dir):
    workload_id, objective = SPACES[env_id]
    text = ""
    for seed in SEEDS:
        spec = TrialSpec(env_id, workload_id, objective, agent_type, BUDGET, seed,
                         out_dir=str(out_dir))
        with open(run_trial(spec).trajectory_file, encoding="utf-8") as f:
            text += f.read()
    text = re.sub(r'"wall_time_ms":\d+}$', '"wall_time_ms":0}', text, flags=re.M)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("env_id, agent_type", sorted(DIGESTS))
def test_explore_trajectories_are_pinned(env_id, agent_type, tmp_path):
    assert _digest(env_id, agent_type, tmp_path) == DIGESTS[env_id, agent_type]
