"""Golden bytes of the report files of six fixed sweeps.

Each sweep runs at parallelism 1 and 2; its wall times are zeroed before
`report`, so `summary.json` and the three CSVs depend on behaviour alone.
A change to how a sweep is folded into its summary or written out must keep
every digest below.
"""

import hashlib
from pathlib import Path

import pytest

from dsegym.agents import AGENT_TYPES
from dsegym.orchestrator import SweepConfig, report, run_sweep

SWEEPS = {
    "soc-small-budget": dict(
        env_id="soc-small", workload_id="audio_decoder", objective="budget",
        agent_types=tuple(AGENT_TYPES), budgets=(2, 8, 16), seeds=(0, 1),
        grids={a: [{}] for a in AGENT_TYPES},
    ),
    "dram-small-unsorted": dict(
        env_id="dram-small", workload_id="cloud-1", objective="low-power",
        agent_types=("GA", "ACO", "RW"), budgets=(5, 20, 10), seeds=(3, 1, 2),
        grids={"GA": [{"population_size": 4}, {"population_size": 8},
                      {"mutation_prob": 0.3}]},
    ),
    "accel-small-shipped": dict(
        env_id="accel-small", workload_id="mobile_cnn", objective="low-latency",
        agent_types=("RL", "BO"), budgets=(4, 12), seeds=(0, 1),
    ),
}

GOLDEN = {
    "accel-small-shipped": {
        "summary.json": "b7e19fc0bec378e8a18774ed06b7854fba9e15b088add509408af83a5d22b1cd",
        "quartiles.csv": "5167188616f70eadac119b00cad9b70cf354256d08c04acb7f2850e8e7031060",
        "normalized_rewards.csv": "ec2c13c53bc8791994d46542af1686d902d5e0b8c61a35a106f9e8e1e01fe115",
        "time_to_completion.csv": "7c6d5617f6f58437312a02e03a3812b075755afa1d2d16428b43c2193393dbe2",
    },
    "dram-small-unsorted": {
        "summary.json": "de1710da1534070697d9c9e4c683372194941c22f071544c32b75d18506613d9",
        "quartiles.csv": "eed5caf77e1676d39dd4fde9387dfc5dfac0db83514f5abe7f82b1dafaf6e204",
        "normalized_rewards.csv": "da2540c54608c5c3bde30f6ae7b5b3205d957dba522149a0e35a77e91fff8c91",
        "time_to_completion.csv": "ccb6964f3c2743f51a790f7d59a3b81157016cafdcb1303a8f9f183613b21f81",
    },
    "soc-small-budget": {
        "summary.json": "9be25f698d1f056c711ff79ad933bafbb2e20fa626a711de80ba4cf76ab15d63",
        "quartiles.csv": "ac2b63f45cf7f1a57f21f887145ff9d768630decb205c03bbbc3d344e7857c0f",
        "normalized_rewards.csv": "0e6181d30c6944e2528f7410a86a26ed1286beaa49af39294cf4938b5f16bd78",
        "time_to_completion.csv": "8763bcf6088216795f9a7b9e227f5fd7b6e33d903161e714ddc455ebcff693af",
    },
}


def _digests(out_dir, sweep, parallelism):
    summary = run_sweep(SweepConfig(**SWEEPS[sweep], parallelism=parallelism))
    assert not summary.failures
    for timing in summary.timing.values():
        timing["total_wall_s"] = 0.0
    return {
        Path(name).name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
        for name in report(summary, out_dir)
    }


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_report_bytes(sweep, parallelism, tmp_path):
    assert _digests(tmp_path, sweep, parallelism) == GOLDEN[sweep]
