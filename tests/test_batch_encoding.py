"""One batch encoder for every caller.

The reference functions below are the per-point encoder and the BayesOpt
proposal/observation steps that encoded one point at a time.  The batch
path must give bit-identical features, proposals and rng positions.
"""

import re

import numpy as np
import pytest

from dsegym.agents import make_agent
from dsegym.agents.bayesian import BayesOpt, GaussianProcess, expected_improvement
from dsegym.dataset import load_dataset, merge
from dsegym.envs import get_space, make_env
from dsegym.orchestrator import TrialSpec, run_trial
from dsegym.proxy import dataset_matrix
from dsegym.rng import make_rng
from dsegym.spaces import (
    Categorical,
    Numeric,
    ParameterSpace,
    encode,
    encode_batch,
    encode_dim,
    point_from_map,
    sample_uniform,
    sample_uniform_indices,
)

SHIPPED = ["dram", "accel", "soc", "dram-small", "accel-small", "soc-small"]
# the shipped grids are all integer; this one makes the min-max rounding matter
FLOAT_GRID = ParameterSpace(
    (
        Numeric("a", 0.1, 0.7, 0.2),
        Categorical("b", ("x", "y", "z")),
        Numeric("c", -3.3, 4.5, 0.3),
        Numeric("d", 5, 5, 1),
        Numeric("e", 1e-9, 7.1e-8, 3e-9),
    )
)


def reference_encode(space, point):
    space.validate_point(point)
    out = np.zeros(encode_dim(space))
    pos = 0
    for p, k in zip(space.parameters, point):
        if isinstance(p, Categorical):
            out[pos + k] = 1.0
            pos += p.size
        else:
            span = p.hi - p.lo
            out[pos] = 0.0 if span == 0 else (p.value(k) - p.lo) / span
            pos += 1
    return out


def reference_bo_propose(agent, rng):
    hp = agent.hyperparams()
    if len(agent._rewards) < hp["n_initial"]:
        return sample_uniform(agent.space, rng)
    window = slice(-hp["max_train_points"], None)
    gp = GaussianProcess(hp["length_scale"], hp["signal_var"], hp["noise_var"])
    gp.fit(np.stack(agent._features[window]), np.asarray(agent._rewards[window]))
    cols = [rng.integers(0, s, size=hp["candidate_pool"]) for s in agent.space.sizes]
    candidates = [tuple(int(c[i]) for c in cols) for i in range(hp["candidate_pool"])]
    Xq = np.stack([reference_encode(agent.space, c) for c in candidates])
    mean, var = gp.predict(Xq)
    ei = expected_improvement(mean, np.sqrt(var), gp.standardize(agent._best_reward), hp["xi"])
    return candidates[int(np.argmax(ei))]


def reference_bo_observe(agent, point, reward):
    agent._features.append(reference_encode(agent.space, point))
    agent._rewards.append(reward)


class ReferenceBayesOpt(BayesOpt):
    def __init__(self, space, hyperparams=None):
        super().__init__(space, hyperparams)
        self._features = []
        self._rewards = []

    propose = reference_bo_propose
    _on_observe = reference_bo_observe


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


@pytest.mark.parametrize("space_name", SHIPPED + ["float-grid"])
def test_encode_batch_matches_reference(space_name):
    space = FLOAT_GRID if space_name == "float-grid" else get_space(space_name)
    rng = make_rng(11)
    # enough rows that `encode_batch` scatters them in more than one block
    rows = [sample_uniform(space, rng) for _ in range(2_000)]
    rows += [(0,) * len(space), tuple(s - 1 for s in space.sizes)]
    expected = np.stack([reference_encode(space, r) for r in rows])
    assert _bits(encode_batch(space, rows)) == _bits(expected)
    assert _bits(encode_batch(space, np.array(rows, dtype=np.int32))) == _bits(expected)
    for r, row in zip(rows, expected):
        assert _bits(encode(space, r)) == _bits(row)


class TestEncodeBatchRejects:
    space = get_space("dram-small")

    @pytest.mark.parametrize(
        "indices",
        [
            [0] * 7,  # one point, not a batch
            [[0] * 6],  # too few columns
            [[0] * 8],  # too many columns
            np.zeros((2, 7, 1), dtype=int),
            np.zeros((2, 7)),  # float indices
        ],
    )
    def test_wrong_shape_or_dtype(self, indices):
        with pytest.raises(ValueError, match="integer index array"):
            encode_batch(self.space, indices)

    @pytest.mark.parametrize("column", range(7))
    @pytest.mark.parametrize("offset", ["low", "high"])
    def test_out_of_range_names_the_parameter(self, column, offset):
        rows = np.zeros((3, 7), dtype=int)
        bad = -1 if offset == "low" else self.space.sizes[column]
        rows[1, column] = bad
        name = self.space.parameters[column].name
        message = f"index {bad} out of range for parameter '{name}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            encode_batch(self.space, rows)

    def test_reports_the_first_parameter_then_its_first_row(self):
        """Row 0 has a bad index only in a later parameter; parameter 2 has
        two bad rows, so the message names parameter 2 and row 1's index."""
        rows = np.zeros((4, 7), dtype=int)
        rows[0, 5] = -7
        rows[1, 2] = self.space.sizes[2] + 3
        rows[3, 2] = -1
        rows[3, 6] = self.space.sizes[6]
        name = self.space.parameters[2].name
        message = f"index {self.space.sizes[2] + 3} out of range for parameter '{name}'"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            encode_batch(self.space, rows)


def test_space_without_parameters():
    space = ParameterSpace(())
    assert encode(space, ()).shape == (0,)
    assert sample_uniform_indices(space, make_rng(0), 3).shape == (3, 0)
    assert sample_uniform(space, make_rng(0)) == ()


def test_dataset_matrix_unchanged_on_logged_dram(tmp_path):
    for agent_type in ("RW", "GA"):
        run_trial(
            TrialSpec(
                env_id="dram",
                workload_id="cloud-1",
                objective="low-latency",
                agent_type=agent_type,
                budget=60,
                seed=4,
                out_dir=str(tmp_path),
            )
        )
    dataset = merge([load_dataset(p) for p in sorted(tmp_path.glob("*.jsonl"))])
    space = get_space("dram")
    for target in ("power", "latency"):
        X, y = dataset_matrix(dataset, target, space)
        expected = np.stack(
            [reference_encode(space, point_from_map(space, r.design)) for r in dataset.records]
        )
        assert _bits(X) == _bits(expected)
        assert y.tolist() == [r.observation[target] for r in dataset.records]


@pytest.mark.parametrize("env_args", [
    ("dram", "cloud-1", "low-latency"),
    ("soc-small", "audio_decoder", "budget"),
])
def test_bayesopt_matches_reference(env_args):
    env = make_env(*env_args)
    hp = {"max_train_points": 12}
    agent = make_agent("BO", env.space(), hp)
    ref = ReferenceBayesOpt(env.space(), hp)
    rng, ref_rng = make_rng(23), make_rng(23)
    for _ in range(40):  # the 12-point window slides after step 12
        point = agent.propose(rng)
        assert point == reference_bo_propose(ref, ref_rng)
        assert all(type(k) is int for k in point)
        reward = env.step(point).reward
        agent.observe(point, reward)
        ref.observe(point, reward)
    assert agent.best_so_far() == ref.best_so_far()
    # both streams consumed the same number of draws
    assert rng.integers(2**63) == ref_rng.integers(2**63)
