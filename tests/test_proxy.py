import math

import numpy as np
import pytest

from dsegym.dataset import load_dataset
from dsegym.envs import make_env
from dsegym.orchestrator import TrialSpec, run_trial
from dsegym.proxy import RandomForestModel, speed_benchmark, train_forest
from dsegym.rng import make_rng
from dsegym.spaces import encode_batch, sample_uniform_indices


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("logs")
    result = run_trial(
        TrialSpec("dram-small", "stream", "low-power", "RW", 80, seed=1, out_dir=str(out_dir))
    )
    return train_forest(load_dataset(result.trajectory_file), "power", {"n_trees": 4}, seed=2)


def _points(space, n=32):
    return sample_uniform_indices(space, make_rng(3), n)


def test_speed_benchmark_on_undelayed_env(model):
    env = make_env("dram-small", "stream", "low-power", delay_ms=0.0)
    report = speed_benchmark(model, env, _points(env.space()), 50)
    assert report.n_queries == 50
    for value in (report.env_seconds, report.model_seconds, report.speedup):
        assert math.isfinite(value) and value > 0


def test_save_load_round_trips_predictions(model, tmp_path):
    path = tmp_path / "model.json"
    model.save(path)
    loaded = RandomForestModel.load(path)
    assert [t.nodes for t in loaded.trees] == [t.nodes for t in model.trees]
    assert (loaded.space, loaded.target, loaded.train_min, loaded.train_max) == (
        model.space, model.target, model.train_min, model.train_max
    )
    X = encode_batch(model.space, _points(model.space, 64))
    before = np.array([model.predict_features(x) for x in X])
    after = np.array([loaded.predict_features(x) for x in X])
    assert before.tobytes() == after.tobytes()
