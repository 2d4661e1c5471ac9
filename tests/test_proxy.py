import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dsegym.dataset import DataError, Dataset, load_dataset
from dsegym.envs import make_env
from dsegym.orchestrator import TrialSpec, run_trial
from dsegym.proxy import RandomForestModel, RegressionTree, speed_benchmark, train_forest
from dsegym.rng import make_rng
from dsegym.spaces import encode_batch, sample_uniform_indices

# Saved by the dict-node trees, whose leaves also carried their row count
# "n": train_forest(..., "power", {"n_trees": 3, "max_depth": 4}, seed=2)
# on the log of TrialSpec("dram-small", "stream", "low-power", "RW", 40,
# seed=1), and its predictions for sample_uniform_indices(space,
# make_rng(3), 32).
MODEL_V1 = Path(__file__).parent / "data" / "model_v1.json"
MODEL_V1_PREDICTIONS = Path(__file__).parent / "data" / "model_v1_predictions.json"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("logs")
    result = run_trial(
        TrialSpec("dram-small", "stream", "low-power", "RW", 80, seed=1, out_dir=str(out_dir))
    )
    return load_dataset(result.trajectory_file)


@pytest.fixture(scope="module")
def model(dataset):
    return train_forest(dataset, "power", {"n_trees": 4}, seed=2)


def _points(space, n=32):
    return sample_uniform_indices(space, make_rng(3), n)


def test_speed_benchmark_on_undelayed_env(model):
    env = make_env("dram-small", "stream", "low-power")
    report = speed_benchmark(model, env, _points(env.space(), 50))
    assert report.n_queries == 50
    for value in (report.env_seconds, report.model_seconds, report.speedup):
        assert math.isfinite(value) and value > 0


def test_speed_benchmark_refuses_no_queries(model):
    env = make_env("dram-small", "stream", "low-power")
    with pytest.raises(ValueError, match="speed_benchmark needs at least one point"):
        speed_benchmark(model, env, _points(env.space(), 0))


def test_save_load_round_trips_predictions(model, tmp_path):
    path = tmp_path / "model.json"
    model.save(path)
    loaded = RandomForestModel.load(path)
    saved = json.loads(path.read_text(encoding="utf-8"))["trees"]
    assert [
        [(-1, None, None, n["v"]) if "v" in n else (n["f"], n["t"], n["r"], None) for n in t]
        for t in saved
    ] == [t.nodes for t in loaded.trees] == [t.nodes for t in model.trees]
    assert (loaded.space, loaded.target, loaded.train_min, loaded.train_max) == (
        model.space, model.target, model.train_min, model.train_max
    )
    X = encode_batch(model.space, _points(model.space, 64))
    before = np.array([model.predict_features(x) for x in X])
    after = np.array([loaded.predict_features(x) for x in X])
    assert before.tobytes() == after.tobytes()


def test_a_v1_file_predicts_as_it_did():
    model = RandomForestModel.load(MODEL_V1)
    expected = json.loads(MODEL_V1_PREDICTIONS.read_text(encoding="utf-8"))
    X = encode_batch(model.space, np.array(expected["points"]))
    preds = np.array([model.predict_features(x) for x in X])
    assert preds.tobytes() == np.array(expected["predictions"]).tobytes()
    # saving again writes the same nodes, less the unread row counts
    trees = json.loads(MODEL_V1.read_text(encoding="utf-8"))["trees"]
    without_n = [[{k: v for k, v in node.items() if k != "n"} for node in t] for t in trees]
    assert [t.to_v1() for t in model.trees] == without_n


def test_a_tree_is_a_preorder_tuple_list(model):
    for tree in model.trees:
        for i, (feature, threshold, right, value) in enumerate(tree.nodes):
            if feature < 0:
                assert (feature, threshold, right) == (-1, None, None)
                assert isinstance(value, float)
            else:
                assert isinstance(threshold, float) and value is None
                assert i + 1 < right < len(tree.nodes)
        assert tree.nodes[-1][0] == -1


@pytest.mark.parametrize(
    "hyperparams, message",
    [
        ({"n_trees": 0}, "n_trees must be an int >= 1"),
        ({"n_trees": -2}, "n_trees must be an int >= 1"),
        ({"n_trees": 2.5}, "n_trees must be an int >= 1"),
        ({"n_trees": True}, "n_trees must be an int >= 1"),
        ({"max_depth": -1}, "max_depth must be None or an int >= 0"),
        ({"max_depth": 1.5}, "max_depth must be None or an int >= 0"),
    ],
)
def test_train_forest_rejects_bad_sizes(dataset, hyperparams, message):
    with pytest.raises(ValueError, match=message):
        train_forest(dataset, "power", hyperparams)


def test_depth_zero_fits_one_leaf_per_tree(model):
    X = encode_batch(model.space, _points(model.space, 8))
    tree = RegressionTree.fit(X, np.arange(8.0), 0, 1, 1.0, make_rng(0))
    assert tree.nodes == [(-1, None, None, 3.5)]


def _rows(n):
    return np.arange(2.0 * n).reshape(n, 2), np.arange(float(n))


def _metric_free(data):
    return Dataset([replace(r, observation={}) for r in data.records])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda data: RegressionTree.fit(*_rows(0), None, 1, 1.0, make_rng(0)),
         "cannot fit a tree on no rows"),
        (lambda data: RegressionTree.fit(*_rows(4), None, 0, 1.0, make_rng(0)),
         "min_samples_leaf must be >= 1, got 0"),
        (lambda data: RegressionTree.fit(*_rows(4), None, 1.5, 1.0, make_rng(0)),
         "min_samples_leaf must be an int >= 1 that fits in int64, got 1.5"),
        (lambda data: train_forest(data, "power", {"min_samples_leaf": math.nan}),
         "min_samples_leaf must be an int >= 1 that fits in int64, got nan"),
        (lambda data: RegressionTree.fit(*_rows(4), None, 5, 1.0, make_rng(0)),
         "need at least min_samples_leaf=5 rows, got 4"),
        (lambda data: RegressionTree.fit(*_rows(4), None, 1, 0.0, make_rng(0)),
         "feature_subsample must lie in (0, 1], got 0.0"),
        (lambda data: RegressionTree.fit(*_rows(4), None, 1, 1.5, make_rng(0)),
         "feature_subsample must lie in (0, 1], got 1.5"),
        (lambda data: train_forest(data, "power", {"feature_subsample": "0.5"}),
         "feature_subsample must lie in (0, 1], got '0.5'"),
        (lambda data: train_forest(data, "power", {"bootstrap": 0}),
         "bootstrap must be of type bool, got 0"),
        (lambda data: train_forest(data, "power", {"bootstrap": "no"}),
         "bootstrap must be of type bool, got 'no'"),
        (lambda data: train_forest(data, "power", {"n_trees": 10**400}),
         f"n_trees must be an int >= 1 that fits in int64, got {10**400}"),
        (lambda data: train_forest(data, "power", {"max_depth": 2**63}),
         f"max_depth must be None or an int >= 0 that fits in int64, got {2**63}"),
        (lambda data: train_forest(data, "power", {"min_samples_leaf": -(2**63) - 1}),
         f"min_samples_leaf must be an int >= 1 that fits in int64, got {-(2**63) - 1}"),
        (lambda data: train_forest(data, "power", seed=2**63),
         f"seed must be an int64 >= 0, got {2**63}"),
        (lambda data: train_forest(data, "power", {"depth": 3}),
         "unknown proxy hyperparameters: ['depth']"),
        (lambda data: train_forest(data, "area"),
         "missing metric 'area' in record {experiment_id}"),
        (lambda data: train_forest(_metric_free(data), "power"),
         "no records with metric 'power'"),
    ],
    ids=["no-rows", "leaf-below-one", "leaf-float", "leaf-nan", "fewer-rows-than-a-leaf",
         "subsample-zero",
         "subsample-above-one", "subsample-string", "bootstrap-int", "bootstrap-string",
         "n-trees-past-int64", "depth-past-int64", "leaf-past-int64", "seed-past-int64",
         "unknown-hyperparameter",
         "record-lacks-target",
         "no-record-has-target"],
)
def test_a_bad_fit_or_training_set_is_refused(dataset, build, message):
    with pytest.raises(ValueError) as info:
        build(dataset)
    assert str(info.value) == message.format(experiment_id=dataset.records[0].experiment_id)


def _edit_v1(tmp_path, edit):
    doc = json.loads(MODEL_V1.read_text(encoding="utf-8"))
    edit(doc["trees"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _set(tree, key, value):
    """Edit the root split of one tree."""
    def edit(trees):
        trees[tree][0][key] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_set(1, "r", 0), r"tree 1, node 0: right child 0 outside \(1, 23\)",
                     id="right-to-root"),
        pytest.param(_set(1, "r", 1), r"tree 1, node 0: right child 1 outside",
                     id="right-is-left"),
        pytest.param(_set(2, "r", 27), r"tree 2, node 0: right child 27 outside \(1, 27\)",
                     id="right-past-end"),
        pytest.param(_set(0, "l", 0), r"tree 0, node 0: left child 0 is not 1", id="left-to-self"),
        pytest.param(_set(0, "l", 16), r"tree 0, node 0: left child 16 is not 1",
                     id="left-not-next"),
        pytest.param(_set(0, "f", 14), r"tree 0, node 0: feature 14 outside \[0, 14\)",
                     id="feature-past-width"),
        pytest.param(_set(0, "f", -1), r"tree 0, node 0: feature -1 outside",
                     id="feature-negative"),
        pytest.param(_set(0, "f", 1.0), r"tree 0, node 0: f is not an int, got 1.0$",
                     id="feature-float"),
        pytest.param(_set(0, "t", "0.5"), r"tree 0, node 0: t is not a finite number, got .0.5.$",
                     id="threshold-string"),
        pytest.param(lambda trees: trees[0][-1].update(v=None),
                     r"tree 0, node 24: v is not a finite number, got None$", id="leaf-value-null"),
        pytest.param(lambda trees: trees[0][-1].update(v=math.nan),
                     r"tree 0, node 24: v is not a finite number, got nan$", id="leaf-value-nan"),
        pytest.param(lambda trees: trees[0][-1].update(v=10**400),
                     r"tree 0, node 24: v is not a finite number, got 1000+$",
                     id="leaf-value-huge-int"),
        pytest.param(_set(0, "t", math.inf), r"tree 0, node 0: t is not a finite number, got inf$",
                     id="threshold-infinite"),
        pytest.param(_set(0, "t", -math.inf),
                     r"tree 0, node 0: t is not a finite number, got -inf$",
                     id="threshold-negative-infinite"),
        pytest.param(_set(0, "t", 10**400), r"tree 0, node 0: t is not a finite number, got 1000+$",
                     id="threshold-huge-int"),
        pytest.param(lambda trees: trees[2][-1].pop("v"),
                     r"tree 2, node 26: leaf lacks key 'v'$", id="leaf-without-value"),
        pytest.param(lambda trees: trees[1].__setitem__(3, [0.5]),
                     r"tree 1, node 3: a leaf is a JSON object, not list$", id="node-not-object"),
        pytest.param(lambda trees: trees[1].clear(), r"tree 1 has no nodes", id="empty-tree"),
        pytest.param(lambda trees: trees.clear(),
                     r"trees is not a non-empty list of trees, got \[\]$", id="no-trees"),
    ],
)
def test_load_rejects_a_tree_a_walk_could_not_leave(tmp_path, edit, message):
    path = _edit_v1(tmp_path, edit)
    with pytest.raises(DataError, match=message):
        RandomForestModel.load(path)


def _write_v1_without(tmp_path, key):
    doc = json.loads(MODEL_V1.read_text(encoding="utf-8"))
    del doc[key]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("key", sorted(json.loads(MODEL_V1.read_text(encoding="utf-8"))))
def test_load_names_the_key_a_model_file_lacks(tmp_path, key):
    path = _write_v1_without(tmp_path, key)
    with pytest.raises(DataError) as info:
        RandomForestModel.load(path)
    assert str(info.value) == f"{path}: model file lacks key {key!r}"


def test_a_model_records_its_workload(model, tmp_path):
    assert model.workload_id == "stream"
    model.save(tmp_path / "model.json")
    assert RandomForestModel.load(tmp_path / "model.json").workload_id == "stream"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("{", "Expecting property name", id="not-json"),
        pytest.param("[1]", "a model file is a JSON object, not list$", id="not-an-object"),
        pytest.param(lambda doc: doc.update(format_version=2), "format_version is not 1, got 2$",
                     id="format-version"),
        pytest.param(lambda doc: doc.update(env_id=3), "env_id is not a non-empty string, got 3$",
                     id="env-id-not-a-string"),
        pytest.param(lambda doc: doc.update(workload_id=""),
                     "workload_id is not a non-empty string, got ''$", id="empty-workload-id"),
        pytest.param(lambda doc: doc.update(train_range=[0.0]),
                     r"train_range is not \[lo, hi\], two finite numbers lo <= hi, got \[0.0\]$",
                     id="short-train-range"),
        pytest.param(lambda doc: doc.update(train_range=[1, 2, 3]),
                     r"train_range is not \[lo, hi\], .* got \[1, 2, 3\]$",
                     id="long-train-range"),
        pytest.param(lambda doc: doc.update(train_range=3),
                     r"train_range is not \[lo, hi\], .* got 3$",
                     id="train-range-number"),
        pytest.param(lambda doc: doc.update(train_range=["a", "b"]),
                     r"train_range is not \[lo, hi\], .* got \['a', 'b'\]$",
                     id="train-range-strings"),
        pytest.param(lambda doc: doc.update(train_range=[0.0, math.nan]),
                     r"train_range is not \[lo, hi\], .* got \[0.0, nan\]$",
                     id="train-range-nan"),
        pytest.param(lambda doc: doc.update(train_range=[2.0, 1.0]),
                     r"train_range is not \[lo, hi\], .* got \[2.0, 1.0\]$",
                     id="inverted-train-range"),
        pytest.param(lambda doc: doc["feature_space"][0].pop("name"),
                     "parameter entry lacks key 'name'$",
                     id="parameter-without-name"),
        pytest.param(lambda doc: doc.update(feature_space=3),
                     "feature_space is not a list of parameters, got 3$",
                     id="feature-space-not-a-list"),
        pytest.param(lambda doc: doc["feature_space"][3].update(step=math.inf),
                     r"numeric grid must be finite, got \(\d+, \d+, inf\)", id="infinite-step"),
        pytest.param(lambda doc: doc["feature_space"][5].update(min=math.nan),
                     r"numeric grid must be finite, got \(nan, ", id="nan-min"),
        pytest.param(lambda doc: doc["feature_space"][3].update(step=10**400),
                     r"numeric grid must be finite, got \(\d+, \d+, 1000+\)", id="huge-int-step"),
        pytest.param(lambda doc: doc["feature_space"][3].update(min=9),
                     r"parameter 'RequestBufferSize': numeric bounds inverted: \(9, 8\)$",
                     id="inverted-bounds"),
        pytest.param(lambda doc: doc.update(n_train="forty"),
                     "n_train is not an int64 >= 1, got 'forty'$", id="string-n-train"),
        pytest.param(lambda doc: doc.update(hyperparams=[1]),
                     r"hyperparams is not a JSON object, got \[1\]$", id="list-hyperparams"),
        pytest.param(lambda doc: doc.update(seed=1.5), "seed is not an int64 >= 0, got 1.5$",
                     id="float-seed"),
        pytest.param(lambda doc: doc.update(seed=-1), "seed is not an int64 >= 0, got -1$",
                     id="negative-seed"),
        pytest.param(lambda doc: doc["feature_space"][0].update(values=[True, 2]),
                     r"values is not a list of strings, got \[True, 2\]$", id="bool-int-labels"),
        pytest.param(lambda doc: doc.update(target=3), "target is not a non-empty string, got 3$",
                     id="int-target"),
        pytest.param(lambda doc: doc.update(format_version=True),
                     "format_version is not 1, got True$", id="bool-format-version"),
        pytest.param(lambda doc: doc.update(extra=1), r"model file has unknown keys \['extra'\]$",
                     id="unknown-key"),
    ],
)
def test_load_reports_a_malformed_document_as_a_data_error(tmp_path, text, message):
    if callable(text):
        doc = json.loads(MODEL_V1.read_text(encoding="utf-8"))
        text(doc)
        text = json.dumps(doc)
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")  # json writes inf and nan as Infinity and NaN
    with pytest.raises(DataError, match=message) as info:
        RandomForestModel.load(path)
    assert str(info.value).startswith(f"{path}: ")
