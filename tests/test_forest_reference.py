"""Proxy forests keep the fit and the predictions of dict-node trees.

The reference below is the forest as it was stored before trees became
flat preorder tuples: one dict per node, a walk that indexes the numpy
feature row, and ``np.mean`` over the per-tree values.  Fitting from the
same seed must give the same splits, thresholds and leaf values, and every
prediction must agree bit for bit, for forests of several sizes: numpy
sums up to 8 per-tree values in one order and more in blocks of eight, and
neither order is that of Python's ``sum`` or ``math.fsum``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dsegym.dataset import load_dataset
from dsegym.orchestrator import TrialSpec, run_trial
from dsegym.proxy import DEFAULT_HYPERPARAMS, _best_split, dataset_matrix, train_forest
from dsegym.rng import make_rng, spawn_seeds
from dsegym.spaces import encode_batch, sample_uniform_indices

DATASETS = {
    "dram": (TrialSpec("dram", "cloud-1", "low-latency", "RW", 100, seed=4), "power"),
    "soc-small": (TrialSpec("soc-small", "audio_decoder", "budget", "GA", 100, seed=4), "area"),
}


def reference_fit(X, y, max_depth, min_samples_leaf, feature_subsample, rng):
    n_features = X.shape[1]
    n_sub = max(1, int(math.ceil(feature_subsample * n_features)))
    nodes = []

    def build(idx, depth):
        node_id = len(nodes)
        nodes.append({})
        yn = y[idx]
        best = None
        depth_ok = max_depth is None or depth < max_depth
        if depth_ok and len(idx) >= 2 * min_samples_leaf and np.ptp(yn) > 0:
            features = rng.choice(n_features, size=n_sub, replace=False)
            best = _best_split(X, y, idx, features, min_samples_leaf)
        if best is None:
            nodes[node_id] = {"v": float(np.mean(yn)), "n": int(len(idx))}
            return node_id
        feature, threshold, mask = best
        left = build(idx[mask], depth + 1)
        right = build(idx[~mask], depth + 1)
        nodes[node_id] = {"f": int(feature), "t": float(threshold), "l": left, "r": right}
        return node_id

    build(np.arange(len(y)), 0)
    return nodes


def reference_forest(X, y, hp, seed):
    trees = []
    for tree_seed in spawn_seeds(seed, hp["n_trees"]):
        rng = np.random.Generator(np.random.Philox(tree_seed))
        idx = rng.integers(0, len(y), size=len(y)) if hp["bootstrap"] else np.arange(len(y))
        trees.append(reference_fit(X[idx], y[idx], hp["max_depth"], hp["min_samples_leaf"],
                                   hp["feature_subsample"], rng))
    return trees


def reference_predict(trees, x):
    values = []
    for nodes in trees:
        node = nodes[0]
        while "v" not in node:
            node = nodes[node["l"] if x[node["f"]] <= node["t"] else node["r"]]
        values.append(node["v"])
    return float(np.mean(values))


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    out = {}
    for name, (spec, target) in DATASETS.items():
        spec = replace(spec, out_dir=str(tmp_path_factory.mktemp(name)))
        dataset = load_dataset(run_trial(spec).trajectory_file)
        out[name] = (dataset, target)
    return out


def _check(dataset, target, overrides, seed=11):
    hp = {**DEFAULT_HYPERPARAMS, **overrides}
    model = train_forest(dataset, target, overrides, seed=seed)
    X, y = dataset_matrix(dataset, target, model.space)
    reference = reference_forest(X, y, hp, seed)

    assert len(model.trees) == len(reference) == hp["n_trees"]
    for tree, nodes in zip(model.trees, reference):
        expected = [
            (-1, None, None, node["v"]) if "v" in node else (node["f"], node["t"], node["r"], None)
            for node in nodes
        ]
        assert tree.nodes == expected
        assert all(node["l"] == i + 1 for i, node in enumerate(nodes) if "v" not in node)

    # the training rows, then as many fresh grid points
    points = sample_uniform_indices(model.space, make_rng(seed), len(y))
    for Q in (X, encode_batch(model.space, points)):
        mine = np.array([model.predict_features(x) for x in Q])
        theirs = np.array([reference_predict(reference, x) for x in Q])
        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("name", sorted(DATASETS))
@pytest.mark.parametrize("n_trees", [1, 2, 3, 8, 9, 50])
def test_forest_matches_reference(datasets, name, n_trees):
    _check(*datasets[name], {"n_trees": n_trees})


@pytest.mark.parametrize("name", sorted(DATASETS))
@pytest.mark.parametrize(
    "variant",
    [{"max_depth": 4}, {"min_samples_leaf": 5}, {"feature_subsample": 0.5}, {"bootstrap": False}],
    ids=lambda hp: "-".join(f"{k}={v}" for k, v in hp.items()),
)
def test_hyperparameter_variants_match_reference(datasets, name, variant):
    _check(*datasets[name], {"n_trees": 9, **variant})
