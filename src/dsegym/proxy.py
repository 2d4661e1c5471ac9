"""Random-forest proxy cost models trained on trajectory datasets.

Trees are standard CART regressors: greedy variance-reduction splits over
a per-node random feature subset, thresholds at midpoints between adjacent
sorted feature values.  Forest predictions average the trees, so they stay
inside the training target range.  Features come from the same one-hot /
min-max encoding the surrogate-based agents use.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataset import Dataset
from .rng import spawn_seeds
from .spaces import (
    ParameterSpace,
    encode_batch,
    point_from_map,
    space_from_config,
    space_to_config,
)

_SPLIT_TOL = 1e-12

SEARCH_GRID = {
    "n_trees": [10, 50, 100],
    "max_depth": [4, 8, 16, None],
    "min_samples_leaf": [1, 5, 20],
    "feature_subsample": [0.5, 0.8, 1.0],
}

DEFAULT_HYPERPARAMS = {
    "n_trees": 50,
    "max_depth": None,
    "min_samples_leaf": 1,
    "feature_subsample": 1.0,
    "bootstrap": True,
}


class RegressionTree:
    """CART regression tree stored as a flat node list (root at 0).

    Split nodes are (feature, threshold, left, right); leaves hold the mean
    of their training targets and always cover >= min_samples_leaf rows.
    """

    def __init__(self, nodes: list[dict]):
        self.nodes = nodes

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        max_depth: int | None,
        min_samples_leaf: int,
        feature_subsample: float,
        rng: np.random.Generator,
    ) -> "RegressionTree":
        if len(y) == 0:
            raise ValueError("cannot fit a tree on no rows")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if len(y) < min_samples_leaf:
            raise ValueError(
                f"need at least min_samples_leaf={min_samples_leaf} rows, got {len(y)}"
            )
        if not 0.0 < feature_subsample <= 1.0:
            raise ValueError(f"feature_subsample must lie in (0, 1], got {feature_subsample}")
        n_features = X.shape[1]
        n_sub = max(1, int(math.ceil(feature_subsample * n_features)))
        nodes: list[dict] = []

        def build(idx: np.ndarray, depth: int) -> int:
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
        return cls(nodes)

    def predict_one(self, x: np.ndarray) -> float:
        node = self.nodes[0]
        while "v" not in node:
            node = self.nodes[node["l"] if x[node["f"]] <= node["t"] else node["r"]]
        return node["v"]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.predict_one(row) for row in np.atleast_2d(X)])


def _best_split(X, y, idx, features, min_leaf):
    """Largest-SSE-reduction split over the candidate features, or None."""
    yn = y[idx]
    n = len(idx)
    sse_parent = float(np.sum(yn * yn) - np.sum(yn) ** 2 / n)
    best_gain, best = _SPLIT_TOL, None
    for f in features:
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys_sorted = yn[order]
        csum = np.cumsum(ys_sorted)
        csum2 = np.cumsum(ys_sorted * ys_sorted)
        # split after position i keeps i+1 rows on the left
        lo, hi = min_leaf - 1, n - min_leaf - 1
        if hi < lo:
            continue
        pos = np.arange(lo, hi + 1)
        valid = xs_sorted[pos] < xs_sorted[pos + 1]
        if not np.any(valid):
            continue
        pos = pos[valid]
        n_left = pos + 1.0
        n_right = n - n_left
        sse_left = csum2[pos] - csum[pos] ** 2 / n_left
        sse_right = (csum2[-1] - csum2[pos]) - (csum[-1] - csum[pos]) ** 2 / n_right
        gains = sse_parent - sse_left - sse_right
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            threshold = (xs_sorted[pos[i]] + xs_sorted[pos[i] + 1]) / 2.0
            best_gain = float(gains[i])
            best = (f, threshold, X[idx, f] <= threshold)
    return best


@dataclass
class RandomForestModel:
    trees: list[RegressionTree]
    space: ParameterSpace
    target: str
    hyperparams: dict
    seed: int
    env_id: str
    train_min: float
    train_max: float
    n_train: int = 0

    def predict_features(self, x: np.ndarray) -> float:
        return float(np.mean([t.predict_one(np.asarray(x)) for t in self.trees]))

    def save(self, path) -> None:
        doc = {
            "format_version": 1,
            "env_id": self.env_id,
            "target": self.target,
            "hyperparams": self.hyperparams,
            "seed": self.seed,
            "n_train": self.n_train,
            "train_range": [self.train_min, self.train_max],
            "feature_space": space_to_config(self.space),
            "trees": [t.nodes for t in self.trees],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "RandomForestModel":
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("format_version") != 1:
            raise ValueError(f"unsupported model format {doc.get('format_version')!r}")
        return cls(
            trees=[RegressionTree(nodes) for nodes in doc["trees"]],
            space=space_from_config(doc["feature_space"]),
            target=doc["target"],
            hyperparams=doc["hyperparams"],
            seed=doc["seed"],
            env_id=doc["env_id"],
            train_min=doc["train_range"][0],
            train_max=doc["train_range"][1],
            n_train=doc.get("n_train", 0),
        )


@dataclass
class ProxyEvalReport:
    rmse: float
    normalized_rmse_percent: float
    n_train: int
    n_test: int
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "normalized_rmse_percent": self.normalized_rmse_percent,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "provenance": self.provenance,
        }


def dataset_matrix(
    dataset: Dataset, target: str, space: ParameterSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Feature/target arrays; invalid (metric-free) records are dropped."""
    rows, targets = [], []
    for record in dataset.records:
        if target not in record.observation:
            if not record.observation:
                continue
            raise ValueError(f"missing metric {target!r} in record {record.experiment_id}")
        rows.append(point_from_map(space, record.design).indices)
        targets.append(record.observation[target])
    if not rows:
        raise ValueError(f"no records with metric {target!r}")
    return encode_batch(space, rows), np.asarray(targets)


def _resolve_space(dataset: Dataset, space: ParameterSpace | None) -> ParameterSpace:
    if space is not None:
        return space
    from .envs import get_space

    if dataset.env_id is None:
        raise ValueError("empty dataset and no explicit space")
    return get_space(dataset.env_id)


def train_forest(
    dataset: Dataset,
    target: str,
    hyperparams: Mapping | None = None,
    seed: int = 0,
    space: ParameterSpace | None = None,
) -> RandomForestModel:
    """n_trees CART trees on independent bootstrap resamples (per-tree seeds
    derived from the master seed, so parallel and serial builds agree)."""
    space = _resolve_space(dataset, space)
    hp = {**DEFAULT_HYPERPARAMS, **(hyperparams or {})}
    unknown = set(hp) - set(DEFAULT_HYPERPARAMS)
    if unknown:
        raise ValueError(f"unknown proxy hyperparameters: {sorted(unknown)}")
    X, y = dataset_matrix(dataset, target, space)
    trees = []
    for tree_seed in spawn_seeds(seed, hp["n_trees"]):
        tree_rng = np.random.Generator(np.random.Philox(tree_seed))
        if hp["bootstrap"]:
            idx = tree_rng.integers(0, len(y), size=len(y))
        else:
            idx = np.arange(len(y))
        trees.append(
            RegressionTree.fit(
                X[idx],
                y[idx],
                hp["max_depth"],
                hp["min_samples_leaf"],
                hp["feature_subsample"],
                tree_rng,
            )
        )
    return RandomForestModel(
        trees=trees,
        space=space,
        target=target,
        hyperparams=hp,
        seed=seed,
        env_id=dataset.env_id or "",
        train_min=float(np.min(y)),
        train_max=float(np.max(y)),
        n_train=len(y),
    )


def evaluate_rmse(
    model: RandomForestModel, test: Dataset, space: ParameterSpace | None = None
) -> ProxyEvalReport:
    space = space or model.space
    X, y = dataset_matrix(test, model.target, space)
    preds = np.array([model.predict_features(row) for row in X])
    rmse = float(np.sqrt(np.mean((preds - y) ** 2)))
    spread = float(np.max(y) - np.min(y))
    if spread > 0:
        normalized = rmse / spread * 100.0
    else:
        normalized = 0.0 if rmse == 0 else math.inf
    return ProxyEvalReport(
        rmse=rmse,
        normalized_rmse_percent=normalized,
        n_train=model.n_train,
        n_test=len(y),
        provenance=dict(test.agent_counts()),
    )


def proxy_hyperparam_search(
    train: Dataset,
    validation: Dataset,
    budget: int,
    rng: np.random.Generator,
    target: str = "latency",
    space: ParameterSpace | None = None,
) -> tuple[dict, RandomForestModel, float]:
    """Uniform random search over SEARCH_GRID; returns the argmin-RMSE config."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    space = _resolve_space(train, space)
    keys = sorted(SEARCH_GRID)
    best = None
    for _ in range(budget):
        hp = {k: SEARCH_GRID[k][int(rng.integers(0, len(SEARCH_GRID[k])))] for k in keys}
        model_seed = int(rng.integers(0, 2**63 - 1))
        model = train_forest(train, target, hp, seed=model_seed, space=space)
        rmse = evaluate_rmse(model, validation, space).rmse
        if best is None or rmse < best[2]:
            best = (hp, model, rmse)
    return best


@dataclass
class SpeedupReport:
    speedup: float
    env_seconds: float
    model_seconds: float
    n_queries: int


def speed_benchmark(model: RandomForestModel, env, points, n_queries: int) -> SpeedupReport:
    """Wall time of n env steps vs n model predictions on the same points."""
    queries = [points[i % len(points)] for i in range(n_queries)]
    t0 = time.perf_counter()
    for p in queries:
        env.step(p)
    env_seconds = time.perf_counter() - t0
    feats = encode_batch(model.space, [p.indices for p in queries])
    t0 = time.perf_counter()
    for x in feats:
        model.predict_features(x)
    model_seconds = time.perf_counter() - t0
    return SpeedupReport(
        speedup=env_seconds / model_seconds if model_seconds > 0 else math.inf,
        env_seconds=env_seconds,
        model_seconds=model_seconds,
        n_queries=n_queries,
    )
