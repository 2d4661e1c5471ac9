"""Random-forest proxy cost models trained on trajectory datasets.

Trees are standard CART regressors: greedy variance-reduction splits over
a per-node random feature subset, thresholds at midpoints between adjacent
sorted feature values.  Forest predictions average the trees, so they stay
inside the training target range.  Features come from the same one-hot /
min-max encoding the surrogate-based agents use.

A fitted tree is one flat list of node tuples in preorder (see
`RegressionTree`), and a query walks it over plain Python floats: indexing
numpy arrays per level costs more than the comparison it feeds.  On disk a
model keeps format_version 1, whose trees are lists of node dicts;
`RandomForestModel.load` checks their structure before it converts them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import COUNT, NATURAL, REAL, check_fields, finite_number, read_json, shown, whole_number
from .dataset import Dataset, reading
from .rng import check_seed, spawn_seeds
from .spaces import (
    ParameterSpace,
    encode_batch,
    encode_dim,
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
    """CART regression tree stored as one flat node list in preorder.

    ``nodes[i]`` is a tuple ``(feature, threshold, right, value)``.  A split
    has ``feature >= 0`` and ``value`` None; it sends ``x[feature] <=
    threshold`` to its left child, which is always ``i + 1`` because the
    left subtree is built first, and the rest to ``right``.  A leaf has
    ``feature`` -1, ``threshold`` and ``right`` None, and ``value`` the mean
    of its training targets; it covers >= min_samples_leaf rows.  Every
    child comes after its parent, so a walk from the root ends at a leaf.
    """

    def __init__(self, nodes: list[tuple]):
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
        if max_depth is not None and not (whole_number(max_depth) and max_depth >= 0):
            raise ValueError("max_depth must be None or an int >= 0 that fits in int64, "
                             f"got {shown(max_depth)}")
        if not whole_number(min_samples_leaf):
            raise ValueError("min_samples_leaf must be an int >= 1 that fits in int64, "
                             f"got {shown(min_samples_leaf)}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if len(y) < min_samples_leaf:
            raise ValueError(
                f"need at least min_samples_leaf={min_samples_leaf} rows, got {len(y)}"
            )
        if not (finite_number(feature_subsample) and 0.0 < feature_subsample <= 1.0):
            raise ValueError("feature_subsample must lie in (0, 1], "
                             f"got {shown(feature_subsample)}")
        n_features = X.shape[1]
        n_sub = max(1, int(math.ceil(feature_subsample * n_features)))
        nodes: list[tuple] = []

        def build(idx: np.ndarray, depth: int) -> int:
            node_id = len(nodes)
            nodes.append(None)
            yn = y[idx]
            best = None
            depth_ok = max_depth is None or depth < max_depth
            if depth_ok and len(idx) >= 2 * min_samples_leaf and np.ptp(yn) > 0:
                features = rng.choice(n_features, size=n_sub, replace=False)
                best = _best_split(X, y, idx, features, min_samples_leaf)
            if best is None:
                nodes[node_id] = (-1, None, None, float(np.mean(yn)))
                return node_id
            feature, threshold, mask = best
            build(idx[mask], depth + 1)
            right = build(idx[~mask], depth + 1)
            nodes[node_id] = (int(feature), float(threshold), right, None)
            return node_id

        build(np.arange(len(y)), 0)
        return cls(nodes)

    def predict_one(self, x: list[float]) -> float:
        """The leaf value for features ``x``, given as a list of floats."""
        nodes = self.nodes
        i = 0
        feature, threshold, right, value = nodes[0]
        while feature >= 0:
            i = i + 1 if x[feature] <= threshold else right
            feature, threshold, right, value = nodes[i]
        return value

    def to_v1(self) -> list[dict]:
        """The format_version 1 node dicts: ``{"f", "t", "l", "r"}`` per
        split, ``{"v"}`` per leaf."""
        return [
            {"v": value} if feature < 0 else {"f": feature, "t": threshold, "l": i + 1, "r": right}
            for i, (feature, threshold, right, value) in enumerate(self.nodes)
        ]

    @classmethod
    def from_v1(cls, nodes: list, n_features: int, tree: int) -> "RegressionTree":
        """Read `to_v1` output (parsed JSON): a node with key ``f`` is a
        split, any other a leaf.  A node a walk could not leave is refused:
        a left child other than ``i + 1``, a right child outside ``(i + 1,
        len(nodes))``, or a feature outside ``[0, n_features)``."""
        if not nodes:
            raise ValueError(f"tree {tree} has no nodes")
        out = []
        for i, node in enumerate(nodes):
            keys = node if type(node) is dict else ()
            try:
                if "f" not in keys:
                    fields = _COUNTED_LEAF_FIELDS if "n" in keys else _LEAF_FIELDS
                    leaf = check_fields(node, fields, "leaf")
                    out.append((-1, None, None, float(leaf["v"])))
                    continue
                check_fields(node, _SPLIT_FIELDS, "split")
                feature, threshold, left, right = node["f"], node["t"], node["l"], node["r"]
                if not 0 <= feature < n_features:
                    raise ValueError(f"feature {feature} outside [0, {n_features})")
                if left != i + 1:
                    raise ValueError(f"left child {left} is not {i + 1}")
                if not i + 1 < right < len(nodes):
                    raise ValueError(f"right child {right} outside ({i + 1}, {len(nodes)})")
            except ValueError as exc:
                raise ValueError(f"tree {tree}, node {i}: {exc}") from None
            out.append((feature, float(threshold), right, None))
        return cls(out)


_INT = ((int,), None, "an int")
_LEAF_FIELDS = {"v": REAL}
# the leaves of early format-1 files also hold their row count, which no reader uses
_COUNTED_LEAF_FIELDS = {**_LEAF_FIELDS, "n": NATURAL}
_SPLIT_FIELDS = {"f": _INT, "t": REAL, "l": _INT, "r": _INT}


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


_NAME = ((str,), bool, "a non-empty string")
_MODEL_FIELDS = {
    "format_version": ((int,), (1).__eq__, "1"),
    "env_id": _NAME,
    "workload_id": _NAME,
    "target": _NAME,
    "hyperparams": ((dict,), None, "a JSON object"),
    "seed": NATURAL,
    "n_train": COUNT,
    "train_range": ((list,), lambda r: len(r) == 2 and all(map(finite_number, r)) and r[0] <= r[1],
                    "[lo, hi], two finite numbers lo <= hi"),
    "feature_space": ((list,), None, "a list of parameters"),
    "trees": ((list,), lambda ts: ts and all(type(t) is list for t in ts),
              "a non-empty list of trees"),
}


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
    n_train: int
    workload_id: str

    def predict_features(self, x: np.ndarray) -> float:
        x = x.tolist()
        values = [tree.predict_one(x) for tree in self.trees]
        if len(values) == 1:
            return values[0]
        # np.mean's pairwise sum and division, bit for bit, without its overhead
        return float(np.add.reduce(values)) / len(values)

    def check_task(self, env_id: str, workload_id: str, source: str) -> None:
        """Refuse, with a `ValueError` naming `source`, a task the model was not
        trained on: the env and the workload must both match."""
        if env_id != self.env_id:
            raise ValueError(f"model trained on env {self.env_id!r} does not fit "
                             f"env {env_id!r} of {source}")
        if workload_id != self.workload_id:
            raise ValueError(f"model trained on workload {self.workload_id!r} does not fit "
                             f"workload {workload_id!r} of {source}")

    def save(self, path) -> None:
        doc = {
            "format_version": 1,
            "env_id": self.env_id,
            "workload_id": self.workload_id,
            "target": self.target,
            "hyperparams": self.hyperparams,
            "seed": self.seed,
            "n_train": self.n_train,
            "train_range": [self.train_min, self.train_max],
            "feature_space": space_to_config(self.space),
            "trees": [t.to_v1() for t in self.trees],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "RandomForestModel":
        """Read a file `save` wrote; a malformed one raises `DataError`
        naming the file and the fault."""
        with reading(path) as text:
            doc = read_json(text, _MODEL_FIELDS, "model file")
            del doc["format_version"]
            space = space_from_config(doc.pop("feature_space"))
            doc["trees"] = [RegressionTree.from_v1(t, encode_dim(space), k)
                            for k, t in enumerate(doc["trees"])]
            doc["train_min"], doc["train_max"] = doc.pop("train_range")
            return cls(space=space, **doc)


@dataclass
class ProxyEvalReport:
    rmse: float
    normalized_rmse_percent: float
    n_train: int
    n_test: int
    provenance: dict


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
        rows.append(point_from_map(space, record.design))
        targets.append(record.observation[target])
    if not rows:
        raise ValueError(f"no records with metric {target!r}")
    return encode_batch(space, rows), np.asarray(targets)


def train_forest(
    dataset: Dataset,
    target: str,
    hyperparams: Mapping | None = None,
    seed: int = 0,
    space: ParameterSpace | None = None,
) -> RandomForestModel:
    """n_trees CART trees on independent bootstrap resamples (per-tree seeds
    derived from the master seed, so parallel and serial builds agree)."""
    if space is None:
        if dataset.env_id is None:
            raise ValueError("empty dataset and no explicit space")
        from .envs import get_space

        space = get_space(dataset.env_id)
    hp = {**DEFAULT_HYPERPARAMS, **(hyperparams or {})}
    unknown = set(hp) - set(DEFAULT_HYPERPARAMS)
    if unknown:
        raise ValueError(f"unknown proxy hyperparameters: {sorted(unknown)}")
    if not (whole_number(hp["n_trees"]) and hp["n_trees"] >= 1):
        raise ValueError("n_trees must be an int >= 1 that fits in int64, "
                         f"got {shown(hp['n_trees'])}")
    if type(hp["bootstrap"]) is not bool:
        raise ValueError(f"bootstrap must be of type bool, got {shown(hp['bootstrap'])}")
    check_seed(seed)  # a model file holds its seed as an int64
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
        env_id=dataset.env_id,
        train_min=float(np.min(y)),
        train_max=float(np.max(y)),
        n_train=len(y),
        workload_id=dataset.workload_id,
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
    target: str,
) -> tuple[dict, RandomForestModel, float]:
    """Uniform random search over SEARCH_GRID; returns the argmin-RMSE config."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    keys = sorted(SEARCH_GRID)
    best = None
    for _ in range(budget):
        hp = {k: SEARCH_GRID[k][int(rng.integers(0, len(SEARCH_GRID[k])))] for k in keys}
        model_seed = int(rng.integers(0, 2**63 - 1))
        model = train_forest(train, target, hp, seed=model_seed)
        rmse = evaluate_rmse(model, validation).rmse
        if best is None or rmse < best[2]:
            best = (hp, model, rmse)
    return best


@dataclass
class SpeedupReport:
    speedup: float
    env_seconds: float
    model_seconds: float
    n_queries: int


def speed_benchmark(model: RandomForestModel, env, points: np.ndarray) -> SpeedupReport:
    """Wall time of env steps vs model predictions on the same points, the
    rows of an (n, len(space)) grid-index array: one query per row."""
    if len(points) == 0:
        raise ValueError("speed_benchmark needs at least one point")
    steps = list(map(tuple, points.tolist()))
    t0 = time.perf_counter()
    for p in steps:
        env.step(p)
    env_seconds = time.perf_counter() - t0
    feats = encode_batch(model.space, points)
    t0 = time.perf_counter()
    for x in feats:
        model.predict_features(x)
    model_seconds = time.perf_counter() - t0
    return SpeedupReport(
        speedup=env_seconds / model_seconds if model_seconds > 0 else math.inf,
        env_seconds=env_seconds,
        model_seconds=model_seconds,
        n_queries=len(points),
    )
