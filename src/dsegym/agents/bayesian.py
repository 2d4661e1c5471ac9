"""Bayesian optimization: exact GP surrogate + expected improvement.

The surrogate is a zero-mean Gaussian process with an RBF kernel over the
one-hot/min-max encoding of design points; rewards are standardized
internally.  The acquisition is Expected Improvement with exploration
offset xi, maximized over a uniform candidate pool (the space is a finite
grid, so no gradient ascent).  To keep per-step cost bounded on long
trials the GP trains on a sliding window of the most recent observations;
the incumbent is still tracked over the full history.

The GP needs numpy alone (Rasmussen & Williams, GPML, Alg. 2.1): `fit`
factors the kernel matrix with `np.linalg.cholesky`, adding jitter in
decades until it is positive definite, and `predict` makes one
`np.linalg.solve` against that factor for the targets and the
cross-covariances together (numpy has no triangular solve, so this is an
LU solve).  The normal CDF in EI uses `math.erf`.
"""

from __future__ import annotations

import math

import numpy as np

from ..spaces import DesignPoint, encode_batch, sample_uniform, sample_uniform_indices
from .base import Agent


_erf = np.frompyfunc(math.erf, 1, 1)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.asarray(_erf(z / math.sqrt(2.0)), dtype=float))


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, incumbent: float, xi: float = 0.0
) -> np.ndarray:
    """EI = (mu - best - xi) Phi(z) + sigma phi(z), z = (mu - best - xi)/sigma."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    gain = mean - incumbent - xi
    ei = np.where(gain > 0, gain, 0.0)
    active = std > 1e-12
    if np.any(active):
        z = gain[active] / std[active]
        ei = ei.copy()
        ei[active] = gain[active] * _norm_cdf(z) + std[active] * _norm_pdf(z)
    return np.maximum(ei, 0.0)


class GaussianProcess:
    """Exact GP regression with an RBF kernel and escalating jitter."""

    def __init__(self, length_scale: float, signal_var: float = 1.0, noise_var: float = 1e-6):
        if length_scale <= 0 or signal_var <= 0 or noise_var <= 0:
            raise ValueError("length_scale, signal_var and noise_var must be positive")
        self.length_scale = length_scale
        self.signal_var = signal_var
        self.noise_var = noise_var
        self._X: np.ndarray | None = None

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
        np.maximum(sq, 0.0, out=sq)
        return self.signal_var * np.exp(-sq / (2.0 * self.length_scale**2))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        if len(y) < 1:
            raise ValueError("need at least one observation")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("X and y must be finite")
        self.y_mean = float(np.mean(y))
        self.y_std = float(np.std(y)) or 1.0
        y_std = (y - self.y_mean) / self.y_std
        K = self._kernel(X, X)
        jitter = self.noise_var
        for _ in range(4):
            try:
                self._L = np.linalg.cholesky(K + jitter * np.eye(len(y)))
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        else:
            raise np.linalg.LinAlgError("kernel matrix singular even after jitter escalation")
        self.jitter = jitter
        self._y = y_std
        self._X = X
        return self

    def standardize(self, y: float) -> float:
        return (y - self.y_mean) / self.y_std

    def predict(self, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance on the standardized reward scale."""
        if self._X is None:
            raise RuntimeError("predict before fit")
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        Ks = self._kernel(Xq, self._X)
        # w = L^-1 [y, Ks^T]: mean = (L^-1 Ks^T)^T L^-1 y, var = k** - |L^-1 Ks^T|^2
        w = np.linalg.solve(self._L, np.column_stack([self._y, Ks.T]))
        mean = w[:, 1:].T @ w[:, 0]
        var = self.signal_var - np.sum(w[:, 1:] ** 2, axis=0)
        return mean, np.maximum(var, 0.0)


class BayesOpt(Agent):
    agent_type = "BO"
    DEFAULTS = {
        "length_scale": 0.3,
        "signal_var": 1.0,
        "noise_var": 1e-6,
        "xi": 0.01,
        "candidate_pool": 48,
        "n_initial": 8,
        "max_train_points": 96,
    }

    def __init__(self, space, hyperparams=None):
        super().__init__(space, hyperparams)
        hp = self._hyperparams
        if hp["xi"] < 0:
            raise ValueError(f"xi must be >= 0, got {hp['xi']}")
        if hp["candidate_pool"] < 1 or hp["n_initial"] < 1 or hp["max_train_points"] < 1:
            raise ValueError("candidate_pool, n_initial and max_train_points must be >= 1")
        self._observed: list[DesignPoint] = []  # encoded per fit
        self._rewards: list[float] = []

    def propose(self, rng: np.random.Generator) -> DesignPoint:
        hp = self._hyperparams
        if len(self._rewards) < hp["n_initial"]:
            return sample_uniform(self.space, rng)
        window = slice(-hp["max_train_points"], None)
        gp = GaussianProcess(hp["length_scale"], hp["signal_var"], hp["noise_var"])
        gp.fit(
            encode_batch(self.space, self._observed[window]), np.asarray(self._rewards[window])
        )
        candidates = sample_uniform_indices(self.space, rng, hp["candidate_pool"])
        mean, var = gp.predict(encode_batch(self.space, candidates))
        ei = expected_improvement(mean, np.sqrt(var), gp.standardize(self._best_reward), hp["xi"])
        return tuple(candidates[int(np.argmax(ei))].tolist())

    def _on_observe(self, point: DesignPoint, reward: float) -> None:
        self._observed.append(point)
        self._rewards.append(reward)
