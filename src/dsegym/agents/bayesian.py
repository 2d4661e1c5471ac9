"""Bayesian optimization: exact GP surrogate + expected improvement.

The surrogate is a zero-mean Gaussian process with an RBF kernel over the
one-hot/min-max encoding of design points; rewards are standardized
internally.  The acquisition is Expected Improvement with exploration
offset xi, maximized over a uniform candidate pool (the space is a finite
grid, so no gradient ascent).  To keep per-step cost bounded on long
trials the GP trains on a sliding window of the most recent observations;
the incumbent is still tracked over the full history.

The kernel's hyperparameters are fixed, so the GP is never refitted: it
keeps `Linv`, the inverse of the Cholesky factor of its window's kernel
matrix, and updates it in O(n^2) per observation.  A new point adds one
row (Rasmussen & Williams, GPML, Alg. 2.1, one row at a time); the oldest
point leaves through the closed-form factor of `I + p p^T` (Gill, Golub,
Murray & Saunders, "Methods for modifying matrix factorizations", 1974).
A prediction is then two matrix products; numpy has no triangular solve,
and none is needed.  Only when the window needs more jitter than
`noise_var`, or no longer needs the raised jitter, is it factored from
scratch with `np.linalg.cholesky`.  The normal CDF in EI uses `math.erf`.
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
    """Exact GP regression with an RBF kernel, updated one observation at a time.

    The state is the window's encoded points, their raw rewards and
    `Linv`, the inverse of the lower Cholesky factor of `K + jitter I`.
    `fit` builds it from scratch; `append` and `drop_oldest` update it in
    O(n^2) per observation; `predict` is two matrix products with it.
    `jitter` stays the smallest of `noise_var`, `10 noise_var`, ... at which
    the current window factors, as a fresh `fit` picks it.
    """

    def __init__(self, length_scale: float, signal_var: float = 1.0, noise_var: float = 1e-6):
        if length_scale <= 0 or signal_var <= 0 or noise_var <= 0:
            raise ValueError("length_scale, signal_var and noise_var must be positive")
        self.length_scale = length_scale
        self.signal_var = signal_var
        self.noise_var = noise_var
        self.jitter = noise_var
        self._X: np.ndarray | None = None
        self._y = np.empty(0)
        self._Linv = np.empty((0, 0))

    def __len__(self) -> int:
        return len(self._y)

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
        np.maximum(sq, 0.0, out=sq)
        return self.signal_var * np.exp(-sq / (2.0 * self.length_scale**2))

    def _set_window(self, X: np.ndarray, y: np.ndarray) -> None:
        self._X, self._y = X, y
        self.y_mean = float(np.mean(y))
        self.y_std = float(np.std(y)) or 1.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Replace the window and factor it from scratch, adding jitter in
        decades from `noise_var` until `K + jitter I` is positive definite."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        if len(y) < 1:
            raise ValueError("need at least one observation")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("X and y must be finite")
        K = self._kernel(X, X)
        jitter = self.noise_var
        for _ in range(4):
            try:
                L = np.linalg.cholesky(K + jitter * np.eye(len(y)))
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        else:
            raise np.linalg.LinAlgError("kernel matrix singular even after jitter escalation")
        self.jitter = jitter
        self._Linv = np.tril(np.linalg.inv(L))
        self._set_window(X, y)
        return self

    def append(self, x: np.ndarray, y: float) -> "GaussianProcess":
        """Add one observation at the end of the window.

        The factor gains the row `[l, d]`, with `l = Linv k(X, x)` and
        `d^2 = signal_var + jitter - l.l` (GPML Alg. 2.1, one row at a time),
        so `Linv` gains the row `[-(l Linv) / d, 1 / d]`.  If `d^2` is not
        positive, the window needs more jitter, and `fit` refits it.
        """
        x = np.asarray(x, dtype=float).reshape(1, -1)
        if not (np.isfinite(x).all() and math.isfinite(y)):
            raise ValueError("X and y must be finite")
        n = len(self._y)
        X = x if self._X is None else np.vstack([self._X, x])
        ys = np.append(self._y, y)
        l = self._Linv @ self._kernel(self._X, x)[:, 0] if n else np.empty(0)
        d2 = self.signal_var + self.jitter - l @ l
        if not d2 > 0.0:
            return self.fit(X, ys)
        d = math.sqrt(d2)
        Linv = np.zeros((n + 1, n + 1))
        Linv[:n, :n] = self._Linv
        Linv[n, :n] = (l @ self._Linv) / -d
        Linv[n, n] = 1.0 / d
        self._Linv = Linv
        self._set_window(X, ys)
        return self

    def drop_oldest(self) -> "GaussianProcess":
        """Remove the first observation of the window.

        With `p = -Linv[1:, 0] / Linv[0, 0]` and `A = Linv[1:, 1:]`, the rest
        of the kernel matrix is `A^-1 (I + p p^T) A^-T`, and the inverse
        Cholesky factor of `I + p p^T` has a closed form (Gill, Golub, Murray
        & Saunders, "Methods for modifying matrix factorizations", 1974).
        With `t_0 = 1` and `t_i = 1 + p_1^2 + ... + p_i^2`, row i of the new
        `Linv` is `sqrt(t_{i-1} / t_i) A_i - p_i / sqrt(t_i t_{i-1}) C_i`,
        where `C_i = p_1 A_1 + ... + p_{i-1} A_{i-1}`.  A raised jitter may
        have been needed only for the dropped point, so then it refits.
        """
        if len(self._y) < 2:
            raise ValueError("the window must keep at least one observation")
        X, y = self._X[1:], self._y[1:]
        if self.jitter > self.noise_var:
            return self.fit(X, y)
        p = self._Linv[1:, 0] / -self._Linv[0, 0]
        A = self._Linv[1:, 1:]
        t = np.concatenate([[1.0], 1.0 + np.cumsum(p * p)])
        pA = p[:, None] * A
        C = np.zeros_like(A)
        np.cumsum(pA[:-1], axis=0, out=C[1:])
        u = p / np.sqrt(t[1:] * t[:-1])
        self._Linv = np.sqrt(t[:-1] / t[1:])[:, None] * A - u[:, None] * C
        self._set_window(X, y)
        return self

    def standardize(self, y: float) -> float:
        return (y - self.y_mean) / self.y_std

    def predict(self, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance on the standardized reward scale:
        with `A = Linv Ks^T`, mean `A^T (Linv y)` and variance
        `signal_var - sum(A^2)` per column."""
        if self._X is None:
            raise RuntimeError("predict before fit")
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        A = self._Linv @ self._kernel(self._X, Xq)
        mean = A.T @ (self._Linv @ ((self._y - self.y_mean) / self.y_std))
        var = self.signal_var - np.sum(A * A, axis=0)
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
    SWEEP_GRID = {"length_scale": [0.1, 0.3, 1.0], "xi": [0, 0.01, 0.1]}

    def __init__(self, space, hyperparams=None):
        super().__init__(space, hyperparams)
        hp = self._hyperparams
        self._require("xi", hp["xi"] >= 0, "be >= 0")
        if hp["candidate_pool"] < 1 or hp["n_initial"] < 1 or hp["max_train_points"] < 1:
            raise ValueError("candidate_pool, n_initial and max_train_points must be >= 1")
        self._gp = GaussianProcess(hp["length_scale"], hp["signal_var"], hp["noise_var"])
        self._n_observed = 0
        # the last point proposed from the candidate pool, and its encoded row
        self._proposed: tuple[DesignPoint | None, np.ndarray | None] = (None, None)

    def propose(self, rng: np.random.Generator) -> DesignPoint:
        hp = self._hyperparams
        if self._n_observed < hp["n_initial"]:
            return sample_uniform(self.space, rng)
        candidates = sample_uniform_indices(self.space, rng, hp["candidate_pool"])
        encoded = encode_batch(self.space, candidates)
        mean, var = self._gp.predict(encoded)
        ei = expected_improvement(
            mean, np.sqrt(var), self._gp.standardize(self._best_reward), hp["xi"]
        )
        best = int(np.argmax(ei))
        point = tuple(candidates[best].tolist())
        self._proposed = (point, encoded[best])
        return point

    def _on_observe(self, point: DesignPoint, reward: float) -> None:
        proposed, row = self._proposed
        if point != proposed:  # a uniform initial point, or one this agent did not propose
            row = encode_batch(self.space, [point])[0]
        self._gp.append(row, reward)
        if len(self._gp) > self._hyperparams["max_train_points"]:
            self._gp.drop_oldest()
        self._n_observed += 1
