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

On the small spaces a step costs numpy's per-call overhead more than
arithmetic, so the GP saves calls, and never a change to a float, since
one last bit can move a proposal:

- the window's points, rewards and squared norms live in preallocated
  buffers with headroom, and `Linv` in the top-left block of a square one;
  the window is a slice of them in observation order, and a window that
  reaches the end of its buffers moves into new ones.  A ring that wraps
  would reorder the rows, and with them the sums in every matrix product;
- a point's squared norm is computed once, when it joins the window, so a
  kernel against the window computes norms only for its query rows, and
  it builds the kernel in place;
- the window's reward mean and standard deviation are computed on first
  use after the window changes, with the reductions `np.mean` and
  `np.std` make (sum / n, then the square root of the mean squared
  deviation).  Running sums would round differently;
- EI skips its sigma = 0 masks when no candidate needs them.
"""

from __future__ import annotations

import math

import numpy as np

from ..spaces import DesignPoint, encode_batch, sample_uniform, sample_uniform_indices
from .base import Agent

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    cdf = np.fromiter(map(math.erf, (z / _SQRT_2).ravel().tolist()), float, z.size)
    cdf += 1.0
    cdf *= 0.5
    return cdf.reshape(z.shape)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, incumbent: float, xi: float = 0.0
) -> np.ndarray:
    """EI = (mu - best - xi) Phi(z) + sigma phi(z), z = (mu - best - xi)/sigma.

    A candidate with sigma <= 1e-12 has EI max(mu - best - xi, 0)."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    gain = mean - incumbent - xi
    if std.size and std.min() > 1e-12:  # the usual case: no candidate needs sigma = 0
        z = gain / std
        ei = _norm_cdf(z)
        ei *= gain
        pdf = _norm_pdf(z)
        pdf *= std
        ei += pdf
    else:
        ei = np.where(gain > 0, gain, 0.0)
        active = std > 1e-12
        if np.any(active):
            z = gain[active] / std[active]
            ei[active] = gain[active] * _norm_cdf(z) + std[active] * _norm_pdf(z)
    return np.maximum(ei, 0.0)


class GaussianProcess:
    """Exact GP regression with an RBF kernel, updated one observation at a time.

    The state is the window's encoded points, their raw rewards and squared
    norms, and `Linv`, the inverse of the lower Cholesky factor of
    `K + jitter I`.  `fit` builds it from scratch; `append` and
    `drop_oldest` update it in O(n^2) per observation; `predict` is two
    matrix products with it.  `jitter` stays the smallest of `noise_var`,
    `10 noise_var`, ... at which the current window factors, as a fresh
    `fit` picks it.  A call that raises leaves the state as it was.
    """

    def __init__(self, length_scale: float, signal_var: float = 1.0, noise_var: float = 1e-6):
        if length_scale <= 0 or signal_var <= 0 or noise_var <= 0:
            raise ValueError("length_scale, signal_var and noise_var must be positive")
        self.length_scale = length_scale
        self.signal_var = signal_var
        self.noise_var = noise_var
        self.jitter = noise_var
        # -sq / (2 l^2) == sq / -(2 l^2) bit for bit; a reciprocal multiply is not
        self._neg_two_l2 = -(2.0 * length_scale**2)
        # The window is rows [_start, _end) of the point, reward and norm
        # buffers, and its Linv the top-left block of _Lbuf, which is zero
        # above the diagonal.
        self._Xbuf = np.empty((0, 0))
        self._ybuf = np.empty(0)
        self._sqbuf = np.empty(0)
        self._Lbuf = np.empty((0, 0))
        self._start = self._end = 0
        self._moments: tuple[float, float, np.ndarray] | None = None

    def __len__(self) -> int:
        return self._end - self._start

    @property
    def _y(self) -> np.ndarray:
        return self._ybuf[self._start : self._end]

    @property
    def _Linv(self) -> np.ndarray:
        n = len(self)
        return self._Lbuf[:n, :n]

    def _kernel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        a_sq: np.ndarray | None = None,
        b_sq: np.ndarray | None = None,
    ) -> np.ndarray:
        """k(a, b); `a_sq` and `b_sq` are the rows' squared norms,
        `np.sum(a * a, axis=1)`, when the caller has them."""
        if a_sq is None:
            a_sq = np.add.reduce(a * a, axis=1)
        if b_sq is None:
            b_sq = np.add.reduce(b * b, axis=1)
        ab = a @ b.T
        ab *= -2.0
        sq = a_sq[:, None] + b_sq
        sq += ab  # s + (-2 ab) == s - 2 ab bit for bit
        np.maximum(sq, 0.0, out=sq)
        sq /= self._neg_two_l2
        np.exp(sq, out=sq)
        sq *= self.signal_var
        return sq

    def _factor(self, X: np.ndarray, X_sq: np.ndarray) -> tuple[float, np.ndarray]:
        """The jitter and Linv of window `X` from scratch, adding jitter in
        decades from `noise_var` until `K + jitter I` is positive definite."""
        K = self._kernel(X, X, X_sq, X_sq)
        jitter = self.noise_var
        for _ in range(4):
            try:
                L = np.linalg.cholesky(K + jitter * np.eye(len(X)))
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        else:
            raise np.linalg.LinAlgError("kernel matrix singular even after jitter escalation")
        return jitter, np.tril(np.linalg.inv(L))

    def _load(self, X: np.ndarray, y: np.ndarray, X_sq: np.ndarray, Linv: np.ndarray) -> None:
        """Make a window of new buffers with as much room again after it."""
        n = len(y)
        cap = max(16, 2 * n)
        self._Xbuf = np.empty((cap, X.shape[1]))
        self._ybuf = np.empty(cap)
        self._sqbuf = np.empty(cap)
        self._Lbuf = np.zeros((cap, cap))
        self._Xbuf[:n], self._ybuf[:n], self._sqbuf[:n], self._Lbuf[:n, :n] = X, y, X_sq, Linv
        self._start, self._end = 0, n
        self._moments = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Replace the window and factor it from scratch, adding jitter in
        decades from `noise_var` until `K + jitter I` is positive definite."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        if len(y) < 1:
            raise ValueError("need at least one observation")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("X and y must be finite")
        X_sq = np.add.reduce(X * X, axis=1)
        jitter, Linv = self._factor(X, X_sq)
        self._load(X, y, X_sq, Linv)
        self.jitter = jitter
        return self

    def append(self, x: np.ndarray, y: float) -> "GaussianProcess":
        """Add one observation at the end of the window.

        The factor gains the row `[l, d]`, with `l = Linv k(X, x)` and
        `d^2 = signal_var + jitter - l.l` (GPML Alg. 2.1, one row at a time),
        so `Linv` gains the row `[-(l Linv) / d, 1 / d]`.  If `d^2` is not
        positive, the window needs more jitter, and it is factored afresh.
        """
        x = np.asarray(x, dtype=float).reshape(1, -1)
        if not (np.isfinite(x).all() and math.isfinite(y)):
            raise ValueError("X and y must be finite")
        start, end = self._start, self._end
        n, Linv = end - start, self._Lbuf[: end - start, : end - start]
        x_sq = np.add.reduce(x * x, axis=1)
        if n:
            X, X_sq = self._Xbuf[start:end], self._sqbuf[start:end]
            l = Linv @ self._kernel(X, x, X_sq, x_sq)[:, 0]
        else:
            X, X_sq, l = x[:0], x_sq[:0], np.empty(0)
        if end == len(self._ybuf):  # no room after the window
            self._load(X, self._ybuf[start:end], X_sq, Linv)
            start, end, Linv = 0, n, self._Lbuf[:n, :n]
        # the row joins the window only once its factor is in place
        self._Xbuf[end], self._ybuf[end], self._sqbuf[end] = x[0], y, x_sq[0]
        d2 = self.signal_var + self.jitter - l.dot(l)
        if d2 > 0.0:
            d = math.sqrt(d2)
            row = self._Lbuf[n]
            np.divide(l @ Linv, -d, out=row[:n])
            row[n] = 1.0 / d
        else:
            X, X_sq = self._Xbuf[start : end + 1], self._sqbuf[start : end + 1]
            self.jitter, self._Lbuf[: n + 1, : n + 1] = self._factor(X, X_sq)
        self._end = end + 1
        self._moments = None
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
        have been needed only for the dropped point, so then it refactors.
        """
        n = len(self)
        if n < 2:
            raise ValueError("the window must keep at least one observation")
        if self.jitter > self.noise_var:
            start, end = self._start + 1, self._end
            X, X_sq = self._Xbuf[start:end], self._sqbuf[start:end]
            self.jitter, self._Lbuf[: n - 1, : n - 1] = self._factor(X, X_sq)
        else:
            Linv = self._Linv
            p = Linv[1:, 0] / -Linv[0, 0]
            A = Linv[1:, 1:]
            t = np.concatenate([[1.0], 1.0 + np.cumsum(p * p)])
            pA = p[:, None] * A
            C = np.zeros_like(A)
            np.cumsum(pA[:-1], axis=0, out=C[1:])
            u = p / np.sqrt(t[1:] * t[:-1])
            self._Lbuf[: n - 1, : n - 1] = np.sqrt(t[:-1] / t[1:])[:, None] * A - u[:, None] * C
        self._start += 1
        self._moments = None
        return self

    def _window_moments(self) -> tuple[float, float, np.ndarray]:
        """The window's reward mean and std (1 when 0), with the reductions
        of np.mean and np.std, and its standardized rewards; computed once
        per window."""
        if self._moments is None:
            y, n = self._y, len(self)
            mean = float(np.add.reduce(y)) / n
            dev = y - mean
            std = math.sqrt(float(np.add.reduce(dev * dev)) / n) or 1.0
            dev /= std
            self._moments = (mean, std, dev)
        return self._moments

    @property
    def y_mean(self) -> float:
        return self._window_moments()[0]

    @property
    def y_std(self) -> float:
        return self._window_moments()[1]

    def standardize(self, y: float) -> float:
        mean, std, _ = self._window_moments()
        return (y - mean) / std

    def predict(self, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance on the standardized reward scale:
        with `A = Linv Ks^T`, mean `A^T (Linv y)` and variance
        `signal_var - sum(A^2)` per column."""
        if not len(self):
            raise RuntimeError("predict before fit")
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        start, end = self._start, self._end
        Linv = self._Lbuf[: end - start, : end - start]
        A = Linv @ self._kernel(self._Xbuf[start:end], Xq, self._sqbuf[start:end])
        mean = A.T @ (Linv @ self._window_moments()[2])
        A *= A
        var = np.add.reduce(A, axis=0)
        np.subtract(self.signal_var, var, out=var)
        return mean, np.maximum(var, 0.0, out=var)


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
        for key in ("candidate_pool", "n_initial", "max_train_points"):
            self._require(key, hp[key] >= 1, "be >= 1")
        self._gp = GaussianProcess(hp["length_scale"], hp["signal_var"], hp["noise_var"])
        self._n_observed = 0
        # the last point proposed from the candidate pool, and its encoding as a (1, d) row
        self._proposed: tuple[DesignPoint | None, np.ndarray | None] = (None, None)

    def propose(self, rng: np.random.Generator) -> DesignPoint:
        hp = self._hyperparams
        if self._n_observed < hp["n_initial"]:
            return sample_uniform(self.space, rng)
        candidates = sample_uniform_indices(self.space, rng, hp["candidate_pool"])
        encoded = encode_batch(self.space, candidates)
        mean, var = self._gp.predict(encoded)
        std = np.sqrt(var, out=var)
        ei = expected_improvement(mean, std, self._gp.standardize(self._best_reward), hp["xi"])
        best = int(ei.argmax())
        point = tuple(candidates[best].tolist())
        self._proposed = (point, encoded[best : best + 1])
        return point

    def _on_observe(self, point: DesignPoint, reward: float) -> None:
        proposed, row = self._proposed
        if point != proposed:  # a uniform initial point, or one this agent did not propose
            row = encode_batch(self.space, [point])
        self._gp.append(row, reward)
        if len(self._gp) > self._hyperparams["max_train_points"]:
            self._gp.drop_oldest()
        self._n_observed += 1
