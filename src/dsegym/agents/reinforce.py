"""Score-function policy gradient over a factorized categorical policy.

One logit vector per parameter; proposals sample each parameter from its
softmax independently (one sample is one env step with no state to
condition on, so the policy is context-free).  Updates use batch
advantages against an exponential moving-average baseline, plus an
optional entropy bonus.
"""

from __future__ import annotations

import numpy as np

from ..spaces import DesignPoint
from .base import Agent


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits)
    e = np.exp(z)
    return e / np.sum(e)


def entropy_gradient(probs: np.ndarray) -> np.ndarray:
    """d/dlogits of H(softmax) = -p * (log p + H)."""
    logp = np.log(np.maximum(probs, 1e-300))
    h = -np.sum(probs * logp)
    return -probs * (logp + h)


def policy_logprob(logits: list[np.ndarray], choices: list[DesignPoint],
                   advantages: np.ndarray) -> float:
    """Objective sum_s A_s * log pi(point_s); the gradient check target."""
    total = 0.0
    for point, a in zip(choices, advantages):
        for j, k in enumerate(point):
            p = softmax(logits[j])
            total += a * np.log(p[k])
    return float(total)


def policy_gradient(logits: list[np.ndarray], choices: list[DesignPoint],
                    advantages: np.ndarray) -> list[np.ndarray]:
    """Analytic gradient of `policy_logprob` at the current logits."""
    probs = [softmax(l) for l in logits]
    grads = [np.zeros_like(l) for l in logits]
    for point, a in zip(choices, advantages):
        for j, k in enumerate(point):
            grads[j][k] += a
            grads[j] -= a * probs[j]
    return grads


class Reinforce(Agent):
    agent_type = "RL"
    DEFAULTS = {
        "learning_rate": 0.05,
        "entropy_weight": 0.01,
        "baseline_decay": 0.9,
        "batch_size": 16,
    }

    def __init__(self, space, hyperparams=None):
        super().__init__(space, hyperparams)
        hp = self._hyperparams
        if hp["learning_rate"] <= 0:
            raise ValueError(f"learning_rate must be positive, got {hp['learning_rate']}")
        if hp["entropy_weight"] < 0:
            raise ValueError(f"entropy_weight must be >= 0, got {hp['entropy_weight']}")
        if not 0.0 <= hp["baseline_decay"] < 1.0:
            raise ValueError(f"baseline_decay must lie in [0, 1), got {hp['baseline_decay']}")
        if hp["batch_size"] < 1:
            raise ValueError(f"batch_size must be >= 1, got {hp['batch_size']}")
        self.logits = [np.zeros(s) for s in space.sizes]
        self.baseline: float | None = None
        self._batch: list[tuple[DesignPoint, float]] = []
        self._tabulate()

    def probabilities(self) -> list[np.ndarray]:
        return [softmax(l) for l in self.logits]

    def _tabulate(self) -> None:
        """Cumulative softmax per parameter; the logits change only in `update`."""
        self._cum = [np.cumsum(p) for p in self.probabilities()]

    def propose(self, rng: np.random.Generator) -> DesignPoint:
        draws = rng.random(len(self._cum))
        return tuple(
            int(np.searchsorted(cum, u * cum[-1], side="right")) for cum, u in zip(self._cum, draws)
        )

    def _on_observe(self, point: DesignPoint, reward: float) -> None:
        self._batch.append((point, reward))
        if len(self._batch) >= self._hyperparams["batch_size"]:
            self.update(self._batch)
            self._batch = []

    def update(self, batch: list[tuple[DesignPoint, float]]) -> None:
        if not batch:
            raise ValueError("empty update batch")
        hp = self._hyperparams
        rewards = np.array([r for _, r in batch])
        mean = float(np.mean(rewards))
        if self.baseline is None:
            self.baseline = mean
        else:
            self.baseline = hp["baseline_decay"] * self.baseline + (
                1.0 - hp["baseline_decay"]
            ) * mean
        advantages = rewards - self.baseline
        grads = policy_gradient(self.logits, [p for p, _ in batch], advantages)
        lr = hp["learning_rate"]
        for j, grad in enumerate(grads):
            if hp["entropy_weight"] > 0:
                grad = grad + hp["entropy_weight"] * entropy_gradient(softmax(self.logits[j]))
            self.logits[j] += lr * grad
        self._tabulate()
