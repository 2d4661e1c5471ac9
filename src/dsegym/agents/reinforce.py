"""Score-function policy gradient over a factorized categorical policy.

One logit vector per parameter; proposals sample each parameter from its
softmax independently (one sample is one env step with no state to
condition on, so the policy is context-free).  Updates use batch
advantages against an exponential moving-average baseline, plus an
optional entropy bonus.

The logits of all parameters are the flat vector of a
`SamplingTableAgent`, and `logits` holds a view per parameter.  The
sampling weights are the softmaxes, which `update` reuses for its
gradient.  It accumulates the score-function gradient on the flat vector;
every element still sees the same additions in the same order as a
per-parameter loop, so the policy is bit-identical to it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from ..spaces import DesignPoint
from .base import SamplingTableAgent


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def entropy_gradient(probs: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """d/dlogits of H(softmax) = -p * (log p + H).

    `probs` holds the softmaxes of parameters of `sizes` choices end to end,
    and each part gets the gradient of its own entropy.
    """
    logp = np.log(np.maximum(probs, 1e-300))
    plogp = probs * logp
    # one pairwise sum per parameter, as on that parameter alone
    ends = np.cumsum(sizes).tolist()
    h = np.repeat([-plogp[e - s : e].sum() for e, s in zip(ends, sizes)], sizes)
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


def _flat_policy_gradient(probs: np.ndarray, offsets: np.ndarray,
                          choices: list[DesignPoint], advantages: np.ndarray) -> np.ndarray:
    """`policy_gradient` with every parameter's softmax laid end to end in
    `probs`, parameter j starting at `offsets[j]`.

    Element e of the gradient starts at 0 and, for each point s in turn,
    gains A_s if s chose e and then loses A_s * p_e.  Row 2s + 1 of `terms`
    holds the gains (-0.0, which leaves any sum unchanged, where s chose
    another value) and row 2s + 2 the losses.  Summed down the columns of a
    C-ordered array, the rows are added one at a time in order (numpy sums
    pairwise only along the contiguous axis), so each element gets the same
    terms in the same order as in that loop.
    """
    n = len(choices)
    advantages = np.asarray(advantages, dtype=float)
    rows = np.array(choices, dtype=np.intp).reshape(n, len(offsets)) + offsets
    terms = np.full((2 * n + 1, probs.size), -0.0)
    terms[0] = 0.0
    terms[2 * np.arange(n)[:, None] + 1, rows] = advantages[:, None]
    # x - y is x + (-y), and (-a) * p is -(a * p)
    np.multiply.outer(-advantages, probs, out=terms[2::2])
    return terms.sum(axis=0)


def policy_gradient(logits: list[np.ndarray], choices: list[DesignPoint],
                    advantages: np.ndarray) -> list[np.ndarray]:
    """Analytic gradient of `policy_logprob` at the current logits."""
    sizes = [len(l) for l in logits]
    bounds = np.cumsum(sizes)
    probs = np.concatenate([softmax(l) for l in logits])
    grad = _flat_policy_gradient(probs, bounds - sizes, choices, advantages)
    return np.split(grad, bounds[:-1])


class Reinforce(SamplingTableAgent):
    agent_type = "RL"
    DEFAULTS = {
        "learning_rate": 0.05,
        "entropy_weight": 0.01,
        "baseline_decay": 0.9,
        "batch_size": 16,
    }
    SWEEP_GRID = {"learning_rate": [0.01, 0.05, 0.2], "entropy_weight": [0, 0.01]}
    BATCH_KEY = "batch_size"

    def __init__(self, space, hyperparams=None):
        super().__init__(space, hyperparams, 0.0)
        hp = self._hyperparams
        self._require("learning_rate", hp["learning_rate"] > 0, "be positive")
        self._require("entropy_weight", hp["entropy_weight"] >= 0, "be >= 0")
        self._require("baseline_decay", 0.0 <= hp["baseline_decay"] < 1.0, "lie in [0, 1)")
        self._require("batch_size", hp["batch_size"] >= 1, "be >= 1")
        self.logits = self._views
        self.baseline: float | None = None

    def _weights(self) -> list[float]:
        # kept for `update`: the logits do not move until then
        self._probs = np.concatenate([softmax(l) for l in self._views])
        return self._probs.tolist()

    def propose(self, rng: np.random.Generator) -> DesignPoint:
        draws = rng.random(len(self._cum)).tolist()
        return tuple(bisect_right(cum, u * cum[-1]) for cum, u in zip(self._cum, draws))

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
        # the softmaxes of the last `_tabulate` are current: the logits have not moved
        grad = _flat_policy_gradient(self._probs, self._offsets, [p for p, _ in batch], advantages)
        if hp["entropy_weight"] > 0:
            grad += hp["entropy_weight"] * entropy_gradient(self._probs, self.space.sizes)
        self._flat += hp["learning_rate"] * grad
        self._tabulate()
