"""The policy-gradient agent's analytic gradients against central differences."""

import numpy as np
import pytest

from dsegym.agents.reinforce import entropy_gradient, policy_gradient, policy_logprob, softmax

SIZES = (3, 5, 2)
EPS = 1e-6
TOL = 1e-6


def _entropy(logits):
    p = softmax(logits)
    return float(-np.sum(p * np.log(p)))


def _central_difference(f, logits):
    """d f / d logits[j][k] for every parameter j and choice k."""
    grads = [np.zeros_like(l) for l in logits]
    for j, l in enumerate(logits):
        for k in range(len(l)):
            up = [x.copy() for x in logits]
            down = [x.copy() for x in logits]
            up[j][k] += EPS
            down[j][k] -= EPS
            grads[j][k] = (f(up) - f(down)) / (2 * EPS)
    return grads


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_policy_gradient_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    logits = [rng.normal(size=n) for n in SIZES]
    choices = [tuple(int(rng.integers(n)) for n in SIZES) for _ in range(8)]
    advantages = rng.normal(size=len(choices))
    numeric = _central_difference(lambda ls: policy_logprob(ls, choices, advantages), logits)
    analytic = policy_gradient(logits, choices, advantages)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=0, atol=TOL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_entropy_gradient_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    for n in SIZES:
        logits = rng.normal(size=n)
        (numeric,) = _central_difference(lambda ls: _entropy(ls[0]), [logits])
        np.testing.assert_allclose(entropy_gradient(softmax(logits), [n]), numeric, rtol=0, atol=TOL)
