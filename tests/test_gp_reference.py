"""BO's numpy-only Gaussian process against the scipy posterior it replaced.

The reference below is the former `GaussianProcess.fit`/`predict`:
`cho_factor` with escalating jitter, then `cho_solve` for the weights and
for the cross-covariances.  scipy comes from the `test` extra; the package
itself does not import it.
"""

import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import erf

from dsegym.agents import bayesian
from dsegym.agents.bayesian import BayesOpt, GaussianProcess
from dsegym.envs import get_space, make_env
from dsegym.rng import make_rng

# Both solvers are backward stable, so on these problems (kernel condition
# numbers up to ~3e7) they agree to a few hundred ulps; the bounds leave a
# wide margin above the worst case seen (mean 1.3e-12, variance 6.5e-13).
MEAN_RTOL = 1e-9
VAR_ATOL = 1e-11


def reference_posterior(gp, X, y, Xq):
    """(jitter, mean, variance) as the scipy implementation computed them."""
    y_std = (y - float(np.mean(y))) / (float(np.std(y)) or 1.0)
    K = gp._kernel(X, X)
    jitter = gp.noise_var
    for _ in range(4):
        try:
            chol = cho_factor(K + jitter * np.eye(len(y)), lower=True)
            break
        except LinAlgError:
            jitter *= 10.0
    else:
        raise LinAlgError("kernel matrix singular even after jitter escalation")
    Ks = gp._kernel(Xq, X)
    mean = Ks @ cho_solve(chol, y_std)
    var = gp.signal_var - np.sum(Ks * cho_solve(chol, Ks.T).T, axis=1)
    return jitter, mean, np.maximum(var, 0.0)


def _problem(rng, duplicates):
    """Up to 96 points in [0, 1]^d (BO's window) with a smooth target; with
    `duplicates`, every row repeats one of n // 3 points, as a search that
    revisits designs of a deterministic cost model does."""
    n, d = int(rng.integers(1, 97)), int(rng.integers(1, 12))
    X = rng.random((n, d))
    if duplicates:
        X = X[rng.integers(0, max(1, n // 3), size=n)]
    y = np.sin(3.0 * X @ rng.normal(size=d))
    return X, y, rng.random((48, d))


@pytest.mark.parametrize("duplicates", [False, True], ids=["random", "duplicate-rows"])
def test_posterior_matches_the_scipy_reference(duplicates):
    rng = np.random.default_rng(11)
    for _ in range(150):
        X, y, Xq = _problem(rng, duplicates)
        gp = GaussianProcess(0.3).fit(X, y)
        mean, var = gp.predict(Xq)
        jitter, ref_mean, ref_var = reference_posterior(gp, X, y, Xq)
        assert gp.jitter == jitter
        assert np.max(np.abs(mean - ref_mean)) <= MEAN_RTOL * np.max(np.abs(ref_mean))
        assert np.max(np.abs(var - ref_var)) <= VAR_ATOL


def _clustered(n=40):
    """Points within 1e-3 of each other: K is numerically rank-deficient."""
    X = 1e-3 * np.random.default_rng(0).random((n, 3))
    return X, X @ np.array([1.0, -2.0, 0.5])


def test_jitter_escalates_as_the_reference_did():
    X, y = _clustered()
    gp = GaussianProcess(1.0, noise_var=1e-17).fit(X, y)
    mean, var = gp.predict(X)
    jitter, ref_mean, ref_var = reference_posterior(gp, X, y, X)
    assert gp.jitter == jitter == pytest.approx(1e-15)
    # the accepted matrix has a condition number near 1 / eps, so the means
    # agree only to that precision
    assert np.max(np.abs(mean - ref_mean)) <= 1e-4 * np.max(np.abs(ref_mean))
    assert np.max(np.abs(var - ref_var)) <= VAR_ATOL


def test_fit_gives_up_after_four_jitter_levels():
    X, y = _clustered()
    gp = GaussianProcess(1.0, noise_var=1e-20)
    with pytest.raises(LinAlgError):
        reference_posterior(gp, X, y, X)
    with pytest.raises(np.linalg.LinAlgError, match="even after jitter escalation"):
        gp.fit(X, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["X", "y"])
def test_fit_rejects_non_finite_data(where, bad):
    X, y = np.random.default_rng(0).random((5, 2)), np.arange(5.0)
    (X if where == "X" else y)[2] = bad
    with pytest.raises(ValueError, match="must be finite"):
        GaussianProcess(0.3).fit(X, y)


def test_norm_cdf_matches_scipy_erf():
    z = np.concatenate([np.linspace(-9.0, 9.0, 2001), [0.0, -40.0, 40.0, 1e-300]])
    expected = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
    np.testing.assert_allclose(bayesian._norm_cdf(z), expected, rtol=0, atol=2.3e-16)


class _ReferenceGP(GaussianProcess):
    """The scipy implementation, behind the interface `BayesOpt` calls."""

    def fit(self, X, y):
        self._fit = (np.asarray(X, dtype=float), np.asarray(y, dtype=float))
        self.y_mean = float(np.mean(y))
        self.y_std = float(np.std(y)) or 1.0
        return self

    def predict(self, Xq):
        return reference_posterior(self, *self._fit, Xq)[1:]


@pytest.mark.parametrize(
    "space", [("dram-small", "cloud-1", "low-latency"), ("accel-small", "large_cnn", "joint"),
              ("soc-small", "audio_decoder", "budget")],
    ids=lambda s: s[0],
)
def test_bayes_opt_proposes_what_the_scipy_posterior_did(space, monkeypatch):
    def proposals(seed):
        env, agent, rng = make_env(*space), BayesOpt(get_space(space[0])), make_rng(seed)
        out = []
        for _ in range(60):
            point = agent.propose(rng)
            agent.observe(point, env.step(point).reward)
            out.append(point)
        return out

    for seed in range(3):
        numpy_run = proposals(seed)
        with monkeypatch.context() as m:
            m.setattr(bayesian, "GaussianProcess", _ReferenceGP)
            assert proposals(seed) == numpy_run
