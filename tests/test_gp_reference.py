"""BO's numpy-only Gaussian process against the scipy posterior it replaced.

The reference below is a from-scratch scipy fit of the whole window:
`cho_factor` with escalating jitter, then `cho_solve` for the weights and
for the cross-covariances.  `GaussianProcess.fit` must match it, and so
must the posterior that `append` and `drop_oldest` keep up to date one
observation at a time.  scipy comes from the `test` extra; the package
itself does not import it.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import erf

from dsegym.agents import bayesian
from dsegym.agents.bayesian import BayesOpt, GaussianProcess, expected_improvement
from dsegym.envs import get_space, make_env
from dsegym.rng import make_rng
from dsegym.spaces import encode_batch, sample_uniform, sample_uniform_indices

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


def test_appending_escalates_jitter_as_a_fresh_fit_does():
    X, y = _clustered()
    gp = GaussianProcess(1.0, noise_var=1e-17)
    for i in range(len(y)):
        gp.append(X[i], y[i])
        fresh = GaussianProcess(1.0, noise_var=1e-17).fit(X[: i + 1], y[: i + 1])
        assert gp.jitter == fresh.jitter
    assert gp.jitter == pytest.approx(1e-15)
    mean, var = gp.predict(X)
    ref_mean, ref_var = reference_posterior(gp, X, y, X)[1:]
    assert np.max(np.abs(mean - ref_mean)) <= 1e-4 * np.max(np.abs(ref_mean))
    assert np.max(np.abs(var - ref_var)) <= VAR_ATOL


def test_jitter_falls_back_once_the_clustered_points_slide_out():
    X, y = _clustered()
    gp = GaussianProcess(1.0, noise_var=1e-17).fit(X, y)
    assert gp.jitter > gp.noise_var
    # points 5 length scales apart: their kernel matrix is the identity to
    # machine precision, so it factors at the smallest jitter
    spread = 5.0 * np.stack([np.arange(40.0), np.arange(40.0) % 3, np.zeros(40)], axis=1)
    X_all, y_all = np.vstack([X, spread]), np.concatenate([y, np.sin(np.arange(40.0))])
    for i in range(len(X), len(X_all)):
        gp.append(X_all[i], y_all[i]).drop_oldest()
        window = slice(i + 1 - len(X), i + 1)
        fresh = GaussianProcess(1.0, noise_var=1e-17).fit(X_all[window], y_all[window])
        assert gp.jitter == fresh.jitter
    assert gp.jitter == gp.noise_var


def test_the_window_is_never_empty():
    with pytest.raises(RuntimeError, match="predict before fit"):
        GaussianProcess(0.3).predict(np.zeros((1, 2)))
    gp = GaussianProcess(0.3).append(np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="at least one observation"):
        gp.drop_oldest()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["x", "y"])
def test_append_rejects_non_finite_data(where, bad):
    gp = GaussianProcess(0.3).append(np.zeros(2), 0.0)
    x, y = np.ones(2), 1.0
    if where == "x":
        x[1] = bad
    else:
        y = bad
    with pytest.raises(ValueError, match="must be finite"):
        gp.append(x, y)
    assert len(gp) == 1


def reference_propose(space, hp, observed, rewards, incumbent, rng):
    """BO's proposal with the window refitted by the scipy reference, as
    `BayesOpt.propose` did before it kept its posterior between steps."""
    if len(rewards) < hp["n_initial"]:
        return sample_uniform(space, rng)
    window = slice(-hp["max_train_points"], None)
    X, y = encode_batch(space, observed[window]), np.asarray(rewards[window])
    candidates = sample_uniform_indices(space, rng, hp["candidate_pool"])
    gp = GaussianProcess(hp["length_scale"], hp["signal_var"], hp["noise_var"])
    mean, var = reference_posterior(gp, X, y, encode_batch(space, candidates))[1:]
    incumbent = (incumbent - float(np.mean(y))) / (float(np.std(y)) or 1.0)
    ei = expected_improvement(mean, np.sqrt(var), incumbent, hp["xi"])
    return tuple(candidates[int(np.argmax(ei))].tolist())


@pytest.mark.parametrize(
    "task", [("dram-small", "cloud-1", "low-latency"), ("accel-small", "large_cnn", "joint"),
             ("soc-small", "audio_decoder", "budget")],
    ids=lambda t: t[0],
)
def test_bayes_opt_proposes_what_the_scipy_posterior_did(task):
    """The proposals, and the posterior after every observation, of the GP
    `BayesOpt` updates in place match a scipy refit of the same window:
    the default 96-point window, which 60 steps never fill, and a 10-point
    one, from which the GP drops its oldest point 50 times a trial."""
    space = get_space(task[0])
    probe = encode_batch(space, sample_uniform_indices(space, make_rng(99), 48))
    for window, seed in itertools.product([96, 10], range(3)):
        env, agent = make_env(*task), BayesOpt(space, {"max_train_points": window})
        hp = agent.hyperparams()
        rng, ref_rng = make_rng(seed), make_rng(seed)
        observed, rewards = [], []
        for _ in range(60):
            point = agent.propose(rng)
            best = agent.best_so_far()[1]
            assert point == reference_propose(space, hp, observed, rewards, best, ref_rng)
            reward = env.step(point).reward
            agent.observe(point, reward)
            observed.append(point)
            rewards.append(reward)
            gp = agent._gp
            X, y = encode_batch(space, observed[-window:]), np.asarray(rewards[-window:])
            jitter, ref_mean, ref_var = reference_posterior(gp, X, y, probe)
            mean, var = gp.predict(probe)
            assert len(gp) == len(y) and gp.jitter == jitter
            assert np.max(np.abs(mean - ref_mean)) <= MEAN_RTOL * np.max(np.abs(ref_mean))
            assert np.max(np.abs(var - ref_var)) <= VAR_ATOL
        # both streams consumed the same number of draws
        assert rng.integers(2**63) == ref_rng.integers(2**63)
