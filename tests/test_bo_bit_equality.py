"""BO's fast paths give the floats of the plain numpy expressions, bit for bit.

`expected_improvement` skips its masks when every std is above 1e-12 and
calls `math.erf` over a list, and the GP computes its window's reward mean
and std once per window change from buffers.  Each is compared here with
`==` against the expression it replaces, so a change that moves a last bit
fails here before it moves a proposal.
"""

import math

import numpy as np
import pytest

from dsegym.agents.bayesian import GaussianProcess, _norm_cdf, expected_improvement

TINY = 1e-12
_erf = np.frompyfunc(math.erf, 1, 1)


def object_array_norm_cdf(z):
    return 0.5 * (1.0 + np.asarray(_erf(z / math.sqrt(2.0)), dtype=float))


def norm_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def masked_expected_improvement(mean, std, incumbent, xi=0.0):
    """EI with a mask for the sigma <= 1e-12 candidates on every call, and
    the normal CDF through a `frompyfunc` object array."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    gain = mean - incumbent - xi
    ei = np.where(gain > 0, gain, 0.0)
    active = std > 1e-12
    if np.any(active):
        z = gain[active] / std[active]
        ei = ei.copy()
        ei[active] = gain[active] * object_array_norm_cdf(z) + std[active] * norm_pdf(z)
    return np.maximum(ei, 0.0)


def test_norm_cdf_equals_the_object_array_expression():
    z = np.concatenate([np.linspace(-40.0, 40.0, 4001), [0.0, -0.0, 1e-300, -1e-300, 5e-324]])
    assert np.array_equal(_norm_cdf(z), object_array_norm_cdf(z))
    assert np.array_equal(_norm_cdf(z.reshape(2, -1)), object_array_norm_cdf(z.reshape(2, -1)))
    assert _norm_cdf(np.float64(0.3)) == object_array_norm_cdf(np.float64(0.3))


def _stds(rng, kind, n):
    tiny = [0.0, TINY, math.nextafter(TINY, 0.0), math.nextafter(TINY, 1.0)]
    if kind == "active":
        return rng.random(n) * 2.0 + math.nextafter(TINY, 1.0)
    if kind == "inactive":
        return rng.choice(tiny[:3], size=n)
    return np.where(rng.random(n) < 0.5, rng.choice(tiny, size=n), rng.random(n))


@pytest.mark.parametrize("kind", ["active", "mixed", "inactive"])
def test_expected_improvement_equals_the_masked_expression(kind):
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        # negative and positive gains, with ties among the means
        mean = rng.choice(rng.normal(size=max(1, n // 3)), size=n)
        std = _stds(rng, kind, n)
        incumbent, xi = float(rng.normal()), float(rng.choice([0.0, 0.01, 0.1]))
        got = expected_improvement(mean, std, incumbent, xi)
        want = masked_expected_improvement(mean, std, incumbent, xi)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_expected_improvement_at_the_threshold():
    mean = np.array([0.5, 0.5, 0.5, 0.5, -0.5, 0.2])
    std = np.array([0.0, TINY, math.nextafter(TINY, 0.0), math.nextafter(TINY, 1.0), 1.0, 0.3])
    got = expected_improvement(mean, std, 0.2)
    assert np.array_equal(got, masked_expected_improvement(mean, std, 0.2))
    # the inactive candidates score their gain; the tie scores sigma phi(0) > 0
    assert list(got[:3]) == [0.5 - 0.2] * 3 and got[5] > 0.0
    for m, s in zip(mean, std):  # scalars as well
        assert expected_improvement(m, s, 0.2) == masked_expected_improvement(m, s, 0.2)
    # one std at the threshold among active ones, with a gain of its size:
    # the sigma = 0 limit and the formula disagree there
    for tiny in (TINY, math.nextafter(TINY, 1.0)):
        mean, std = np.array([0.2 + 5e-13, 0.5]), np.array([tiny, 0.3])
        got = expected_improvement(mean, std, 0.2)
        assert np.array_equal(got, masked_expected_improvement(mean, std, 0.2))
    assert got[0] != 0.2 + 5e-13 - 0.2


def _assert_moments_match(gp, y):
    assert len(gp) == len(y)
    assert gp.y_mean == float(np.mean(y))
    assert gp.y_std == (float(np.std(y)) or 1.0)
    assert gp.standardize(0.25) == (0.25 - float(np.mean(y))) / (float(np.std(y)) or 1.0)


def test_window_moments_equal_np_mean_and_np_std():
    rng = np.random.default_rng(3)
    X = rng.random((300, 4))
    # ties, a constant stretch (std 0, so 1) and values far from the mean
    y = np.concatenate([rng.normal(size=100), np.full(40, 0.3), 1e6 + rng.normal(size=160)])
    gp = GaussianProcess(0.3)
    for i in range(len(y)):
        gp.append(X[i], y[i])
        if len(gp) > 24:
            gp.drop_oldest()
        _assert_moments_match(gp, y[max(0, i - 23) : i + 1])


def test_window_moments_follow_a_jitter_refit():
    # points 1e-3 apart need raised jitter, and the next drop refits
    X = 1e-3 * np.random.default_rng(0).random((40, 3))
    y = X @ np.array([1.0, -2.0, 0.5])
    gp = GaussianProcess(1.0, noise_var=1e-17)
    for i in range(len(y)):
        gp.append(X[i], y[i])
        _assert_moments_match(gp, y[: i + 1])
    assert gp.jitter > gp.noise_var
    gp.drop_oldest()
    _assert_moments_match(gp, y[1:])
    gp.fit(X[:7], y[:7])
    _assert_moments_match(gp, y[:7])


def _window(gp):
    return gp._Xbuf[gp._start : gp._end]


def test_a_window_that_cannot_be_factored_leaves_the_state_as_it_was():
    # points 1e-3 apart do not factor at any jitter from 1e-20 to 1e-17
    X = 1e-3 * np.random.default_rng(0).random((40, 3))
    y = X @ np.array([1.0, -2.0, 0.5])
    gp = GaussianProcess(1.0, noise_var=1e-20)
    with pytest.raises(np.linalg.LinAlgError):
        for i in range(len(y)):
            before = (len(gp), gp.jitter, gp._Linv.copy(), _window(gp).copy(), gp._y.copy())
            gp.append(X[i], y[i])
    assert len(gp) == before[0] and gp.jitter == before[1]
    for got, want in zip((gp._Linv, _window(gp), gp._y), before[2:]):
        assert np.array_equal(got, want)
    probe = np.random.default_rng(1).random((5, 3))
    mean, var = gp.predict(probe)
    with pytest.raises(np.linalg.LinAlgError):
        gp.fit(X, y)
    for got, want in zip(gp.predict(probe), (mean, var)):
        assert np.array_equal(got, want)
