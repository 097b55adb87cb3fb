"""The benchmark's Geyer ESS/MCSE estimator on series with known answers."""

import math

import numpy as np
import pytest

from perfbench.ess import autocovariance, geyer_ess


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / math.sqrt(1.0 - phi * phi)  # start in the stationary law
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


@pytest.mark.parametrize("phi", [0.5, 0.9])
def test_ar1_ess_matches_theory(phi):
    # Integrated autocorrelation time of AR(1) is (1 + phi) / (1 - phi).
    n = 200_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    estimates = [geyer_ess(ar1(phi, n, seed)).ess for seed in range(3)]
    assert np.mean(estimates) == pytest.approx(expected, rel=0.05)


def test_ar1_mcse_matches_theory():
    phi, n = 0.9, 200_000
    # Var(mean) = sigma_x^2 tau / n with sigma_x^2 = 1 / (1 - phi^2).
    expected = math.sqrt((1.0 / (1.0 - phi * phi)) * (1.0 + phi) / (1.0 - phi) / n)
    assert geyer_ess(ar1(phi, n, 7)).mcse == pytest.approx(expected, rel=0.05)


def test_iid_ess_is_about_n():
    n = 100_000
    x = np.random.default_rng(3).standard_normal(n)
    est = geyer_ess(x)
    assert est.ess == pytest.approx(n, rel=0.05)
    assert est.mcse == pytest.approx(1.0 / math.sqrt(n), rel=0.05)


def test_autocovariance_matches_direct_sum():
    x = np.random.default_rng(5).standard_normal(50)
    c = x - x.mean()
    direct = [float(np.dot(c[: len(c) - k], c[k:]) / len(c)) for k in range(len(c))]
    assert np.allclose(autocovariance(x), direct, atol=1e-12)


def test_constant_chain_has_no_error():
    est = geyer_ess(np.full(100, 0.25))
    assert est.ess == 1.0 and est.mcse == 0.0


def test_too_short_chain_is_refused():
    with pytest.raises(ValueError):
        geyer_ess([0.1, 0.2, 0.3])
