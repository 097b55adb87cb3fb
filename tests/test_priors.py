import math

import numpy as np
import pytest

import yulesimon as ys
from yulesimon import GridPrior, JeffreysPrior, SeriesControl

TIGHT = SeriesControl(rel_tol=1e-12)

# Dense 1e6-point midpoint rule with the alpha = 1-u^2 endpoint substitution,
# series tolerance 1e-10 (one-off oracle run, frozen):
K_MIDPOINT_ORACLE = 1.8913857052347882

# KL(0.5 || 0.6) by brute-force summation to k = 1e7 (tail < 1e-12 there):
KL_05_06_BRUTE = 0.010397540660891

# Loss-based M=10 masses from a brute-force KL matrix (every pair summed to
# k = 1e7); agreement tolerance covers the brute matrix's own truncation.
LOSS10_BRUTE_MASSES = np.array(
    [
        0.046367687766819855,
        0.042513510850684409,
        0.0505828818577738,
        0.061243672200048255,
        0.075829879402758288,
        0.096781013505871219,
        0.12915113037899212,
        0.1856648678812059,
        0.31186535615584621,
    ]
)


class TestFisherInformation:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_brute_force_oracle(self, alpha):
        closed = ys.fisher_information(alpha, TIGHT)
        oracle = ys.fisher_information_oracle(alpha, k_max=1_000_000)
        assert abs(closed - oracle.value) / closed < 1e-6
        # truncation bound plus an allowance for float summation noise
        assert abs(closed - oracle.value) <= oracle.error_bound * 1.5 + 1e-10 * closed

    def test_oracle_second_expectation_matches_series(self):
        # E_alpha[sum 1/(c+1+j)^2] = (1-alpha)^2/(2-alpha)^2 * 3F2
        for alpha in (0.3, 0.7):
            oracle = ys.fisher_information_oracle(alpha, k_max=1_000_000)
            c = 1.0 / (1.0 - alpha)
            series = ys.hyp3f2_unit(c + 1.0, c + 2.0, TIGHT)
            expected = (1.0 - alpha) ** 2 / (2.0 - alpha) ** 2 * series
            assert abs(oracle.second_expectation - expected) / expected < 1e-6

    def test_strictly_positive_on_dense_grid(self):
        ctrl = SeriesControl(rel_tol=1e-10)
        for alpha in np.linspace(0.001, 0.999, 120):
            assert ys.fisher_information(float(alpha), ctrl) > 0.0

    def test_oracle_rejects_small_k_max(self):
        with pytest.raises(ValueError):
            ys.fisher_information_oracle(0.5, k_max=10)

    @pytest.mark.parametrize("fn", [ys.fisher_information, ys.jeffreys_log_unnormalized])
    def test_series_cap_raises_with_estimate(self, fn):
        with pytest.raises(ys.SeriesConvergenceError) as err:
            fn(0.08, SeriesControl(max_terms=100))
        assert err.value.estimate is not None
        assert err.value.error_bound > 0.0


class TestJeffreys:
    def test_q_is_sqrt_fisher(self):
        for alpha in (0.2, 0.5, 0.8):
            q = ys.jeffreys_unnormalized(alpha, TIGHT)
            assert q == pytest.approx(
                math.sqrt(ys.fisher_information(alpha, TIGHT)), rel=1e-10
            )
            assert ys.jeffreys_log_unnormalized(alpha, TIGHT) == pytest.approx(
                math.log(q), rel=1e-12
            )

    def test_pointwise_properness_bound(self):
        # q(alpha) <= sqrt((3-alpha)/(1-alpha))/(2-alpha), the bound behind
        # the normalizer's upper limit
        ctrl = SeriesControl(rel_tol=1e-10)
        for alpha in np.linspace(0.005, 0.995, 150):
            bound = math.sqrt((3.0 - alpha) / (1.0 - alpha)) / (2.0 - alpha)
            assert ys.jeffreys_unnormalized(float(alpha), ctrl) <= bound * (1 + 1e-9)

    def test_rising_shape(self):
        ctrl = SeriesControl(rel_tol=1e-10)
        assert ys.jeffreys_unnormalized(0.9, ctrl) > ys.jeffreys_unnormalized(0.1, ctrl)

    def test_normalizer_properness(self):
        k = ys.jeffreys_normalizer()
        assert 0.0 < k <= 2.364157

    def test_normalizer_matches_midpoint_oracle(self):
        assert ys.jeffreys_normalizer() == pytest.approx(K_MIDPOINT_ORACLE, abs=1e-6)

    def test_normalizer_cached_on_prior(self):
        prior = JeffreysPrior()
        first = prior.normalizer()
        assert prior.normalizer() is not None
        assert prior.normalizer() == first
        assert prior.density(0.5) == pytest.approx(
            prior.unnormalized(0.5) / first, rel=1e-14
        )


class TestKlDivergence:
    def test_identity_of_indiscernibles(self):
        assert ys.kl_divergence(0.5, 0.5) == 0.0

    def test_brute_force_golden(self):
        assert ys.kl_divergence(0.5, 0.6) == pytest.approx(KL_05_06_BRUTE, abs=1e-9)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(100):
            a, b = rng.uniform(0.02, 0.98, size=2)
            assert ys.kl_divergence(float(a), float(b)) >= 0.0

    def test_asymmetry_is_real(self):
        assert ys.kl_divergence(0.1, 0.4) != ys.kl_divergence(0.4, 0.1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ys.kl_divergence(0.0, 0.5)
        with pytest.raises(ValueError):
            ys.kl_divergence(0.5, 1.0)


class TestLossBasedPrior:
    def test_m10_brute_force_golden(self, loss_prior_10):
        np.testing.assert_allclose(
            loss_prior_10.masses, LOSS10_BRUTE_MASSES, rtol=5e-5
        )

    @pytest.mark.parametrize("m", [10, 20, 100])
    def test_shape_and_mass(self, m):
        prior = ys.loss_based_prior(m)
        assert prior.m == m
        assert len(prior.support) == m - 1
        np.testing.assert_allclose(prior.support, np.arange(1, m) / m, rtol=0, atol=0)
        assert abs(prior.masses.sum() - 1.0) <= 1e-12
        assert (prior.masses > 0.0).all()
        # Figure-1 shape: mass rises with alpha
        i01 = int(np.argmin(np.abs(prior.support - 0.1)))
        i09 = int(np.argmin(np.abs(prior.support - 0.9)))
        assert prior.masses[i09] > prior.masses[i01]

    def test_deterministic_bit_identical(self):
        a = ys.loss_based_prior(20)
        b = ys.loss_based_prior(20)
        assert np.array_equal(a.masses, b.masses)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            ys.loss_based_prior(2)


class TestGridPrior:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridPrior(3, np.array([0.25, 0.75]), np.array([0.7, 0.2]))  # sum != 1
        with pytest.raises(ValueError):
            GridPrior(3, np.array([0.75, 0.25]), np.array([0.5, 0.5]))  # not increasing
        with pytest.raises(ValueError):
            GridPrior(3, np.array([0.0, 0.5]), np.array([0.5, 0.5]))  # boundary
        prior = GridPrior(3, np.array([1 / 3, 2 / 3]), np.array([0.25, 0.75]))
        assert prior.m == 3
