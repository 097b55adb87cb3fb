import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chisquare

import yulesimon as ys
from yulesimon import FrequencySample, YuleSimonModel

# mpmath goldens (40 digits)
LOG_PMF_SMITH = -44.509450086756638711  # ln f(2502021; 0.53), Smith-scale count
HITS_LOGLIK_0P1 = -49.673379665314176936  # embedded hits sample at alpha = 0.1
SURVIVAL_10_0P7 = 0.0030093613135658477
LOG_PMF_0P3 = {  # ln f(k; 0.3) at surname-scale k, 0.3 as its binary value
    10**6: -32.959558099646819790986820,
    10**7: -38.551548907123259183256840,
    10**8: -44.143541119700646424195510,
}


def pmf_vector(alpha: float, k_max: int) -> np.ndarray:
    k = np.arange(1, k_max + 1, dtype=np.float64)
    c = 1.0 / (1.0 - alpha)
    return c * np.exp(gammaln(k) + gammaln(c + 1.0) - gammaln(k + c + 1.0))


class TestModelTypes:
    def test_rho_alpha_map(self):
        model = YuleSimonModel(alpha=0.5)
        assert model.rho == pytest.approx(2.0, rel=1e-15)
        assert model.mean == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            YuleSimonModel(alpha=alpha)

    def test_frequency_sample_validation(self):
        sample = FrequencySample(((1, 3), (5, 2)))
        assert sample.n == 5
        with pytest.raises(ValueError):
            FrequencySample(((1, 1), (1, 2)))  # duplicate value
        with pytest.raises(ValueError):
            FrequencySample(((0, 1),))
        with pytest.raises(ValueError):
            FrequencySample(((2, 0),))
        with pytest.raises(ValueError):
            FrequencySample(())

    def test_from_observations_groups(self):
        sample = FrequencySample.from_observations([3, 1, 1, 3, 7])
        assert sample.entries == ((1, 2), (3, 2), (7, 1))
        assert sample.n == 5


class TestLogPmf:
    def test_k1_alpha_half(self):
        assert ys.log_pmf(1, 0.5) == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)

    def test_k3_alpha_half(self):
        # c = 2 gives f(k) = 4/(k(k+1)(k+2))
        assert ys.log_pmf(3, 0.5) == pytest.approx(math.log(1.0 / 15.0), abs=1e-12)

    def test_surname_scale_golden(self):
        assert ys.log_pmf(2_502_021, 0.53) == pytest.approx(LOG_PMF_SMITH, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ys.log_pmf(0, 0.5)
        with pytest.raises(ValueError):
            ys.log_pmf(1, 1.0)

    def test_monotone_decreasing_in_k(self):
        for alpha in (0.1, 0.5, 0.9):
            values = [ys.log_pmf(k, alpha) for k in range(1, 200)]
            assert np.all(np.diff(values) < 0.0)


class TestSurvival:
    def test_total_mass(self):
        assert ys.survival(1, 0.3) == 1.0

    def test_j2_alpha_half(self):
        assert ys.survival(2, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_brute_force_golden(self):
        assert ys.survival(10, 0.7) == pytest.approx(SURVIVAL_10_0P7, rel=1e-12, abs=0)

    def test_matches_brute_force_summation(self):
        # sum of pmf from j to 1e7; the remaining analytic tail is below 1e-9
        for alpha in (0.3, 0.5, 0.8):
            p = pmf_vector(alpha, 10_000_000)
            suffix = np.cumsum(p[::-1])[::-1]
            for j in (1, 2, 5, 10, 25, 50):
                assert ys.survival(j, alpha) == pytest.approx(
                    float(suffix[j - 1]), abs=1e-8
                )

    def test_survival_difference_is_pmf(self):
        for alpha in (0.2, 0.5, 0.9):
            for j in (1, 2, 7, 40):
                diff = ys.survival(j, alpha) - ys.survival(j + 1, alpha)
                assert diff == pytest.approx(ys.pmf(j, alpha), abs=1e-12)

    def test_near_one_matches_mpmath(self):
        # P(K >= j) = c B(j, c) falls to 1/(c+1) at j = 2 as alpha -> 1.  For
        # small j, ln S is a sum of j - 1 logs that do not cancel, so S keeps
        # its relative accuracy to a few eps |ln S| at every alpha; a
        # difference of ln Gamma(c + 1) and a gammaln ratio loses c ln(c) eps.
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            for x in np.linspace(0.0, 36.0, 145).tolist():
                alpha = 1.0 / (1.0 + math.exp(-x))
                c = mpmath.mpf(1.0 / (1.0 - alpha))
                for j in (2, 3, 10):
                    exact = c * mpmath.beta(j, c)
                    rel = 16.0 * eps * max(1.0, abs(float(mpmath.log(exact))))
                    assert ys.survival(j, alpha) == pytest.approx(float(exact), rel=rel, abs=0), (x, j)

    def test_normalization(self):
        # pmf mass up to 1e4 plus the analytic remainder telescopes to 1
        for alpha in np.arange(0.1, 0.95, 0.1):
            total = pmf_vector(alpha, 10_000).sum() + ys.survival(10_001, alpha)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestMean:
    @pytest.mark.parametrize("alpha,expected", [(0.5, 2.0), (0.25, 4.0)])
    def test_inverse_alpha(self, alpha, expected):
        assert ys.mean(alpha) == expected

    def test_monte_carlo_agreement(self):
        # variance is finite at alpha = 0.7 (rho = 10/3 > 2)
        draws = ys.sample(0.7, 1_000_000, seed=2)
        rho = 1.0 / 0.3
        var = rho**2 / ((rho - 1.0) ** 2 * (rho - 2.0))
        se = math.sqrt(var / len(draws))
        assert abs(draws.mean() - 10.0 / 7.0) <= 3.0 * se


class TestSampler:
    def test_deterministic(self):
        a = ys.sample(0.4, 1000, seed=99)
        b = ys.sample(0.4, 1000, seed=99)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, ys.sample(0.4, 1000, seed=100))

    def test_support(self):
        for alpha in (0.05, 0.5, 0.95):
            assert (ys.sample(alpha, 10_000, seed=1) >= 1).all()

    def test_chi_square_goodness_of_fit(self):
        # bins {1..20, >=21} against the analytic pmf
        alpha = 0.5
        draws = ys.sample(alpha, 100_000, seed=3)
        observed = np.array(
            [(draws == k).sum() for k in range(1, 21)] + [(draws >= 21).sum()]
        )
        expected = np.array(
            [ys.pmf(k, alpha) for k in range(1, 21)] + [ys.survival(21, alpha)]
        )
        _, p = chisquare(observed, expected * len(draws))
        assert p > 0.001

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ys.sample(0.5, 0, seed=1)
        with pytest.raises(ValueError):
            ys.sample(1.0, 10, seed=1)


class TestLogLikelihood:
    def test_single_entry(self):
        sample = FrequencySample(((1, 1),))
        assert ys.log_likelihood(sample, 0.5) == pytest.approx(
            math.log(2.0 / 3.0), abs=1e-12
        )

    def test_hits_golden(self, hits):
        assert ys.log_likelihood(hits, 0.1) == pytest.approx(HITS_LOGLIK_0P1, rel=1e-12)

    @pytest.mark.parametrize("k", sorted(LOG_PMF_0P3))
    def test_large_value_golden(self, k):
        sample = FrequencySample(((k, 1),))
        assert ys.log_likelihood(sample, 0.3) == pytest.approx(LOG_PMF_0P3[k], abs=1e-12)

    def test_order_invariant(self):
        a = FrequencySample(((1, 3), (4, 2), (9, 1)))
        b = FrequencySample(((9, 1), (1, 3), (4, 2)))
        assert ys.log_likelihood(a, 0.37) == ys.log_likelihood(b, 0.37)

    def test_matches_pmf_sum(self):
        sample = FrequencySample(((1, 2), (3, 1), (10, 4)))
        for alpha in (0.2, 0.6):
            direct = sum(c * ys.log_pmf(k, alpha) for k, c in sample.entries)
            assert ys.log_likelihood(sample, alpha) == pytest.approx(direct, rel=1e-13)


def _grid_samples():
    surnames = FrequencySample.from_observations(ys.sample(0.3, 100_000, seed=20160419))
    # k >= 1e4 takes log_gamma_ratio's Stirling branch for s < k / 1000
    heavy = FrequencySample(((1, 50), (3, 7), (12_000, 2), (10**6, 1), (10**8, 1)))
    return {"surnames": surnames, "heavy-tail": heavy}


class TestGridLogLikelihood:
    """log_likelihood over a 1-d array of alpha against one call per alpha."""

    @pytest.mark.parametrize("m", [10, 20, 1000])
    @pytest.mark.parametrize("name", ["hits", "surnames", "heavy-tail"])
    def test_bitwise_equal_to_scalar_calls(self, hits, name, m):
        data = hits if name == "hits" else _grid_samples()[name]
        alphas = np.arange(1, m) / m
        grid = ys.log_likelihood(data, alphas)
        assert isinstance(grid, np.ndarray) and grid.shape == (m - 1,)
        scalar = np.array([ys.log_likelihood(data, float(a)) for a in alphas])
        np.testing.assert_array_equal(grid, scalar)

    @pytest.mark.parametrize("alphas", [[0.2, 1.0], [0.0, 0.5], [[0.2, 0.3]]])
    def test_domain_errors(self, hits, alphas):
        with pytest.raises(ValueError):
            ys.log_likelihood(hits, np.array(alphas))


class TestTailExpectationIdentity:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_expected_inverse_sum_is_one_minus_alpha(self, alpha):
        # E_alpha[sum_{j<=K} 1/(c+j)] = 1 - alpha, via truncation to 1e6
        # with the closed-form survival tail correction.
        oracle = ys.fisher_information_oracle(alpha, k_max=1_000_000)
        assert oracle.first_expectation == pytest.approx(1.0 - alpha, abs=1e-4)
        # truncation-limited: the reported bound covers the residual
        assert abs(oracle.first_expectation - (1.0 - alpha)) <= max(
            oracle.first_bound, 1e-9
        )
