import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import yulesimon as ys
from yulesimon import GridPrior, JeffreysPrior, SeriesControl, priors

TIGHT = SeriesControl(rel_tol=1e-12)

# Dense 1e6-point midpoint rule with the alpha = 1-u^2 endpoint substitution,
# series tolerance 1e-10 (one-off oracle run, frozen):
K_MIDPOINT_ORACLE = 1.8913857052347882
# K at 30 digits: q(alpha) alpha (1 - alpha) at x = logit alpha, its 3F2 excess
# summed by Levin `mpmath.nsum` of the series terms, integrated by the
# trapezoid rule at spacing 1/2 on [-40, 40] plus the geometric tails at the
# integrand's rates e^x and e^(-x/2) past the end nodes (the same rule at
# spacing 1 reads 6.2e-8 lower):
K_LOGIT_REFERENCE = 1.8913857049409672

# KL(0.5 || 0.6) by brute-force summation to k = 1e7 (tail < 1e-12 there):
KL_05_06_BRUTE = 0.010397540660891

# 40-digit mpmath KLs at the binary values of the arguments: the head summed
# to k = 200 plus mpmath.sumem for the tail (the same to 32 digits with the
# split at 1000):
KL_037_036_MP = 3.4086543815946552011014070e-07
KL_05_06_MP = 0.010397540661047532057317279
KL_09_091_MP = 5.3468907055513032905869208870e-04  # c = 10 against c = 11.1
# c = 1e5 against 5e4, from the same 40-digit sums of the by-parts series
# sum_i S_c(i) phi(delta/(c+i)) - phi(delta/c), which give the three values
# above to every digit shown
KL_99999_99998_MP = 3.068508879364235118894501285e-06

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
            series = 1.0 + ys.hyp3f2_unit_excess(c + 1.0, c + 2.0, TIGHT)
            expected = (1.0 - alpha) ** 2 / (2.0 - alpha) ** 2 * series
            assert abs(oracle.second_expectation - expected) / expected < 1e-6

    def test_strictly_positive_on_dense_grid(self):
        ctrl = SeriesControl(rel_tol=1e-10)
        for alpha in np.linspace(0.001, 0.999, 120):
            assert ys.fisher_information(float(alpha), ctrl) > 0.0

    def test_dense_alpha_mpmath_oracle(self):
        # I(alpha) against the radicand from 40-digit sums of the series terms
        # (mpmath.nsum with Levin acceleration: its default method is off by
        # 1e-8 below alpha = 0.2, and mpmath.hyp3f2 returns about 1e-13 in
        # place of the series at these digits for alpha >= 0.97)
        alphas = np.concatenate([[5e-4, 3e-3], np.linspace(0.02, 0.98, 33), [0.995, 0.9999]])
        with mpmath.workdps(40):
            for alpha in alphas:
                alpha = float(alpha)
                c = 1.0 / (1.0 - alpha)
                a, b = mpmath.mpf(c + 1.0), mpmath.mpf(c + 2.0)
                log_norm = 2 * mpmath.loggamma(b) - mpmath.loggamma(a)
                excess = mpmath.nsum(
                    lambda l: mpmath.exp(
                        mpmath.loggamma(l + 1) + mpmath.loggamma(l + a)
                        - 2 * mpmath.loggamma(l + b) + log_norm
                    ),
                    [1, mpmath.inf],
                    method="levin",
                )
                x = mpmath.mpf(alpha)
                radicand = ((3 - x) * (1 - x) - excess) / (2 - x) ** 2
                expected = float(radicand / (1 - x) ** 2)
                assert ys.fisher_information(alpha) == pytest.approx(expected, rel=1e-13, abs=0)

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

    def test_normalizer_matches_logit_reference(self):
        assert ys.jeffreys_normalizer() == pytest.approx(K_LOGIT_REFERENCE, rel=0, abs=1e-10)

    def test_normalizer_integrand_tail_rates(self):
        # the rates behind the rule's geometric tails, at its end nodes
        def integrand(x):
            alpha = 1.0 / (1.0 + math.exp(-x))
            return ys.jeffreys_unnormalized(alpha) * alpha / (1.0 + math.exp(x))

        left = integrand(-40.0) * math.exp(40.0)
        assert left == pytest.approx(math.sqrt(math.pi**2 / 6.0 - 1.0), rel=1e-12)
        for x in (15.0, 20.0):
            assert integrand(x) * math.exp(x / 2.0) == pytest.approx(1.0, rel=0, abs=1e-6)

    def test_normalizer_rule_disagreement_raises(self, monkeypatch):
        # a factor of 1 +/- 1/2 on alternate nodes: the spacing-1/2 rule sees
        # only the 3/2 nodes
        smooth = priors.jeffreys_unnormalized

        def wobbly(alphas, ctrl):
            x = np.log(alphas / (1.0 - alphas))
            return smooth(alphas, ctrl) * (1.0 + 0.5 * np.cos(4.0 * np.pi * x))

        monkeypatch.setattr(priors, "jeffreys_unnormalized", wobbly)
        with pytest.raises(ys.QuadratureError) as err:
            ys.jeffreys_normalizer()
        assert err.value.estimate == pytest.approx(K_LOGIT_REFERENCE, rel=1e-2)
        assert err.value.error_bound == pytest.approx(0.5 * K_LOGIT_REFERENCE, rel=1e-2)

    def test_prior_uses_package_series_default(self):
        assert JeffreysPrior().series_ctrl == SeriesControl()

    def test_normalizer_cached_on_prior(self):
        prior = JeffreysPrior()
        first = prior.normalizer()
        assert prior.normalizer() is not None
        assert prior.normalizer() == first
        assert prior.density(0.5) == pytest.approx(
            prior.unnormalized(0.5) / first, rel=1e-14
        )


class TestJeffreysArray:
    """The Jeffreys functions at a 1-d array of alphas against one float
    call per alpha."""

    def test_bitwise_equal_to_scalar_calls(self):
        alphas = np.concatenate(
            [np.linspace(1e-4, 1.0 - 1e-4, 2001), [1e-9, 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]]
        )
        array = ys.jeffreys_log_unnormalized(alphas)
        scalar = [ys.jeffreys_log_unnormalized(a) for a in alphas.tolist()]
        assert array.tolist() == scalar
        assert JeffreysPrior().log_unnormalized(alphas).tolist() == scalar

    @pytest.mark.parametrize(
        "fn", [ys.fisher_information, ys.jeffreys_unnormalized, ys.jeffreys_log_unnormalized]
    )
    def test_every_function_takes_an_array(self, fn):
        alphas = np.concatenate([np.linspace(1e-3, 1.0 - 1e-3, 301), [1e-9, 1.0 - 1e-12]])
        assert fn(alphas).tolist() == [fn(a) for a in alphas.tolist()]
        assert fn(np.float64(0.3)) == fn(np.array(0.3)) == fn(0.3)
        assert fn(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_short_arrays_match_scalar_calls(self, size):
        alphas = np.linspace(0.05, 0.95, size)
        assert ys.jeffreys_log_unnormalized(alphas).tolist() == [
            ys.jeffreys_log_unnormalized(a) for a in alphas.tolist()
        ]

    def test_uncertified_alphas_take_the_scalar_path(self, monkeypatch):
        # At rel_tol = 1e-15 the first head certifies some alphas and not
        # others; those go through hyp3f2_unit_excess, which grows the head.
        ctrl = SeriesControl(rel_tol=1e-15)
        alphas = np.linspace(0.01, 0.99, 50)
        calls = []
        series = priors.hyp3f2_unit_excess

        def spy(a, b, ctrl):
            calls.append(a)
            return series(a, b, ctrl)

        expected = [ys.jeffreys_log_unnormalized(a, ctrl) for a in alphas.tolist()]
        monkeypatch.setattr(priors, "hyp3f2_unit_excess", spy)
        values = ys.jeffreys_log_unnormalized(alphas, ctrl).tolist()
        assert 0 < len(calls) < len(alphas)
        assert values == expected

    def test_nonpositive_radicand_takes_the_scalar_path(self, monkeypatch):
        # a radicand that rounds to <= 0 is left to hyp3f2_unit_excess, and
        # the float path raises when it finds one too; here that series is
        # the real one
        expected = [ys.jeffreys_log_unnormalized(a) for a in (0.2, 0.5, 0.8, 0.9)]
        estimate = priors._excess_estimate
        calls = []
        series = priors.hyp3f2_unit_excess

        def inflate_second(a, b, head):
            f1, bound = estimate(a, b, head)
            f1[1] = 10.0
            return f1, bound

        def spy(a, b, ctrl):
            calls.append(a)
            return series(a, b, ctrl)

        monkeypatch.setattr(priors, "_excess_estimate", inflate_second)
        monkeypatch.setattr(priors, "hyp3f2_unit_excess", spy)
        alphas = np.array([0.2, 0.5, 0.8, 0.9])
        assert ys.jeffreys_log_unnormalized(alphas).tolist() == expected
        assert calls == [1.0 / (1.0 - 0.5) + 1.0]

    def test_scalar_errors_propagate(self):
        # a head cap below the first head certifies nothing
        with pytest.raises(ys.SeriesConvergenceError):
            ys.jeffreys_log_unnormalized(np.full(5, 0.5), SeriesControl(max_terms=64))

    @pytest.mark.parametrize("alphas", [[0.2, 1.0], [0.0, 0.5], [[0.2, 0.3]]])
    def test_domain_errors(self, alphas):
        with pytest.raises(ValueError):
            ys.jeffreys_log_unnormalized(np.array(alphas))


def _spy_on_kl_heads(monkeypatch):
    """Record the head length of every neighbour-KL kernel call."""
    heads = []
    kernel = priors._neighbour_kl

    def spy(cs, head):
        heads.append(head)
        return kernel(cs, head)

    monkeypatch.setattr(priors, "_neighbour_kl", spy)
    return heads


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

    def test_close_pair_mpmath_golden(self):
        # neighbours of an M = 1000 grid: the KL is ~3e-7, and summed by
        # parts it is built from O(delta^2) terms, with delta taken from the
        # alphas, so it keeps all but its last digits
        value = ys.kl_divergence(0.037, 0.036)
        assert value == pytest.approx(KL_037_036_MP, rel=1e-12, abs=0)

    def test_steep_pair_mpmath_golden(self):
        # c = 10: the terms fall like k^-11, unlike the c ~ 1 and 2 goldens
        value = ys.kl_divergence(0.9, 0.91)
        assert value == pytest.approx(KL_09_091_MP, rel=1e-12, abs=0)

    def test_large_c_pair_mpmath_golden(self):
        # the top neighbours of an M = 10^5 grid: the first term and
        # phi(delta/c) nearly cancel, so they are taken in closed form
        value = ys.kl_divergence(0.99999, 0.99998)
        assert value == pytest.approx(KL_99999_99998_MP, rel=1e-13, abs=0)

    def test_grown_head_matches_mpmath(self):
        # the first 128-term head cannot meet rel_tol=1e-20 here, so the
        # head grows to 2,048 terms
        value = ys.kl_divergence(0.5, 0.6, SeriesControl(rel_tol=1e-20))
        assert value == pytest.approx(KL_05_06_MP, rel=1e-13, abs=0)

    @pytest.mark.parametrize("head", [8, 32])
    def test_short_head_error_well_inside_estimate(self, head):
        # with its h'''(A)/720 term the closure misses by a few percent of
        # the estimate |h'''(A)|/720 at most; without the term, by all of it
        goldens = {(0.5, 0.6): KL_05_06_MP, (0.037, 0.036): KL_037_036_MP,
                   (0.9, 0.91): KL_09_091_MP}
        for (a, b), golden in goldens.items():
            kl, remainder = priors._neighbour_kl(np.array([1 / (1 - a), 1 / (1 - b)]), head)
            assert abs(kl[0, 0] - golden) <= 0.1 * remainder[0, 0]

    def test_tight_tolerance_grows_the_head(self, monkeypatch):
        heads = _spy_on_kl_heads(monkeypatch)
        ys.kl_divergence(0.5, 0.6, SeriesControl(rel_tol=1e-20))
        assert heads[0] == priors._KL_HEAD
        assert len(heads) > 1 and heads[-1] > priors._KL_HEAD

    @pytest.mark.parametrize("m", [10, 1000])
    def test_grown_head_continues_the_last(self, m, monkeypatch):
        # a head grown from 128 to 512 terms evaluates only terms 129..512
        # (plus the 17 closure nodes and phi(delta/c)) in each direction, and
        # agrees with a 512-term head summed from term 1
        support = np.arange(1, m) / m
        cs = 1.0 / (1.0 - support)
        state = priors._KlHead(cs, np.diff(cs))
        priors._neighbour_kl(state, priors._KL_HEAD)
        evaluated = []
        phi = priors._phi
        monkeypatch.setattr(priors, "_phi", lambda x: evaluated.append(x.size) or phi(x))
        grown, grown_rem = priors._neighbour_kl(state, 4 * priors._KL_HEAD)
        assert sum(evaluated) == 2 * (m - 2) * (3 * priors._KL_HEAD + 17 + 1)  # m-2 pairs
        assert state.terms == 4 * priors._KL_HEAD
        fresh, fresh_rem = priors._neighbour_kl(cs, 4 * priors._KL_HEAD)
        np.testing.assert_allclose(grown, fresh, rtol=1e-14, atol=0)
        np.testing.assert_allclose(grown_rem, fresh_rem, rtol=1e-14, atol=0)

    def test_cap_below_first_head_raises(self):
        # 100 terms would meet the tolerance at c = 10, but as in the 3F2
        # series a cap below the first head is refused
        with pytest.raises(ys.SeriesConvergenceError):
            ys.kl_divergence(0.9, 0.91, SeriesControl(max_terms=100))
        value = ys.kl_divergence(0.9, 0.91, SeriesControl(max_terms=200))
        assert value == pytest.approx(KL_09_091_MP, rel=1e-12, abs=0)

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

    @pytest.mark.parametrize("m", [10, 20])
    def test_matches_exhaustive_minimum(self, m):
        # the prior pairs only neighbours; the oracle searches every j != i
        support = np.arange(1, m) / m
        worth = np.array(
            [
                min(ys.kl_divergence(a, b) for b in support if b != a)
                for a in support
            ]
        )
        expected = np.expm1(worth) / np.expm1(worth).sum()
        np.testing.assert_allclose(ys.loss_based_prior(m).masses, expected, rtol=1e-9)

    @pytest.mark.parametrize("m", [10, 100, 1000, 10_000])
    def test_first_head_certifies(self, m, monkeypatch):
        # the cost guard: the default tolerance is met by one kernel call on
        # the first head, without growing it
        heads = _spy_on_kl_heads(monkeypatch)
        ys.loss_based_prior(m)
        assert heads == [priors._KL_HEAD]

    @pytest.mark.parametrize("m, bound", [(1000, 1.5e-5), (10_000, 1.5e-7)])
    def test_symmetric_kl_matches_fisher_information(self, m, bound):
        # an oracle outside the KL code: (KL(i||i+1) + KL(i+1||i))/2 against
        # I(mid)/(2 M^2) from the 3F2 route; they differ by O(1/M^2),
        # measured at 1.0e-5 (M = 1,000) and 1.0e-7 (M = 10^4)
        support = np.arange(1, m) / m
        kl = priors._certified_neighbour_kl(support, SeriesControl())
        mid = (support[:-1] + support[1:]) / 2.0
        inside = (mid > 0.1) & (mid < 0.9)
        fisher = np.array([ys.fisher_information(float(a)) for a in mid[inside]])
        symmetric = kl[:, inside].mean(axis=0)
        assert np.max(np.abs(symmetric / (0.5 * fisher / m**2) - 1.0)) < bound

    def test_memory_flat_in_m(self):
        # the head and closure go block by block: at M = 10^5 the traced
        # peak is the O(M) output arrays (about 12 MB), not the 128 x M head
        tracemalloc.start()
        try:
            prior = ys.loss_based_prior(100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert abs(prior.masses.sum() - 1.0) <= 1e-12

    def test_series_cap_raises_with_estimate(self):
        with pytest.raises(ys.SeriesConvergenceError) as err:
            ys.loss_based_prior(10, SeriesControl(max_terms=64))
        assert err.value.estimate is not None
        assert err.value.error_bound > 0.0

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
