import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import yulesimon as ys
from yulesimon import Chain, FrequencySample, McmcConfig, PosteriorSummary
from yulesimon.distribution import LikelihoodStack
from yulesimon.inference import _log_targets

from conftest import tv_distance

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.ess import geyer_ess  # noqa: E402

# Regression pin: exact grid posterior of the hits data under the
# loss-based M=20 prior (computed once at the default series tolerance).
HITS_M20_POSTERIOR = np.array(
    [
        4.1343341304148923e-01,
        2.5253588604879040e-01,
        1.6034587770746939e-01,
        9.2701446248221547e-02,
        4.7889523735395463e-02,
        2.1585193149611472e-02,
        8.2317328079177070e-03,
        2.5514285008833462e-03,
        6.0915747939602649e-04,
        1.0411785582717553e-04,
        1.1497012446952774e-05,
        7.0690027370229068e-07,
        1.9346706372088048e-08,
        1.6532881328088794e-10,
        2.4229971000016913e-13,
        2.0146588941194075e-17,
        9.3337434980348779e-24,
        6.1428182083652524e-35,
        6.6814643378014053e-61,
    ]
)


class TestConfigAndTypes:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=100, burn_in=100, seed=1)
        with pytest.raises(ValueError):
            McmcConfig(iterations=100, burn_in=20, seed=1, proposal_scale=0.0)

    def test_chain_validation(self):
        cfg = McmcConfig(iterations=10, burn_in=2, seed=0)
        with pytest.raises(ValueError):
            Chain(np.full(5, 0.5), 0.5, cfg)  # wrong length
        with pytest.raises(ValueError):
            Chain(np.array([0.5] * 7 + [1.0]), 0.5, cfg)  # boundary draw

    def test_summary_ordering(self):
        with pytest.raises(ValueError):
            PosteriorSummary(mean=0.5, median=0.3, ci_low=0.4, ci_high=0.6)


class TestSummarize:
    def test_constant_chain(self):
        cfg = McmcConfig(iterations=100, burn_in=0, seed=0)
        summary = ys.summarize(Chain(np.full(100, 0.4), 1.0, cfg))
        for value in (summary.mean, summary.median, summary.ci_low, summary.ci_high):
            assert value == pytest.approx(0.4, abs=1e-15)

    def test_symmetric_grid_median(self):
        cfg = McmcConfig(iterations=9, burn_in=0, seed=0)
        chain = Chain(np.arange(1, 10) / 10.0, 1.0, cfg)
        assert ys.summarize(chain).median == pytest.approx(0.5)

    def test_type7_quantiles(self):
        draws = np.linspace(0.01, 0.99, 1000)
        cfg = McmcConfig(iterations=1000, burn_in=0, seed=0)
        summary = ys.summarize(Chain(draws, 1.0, cfg))
        assert summary.ci_low == pytest.approx(np.quantile(draws, 0.025))
        assert summary.ci_high == pytest.approx(np.quantile(draws, 0.975))


class TestContinuousSampler:
    def test_deterministic(self, hits):
        cfg = McmcConfig(iterations=2_000, burn_in=500, seed=123)
        prior = ys.JeffreysPrior()
        a = ys.sample_posterior_continuous(hits, prior, cfg)
        b = ys.sample_posterior_continuous(hits, prior, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate
        _assert_equals_reference(a, hits, prior, cfg)

    def test_single_observation_support_and_mixing(self):
        data = FrequencySample(((1, 1),))
        cfg = McmcConfig(iterations=4_000, burn_in=1_000, seed=3)
        chain = ys.sample_posterior_continuous(data, ys.JeffreysPrior(), cfg)
        assert np.all(chain.draws > 0.0) and np.all(chain.draws < 1.0)
        assert 0.05 < chain.acceptance_rate < 0.95

    def test_proposals_past_float_range_are_rejected(self, hits):
        # Logit steps of ~1e4 overflow math.exp or round alpha to 1.0; the
        # chain rejects them instead of raising.
        cfg = McmcConfig(iterations=300, burn_in=0, seed=2, proposal_scale=1e4)
        with pytest.warns(ys.TuningWarning):
            chain = ys.sample_posterior_continuous(hits, ys.JeffreysPrior(), cfg)
        assert np.all(chain.draws > 0.0) and np.all(chain.draws < 1.0)
        _assert_equals_reference(chain, hits, ys.JeffreysPrior(), cfg)

    def test_mean_within_mcse_of_quadrature_posterior(self, hits):
        # The posterior mean from scipy's quad over the package's log-density
        # plus log-likelihood, against a 25,000/5,000 chain; the chain's error
        # is measured in Geyer MCSE, not against a hand-set band.
        import scipy.integrate

        prior = ys.JeffreysPrior()

        def log_post(alpha):
            return prior.log_unnormalized(alpha) + ys.log_likelihood(hits, alpha)

        peak = log_post(0.07)
        moments = [
            scipy.integrate.quad(
                lambda a, p=p: a**p * math.exp(log_post(a) - peak), 0.0, 1.0,
                points=(0.01, 0.1, 0.3), epsrel=1e-11, limit=200,
            )[0]
            for p in (0, 1)
        ]
        exact_mean = moments[1] / moments[0]
        assert exact_mean == pytest.approx(0.088621982668, abs=1e-9)  # perfbench's oracle
        chain = ys.sample_posterior_continuous(hits, prior, McmcConfig(25_000, 5_000, seed=7))
        assert abs(chain.draws.mean() - exact_mean) <= 4.0 * geyer_ess(chain.draws).mcse

    def test_budget_stability_on_hits(self, hits):
        # 10k -> 100k iterations moves the summary by < 0.01
        prior = ys.JeffreysPrior()
        short = ys.summarize(
            ys.sample_posterior_continuous(hits, prior, McmcConfig(10_000, 2_000, seed=5))
        )
        long = ys.summarize(
            ys.sample_posterior_continuous(hits, prior, McmcConfig(100_000, 20_000, seed=6))
        )
        assert abs(short.mean - long.mean) < 0.01
        assert abs(short.median - long.median) < 0.01


def _mixed_batch(size, seed):
    """``size`` samples at true alphas across (0, 1), n = 30 and 500, with
    proposal scales 0.5, 2.5 and 40 and budgets of 400 and 600 iterations."""
    rng = np.random.default_rng(seed)
    samples, cfgs = [], []
    for j in range(size):
        alpha = float(rng.uniform(0.02, 0.98))
        n = (30, 500)[j % 2]
        samples.append(FrequencySample.from_observations(ys.sample(alpha, n, seed=seed + j)))
        scale = (0.5, 2.5, 40.0)[j % 3]
        iterations = (600, 400)[j % 5 == 4]
        cfgs.append(McmcConfig(iterations, 100, seed=1_000 * seed + j, proposal_scale=scale))
    return samples, cfgs


class _FailsAbove(ys.JeffreysPrior):
    """The Jeffreys prior, raising SeriesConvergenceError at alpha > limit,
    as the scalar call and the array call (through its scalar fallback) do;
    with ``array_fails`` the array call raises whatever its alphas.  Every
    alpha asked for is recorded in ``asked``."""

    def __init__(self, limit=0.9, array_fails=False):
        super().__init__()
        self.limit, self.array_fails, self.asked = limit, array_fails, []

    def log_unnormalized(self, alpha):
        self.asked.append(alpha)
        if alpha > self.limit:
            raise ys.SeriesConvergenceError(f"forced at {alpha!r}", estimate=None)
        return super().log_unnormalized(alpha)

    def log_unnormalized_array(self, alphas):
        self.asked.extend(alphas.tolist())
        if self.array_fails or np.any(alphas > self.limit):
            raise ys.SeriesConvergenceError("forced", estimate=None)
        return super().log_unnormalized_array(alphas)


def _scalar_log_target(data, prior, x, evaluated=None):
    """ln L + ln q + ln alpha + ln(1 - alpha) at logit x and its alpha, by
    the scalar prior and likelihood calls; -inf and NaN where alpha is not
    strictly inside (0, 1).  Each alpha evaluated is appended to
    ``evaluated``, if given, before the calls."""
    if abs(x) > 700.0:
        return -math.inf, math.nan
    alpha = 1.0 / (1.0 + math.exp(-x))
    complement = 1.0 / (1.0 + math.exp(x))
    if alpha >= 1.0:
        return -math.inf, math.nan
    if evaluated is not None:
        evaluated.append(alpha)
    lp = (
        ys.log_likelihood(data, alpha)
        + prior.log_unnormalized(alpha)
        + math.log(alpha)
        + math.log(complement)
    )
    return lp, alpha


def _reference_chain(data, prior, cfg):
    """The continuous chain one proposal at a time, each through the scalar
    prior and likelihood calls: its draws, its acceptance rate and every
    alpha at which it evaluated the target, in order."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    steps = cfg.proposal_scale * rng.standard_normal(cfg.iterations)
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(cfg.iterations))
    evaluated = []
    alpha0 = min(max(1.0 / data.sample_mean, 0.05), 0.95)
    x = math.log(alpha0 / (1.0 - alpha0))
    lp, _ = _scalar_log_target(data, prior, x, evaluated)
    kept = np.empty(cfg.iterations - cfg.burn_in)
    accepted = 0
    for i in range(cfg.iterations):
        proposal = x + steps[i]
        lp_prop, _ = _scalar_log_target(data, prior, proposal, evaluated)
        if lp_prop - lp > log_u[i]:
            x, lp = proposal, lp_prop
            accepted += 1
        if i >= cfg.burn_in:
            kept[i - cfg.burn_in] = 1.0 / (1.0 + math.exp(-x))
    return kept, accepted / cfg.iterations, evaluated


def _assert_equals_reference(chain, data, prior, cfg):
    draws, rate, _ = _reference_chain(data, prior, cfg)
    np.testing.assert_array_equal(chain.draws, draws)
    assert chain.acceptance_rate == rate
    assert chain.config == cfg


@pytest.mark.filterwarnings("ignore::yulesimon.TuningWarning")
class TestPrefetchedChain:
    """A single chain, its proposals evaluated ahead in runs, equals the
    chain taken one proposal at a time."""

    @pytest.mark.parametrize("n", [30, 500, 5_000])
    @pytest.mark.parametrize("scale", [0.05, 0.5, 2.5, 40.0])
    def test_equals_the_reference_chain(self, n, scale):
        prior = ys.JeffreysPrior()
        for j, alpha in enumerate((0.03, 0.35, 0.65, 0.97)):
            data = FrequencySample.from_observations(ys.sample(alpha, n, seed=n + j))
            cfg = McmcConfig(700, 100, seed=10 * j + 1, proposal_scale=scale)
            chain = ys.sample_posterior_continuous(data, prior, cfg)
            _assert_equals_reference(chain, data, prior, cfg)

    def test_log_targets_equal_scalar_log_targets(self, hits):
        # Steps across the float range: alpha near 0 and 1, rounding to 1
        # past x = 36.7, and exp overflowing past 709.8; on one-sample
        # stacks, on a two-sample stack with the chains interleaved, and
        # one pair at a time.
        xs = np.random.default_rng(1).normal(0.0, 15.0, 400).tolist()
        xs += [-701.0, -40.0, 36.0, 37.0, 701.0]
        light = FrequencySample.from_observations(ys.sample(0.8, 5_000, seed=3))
        prior = ys.JeffreysPrior()
        samples = (hits, light)
        scalar = [[_scalar_log_target(data, prior, x) for x in xs] for data in samples]
        for data, expected in zip(samples, scalar):
            lps, alphas = _log_targets(prior, LikelihoodStack([data]), [0] * len(xs), xs)
            assert lps == [lp for lp, _ in expected]
            np.testing.assert_array_equal(alphas, [alpha for _, alpha in expected])
        both = LikelihoodStack(samples)
        for start in range(0, len(xs), 9):
            chains = [(start + i) % 2 for i in range(min(9, len(xs) - start))]
            positions = range(start, start + len(chains))
            lps, _ = _log_targets(prior, both, chains, xs[start : start + 9])
            assert lps == [scalar[j][i][0] for j, i in zip(chains, positions)]
        for j in (0, 1):
            for x, (lp, _) in zip(xs[:20], scalar[j]):
                assert _log_targets(prior, both, [j], [x])[0] == [lp]

    def test_tuning_warning_points_at_the_caller(self, hits):
        cfg = McmcConfig(200, 50, seed=1, proposal_scale=1e-3)
        with pytest.warns(ys.TuningWarning) as record:
            ys.sample_posterior_continuous(hits, ys.JeffreysPrior(), cfg)
        assert len(record) == 1
        assert record[0].filename == __file__

    @staticmethod
    def _low_acceptance_case():
        data = FrequencySample.from_observations(ys.sample(0.8, 5_000, seed=3))
        return data, McmcConfig(1_500, 300, seed=10, proposal_scale=0.5)

    def test_failure_at_a_prefetched_alpha_only(self):
        # The prefetched runs evaluate proposals past each mispredicted
        # decision, which the one-at-a-time chain never asks for; a prior
        # failing only there must not fail the chain.
        data, cfg = self._low_acceptance_case()
        spy = _FailsAbove(limit=1.0)
        ys.sample_posterior_continuous(data, spy, cfg)
        _, _, evaluated = _reference_chain(data, ys.JeffreysPrior(), cfg)
        assert max(spy.asked) > max(evaluated)
        prior = _FailsAbove(limit=max(evaluated))
        chain = ys.sample_posterior_continuous(data, prior, cfg)
        _assert_equals_reference(chain, data, prior, cfg)

    def test_failure_on_the_chain_path_raises_where_the_reference_does(self):
        data, cfg = self._low_acceptance_case()
        _, _, evaluated = _reference_chain(data, ys.JeffreysPrior(), cfg)
        limit = float(np.quantile(evaluated, 0.999))
        with pytest.raises(ys.SeriesConvergenceError) as reference:
            _reference_chain(data, _FailsAbove(limit), cfg)
        with pytest.raises(ys.SeriesConvergenceError) as single:
            ys.sample_posterior_continuous(data, _FailsAbove(limit), cfg)
        assert str(single.value) == str(reference.value)

    @pytest.mark.parametrize("scale", [0.5, 2.5])
    def test_array_call_always_failing(self, hits, scale):
        cfg = McmcConfig(800, 100, seed=9, proposal_scale=scale)
        prior = _FailsAbove(limit=1.0, array_fails=True)
        chain = ys.sample_posterior_continuous(hits, prior, cfg)
        _assert_equals_reference(chain, hits, ys.JeffreysPrior(), cfg)


@pytest.mark.filterwarnings("ignore::yulesimon.TuningWarning")
class TestLockstepChains:
    """Chains advanced together equal their single calls."""

    @pytest.mark.parametrize("size", [1, 9, 60])
    def test_each_chain_equals_its_single_call(self, size):
        samples, cfgs = _mixed_batch(size, seed=size)
        prior = ys.JeffreysPrior()
        chains = ys.sample_posterior_continuous(samples, prior, cfgs)
        assert isinstance(chains, list) and len(chains) == size
        for data, cfg, chain in zip(samples, cfgs, chains):
            single = ys.sample_posterior_continuous(data, prior, cfg)
            np.testing.assert_array_equal(chain.draws, single.draws)
            _assert_equals_reference(chain, data, prior, cfg)

    def test_hits_chain_in_a_batch(self, hits):
        cfg = McmcConfig(3_000, 500, seed=7)
        single = ys.sample_posterior_continuous(hits, ys.JeffreysPrior(), cfg)
        samples, cfgs = _mixed_batch(8, seed=3)
        chains = ys.sample_posterior_continuous([hits, *samples], ys.JeffreysPrior(), [cfg, *cfgs])
        np.testing.assert_array_equal(chains[0].draws, single.draws)
        _assert_equals_reference(chains[0], hits, ys.JeffreysPrior(), cfg)

    @pytest.mark.parametrize("size", [3, 5])  # the failing chain last, and in the middle
    def test_failing_chain_leaves_the_batch(self, size):
        alphas = (0.1, 0.3, 0.86, 0.4, 0.2)[:size]
        samples = [
            FrequencySample.from_observations(ys.sample(a, 500, seed=i))
            for i, a in enumerate(alphas)
        ]
        cfgs = [McmcConfig(1_500, 300, seed=40 + i) for i in range(len(alphas))]
        prior = _FailsAbove()
        chains = ys.sample_posterior_continuous(samples, prior, cfgs)
        assert isinstance(chains[2], ys.SeriesConvergenceError)
        with pytest.raises(ys.SeriesConvergenceError) as single:
            ys.sample_posterior_continuous(samples[2], prior, cfgs[2])
        assert str(chains[2]) == str(single.value)  # the first failure, at its alpha
        for i in (0, 1, 3, 4)[: size - 1]:
            single = ys.sample_posterior_continuous(samples[i], prior, cfgs[i])
            np.testing.assert_array_equal(chains[i].draws, single.draws)
            assert chains[i].acceptance_rate == single.acceptance_rate
            _assert_equals_reference(chains[i], samples[i], prior, cfgs[i])

    @pytest.mark.parametrize("size", [1, 4])
    def test_tuning_warnings_point_at_the_caller(self, size):
        samples, _ = _mixed_batch(size, seed=2)
        cfgs = [McmcConfig(200, 50, seed=j, proposal_scale=1e-3) for j in range(size)]
        with pytest.warns(ys.TuningWarning) as record:
            ys.sample_posterior_continuous(samples, ys.JeffreysPrior(), cfgs)
        assert len(record) == size
        assert {w.filename for w in record} == {__file__}

    @pytest.mark.parametrize("scale", [0.5, 2.5])
    def test_array_call_always_failing(self, hits, scale):
        samples, cfgs = _mixed_batch(4, seed=4)
        samples = [hits, *samples]
        cfgs = [McmcConfig(800, 100, seed=9, proposal_scale=scale), *cfgs]
        prior = _FailsAbove(limit=1.0, array_fails=True)
        chains = ys.sample_posterior_continuous(samples, prior, cfgs)
        for data, cfg, chain in zip(samples, cfgs, chains):
            _assert_equals_reference(chain, data, ys.JeffreysPrior(), cfg)

    def test_length_mismatch(self, hits):
        with pytest.raises(ValueError, match="configs"):
            ys.sample_posterior_continuous([hits, hits], ys.JeffreysPrior(), [McmcConfig(10, 0, 1)])


class TestDiscreteSampler:
    def test_draws_live_on_support(self, hits, loss_prior_10):
        cfg = McmcConfig(iterations=5_000, burn_in=1_000, seed=21)
        chain = ys.sample_posterior_discrete(hits, loss_prior_10, cfg)
        assert set(np.unique(chain.draws)) <= set(loss_prior_10.support)

    def test_deterministic(self, hits, loss_prior_10):
        cfg = McmcConfig(iterations=5_000, burn_in=1_000, seed=22)
        a = ys.sample_posterior_discrete(hits, loss_prior_10, cfg)
        b = ys.sample_posterior_discrete(hits, loss_prior_10, cfg)
        assert np.array_equal(a.draws, b.draws)

    @pytest.mark.parametrize("m", [10, 20])
    def test_matches_exact_enumeration(self, hits, m):
        prior = ys.loss_based_prior(m)
        cfg = McmcConfig(iterations=25_000, burn_in=5_000, seed=31)
        chain = ys.sample_posterior_discrete(hits, prior, cfg)
        exact = ys.exact_grid_posterior(hits, prior)
        empirical = np.array([(chain.draws == a).mean() for a in prior.support])
        assert tv_distance(empirical, exact.masses) < 0.02


class TestExactGridPosterior:
    def test_minimal_analytic_ratio(self):
        # uniform prior, single k=1 observation, M=3:
        # posterior ratio = f(1; 1/3)/f(1; 2/3) = (2 - 2/3)/(2 - 1/3) = 4/5
        prior = ys.GridPrior(3, np.array([1 / 3, 2 / 3]), np.array([0.5, 0.5]))
        post = ys.exact_grid_posterior(FrequencySample(((1, 1),)), prior)
        assert post.masses[0] / post.masses[1] == pytest.approx(0.8, rel=1e-12)

    def test_masses_sum_to_one(self, hits, loss_prior_10):
        post = ys.exact_grid_posterior(hits, loss_prior_10)
        assert post.masses.sum() == pytest.approx(1.0, abs=1e-13)

    def test_hits_m20_regression(self, hits, loss_prior_20):
        post = ys.exact_grid_posterior(hits, loss_prior_20)
        np.testing.assert_allclose(post.masses, HITS_M20_POSTERIOR, rtol=1e-9, atol=1e-300)

    @pytest.mark.parametrize("m", [10, 20, 1000])
    def test_masses_match_per_point_likelihoods_bitwise(self, hits, m):
        # The normalization written out with one log_likelihood call per
        # grid point, as it stood before the likelihood took arrays.
        prior = ys.loss_based_prior(m)
        data = FrequencySample.from_observations(ys.sample(0.3, 20_000, seed=8))
        for sample in (hits, data):
            log_w = np.log(prior.masses) + np.array(
                [ys.log_likelihood(sample, float(a)) for a in prior.support]
            )
            log_w -= logsumexp(log_w)
            masses = np.exp(log_w)
            masses /= masses.sum()
            np.testing.assert_array_equal(ys.exact_grid_posterior(sample, prior).masses, masses)


class TestPosteriorBehaviour:
    def test_hits_table_bands(self, hits):
        # the published summaries for these data (wide bands; full-precision
        # reproduction is the acceptance suite's job)
        cfg = McmcConfig(iterations=25_000, burn_in=5_000, seed=7)
        summary = ys.summarize(
            ys.sample_posterior_continuous(hits, ys.JeffreysPrior(), cfg)
        )
        assert 0.06 <= summary.mean <= 0.10
        assert 0.05 <= summary.median <= 0.09

    def test_hits_m100_bands(self, hits):
        cfg = McmcConfig(iterations=25_000, burn_in=5_000, seed=11)
        summary = ys.summarize(
            ys.sample_posterior_discrete(hits, ys.loss_based_prior(100), cfg)
        )
        assert 0.06 <= summary.mean <= 0.14
        assert 0.05 <= summary.median <= 0.11

    def test_likelihood_dominates_large_n(self):
        # n = 500 at alpha* = 0.6: both priors land within +-0.05
        data = FrequencySample.from_observations(ys.sample(0.6, 500, seed=11))
        jeff = ys.summarize(
            ys.sample_posterior_continuous(
                data, ys.JeffreysPrior(), McmcConfig(10_000, 2_000, seed=12)
            )
        )
        loss = ys.summarize(
            ys.sample_posterior_discrete(
                data, ys.loss_based_prior(10), McmcConfig(10_000, 2_000, seed=13)
            )
        )
        assert abs(jeff.median - 0.6) <= 0.05
        assert abs(loss.median - 0.6) <= 0.05
