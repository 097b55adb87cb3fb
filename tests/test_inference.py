import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp, ndtri

import yulesimon as ys
from yulesimon import Chain, FrequencySample, McmcConfig, PosteriorSummary
from yulesimon import experiments, inference

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
            McmcConfig(iterations=100, burn_in=20, seed=-1)

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


# Chain statistics against the quadrature oracle, in Geyer MCSE; one k for
# every case.  Every warning is an error (pyproject.toml), so each fit also
# checks that it raised no TuningWarning.
K_MCSE = 4.0


class _FailsAbove(ys.JeffreysPrior):
    """The Jeffreys prior, raising SeriesConvergenceError at alpha > limit
    in the scalar call and in any array call that asks for one; every alpha
    asked for is recorded in ``asked``."""

    def __init__(self, limit):
        super().__init__()
        self.limit, self.asked = limit, []

    def log_unnormalized(self, alpha):
        self.asked.append(alpha)
        if alpha > self.limit:
            raise ys.SeriesConvergenceError(f"forced at {alpha!r}", estimate=None)
        return super().log_unnormalized(alpha)

    def log_unnormalized_array(self, alphas):
        self.asked.extend(alphas.tolist())
        if alphas.max() > self.limit:
            raise ys.SeriesConvergenceError("forced", estimate=None)
        return super().log_unnormalized_array(alphas)


def _scalar_log_target(data, prior, x):
    """ln L + ln q + ln alpha + ln(1 - alpha) at logit x and its alpha, by
    the scalar prior and likelihood calls; -inf and NaN where alpha is not
    strictly inside (0, 1)."""
    try:
        alpha = 1.0 / (1.0 + math.exp(-x))
        complement = 1.0 / (1.0 + math.exp(x))
    except OverflowError:  # past |x| ~ 709.8
        return -math.inf, math.nan
    if alpha >= 1.0:
        return -math.inf, math.nan
    lp = (
        ys.log_likelihood(data, alpha)
        + prior.log_unnormalized(alpha)
        + math.log(alpha)
        + math.log(complement)
    )
    return lp, alpha


def _reference_chain(data, prior, cfg, scale=0.5):
    """A random-walk Metropolis chain on the logit, one proposal at a time,
    each through the scalar prior and likelihood calls: an independent
    sampler of the same posterior.  Its draws and acceptance rate."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    steps = scale * rng.standard_normal(cfg.iterations)
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(cfg.iterations))
    alpha0 = min(max(1.0 / data.sample_mean, 0.05), 0.95)
    x = math.log(alpha0 / (1.0 - alpha0))
    lp, _ = _scalar_log_target(data, prior, x)
    kept = np.empty(cfg.iterations - cfg.burn_in)
    accepted = 0
    for i in range(cfg.iterations):
        proposal = x + steps[i]
        lp_prop, _ = _scalar_log_target(data, prior, proposal)
        if lp_prop - lp > log_u[i]:
            x, lp = proposal, lp_prop
            accepted += 1
        if i >= cfg.burn_in:
            kept[i - cfg.burn_in] = 1.0 / (1.0 + math.exp(-x))
    return kept, accepted / cfg.iterations


class _NormalProposal:
    """A normal independence proposal in x = logit(alpha), of s.d. ``scale``
    about the logit of clip(1 / sample mean, 0.05, 0.95), drawn by inverse
    CDF; ln g drops its constant.  In place of the tabulated proposal it
    takes the chain through any acceptance rate."""

    peak = 0.0

    def __init__(self, data, scale):
        alpha0 = min(max(1.0 / data.sample_mean, 0.05), 0.95)
        self.center, self.scale = math.log(alpha0 / (1.0 - alpha0)), scale

    def draw(self, u):
        z = ndtri(u)
        return self.center + self.scale * z, -0.5 * z * z


def _normal_proposals(monkeypatch, scale):
    """Fits from here on propose from `_NormalProposal`s of s.d. ``scale``."""
    monkeypatch.setattr(inference, "_Proposal", lambda data, prior: _NormalProposal(data, scale))


def _independence_reference(data, prior, cfg, proposal):
    """The independence chain from ``proposal`` one proposal at a time,
    each log-target by the scalar prior and likelihood calls.  The PCG64
    stream of ``cfg.seed`` is read as the sampler reads it: a chunk of
    proposal uniforms, then a chunk of acceptance uniforms.  Its draws and
    acceptance rate."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    log_w, alpha, accepted, trace = -math.inf, math.nan, 0, []
    for start in range(0, cfg.iterations, inference._CHUNK):
        size = min(inference._CHUNK, cfg.iterations - start)
        xs, log_g = proposal.draw(rng.random(size))
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random(size))
        for x, lg, lu in zip(xs.tolist(), log_g.tolist(), log_u.tolist()):
            lp, a = _scalar_log_target(data, prior, x)
            lw = lp - proposal.peak - lg
            if lw - log_w > lu:
                log_w, alpha = lw, a
                accepted += 1
            trace.append(alpha)
    return np.array(trace[cfg.burn_in :]), accepted / cfg.iterations


class _FailsWhereAllAbove(ys.JeffreysPrior):
    """The Jeffreys prior, raising SeriesConvergenceError in an array call
    whose alphas all exceed ``limit``: the chunks of a fit whose posterior
    lies above it, not the window scan's calls, which span (0, 1)."""

    def __init__(self, limit=0.85):
        super().__init__()
        self.limit = limit

    def log_unnormalized_array(self, alphas):
        if alphas.min() > self.limit:
            raise ys.SeriesConvergenceError("forced", estimate=None)
        return super().log_unnormalized_array(alphas)


def _mixed_tasks(size, seed, prior):
    """``size`` replicate tasks, as `experiments._run_task` takes them, at
    true alphas across (0, 1), n = 30 and 500, with budgets of 600 and 400
    iterations."""
    rng = np.random.default_rng(seed)
    tasks = []
    for j in range(size):
        alpha = float(rng.uniform(0.02, 0.98))
        iterations = (600, 400)[j % 5 == 4]
        tasks.append((j, 0, alpha, (30, 500)[j % 2], seed, McmcConfig(iterations, 100, seed=0), prior))
    return tasks


def _single_summary(task, prior):
    """The summary of ``task``'s fit by one call of the sampler with ``prior``."""
    alpha_idx, rep_idx, alpha_true, n, master_seed, mcmc, _ = task
    data_seed, chain_seed = experiments._replicate_seeds(master_seed, alpha_idx, rep_idx)
    data = FrequencySample.from_observations(ys.sample(alpha_true, n, data_seed))
    return ys.summarize(ys.sample_posterior_continuous(data, prior, replace(mcmc, seed=chain_seed)))


# Bytes a fit may take beyond 32 per iteration: the chunk's prior array
# call, which peaked at 0.91 MB under tracemalloc (Python 3.11, numpy 2.4).
_CHUNK_ALLOWANCE = 1_100_000


def _quadrature_posterior(data, prior):
    """The posterior mean of alpha and its CDF, by scipy's quad in
    x = logit(alpha) over the scalar log-target on the sampler's logit
    range, up to x = 30: shares no code with the sampler's window, proposal
    or array calls."""
    import scipy.integrate
    import scipy.optimize

    def lp(x):
        return _scalar_log_target(data, prior, x)[0]

    grid = np.arange(-40.0, 30.0, 0.05)
    i = int(np.argmax([lp(x) for x in grid]))
    mode = scipy.optimize.minimize_scalar(
        lambda x: -lp(x), bounds=(grid[i - 1], grid[i + 1]), method="bounded",
        options={"xatol": 1e-10},
    ).x
    peak = lp(mode)
    ends = []
    for sign in (-1.0, 1.0):  # step out until the density is e^-60 of its peak
        step = 1e-3
        while lp(mode + sign * step) > peak - 60.0 and step < 1e3:
            step *= 2.0
        ends.append(min(mode + sign * step, 30.0))

    def integral(f, hi):
        return scipy.integrate.quad(
            lambda x: f(x) * math.exp(lp(x) - peak), ends[0], hi,
            points=[mode] if mode < hi else None, epsabs=0.0, epsrel=1e-11, limit=500,
        )[0]

    total = integral(lambda x: 1.0, ends[1])
    mean = integral(lambda x: 1.0 / (1.0 + math.exp(-x)), ends[1]) / total

    def cdf(alpha):
        return integral(lambda x: 1.0, math.log(alpha / (1.0 - alpha))) / total

    return mean, cdf


def _assert_within_mcse(draws, data, prior):
    """The draws' mean, and the oracle's CDF at their median, within K_MCSE
    Geyer MCSE of the quadrature posterior; returns the oracle's mean."""
    mean, cdf = _quadrature_posterior(data, prior)
    assert abs(draws.mean() - mean) <= K_MCSE * geyer_ess(draws).mcse
    median = float(np.median(draws))
    below = (draws <= median).astype(float)
    assert abs(cdf(median) - below.mean()) <= K_MCSE * geyer_ess(below).mcse
    return mean


def _assert_matches_quadrature(chain, data, prior):
    """`_assert_within_mcse`, acceptance >= 0.95 and ESS >= 0.8 per draw."""
    assert chain.acceptance_rate >= 0.95
    assert geyer_ess(chain.draws).ess >= 0.8 * len(chain.draws)
    return _assert_within_mcse(chain.draws, data, prior)


class TestContinuousSampler:
    def test_deterministic(self, hits):
        cfg = McmcConfig(iterations=2_000, burn_in=500, seed=123)
        prior = ys.JeffreysPrior()
        a = ys.sample_posterior_continuous(hits, prior, cfg)
        b = ys.sample_posterior_continuous(hits, prior, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate
        assert a.config == cfg

    def test_single_observation_support_and_mixing(self):
        # The target's right tail falls only as e^(-x/2), out to the end of
        # the sampler's logit range at x = 30.
        data = FrequencySample(((1, 1),))
        cfg = McmcConfig(iterations=4_000, burn_in=1_000, seed=3)
        chain = ys.sample_posterior_continuous(data, ys.JeffreysPrior(), cfg)
        assert np.all(chain.draws > 0.0) and np.all(chain.draws < 1.0)
        assert chain.acceptance_rate >= 0.95

    def test_narrow_posterior_of_100000_observations(self):
        # A logit s.d. of about 0.015, under a thousandth of the first scan
        # round's spacing: the window scan must resolve it.
        data = FrequencySample.from_observations(ys.sample(0.3, 100_000, seed=5))
        prior = ys.JeffreysPrior()
        chain = ys.sample_posterior_continuous(data, prior, McmcConfig(10_500, 500, seed=5))
        assert np.std(np.log(chain.draws / (1.0 - chain.draws))) < 0.02
        _assert_matches_quadrature(chain, data, prior)

    def test_proposals_past_float_range_are_rejected(self, hits, monkeypatch):
        # Every third proposal is moved past the float range: math.exp
        # overflows past |x| ~ 709.8, and alpha rounds to 1.0 past 36.7.
        # The chain rejects them instead of raising.
        draw = inference._Proposal.draw
        far = np.array([-800.0, 36.74, 40.0, 800.0])

        def with_far_proposals(self, u):
            xs, log_g = draw(self, u)
            xs[1::3] = far[np.arange(len(xs[1::3])) % 4]
            return xs, log_g

        monkeypatch.setattr(inference._Proposal, "draw", with_far_proposals)
        chain = ys.sample_posterior_continuous(hits, ys.JeffreysPrior(), McmcConfig(3_000, 0, seed=2))
        assert np.all(chain.draws > 0.0) and np.all(chain.draws < 1.0)
        assert 0.6 < chain.acceptance_rate < 0.7

    def test_mean_within_mcse_of_quadrature_posterior(self, hits):
        # The posterior mean and median of the hits data by quadrature over
        # the scalar log-target, against a 20,000/2,000 chain; the chain's
        # error is measured in Geyer MCSE, not against a hand-set band.
        prior = ys.JeffreysPrior()
        chain = ys.sample_posterior_continuous(hits, prior, McmcConfig(20_000, 2_000, seed=7))
        exact_mean = _assert_matches_quadrature(chain, hits, prior)
        assert exact_mean == pytest.approx(0.088621982668, abs=1e-9)  # perfbench's oracle

    def test_light_tail_within_mcse_of_quadrature(self):
        # The benchmark's light-tail case: 5,000 draws at alpha = 0.8.
        data = FrequencySample.from_observations(ys.sample(0.8, 5_000, seed=7))
        prior = ys.JeffreysPrior()
        chain = ys.sample_posterior_continuous(data, prior, McmcConfig(10_500, 500, seed=7))
        _assert_matches_quadrature(chain, data, prior)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("n", [30, 500, 5_000])
    def test_simulated_posteriors_within_mcse_of_quadrature(self, n, alpha):
        data = FrequencySample.from_observations(ys.sample(alpha, n, seed=n + int(100 * alpha)))
        prior = ys.JeffreysPrior()
        chain = ys.sample_posterior_continuous(data, prior, McmcConfig(10_500, 500, seed=n))
        _assert_matches_quadrature(chain, data, prior)

    def test_agrees_with_random_walk_reference(self, hits):
        # Two samplers that share only the scalar log-target: their means
        # agree within K_MCSE of their combined MCSE.
        prior = ys.JeffreysPrior()
        cfg = McmcConfig(20_000, 2_000, seed=11)
        chain = ys.sample_posterior_continuous(hits, prior, cfg)
        reference, _ = _reference_chain(hits, prior, cfg)
        mcse = math.hypot(geyer_ess(chain.draws).mcse, geyer_ess(reference).mcse)
        assert abs(chain.draws.mean() - reference.mean()) <= K_MCSE * mcse

    def test_metropolis_step_corrects_a_poor_proposal(self, hits, monkeypatch):
        # Five nodes across the bulk make g a poor fit to the hits posterior
        # (acceptance about 0.7); the accept step must still carry the
        # chain to the target.  A chain that accepts every proposal samples
        # g, about 50 MCSE off in the mean.
        monkeypatch.setattr(inference, "_NODES", 5)
        prior = ys.JeffreysPrior()
        chain = ys.sample_posterior_continuous(hits, prior, McmcConfig(20_000, 2_000, seed=7))
        assert 0.5 < chain.acceptance_rate < 0.9
        _assert_within_mcse(chain.draws, hits, prior)

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


class TestPrefetchedChain:
    """The chain's proposals do not depend on its state, so every proposal's
    log-target is evaluated ahead, a chunk at a time, before any decision."""

    def test_log_targets_equal_scalar_log_targets(self, hits):
        # Logits across the sampler's range, and past it: alpha rounding to
        # 1 past x = 36.7, and exp overflowing past |x| = 709.8.
        # The array calls equal the scalar ones; only alpha, ln alpha and
        # ln(1 - alpha) come from numpy's exp and log, which may round
        # otherwise.
        xs = np.random.default_rng(1).normal(0.0, 10.0, 250).clip(-700.0, 30.0).tolist()
        xs += [-710.0, -701.0, -40.0, 30.0, 37.0, 701.0, 710.0]
        light = FrequencySample.from_observations(ys.sample(0.8, 5_000, seed=3))
        prior = ys.JeffreysPrior()
        for data in (hits, light):
            lps, alphas = inference._log_targets(data, prior, np.array(xs))
            expected = np.array([_scalar_log_target(data, prior, x) for x in xs])
            np.testing.assert_array_equal(np.isinf(lps), np.isnan(expected[:, 1]))
            np.testing.assert_allclose(lps, expected[:, 0], rtol=1e-14, atol=1e-12)
            inside = np.isfinite(lps)
            np.testing.assert_allclose(alphas[inside], expected[inside, 1], rtol=1e-15)

    def test_tuning_warning_points_at_the_caller(self, hits, monkeypatch):
        # A two-node proposal is flat across the window and accepts few
        # of its proposals.
        monkeypatch.setattr(inference, "_NODES", 2)
        with pytest.warns(ys.TuningWarning) as record:
            ys.sample_posterior_continuous(hits, ys.JeffreysPrior(), McmcConfig(200, 50, seed=1))
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_failure_at_a_prefetched_alpha_only(self, hits):
        # Every alpha the fit asks for must evaluate: a prior failing only
        # above 0.9, where the hits posterior has no mass the chain could
        # accept, still fails the fit, whose scan asks for alphas there.
        prior = _FailsAbove(0.9)
        with pytest.raises(ys.SeriesConvergenceError, match="forced"):
            ys.sample_posterior_continuous(hits, prior, McmcConfig(500, 100, seed=1))
        assert max(prior.asked) > 0.9

    def test_failure_on_the_chain_path_raises_where_the_reference_does(self, hits):
        # A prior failing above 0.1, inside the hits posterior (median
        # 0.066): the random-walk reference chain raises there, and so does
        # the fit.
        cfg = McmcConfig(2_000, 500, seed=1)
        with pytest.raises(ys.SeriesConvergenceError, match="forced"):
            _reference_chain(hits, _FailsAbove(0.1), cfg)
        with pytest.raises(ys.SeriesConvergenceError, match="forced"):
            ys.sample_posterior_continuous(hits, _FailsAbove(0.1), cfg)

    def test_memory_per_iteration(self):
        # The draws take 8 bytes per iteration (no burn-in); everything else
        # is held for one chunk of proposals at a time (_CHUNK_ALLOWANCE).
        iterations = 40_000
        data = FrequencySample.from_observations(ys.sample(0.8, 5_000, seed=3))
        tracemalloc.start()
        try:
            ys.sample_posterior_continuous(data, ys.JeffreysPrior(), McmcConfig(iterations, 0, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * iterations + _CHUNK_ALLOWANCE

    @pytest.mark.filterwarnings("ignore::yulesimon.TuningWarning")
    @pytest.mark.parametrize("n", [30, 500, 5_000])
    @pytest.mark.parametrize("scale", [0.05, 0.5, 2.5, 40.0])
    def test_equals_the_reference_chain(self, monkeypatch, n, scale):
        # Normal proposals of s.d. `scale` in place of the tabulated one
        # take the accept step through acceptance rates of 0.007 to 0.72,
        # and 700 iterations take it across chunk ends and the burn-in.
        # The chunked chain equals the chain taken one proposal at a time;
        # alphas from numpy's exp may round otherwise than math.exp's.
        _normal_proposals(monkeypatch, scale)
        prior = ys.JeffreysPrior()
        for j, alpha in enumerate((0.03, 0.35, 0.65, 0.97)):
            data = FrequencySample.from_observations(ys.sample(alpha, n, seed=n + j))
            cfg = McmcConfig(700, 100, seed=10 * j + 1)
            chain = ys.sample_posterior_continuous(data, prior, cfg)
            draws, rate = _independence_reference(data, prior, cfg, _NormalProposal(data, scale))
            np.testing.assert_allclose(chain.draws, draws, rtol=1e-15)
            assert chain.acceptance_rate == rate
            assert chain.config == cfg

    @pytest.mark.parametrize("scale", [0.5, 2.5])
    def test_array_call_always_failing(self, hits, monkeypatch, scale):
        # With normal proposals in place of the tabulated one, the chain's
        # first chunk is the fit's first prior call.  Its error propagates,
        # and the fit asks for no alpha past that chunk.
        _normal_proposals(monkeypatch, scale)
        prior = _FailsAbove(0.0)
        cfg = McmcConfig(800, 100, seed=9)
        with pytest.raises(ys.SeriesConvergenceError, match="forced"):
            ys.sample_posterior_continuous(hits, prior, cfg)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        xs, _ = _NormalProposal(hits, scale).draw(rng.random(inference._CHUNK))
        np.testing.assert_allclose(prior.asked, 1.0 / (1.0 + np.exp(-xs)), rtol=1e-15)


class TestLockstepChains:
    """A study's shard (`experiments._run_shard`) fits its replicates one
    after another: each fit equals its single call, whatever the shard
    holds beside it, and one that fails gives None and leaves the others."""

    @pytest.mark.parametrize("size", [1, 9, 60])
    def test_each_chain_equals_its_single_call(self, size):
        tasks = _mixed_tasks(size, size, ys.JeffreysPrior())
        shard = experiments._run_shard(tasks)
        assert len(shard) == size
        for task, (alpha_idx, rep_idx, summary) in zip(tasks, shard):
            assert (alpha_idx, rep_idx) == task[:2]
            assert summary == _single_summary(task, ys.JeffreysPrior())

    def test_hits_chain_in_a_batch(self, hits):
        # The prior object that fitted a shard carries nothing into the
        # next fit.
        prior = ys.JeffreysPrior()
        experiments._run_shard(_mixed_tasks(8, 3, prior))
        cfg = McmcConfig(3_000, 500, seed=7)
        chain = ys.sample_posterior_continuous(hits, prior, cfg)
        single = ys.sample_posterior_continuous(hits, ys.JeffreysPrior(), cfg)
        np.testing.assert_array_equal(chain.draws, single.draws)
        assert chain.acceptance_rate == single.acceptance_rate

    @pytest.mark.parametrize("size", [3, 5])  # the failing fit last, and in the middle
    def test_failing_chain_leaves_the_batch(self, size):
        alphas = (0.1, 0.3, 0.95, 0.4, 0.2)[:size]
        prior = _FailsWhereAllAbove()
        tasks = [(i, 0, a, 500, 40, McmcConfig(1_500, 300, seed=0), prior) for i, a in enumerate(alphas)]
        shard = experiments._run_shard(tasks)
        assert [summary is None for _, _, summary in shard] == [i == 2 for i in range(size)]
        with pytest.raises(ys.SeriesConvergenceError, match="forced"):
            _single_summary(tasks[2], _FailsWhereAllAbove())
        for i in (0, 1, 3, 4)[: size - 1]:
            assert shard[i][2] == _single_summary(tasks[i], _FailsWhereAllAbove())

    @pytest.mark.parametrize("size", [1, 4])
    def test_tuning_warnings_point_at_the_caller(self, monkeypatch, size):
        # Normal proposals 40 wide in the logit accept few of their draws;
        # each fit warns once, at the shard's call of the sampler.
        _normal_proposals(monkeypatch, 40.0)
        with pytest.warns(ys.TuningWarning) as record:
            experiments._run_shard(_mixed_tasks(size, 2, ys.JeffreysPrior()))
        assert len(record) == size
        assert {w.filename for w in record} == {experiments.__file__}

    @pytest.mark.parametrize("scale", [0.5, 2.5])
    def test_array_call_always_failing(self, monkeypatch, scale):
        # Every fit fails at its first chunk's prior call and gives None.
        _normal_proposals(monkeypatch, scale)
        prior = _FailsAbove(0.0)
        shard = experiments._run_shard(_mixed_tasks(4, 4, prior))
        assert [summary for _, _, summary in shard] == [None] * 4
        assert len(prior.asked) == 4 * inference._CHUNK

    def test_length_mismatch(self, hits):
        with pytest.raises(ValueError, match="configs"):
            ys.sample_posterior_continuous([hits, hits], ys.JeffreysPrior(), [McmcConfig(10, 0, 1)])

    def test_failures_down_to_a_few_live_chains(self):
        # Four fits on samples at alpha = 0.95 fail, wherever they lie in
        # the shard; the eight others equal their single calls.
        tasks = []
        for j in range(12):
            alpha, n = (0.95, 500) if j % 3 == 0 else (0.1 + 0.03 * j, 30)
            tasks.append((j, 0, alpha, n, 100, McmcConfig(600, 100, seed=0), _FailsWhereAllAbove()))
        shard = experiments._run_shard(tasks)
        assert [summary is None for _, _, summary in shard] == [j % 3 == 0 for j in range(12)]
        for task, (_, _, summary) in zip(tasks, shard):
            if summary is not None:
                assert summary == _single_summary(task, _FailsWhereAllAbove())

    def test_batch_memory_per_chain_iteration(self):
        # A shard holds one fit at a time and keeps only its summaries: 16
        # replicates of 1,000 iterations (no burn-in) may take 4 bytes per
        # chain-iteration more than the first alone, half of what keeping
        # every fit's draws would add.  They took 11-27 kB more (Python
        # 3.11, numpy 2.4).
        k, n = 16, 1_000
        prior = ys.JeffreysPrior()
        tasks = [(j, 0, 0.1 + 0.8 * j / (k - 1), 30, 0, McmcConfig(n, 0, seed=0), prior) for j in range(k)]
        peaks = []
        for shard in (tasks[:1], tasks):
            tracemalloc.start()
            try:
                experiments._run_shard(shard)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 32 * n + _CHUNK_ALLOWANCE
        assert peaks[1] < peaks[0] + 4 * k * n


class TestCallShape:
    """A fit takes one sample with one config; sequences are refused."""

    @pytest.mark.parametrize("as_list", ["configs", "samples"])
    def test_mixed_call_is_refused(self, hits, as_list):
        data, cfg = hits, McmcConfig(10, 0, 1)
        if as_list == "configs":
            cfg = [cfg]
        else:
            data = [data]
        with pytest.raises(ValueError, match="one sample with one McmcConfig"):
            ys.sample_posterior_continuous(data, ys.JeffreysPrior(), cfg)


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

    @pytest.mark.parametrize("m, seed", [(10, 41), (20, 42), (1000, 43)])
    def test_g_test_against_exact_masses(self, hits, m, seed):
        # A likelihood-ratio (G) test of the draw counts against the exact
        # masses, cells of expected count under 5 pooled.  At M = 1,000 the
        # data are 1e5 draws at alpha = 0.3, where most masses underflow to 0.
        import scipy.stats

        prior = ys.loss_based_prior(m)
        data = hits if m < 1000 else FrequencySample.from_observations(ys.sample(0.3, 100_000, seed))
        masses = ys.exact_grid_posterior(data, prior).masses
        if m == 1000:
            assert np.count_nonzero(masses == 0.0) > m // 2
        chain = ys.sample_posterior_discrete(data, prior, McmcConfig(20_000, 0, seed))
        index = np.searchsorted(prior.support, chain.draws)
        np.testing.assert_array_equal(prior.support[index], chain.draws)
        assert np.all(masses[index] > 0.0)
        observed = np.bincount(index, minlength=len(masses)).astype(float)
        expected = len(chain.draws) * masses
        small = expected < 5.0
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
        seen = observed > 0.0
        g = 2.0 * np.sum(observed[seen] * np.log(observed[seen] / expected[seen]))
        assert scipy.stats.chi2.sf(g, len(observed) - 1) > 1e-3

    def test_surnames_fit_accepts_every_draw_without_warning(self):
        # A surnames-mode table at M = 1,000, where a uniform-proposal
        # Metropolis chain accepts about 1% of its proposals.
        data = FrequencySample.from_observations(ys.sample(0.3, 100_000, seed=3))
        cfg = McmcConfig(iterations=25_000, burn_in=5_000, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ys.TuningWarning)
            chain = ys.sample_posterior_discrete(data, ys.loss_based_prior(1000), cfg)
        assert chain.acceptance_rate == 1.0


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
