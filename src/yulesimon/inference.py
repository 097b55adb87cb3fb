"""Posterior computation for the Yule-Simon parameter.

Two samplers:

* continuous (Jeffreys prior): independence Metropolis-Hastings on
  x = logit(alpha) (Tierney 1994, Ann. Stat. 22:1701).  The posterior is
  one-dimensional, so its log-target f = ln L + ln q + ln alpha
  + ln(1 - alpha) is tabulated: a scan finds the window where f is within
  40 of its largest value, and the proposal g is the piecewise-linear
  density through exp(f) at nodes across it, with exponential tails
  heavier than the target's.  w = f/g is then bounded, so the chain is
  uniformly ergodic (Mengersen & Tweedie 1996, Ann. Stat. 24:101), and it
  accepts almost every proposal.
* discrete (grid prior): independent draws from the grid posterior, whose
  normalizer is a finite sum, by inverting its cumulative weights.

`exact_grid_posterior` normalizes the discrete posterior in closed form and
serves as the oracle the discrete draws are tested against.

Chains are deterministic given their seed: all randomness comes from one
PCG64 stream per chain.  The proposals do not depend on the chain's state,
so the log-targets of 256 of them at a time come from one array prior call
and one array likelihood call; a fit holds one such chunk and its draws.
A ``NumericError`` the prior raises anywhere the fit asks for propagates.

Costs, medians of 7 calls in one process on a shared 2-CPU host whose
speed varied by up to 2x between runs: the scan and the nodes take
1.1-1.6 ms per fit (2-4 rounds of 17 logits, then 129 nodes), and each
iteration about 6 us, nearly all of it in the prior's array call.  On the
hits data 1,000 iterations take 7.5 ms; on 5,000 draws at alpha = 0.8,
4,000 take 27 ms.  On 25 posteriors, of n = 1 to 100,000 observations,
the chain accepted at least 0.99 of its proposals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .distribution import FrequencySample, log_likelihood
from .errors import TuningWarning
from .priors import GridPrior, JeffreysPrior

__all__ = [
    "McmcConfig",
    "Chain",
    "PosteriorSummary",
    "sample_posterior_continuous",
    "sample_posterior_discrete",
    "exact_grid_posterior",
    "summarize",
]


@dataclass(frozen=True)
class McmcConfig:
    """Iteration/burn-in budget and seed."""

    iterations: int
    burn_in: int
    seed: int

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError(
                f"burn_in must satisfy 0 <= burn_in < iterations, got {self.burn_in}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Chain:
    """Post-burn-in draws plus the acceptance rate and the config echo."""

    draws: np.ndarray
    acceptance_rate: float
    config: McmcConfig

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=np.float64)
        if draws.ndim != 1:
            raise ValueError("draws must be a 1-d array")
        if len(draws) != self.config.iterations - self.config.burn_in:
            raise ValueError("chain length must equal iterations - burn_in")
        if len(draws) and not (np.all(draws > 0.0) and np.all(draws < 1.0)):
            raise ValueError("all draws must lie strictly inside (0, 1)")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")
        object.__setattr__(self, "draws", draws)


@dataclass(frozen=True)
class PosteriorSummary:
    """Mean, median and the 95% credible interval (0.025/0.975 quantiles)."""

    mean: float
    median: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not self.ci_low <= self.median <= self.ci_high:
            raise ValueError("summary must satisfy ci_low <= median <= ci_high")


def _check_mixing(accepted: int, iterations: int) -> float:
    """The acceptance rate; a TuningWarning, pointing at the caller of
    `sample_posterior_continuous`, when it is below 0.5."""
    rate = accepted / iterations
    if rate < 0.5:
        warnings.warn(
            f"acceptance rate {rate:.3f} below 0.5: the tabulated proposal "
            "does not match the posterior",
            TuningWarning,
            stacklevel=3,
        )
    return rate


# Logits searched: alpha = 1/(1 + e^-x) is a positive normal double down to
# x = -700.  It rounds to 1 only past 36.7, but the target is not computed
# reliably past x = 30 (1 - alpha = 9e-14): there the likelihood's gammaln
# terms cancel to errors that grow with n (3e2 at n = 5,000, against 3e-3
# at x = 25), and its spikes can top the posterior's peak by thousands.
# The target falls there no slower than e^(-x/2), so the posterior mass
# past x = 30 is 4e-7 for one observation of 1, and 1e-5 for 1,000 of them.
_X_MIN, _X_MAX = -700.0, 30.0
# The window holds every logit whose log-target is within _DEPTH of the
# largest found, the bulk those within _BULK.  A scan round takes _SCAN
# points; the window is resolved once _RESOLVED spacings lie inside it.
# _NODES nodes span the bulk.
_DEPTH = 40.0
_BULK = 10.0
_SCAN = 17
_RESOLVED = 8
_NODES = 129
# Most logits one prior call and one likelihood call take.
_CHUNK = 256
# Proposal tail rates in x, below the target's: its log falls like x as
# alpha -> 0 and at least like -x/2 as alpha -> 1, so w = f/g stays bounded.
_LEFT_RATE, _RIGHT_RATE = 0.5, 0.25


def _log_targets(
    data: FrequencySample, prior: JeffreysPrior, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The log-targets ln L + ln q + ln alpha + ln(1 - alpha) at logits
    ``xs`` (at most _CHUNK of them) and their alphas, from one call of
    ``prior.log_unnormalized`` and one of `log_likelihood`, each at the
    array of alphas.  A log-target is -inf where alpha is not strictly
    inside (0, 1) in floating point."""
    with np.errstate(over="ignore"):
        alphas = 1.0 / (1.0 + np.exp(-xs))
        complements = 1.0 / (1.0 + np.exp(xs))  # 1 - alpha without rounding loss
    inside = (alphas > 0.0) & (alphas < 1.0)
    lps = np.full(len(xs), -math.inf)
    asked = alphas[inside]
    if len(asked):
        lps[inside] = (
            log_likelihood(data, asked)
            + prior.log_unnormalized(asked)
            + np.log(asked)
            + np.log(complements[inside])
        )
    return lps, alphas


def _window(data: FrequencySample, prior: JeffreysPrior) -> tuple[np.ndarray, np.ndarray]:
    """Scanned logits that span every x with f(x) > max f - _DEPTH, and
    their log-targets.

    Each round scans _SCAN points of an interval and narrows it to the
    points within _DEPTH of the largest log-target plus one neighbour on
    each side, which, for a unimodal target, bracket that set.  A posterior
    narrower than the spacing shows in one point at most, and the next
    round scans its bracket; the scan stops once the set spans _RESOLVED
    spacings, and returns the bracket's points.
    """
    lo, hi = _X_MIN, _X_MAX
    while True:
        xs = np.linspace(lo, hi, _SCAN)
        lps, _ = _log_targets(data, prior, xs)
        above = np.flatnonzero(lps > lps.max() - _DEPTH)
        first, last = int(above[0]), int(above[-1])
        window = slice(max(first - 1, 0), last + 2)
        if last - first >= _RESOLVED:
            return xs[window], lps[window]
        lo, hi = float(xs[window][0]), float(xs[window][-1])


class _Proposal:
    """The density g through exp(f - max f) at the nodes, linear between
    them, with exponential tails past a window edge that is not an end of
    the logit range; drawn by exact inverse CDF.

    The nodes are the last scan round's points, which span the window, and
    _NODES across the posterior's bulk, where f > max f - _BULK: a tail
    falling as slowly as e^x, as alpha -> 0 on heavy-tailed data, can
    stretch the window far past the bulk.  Past the bulk exp(f) is convex
    on every posterior tested, so the coarser nodes there overestimate it,
    and w is at most about 1.
    """

    def __init__(self, data: FrequencySample, prior: JeffreysPrior):
        scanned, lps = _window(data, prior)
        bulk = np.flatnonzero(lps > lps.max() - _BULK)
        inner = np.linspace(
            scanned[max(bulk[0] - 1, 0)], scanned[min(bulk[-1] + 1, len(scanned) - 1)], _NODES
        )
        nodes, unique = np.unique(np.concatenate((scanned, inner)), return_index=True)
        lps = np.concatenate((lps, _log_targets(data, prior, inner)[0]))[unique]
        self.nodes = nodes
        self.peak = float(lps.max())
        self.heights = np.exp(lps - self.peak)
        steps = np.diff(nodes)
        self.slopes = np.diff(self.heights) / steps
        left = self.heights[0] / _LEFT_RATE if nodes[0] > _X_MIN else 0.0
        right = self.heights[-1] / _RIGHT_RATE if nodes[-1] < _X_MAX else 0.0
        areas = 0.5 * steps * (self.heights[:-1] + self.heights[1:])
        # cdf[i]: mass left of node i; a draw past cdf[-1] is in the right tail
        self.cdf = left + np.concatenate(([0.0], np.cumsum(areas)))
        self.total = self.cdf[-1] + right

    def draw(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The logits at cumulative masses ``u * total`` and ln g there."""
        nodes, heights, cdf = self.nodes, self.heights, self.cdf
        v = u * self.total
        piece = np.searchsorted(cdf, v, side="right") - 1
        xs, g = np.empty_like(v), np.empty_like(v)
        inner = (piece >= 0) & (piece < len(nodes) - 1)
        i = piece[inner]
        r, p, s = v[inner] - cdf[i], heights[i], self.slopes[i]
        # the root of p t + s t^2 / 2 = r, in the form that does not cancel
        t = 2.0 * r / (p + np.sqrt(np.maximum(p * p + 2.0 * s * r, 0.0)))
        xs[inner], g[inner] = nodes[i] + t, p + s * t
        with np.errstate(divide="ignore"):
            below = piece < 0
            g[below] = _LEFT_RATE * v[below]
            xs[below] = nodes[0] + np.log(g[below] / heights[0]) / _LEFT_RATE
            above = piece == len(nodes) - 1
            g[above] = heights[-1] - _RIGHT_RATE * (v[above] - cdf[-1])
            xs[above] = nodes[-1] - np.log(g[above] / heights[-1]) / _RIGHT_RATE
            return xs, np.log(g)


def sample_posterior_continuous(
    data: FrequencySample, prior: JeffreysPrior, cfg: McmcConfig
) -> Chain:
    """Independence Metropolis-Hastings on x = logit(alpha), targeting
    f(x) = ln L + ln q + ln alpha + ln(1 - alpha), from a proposal g
    tabulated off f (see `_Proposal`).

    The unnormalized prior is used; its normalizer cancels in the ratio.
    Proposals and log-uniforms come from the PCG64 stream of ``cfg.seed``,
    _CHUNK of each at a time.  A proposal y is accepted with probability
    min(1, w(y)/w(x)), w = f/g; the chain starts from its first proposal,
    and keeps the alphas of its last ``iterations - burn_in`` states.
    Raises the ``NumericError`` the prior raised at any alpha asked for.
    """
    if not (isinstance(data, FrequencySample) and isinstance(cfg, McmcConfig)):
        raise ValueError(
            "sample_posterior_continuous takes one sample with one McmcConfig, "
            "not sequences of samples or configs"
        )
    proposal = _Proposal(data, prior)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    draws = np.empty(cfg.iterations - cfg.burn_in)
    log_w, alpha, accepted = -math.inf, math.nan, 0
    for start in range(0, cfg.iterations, _CHUNK):
        size = min(_CHUNK, cfg.iterations - start)
        xs, log_g = proposal.draw(rng.random(size))
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random(size))
        lps, alphas = _log_targets(data, prior, xs)
        trace = []
        for lw, a, lu in zip((lps - proposal.peak - log_g).tolist(), alphas.tolist(), log_u.tolist()):
            if lw - log_w > lu:
                log_w, alpha = lw, a
                accepted += 1
            trace.append(alpha)
        end = start + size - cfg.burn_in  # draws kept up to this chunk's end
        if end > 0:
            draws[max(end - size, 0) : end] = trace[-end:]
    rate = _check_mixing(accepted, cfg.iterations)
    return Chain(draws, rate, cfg)


def _grid_log_posterior(data: FrequencySample, prior: GridPrior) -> np.ndarray:
    """ln mass_i + ln L(data | alpha_i) per grid point; zero masses give -inf."""
    with np.errstate(divide="ignore"):
        return np.log(prior.masses) + log_likelihood(data, prior.support)


def sample_posterior_discrete(
    data: FrequencySample, prior: GridPrior, cfg: McmcConfig
) -> Chain:
    """Independent draws from the grid posterior, mass_i L(alpha_i) normalized.

    The ``iterations - burn_in`` uniforms of the chain's PCG64 stream invert
    the cumulative sum of the weights exp(log_w - max log_w), where log_w are
    the log-weights `exact_grid_posterior` normalizes.  A point of zero
    weight is never drawn.  As Metropolis-Hastings with an independence
    proposal equal to the target, every draw is accepted: the acceptance
    rate is 1.  Draws take values only in prior.support.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    log_w = _grid_log_posterior(data, prior)
    cdf = np.cumsum(np.exp(log_w - log_w.max()))
    # u * cdf[-1] can round up to cdf[-1]; such a draw takes the last point
    # of positive weight, not a zero-weight point past it
    last = np.searchsorted(cdf, cdf[-1])
    idx = np.searchsorted(cdf, rng.random(cfg.iterations - cfg.burn_in) * cdf[-1], side="right")
    return Chain(prior.support[np.minimum(idx, last)], 1.0, cfg)


def exact_grid_posterior(data: FrequencySample, prior: GridPrior) -> GridPrior:
    """Closed-form grid posterior: mass_i proportional to prior_i L(alpha_i).

    Normalized with log-sum-exp; the result is the reference the empirical
    distribution of `sample_posterior_discrete`'s draws is compared against.
    That sampler takes the same log-weights but needs no normalizer.
    """
    log_w = _grid_log_posterior(data, prior)
    log_w -= logsumexp(log_w)
    masses = np.exp(log_w)
    masses /= masses.sum()
    return GridPrior(prior.m, prior.support.copy(), masses)


def summarize(chain: Chain) -> PosteriorSummary:
    """Sample mean, interpolated (type-7) median and 0.025/0.975 quantiles."""
    draws = chain.draws
    if len(draws) == 0:
        raise ValueError("cannot summarize an empty chain")
    lo, med, hi = np.quantile(draws, [0.025, 0.5, 0.975])
    return PosteriorSummary(float(draws.mean()), float(med), float(lo), float(hi))
