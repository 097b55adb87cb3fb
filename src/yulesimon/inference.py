"""Posterior computation for the Yule-Simon parameter.

Two samplers:

* continuous (Jeffreys prior): random-walk Metropolis-Hastings on the
  logit scale, where the proposal is symmetric and the boundary is
  unreachable; the acceptance ratio includes the log-Jacobian of the map.
* discrete (grid prior): independent draws from the grid posterior, whose
  normalizer is a finite sum, by inverting its cumulative weights.

`exact_grid_posterior` normalizes the discrete posterior in closed form and
serves as the oracle the discrete draws are tested against.

Chains are deterministic given their seed (all randomness is pre-generated
from one PCG64 stream).  Every continuous chain runs in one engine,
`_chains`: a single fit is a batch of one chain, a study shard's fits a
batch of many.  Each round evaluates every live chain's proposals, one each
or a predicted run each, in one `_log_targets` call: one array Jeffreys call
and one `LikelihoodStack` call over (chain, logit) pairs (the scalar calls
for a single pair), each value the scalar calls' bit for bit.  Replaying
each chain's decisions up to its first mispredicted one gives the draws of
the chain taken one proposal at a time, whichever batch it ran in; a
``NumericError`` from the prior ends a chain only where that chain raises.

Costs per iteration at the default step, least of 9 interleaved runs on a
shared 2-CPU host whose speed varied by a third from run to run: a single
chain takes about 21 us on a 5,000-draw sample at alpha = 0.8 (acceptance
0.11) and 28-39 us on the hits data (0.85), against 55 us on either one
proposal at a time; between acceptance 1/4 and 3/4 its runs are too short
to pay for an array call.  A round of 9 to 64 chains at n = 30 costs about
65 us plus 7.4 us per chain.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .distribution import FrequencySample, LikelihoodStack, log_likelihood
from .errors import NumericError, TuningWarning
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
    """Iteration/burn-in budget, seed, and (continuous-chain) step size."""

    iterations: int
    burn_in: int
    seed: int
    proposal_scale: float = 0.5

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError(
                f"burn_in must satisfy 0 <= burn_in < iterations, got {self.burn_in}"
            )
        if not self.proposal_scale > 0.0:
            raise ValueError(f"proposal_scale must be > 0, got {self.proposal_scale}")
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


def _check_mixing(accepted: int, iterations: int, stacklevel: int) -> float:
    """The acceptance rate; a TuningWarning, pointing at the sampler's
    caller ``stacklevel`` frames up, when it is outside (0.05, 0.95)."""
    rate = accepted / iterations
    if rate < 0.05 or rate > 0.95:
        warnings.warn(
            f"acceptance rate {rate:.3f} outside (0.05, 0.95); "
            "consider retuning proposal_scale",
            TuningWarning,
            stacklevel=stacklevel,
        )
    return rate


def sample_posterior_continuous(
    data: FrequencySample | Sequence[FrequencySample],
    prior: JeffreysPrior,
    cfg: McmcConfig | Sequence[McmcConfig],
) -> Chain | list[Chain | NumericError]:
    """Random-walk MH on logit(alpha) targeting q(alpha) L(data|alpha).

    The unnormalized prior is used (the normalizer cancels in the ratio);
    the log-target in x = logit(alpha) gains the Jacobian term
    log alpha + log(1-alpha).

    Given one sample and one config, returns its chain, or raises the
    ``NumericError`` its prior raised.  Given equal-length sequences of
    samples and configs, returns one chain per pair, a chain that failed
    being that exception instead (none for empty sequences).  Each chain
    equals the chain of a single call with its config, draw for draw.
    """
    if isinstance(data, FrequencySample) and isinstance(cfg, McmcConfig):
        (chain,) = _chains([data], prior, [cfg])
        if isinstance(chain, NumericError):
            raise chain
        return chain
    if isinstance(data, FrequencySample) or isinstance(cfg, McmcConfig):
        raise ValueError(
            "pass one sample with one McmcConfig, or equal-length sequences of "
            f"samples and configs; got {type(data).__name__} and {type(cfg).__name__}"
        )
    samples, cfgs = list(data), list(cfg)
    if len(samples) != len(cfgs):
        raise ValueError(f"got {len(samples)} samples but {len(cfgs)} configs")
    return _chains(samples, prior, cfgs) if samples else []


def _unit_point(x: float) -> tuple[float, float] | None:
    """alpha = 1/(1 + e^-x) and 1 - alpha at logit x; None where alpha is not
    strictly inside (0, 1) in floating point, where the target density is
    zero: math.exp overflows past |x| ~ 709.8, and alpha rounds to exactly
    1.0 once x exceeds about 36.7."""
    if abs(x) > 700.0:
        return None
    alpha = 1.0 / (1.0 + math.exp(-x))
    if alpha >= 1.0:
        return None
    return alpha, 1.0 / (1.0 + math.exp(x))  # 1 - alpha without rounding loss


def _or_error(call, arg):
    """``call(arg)``, or the ``NumericError`` it raised."""
    try:
        return call(arg)
    except NumericError as exc:
        return exc


def _log_targets(
    prior: JeffreysPrior, likelihoods: LikelihoodStack, chains: list[int], xs: list[float]
) -> tuple[list[float | NumericError], list[float]]:
    """The log-targets ln L + ln q + ln alpha + ln(1 - alpha) and the alphas
    of (chain, logit) pairs, each chain's sample taken from ``likelihoods``.

    A log-target is -inf where alpha is not strictly inside (0, 1) (its
    alpha is then NaN), and the ``NumericError`` the prior raised there
    where it raised: the pairs' priors come from one array call, or, if
    that raises, from the scalar call at each alpha.  A single pair takes
    the scalar calls.  Each value is the sum of the scalar calls' values in
    this order, bit for bit, whichever calls gave them.
    """
    points = list(map(_unit_point, xs))
    inside = [i for i, point in enumerate(points) if point is not None]
    lps: list[float | NumericError] = [-math.inf] * len(xs)
    alphas = [math.nan] * len(xs)
    if not inside:
        return lps, alphas
    asked = [points[i][0] for i in inside]
    log_q = _or_error(prior.log_unnormalized_array, np.array(asked)) if len(asked) > 1 else None
    if isinstance(log_q, np.ndarray):
        log_q = log_q.tolist()
    else:
        log_q = [_or_error(prior.log_unnormalized, alpha) for alpha in asked]
    log_l = likelihoods([chains[i] for i in inside], asked)
    for i, q, ll in zip(inside, log_q, log_l):
        alphas[i], complement = points[i]
        lps[i] = q if isinstance(q, NumericError) else (
            ll + q + math.log(alphas[i]) + math.log(complement)
        )
    return lps, alphas


def _chain_setup(data: FrequencySample, cfg: McmcConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """A chain's random-walk steps and log-uniforms, one per iteration, from
    its own PCG64 stream, and its start logit: the method-of-moments
    estimate (E[K] = 1/alpha) clipped to [0.05, 0.95]."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    steps = cfg.proposal_scale * rng.standard_normal(cfg.iterations)
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(cfg.iterations))
    alpha0 = min(max(1.0 / data.sample_mean, 0.05), 0.95)
    return steps, log_u, math.log(alpha0 / (1.0 - alpha0))


# Longest run of proposals that one pair of array calls evaluates ahead,
# and the shortest: a predicted run of three (acceptance 1/4 to 1/3 or 2/3
# to 3/4) costs no less per iteration in array calls than in scalar steps.
# The K chains of a round share the longest, 32 // K each, so from 9 live
# chains on every chain takes one proposal per round.
_MAX_RUN = 32
_MIN_RUN = 4


def _chains(
    samples: Sequence[FrequencySample],
    prior: JeffreysPrior,
    cfgs: Sequence[McmcConfig],
) -> list[Chain | NumericError]:
    """One chain per (sample, config), advanced together in rounds.

    Each of the K live chains predicts its next decision to be its more
    frequent one so far (accept from a running acceptance rate of 1/2 up)
    and a run of L = 1/(1 - p) proposals, p that decision's rate, at most
    _MAX_RUN // K and its iterations left.  If every run is at least
    _MIN_RUN, each chain contributes its run, built along the predicted
    path (from the same state on a reject path, by running sums of the steps
    on an accept path); otherwise each contributes one proposal, since a
    chain taking one per round sets the number of rounds.  Each chain's
    decisions are replayed up to and including its first mispredicted one,
    whose proposal was built from the true state (pre-fetching: Brockwell
    2006, J. Comput. Graph. Stat. 15:246).  A replayed ``NumericError``
    ends its chain with that exception as its result; the others go on, and
    a failure past a misprediction is never replayed.
    """
    k = len(samples)
    iterations = [cfg.iterations for cfg in cfgs]
    n_iter = max(iterations)
    steps = np.zeros((n_iter, k))
    log_u = np.zeros((n_iter, k))
    x = []
    for j, (data, cfg) in enumerate(zip(samples, cfgs)):
        steps[: cfg.iterations, j], log_u[: cfg.iterations, j], x0 = _chain_setup(data, cfg)
        x.append(x0)
    likelihoods = LikelihoodStack(samples)

    # Each chain's state is its logit, log-target and alpha; a chain's draw
    # at an iteration is its alpha, 1/(1 + exp(-x)) as `_unit_point` takes it.
    lp, current = _log_targets(prior, likelihoods, list(range(k)), x)
    errors = {j: e for j, e in enumerate(lp) if isinstance(e, NumericError)}
    live = [j for j in range(k) if j not in errors]
    accepted = [0] * k
    predicted = [True] * k  # the decision each chain's run predicts
    trace = np.empty((n_iter, k))
    # Flat views of the arrays, whose slices and elements cost a fraction of
    # numpy indexing's: chain j's iteration i is element i * k + j.  at[j] is
    # that element for the chain's next iteration, end[j] the one past its last.
    step_at, lu_at, trace_at = (memoryview(a.ravel()) for a in (steps, log_u, trace))
    at = list(range(k))
    end = [n * k + j for j, n in enumerate(iterations)]
    left = 0  # iterations before a live chain can end, or 0 once one failed
    while live:
        cap = _MAX_RUN // len(live)
        runs = []
        if cap >= _MIN_RUN:
            for j in live:
                i = at[j] // k
                rate = accepted[j] / i if i else 0.5
                guess = predicted[j] = rate >= 0.5
                miss = 1.0 - rate if guess else rate
                run = min(cap, iterations[j] - i, int(1.0 / miss) if miss > 0.0 else cap)
                if run < _MIN_RUN:
                    break
                runs.append(run)
        if len(runs) < len(live):  # one proposal per chain
            owners = live
            xs = [x[j] + step_at[at[j]] for j in live]
            lus = [lu_at[at[j]] for j in live]
            left -= 1
        else:
            left -= max(runs)
            owners, xs, lus = [], [], []
            for j, run in zip(live, runs):
                column = slice(at[j], at[j] + run * k, k)
                if predicted[j]:
                    xs += list(itertools.accumulate(step_at[column].tolist(), initial=x[j]))[1:]
                else:
                    xs += [x[j] + s for s in step_at[column].tolist()]
                owners += [j] * run
                lus += lu_at[column].tolist()
        lps, alphas = _log_targets(prior, likelihoods, owners, xs)
        stop = -1  # the chain whose run stopped at a misprediction or failure
        for j, proposal, lp_prop, alpha, lu_j in zip(owners, xs, lps, alphas, lus):
            if j == stop:
                continue
            if isinstance(lp_prop, NumericError):  # the chain ends here
                errors[j], stop, at[j], left = lp_prop, j, end[j], 0
                continue
            took = lp_prop - lp[j] > lu_j
            if took:
                x[j], lp[j], current[j] = proposal, lp_prop, alpha
                accepted[j] += 1
            trace_at[at[j]] = current[j]
            at[j] += k
            if took != predicted[j]:
                stop = j
        if left <= 0:
            live = [j for j in live if at[j] < end[j]]
            left = min([end[j] - at[j] for j in live], default=0) // k
    del steps, log_u, step_at, lu_at  # freed before the draws are copied out

    chains = []
    for j, cfg in enumerate(cfgs):
        if j in errors:
            chains.append(errors[j])
            continue
        rate = _check_mixing(accepted[j], cfg.iterations, stacklevel=4)
        chains.append(Chain(trace[cfg.burn_in : cfg.iterations, j].copy(), rate, cfg))
    return chains


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
