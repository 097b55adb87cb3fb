"""Posterior computation for the Yule-Simon parameter.

Two samplers:

* continuous (Jeffreys prior): random-walk Metropolis-Hastings on the
  logit scale, where the proposal is symmetric and the boundary is
  unreachable; the acceptance ratio includes the log-Jacobian of the map.
* discrete (grid prior): Metropolis-Hastings over grid indices with a
  uniform independence proposal, which is symmetric for any grid size.

`exact_grid_posterior` normalizes the discrete posterior in closed form and
serves as the oracle the discrete chain is tested against.

Chains are deterministic given their seed (all randomness is pre-generated
from one PCG64 stream).  A continuous chain's draws are those of the
recursion taken one proposal at a time, whichever of its two forms
computes them, and both take their log-targets from `_log_targets`: one
array Jeffreys call and one `LikelihoodStack` call over a list of
(chain, logit) pairs (the scalar calls for a single pair), each value the
scalar calls' bit for bit.  Its one failure policy: where the array prior
call raises ``NumericError`` the scalar call is taken at each alpha, and a
pair whose scalar call raised gets that exception as its log-target.  A
chain raises it only on reaching that pair, where the chain taken one
proposal at a time raises.

* Prefetched steps (`_prefetched_chain`, a single chain): each predicted
  run of proposals is evaluated in one `_log_targets` call and the
  decisions are replayed up to the first mispredicted one.  At the
  default step an iteration costs about 14 us on a 5,000-draw sample at
  alpha = 0.8 (acceptance 0.10) and 16 us on the hits data (0.85),
  against 21 us one proposal at a time; between acceptance 1/4 and 3/4
  the runs are too short to pay for an array call.
* Lockstep (`_lockstep_chains`, `sample_posterior_continuous` given
  sequences of samples and configs): every live chain's proposal is
  evaluated in one `_log_targets` call per iteration, at about 5 us per
  chain-iteration from a few dozen chains up.  Each chain keeps its own
  stream, start point and boundary rules, so it equals the single call's
  chain; a chain whose prior raised comes back as that exception.
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


def _initial_alpha(data: FrequencySample) -> float:
    # Method-of-moments start: E[K] = 1/alpha, clipped away from the edges.
    return min(max(1.0 / data.sample_mean, 0.05), 0.95)


def _check_mixing(accepted: int, iterations: int, stacklevel: int = 3) -> float:
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

    Given equal-length sequences of samples and configs, runs one chain per
    pair in lockstep (see `_lockstep_chains`) and returns the list of their
    chains; a chain that raised ``NumericError`` is that exception instead.
    """
    if not isinstance(data, FrequencySample):
        return _lockstep_chains(data, prior, cfg)
    return _prefetched_chain(data, prior, cfg)


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
    its own PCG64 stream, and its start logit."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    steps = cfg.proposal_scale * rng.standard_normal(cfg.iterations)
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(cfg.iterations))
    alpha0 = _initial_alpha(data)
    return steps, log_u, math.log(alpha0 / (1.0 - alpha0))


# Longest run of proposals that one pair of array calls evaluates ahead,
# and the shortest: a predicted run of three (acceptance 1/4 to 1/3 or 2/3
# to 3/4) costs no less per iteration in array calls than in scalar steps.
_MAX_RUN = 32
_MIN_RUN = 4


def _prefetched_chain(data: FrequencySample, prior: JeffreysPrior, cfg: McmcConfig) -> Chain:
    """One chain, its proposals evaluated ahead in predicted runs.

    The next decision is predicted to be the more frequent one so far
    (accept from a running acceptance rate of 1/2 up), and a run of
    L = 1/(1 - p) proposals, p the predicted decision's rate, at most
    ``_MAX_RUN`` and the iterations left, is built along the predicted
    path: each from the same state on a reject path, the running sums of
    the steps on an accept path.  `_log_targets` evaluates them (a run
    shorter than ``_MIN_RUN`` is one proposal, through the scalar calls).
    The decisions are then replayed up to and including the first
    mispredicted one, whose proposal was built from the true state, so the
    chain equals the chain taken one proposal at a time, draw for draw
    (pre-fetching: Brockwell 2006, J. Comput. Graph. Stat. 15:246).

    Every replayed proposal is one that the chain taken one proposal at a
    time evaluates, so raising a replayed proposal's ``NumericError`` makes
    the chain raise where, and only where, that chain does; a failure
    past the misprediction is never replayed.
    """
    n_iter = cfg.iterations
    steps, log_u, x = _chain_setup(data, cfg)
    steps, log_u = steps.tolist(), log_u.tolist()
    likelihoods = LikelihoodStack([data])
    (lp,), (draw,) = _log_targets(prior, likelihoods, [0], [x])
    if isinstance(lp, NumericError):
        raise lp
    trace = []  # the state's alpha after each iteration
    accepted = 0
    i = 0
    while i < n_iter:
        rate = accepted / i if i else 0.5
        predicted = rate >= 0.5  # the predicted decision: accept or reject
        miss = 1.0 - rate if predicted else rate
        run = min(_MAX_RUN, n_iter - i, int(1.0 / miss) if miss > 0.0 else _MAX_RUN)
        if run < _MIN_RUN:
            run, proposals = 1, [x + steps[i]]
        elif predicted:
            proposals = list(itertools.accumulate(steps[i : i + run], initial=x))[1:]
        else:
            proposals = [x + step for step in steps[i : i + run]]
        lps, alphas = _log_targets(prior, likelihoods, [0] * run, proposals)
        for proposal, lp_prop, alpha, lu in zip(proposals, lps, alphas, log_u[i : i + run]):
            if isinstance(lp_prop, NumericError):
                raise lp_prop
            took = lp_prop - lp > lu
            if took:
                x, lp, draw = proposal, lp_prop, alpha
                accepted += 1
            trace.append(draw)
            i += 1
            if took != predicted:
                break
    rate = _check_mixing(accepted, n_iter, stacklevel=4)
    return Chain(np.array(trace[cfg.burn_in :]), rate, cfg)


def _lockstep_chains(
    samples: Sequence[FrequencySample],
    prior: JeffreysPrior,
    cfgs: Sequence[McmcConfig],
) -> list[Chain | NumericError]:
    """One chain per (sample, config), advanced together: each iteration
    takes every live chain's proposal through one `_log_targets` call.

    Each chain has its own steps, uniforms and start point, as a single
    call does, and its own boundary rules and log-targets, so every chain
    equals the single call's chain, draw for draw.  A chain whose
    log-target is a ``NumericError`` leaves the batch with that exception
    as its result, and the others go on unchanged.
    """
    samples, cfgs = list(samples), list(cfgs)
    if len(samples) != len(cfgs):
        raise ValueError(f"got {len(samples)} samples but {len(cfgs)} configs")
    k = len(samples)
    iterations = [cfg.iterations for cfg in cfgs]
    n_iter = max(iterations)
    finish = set(iterations)  # a chain of n iterations leaves at i = n
    steps = np.zeros((n_iter, k))
    log_u = np.zeros((n_iter, k))
    x = []
    for j, (data, cfg) in enumerate(zip(samples, cfgs)):
        steps[: cfg.iterations, j], log_u[: cfg.iterations, j], x0 = _chain_setup(data, cfg)
        x.append(x0)
    likelihoods = LikelihoodStack(samples)

    # Each chain's state is its logit, log-target and alpha; a chain's draw
    # at an iteration is its alpha, 1/(1 + exp(-x)) as the single call takes it.
    lp, current = _log_targets(prior, likelihoods, list(range(k)), x)
    errors = {j: e for j, e in enumerate(lp) if isinstance(e, NumericError)}
    live = [j for j in range(k) if j not in errors]
    accepted = [0] * k
    trace = np.empty((n_iter, k))
    for i in range(n_iter):
        if i in finish:
            live = [j for j in live if iterations[j] > i]
        step, log_u_i = steps[i].tolist(), log_u[i].tolist()
        proposals = [x[j] + step[j] for j in live]
        lp_props, alphas = _log_targets(prior, likelihoods, live, proposals)
        failed = False
        for j, proposal, lp_prop, alpha in zip(live, proposals, lp_props, alphas):
            if isinstance(lp_prop, NumericError):
                errors[j], failed = lp_prop, True
            elif lp_prop - lp[j] > log_u_i[j]:
                x[j], lp[j], current[j] = proposal, lp_prop, alpha
                accepted[j] += 1
        if failed:  # chains whose prior raised leave the batch
            live = [j for j in live if j not in errors]
        trace[i] = current

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
    """Independence-proposal MH over the grid indices.

    The proposal is uniform over all grid points (symmetric for any M), so
    the acceptance ratio is mass(alpha') L(alpha') / [mass(alpha) L(alpha)].
    Draws take values only in prior.support.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n_points = len(prior.support)
    # Python lists: indexing them costs a fraction of indexing numpy arrays
    proposals = rng.integers(0, n_points, size=cfg.iterations).tolist()
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(cfg.iterations)).tolist()
    log_post = _grid_log_posterior(data, prior).tolist()

    idx = int(np.argmin(np.abs(prior.support - _initial_alpha(data))))
    lp = log_post[idx]
    visited = []
    accepted = 0
    for j, lu in zip(proposals, log_u):
        lp_prop = log_post[j]
        if lp_prop - lp > lu:
            idx, lp = j, lp_prop
            accepted += 1
        visited.append(idx)
    rate = _check_mixing(accepted, cfg.iterations)
    return Chain(prior.support[visited[cfg.burn_in :]], rate, cfg)


def exact_grid_posterior(data: FrequencySample, prior: GridPrior) -> GridPrior:
    """Closed-form grid posterior: mass_i proportional to prior_i L(alpha_i).

    Normalized with log-sum-exp; the result is the reference the discrete
    chain's empirical distribution is compared against.
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
