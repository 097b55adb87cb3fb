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
from one PCG64 stream).  A chain's draws are those of the
Metropolis-Hastings recursion taken one proposal at a time, whichever of
the two forms below computes them; multiple chains may run concurrently
with independent seeds.

Prefetched steps: a single continuous chain predicts its next decisions
from its running acceptance rate, evaluates each predicted run of
proposals with one array Jeffreys call (`jeffreys_log_unnormalized_array`)
and one array likelihood call, and replays the decisions up to the first
mispredicted one (`_prefetched_chain`).  Far from acceptance 1/2 the runs
are long: at the default step an iteration costs about 14 us on a
5,000-draw sample at alpha = 0.8 (acceptance 0.10) and 16 us on the hits
data (0.85), against 21 us one proposal at a time.  Between acceptance 1/4
and 3/4 the runs are too short to pay for an array call, and the chain
takes scalar steps at that cost.

Lockstep form: `sample_posterior_continuous` given equal-length sequences
of samples and configs advances all of their chains together.  Each
iteration evaluates every live chain's proposal with one array Jeffreys
call and one stacked likelihood call (`LikelihoodStack`), at about 5 us
per chain-iteration from a few dozen chains up.  Equality contract: each
chain keeps its own PCG64 stream, start point and boundary rules, and both
array calls return the scalar calls' values bit for bit, so every chain
equals, draw for draw and in its acceptance rate, the chain that a single
call with its sample and config returns.  A chain whose prior raises
``NumericError`` comes back as that exception; the others are unchanged.
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


def _log_target(data: FrequencySample, prior: JeffreysPrior, x: float) -> float:
    """ln q(alpha) + ln L(data | alpha) + ln alpha + ln(1 - alpha) at logit x,
    -inf where alpha is not strictly inside (0, 1)."""
    point = _unit_point(x)
    if point is None:
        return -math.inf
    alpha, complement = point
    return (
        log_likelihood(data, alpha)
        + prior.log_unnormalized(alpha)
        + math.log(alpha)
        + math.log(complement)
    )


def _log_targets(data: FrequencySample, prior: JeffreysPrior, xs: list[float]) -> list[float]:
    """`_log_target` at each of ``xs``, bit for bit, from one array prior
    call and one array likelihood call, the rest summed in its order."""
    lps = [-math.inf] * len(xs)
    inside = [(i, p) for i, p in enumerate(map(_unit_point, xs)) if p is not None]
    if inside:
        alphas = np.array([alpha for _, (alpha, _) in inside])
        log_q = prior.log_unnormalized_array(alphas).tolist()
        log_l = log_likelihood(data, alphas).tolist()
        for (i, (alpha, complement)), q, ll in zip(inside, log_q, log_l):
            lps[i] = ll + q + math.log(alpha) + math.log(complement)
    return lps


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
    the steps on an accept path.  One array prior call and one array
    likelihood call give their log-targets (`_log_targets`), each
    `_log_target`'s value bit for bit.  The decisions are then replayed up
    to and including the first mispredicted one, whose proposal was built
    from the true state, so the chain equals the chain taken one proposal
    at a time, draw for draw (pre-fetching: Brockwell 2006, J. Comput.
    Graph. Stat. 15:246).

    A run shorter than ``_MIN_RUN`` is one scalar step instead.  A run
    whose array calls raise ``NumericError``, maybe at an alpha the chain
    never visits, is taken again one scalar step at a time, so the chain
    raises where, and only where, the chain taken one proposal at a time
    does.
    """
    n_iter = cfg.iterations
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    steps = (cfg.proposal_scale * rng.standard_normal(n_iter)).tolist()
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(n_iter)).tolist()

    alpha0 = _initial_alpha(data)
    x = math.log(alpha0 / (1.0 - alpha0))
    lp = _log_target(data, prior, x)
    draw = 1.0 / (1.0 + math.exp(-x))
    trace = []  # the state's alpha after each iteration
    accepted = 0
    i = 0
    scalar_until = 0  # iterations before this one take scalar steps
    while i < n_iter:
        rate = accepted / i if i else 0.5
        predicted = rate >= 0.5  # the predicted decision: accept or reject
        miss = 1.0 - rate if predicted else rate
        run = min(_MAX_RUN, n_iter - i, int(1.0 / miss) if miss > 0.0 else _MAX_RUN)
        if run < _MIN_RUN or i < scalar_until:
            proposals = [x + steps[i]]
            lps = [_log_target(data, prior, proposals[0])]
        else:
            if predicted:
                proposals = list(itertools.accumulate(steps[i : i + run], initial=x))[1:]
            else:
                proposals = [x + step for step in steps[i : i + run]]
            try:
                lps = _log_targets(data, prior, proposals)
            except NumericError:
                scalar_until = i + run
                continue
        for proposal, lp_prop, lu in zip(proposals, lps, log_u[i : i + run]):
            took = lp_prop - lp > lu
            if took:
                x, lp, draw = proposal, lp_prop, 1.0 / (1.0 + math.exp(-proposal))
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
    takes every live chain's proposal through one array prior call and one
    stacked likelihood call.

    Each chain draws its steps and uniforms from its own PCG64 stream, as a
    single call does, keeps its start point and boundary rules, and takes
    its draws from ``math.exp``; the array prior and the stacked likelihood
    return the scalar calls' values bit for bit, so every chain equals the
    single call's chain, draw for draw.  A proposal whose prior the array
    pass cannot give is evaluated by the scalar call; a chain whose call
    raises ``NumericError`` leaves the batch with that exception as its
    result, and the others go on unchanged.
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
    for j, cfg in enumerate(cfgs):
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        steps[: cfg.iterations, j] = cfg.proposal_scale * rng.standard_normal(cfg.iterations)
        with np.errstate(divide="ignore"):
            log_u[: cfg.iterations, j] = np.log(rng.random(cfg.iterations))
    likelihoods = LikelihoodStack(samples)
    placeholders = [0.5] * k  # the alphas of chains not evaluated in a call
    errors: dict[int, NumericError] = {}

    def log_priors(chains: list[int], alphas: list[float]) -> list[float | None]:
        """ln q at each chain's alpha; None where the scalar call raised."""
        try:
            return prior.log_unnormalized_array(np.array(alphas)).tolist()
        except NumericError:
            pass
        out: list[float | None] = []
        for j, alpha in zip(chains, alphas):
            try:
                out.append(prior.log_unnormalized(alpha))
            except NumericError as exc:
                errors[j] = exc
                out.append(None)
        return out

    def log_targets(chains: list[int], xs: list[float]):
        """The log-targets and alphas of ``chains`` at logits ``xs``, as the
        scalar chain's ``log_target`` takes them (-inf outside the float
        range); the log-target of a chain whose prior raised is None."""
        lps: list[float | None] = [-math.inf] * len(xs)
        alphas = [math.nan] * len(xs)
        inside, inside_chains, complements = [], [], []
        for i, (j, point) in enumerate(zip(chains, map(_unit_point, xs))):
            if point is not None:
                alphas[i], complement = point
                inside.append(i)
                inside_chains.append(j)
                complements.append(complement)
        if not inside:
            return lps, alphas
        inside_alphas = [alphas[i] for i in inside]
        log_q = log_priors(inside_chains, inside_alphas)
        stacked = placeholders.copy()
        for j, alpha in zip(inside_chains, inside_alphas):
            stacked[j] = alpha
        log_l = likelihoods(stacked)
        for i, j, alpha, complement, q in zip(
            inside, inside_chains, inside_alphas, complements, log_q
        ):
            lps[i] = None if q is None else (
                log_l[j] + q + math.log(alpha) + math.log(complement)
            )
        return lps, alphas

    # Each chain's state is its logit, log-target and alpha; a chain's draw
    # at an iteration is its alpha, 1/(1 + exp(-x)) as the single call takes it.
    x = []
    for data in samples:
        alpha0 = _initial_alpha(data)
        x.append(math.log(alpha0 / (1.0 - alpha0)))
    lp, current = log_targets(list(range(k)), x)
    live = [j for j in range(k) if j not in errors]
    accepted = [0] * k
    trace = np.empty((n_iter, k))
    for i in range(n_iter):
        if i in finish:
            live = [j for j in live if iterations[j] > i]
        step, log_u_i = steps[i].tolist(), log_u[i].tolist()
        proposals = [x[j] + step[j] for j in live]
        lp_props, alphas = log_targets(live, proposals)
        for j, proposal, lp_prop, alpha in zip(live, proposals, lp_props, alphas):
            if lp_prop is not None and lp_prop - lp[j] > log_u_i[j]:
                x[j], lp[j], current[j] = proposal, lp_prop, alpha
                accepted[j] += 1
        if None in lp_props:  # chains whose prior raised leave the batch
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
