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
from one PCG64 stream).  A chain is a single sequential computation;
multiple chains may run concurrently with independent seeds.
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


def _check_mixing(accepted: int, iterations: int) -> float:
    rate = accepted / iterations
    if rate < 0.05 or rate > 0.95:
        warnings.warn(
            f"acceptance rate {rate:.3f} outside (0.05, 0.95); "
            "consider retuning proposal_scale",
            TuningWarning,
            stacklevel=3,
        )
    return rate


def sample_posterior_continuous(
    data: FrequencySample, prior: JeffreysPrior, cfg: McmcConfig
) -> Chain:
    """Random-walk MH on logit(alpha) targeting q(alpha) L(data|alpha).

    The unnormalized prior is used (the normalizer cancels in the ratio);
    the log-target in x = logit(alpha) gains the Jacobian term
    log alpha + log(1-alpha).
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    steps = cfg.proposal_scale * rng.standard_normal(cfg.iterations)
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(cfg.iterations))

    def log_target(x: float) -> float:
        # Proposals whose alpha is not strictly inside (0, 1) in floating
        # point have zero target density: math.exp overflows past |x| ~ 709.8,
        # and alpha rounds to exactly 1.0 once x exceeds about 36.7.
        if abs(x) > 700.0:
            return -math.inf
        alpha = 1.0 / (1.0 + math.exp(-x))
        complement = 1.0 / (1.0 + math.exp(x))  # 1 - alpha without rounding loss
        if alpha >= 1.0:
            return -math.inf
        return (
            log_likelihood(data, alpha)
            + prior.log_unnormalized(alpha)
            + math.log(alpha)
            + math.log(complement)
        )

    alpha0 = _initial_alpha(data)
    x = math.log(alpha0 / (1.0 - alpha0))
    lp = log_target(x)
    kept = np.empty(cfg.iterations - cfg.burn_in, dtype=np.float64)
    accepted = 0
    for i in range(cfg.iterations):
        proposal = x + steps[i]
        lp_prop = log_target(proposal)
        if lp_prop - lp > log_u[i]:
            x = proposal
            lp = lp_prop
            accepted += 1
        if i >= cfg.burn_in:
            kept[i - cfg.burn_in] = 1.0 / (1.0 + math.exp(-x))
    rate = _check_mixing(accepted, cfg.iterations)
    return Chain(kept, rate, cfg)


def _grid_log_posterior(data: FrequencySample, prior: GridPrior) -> np.ndarray:
    """ln mass_i + ln L(data | alpha_i) per grid point; zero masses give -inf."""
    with np.errstate(divide="ignore"):
        return np.log(prior.masses) + np.array(
            [log_likelihood(data, a) for a in prior.support]
        )


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
    proposals = rng.integers(0, n_points, size=cfg.iterations)
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(cfg.iterations))
    log_post = _grid_log_posterior(data, prior)

    idx = int(np.argmin(np.abs(prior.support - _initial_alpha(data))))
    kept = np.empty(cfg.iterations - cfg.burn_in, dtype=np.float64)
    accepted = 0
    for i in range(cfg.iterations):
        j = proposals[i]
        if log_post[j] - log_post[idx] > log_u[i]:
            idx = j
            accepted += 1
        if i >= cfg.burn_in:
            kept[i - cfg.burn_in] = prior.support[idx]
    rate = _check_mixing(accepted, cfg.iterations)
    return Chain(kept, rate, cfg)


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
