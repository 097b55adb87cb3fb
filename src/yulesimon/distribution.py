"""The Yule-Simon distribution in its alpha-parametrization.

pmf(k; alpha) = c * B(k, c+1) on k = 1, 2, ... with c = 1/(1-alpha) and
alpha in (0, 1).  alpha is the probability that the next observation in the
underlying preferential-attachment process takes a previously unseen value;
the classical shape parameter is rho = 1/(1-alpha) > 1 and the tail decays
like k^-(rho+1).

Everything here is a pure value type or pure function; sampling takes an
explicit seed and owns its generator, so all operations are reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.special import gammaln

from .special import log_gamma_ratio

__all__ = [
    "YuleSimonModel",
    "FrequencySample",
    "log_pmf",
    "pmf",
    "survival",
    "mean",
    "sample",
    "log_likelihood",
]

# Largest draw the sampler will emit; reached only on the measure-zero-ish
# U = 0 branch (probability 2^-53 per draw), where the exact draw is +inf.
_MAX_DRAW = 2**62

# Largest j at which `survival` takes its product form (64 factors).
_SURVIVAL_PRODUCT_MAX = 65


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in the open interval (0, 1), got {alpha}")
    return alpha


def _inside_unit_interval(alphas: np.ndarray) -> bool:
    """Whether every element lies strictly inside (0, 1) (NaN does not).
    By min and max, not a mask: two reductions cost less than four ufunc
    calls."""
    return not alphas.size or (alphas.min() > 0.0 and alphas.max() < 1.0)


def _check_k(k: int) -> int:
    if k != int(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    return int(k)


@dataclass(frozen=True)
class YuleSimonModel:
    """The distribution's parameter with its derived shape accessors."""

    alpha: float

    def __post_init__(self):
        _check_alpha(self.alpha)

    @property
    def rho(self) -> float:
        """Classical shape parameter, rho = 1/(1-alpha) > 1."""
        return 1.0 / (1.0 - self.alpha)

    @property
    def mean(self) -> float:
        return mean(self.alpha)


@dataclass(frozen=True)
class FrequencySample:
    """Observed counts in (value, multiplicity) form.

    ``entries`` holds (k, count) pairs with distinct k >= 1 and count >= 1;
    ``n`` is the total number of observations.  The multiplicity form keeps
    likelihood cost proportional to the number of *distinct* values, which
    matters for surname-scale data.
    """

    entries: tuple[tuple[int, int], ...]
    n: int = field(init=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("FrequencySample needs at least one entry")
        seen = set()
        total = 0
        for k, count in self.entries:
            if k != int(k) or k < 1:
                raise ValueError(f"observation values must be integers >= 1, got {k}")
            if count != int(count) or count < 1:
                raise ValueError(f"multiplicities must be integers >= 1, got {count}")
            if k in seen:
                raise ValueError(f"duplicate observation value {k}")
            seen.add(k)
            total += int(count)
        object.__setattr__(self, "entries", tuple((int(k), int(c)) for k, c in self.entries))
        object.__setattr__(self, "n", total)
        # sorted by value, so sums over entries do not depend on entry order
        ordered = sorted(self.entries)
        object.__setattr__(self, "_ks", np.array([k for k, _ in ordered], dtype=np.float64))
        object.__setattr__(self, "_counts", np.array([c for _, c in ordered], dtype=np.float64))

    @classmethod
    def from_observations(cls, observations: Iterable[int]) -> "FrequencySample":
        """Group raw draws into (value, multiplicity) form."""
        values, counts = np.unique(np.asarray(list(observations), dtype=np.int64), return_counts=True)
        return cls(tuple(zip(values.tolist(), counts.tolist())))

    @property
    def values(self) -> np.ndarray:
        """Distinct observation values as float64, ascending."""
        return self._ks  # type: ignore[attr-defined]

    @property
    def multiplicities(self) -> np.ndarray:
        return self._counts  # type: ignore[attr-defined]

    @property
    def sample_mean(self) -> float:
        return float(np.dot(self.values, self.multiplicities) / self.n)


def _log_pmf(k, c: float):
    """ln c + ln B(k, c+1) elementwise in k, without gammaln cancellation."""
    return math.log(c) + gammaln(c + 1.0) + log_gamma_ratio(k, c + 1.0)


def log_pmf(k: int, alpha: float) -> float:
    """ln f(k; alpha) = ln c + ln B(k, c+1), c = 1/(1-alpha)."""
    k = _check_k(k)
    alpha = _check_alpha(alpha)
    return float(_log_pmf(float(k), 1.0 / (1.0 - alpha)))


def pmf(k: int, alpha: float) -> float:
    return math.exp(log_pmf(k, alpha))


def survival(j: int, alpha: float) -> float:
    """P(K >= j) = Gamma(j) Gamma(c+1) / Gamma(c+j); equals 1 at j = 1."""
    j = _check_k(j)
    alpha = _check_alpha(alpha)
    c = 1.0 / (1.0 - alpha)
    if j <= _SURVIVAL_PRODUCT_MAX:
        # the product of i/(c+i) over i < j, by a sum of logs that do not
        # cancel, where ln G(c+1) and the gammaln ratio below lose c ln(c) eps
        return math.exp(-math.fsum(math.log1p(c / i) for i in range(1, j)))
    if c + 1.0 < max(1e4, 1000.0 * (j - 1)):
        return float(math.exp(gammaln(c + 1.0) + log_gamma_ratio(float(j), c)))
    # G(j) G(c+1) / G(c+1+(j-1)): ln G(c+1) and the ratio above cancel as c
    # grows, and this ratio takes its Stirling branch
    return float(math.exp(gammaln(j) + log_gamma_ratio(c + 1.0, j - 1.0)))


def mean(alpha: float) -> float:
    """E[K] = rho/(rho-1) = 1/alpha (finite because rho > 1)."""
    return 1.0 / _check_alpha(alpha)


def sample(alpha: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws, deterministic given ``seed``.

    Uses the exact mixture representation: p = U^(1/rho) (so p is
    Beta(rho, 1)) and K | p geometric on {1, 2, ...} with success
    probability p, inverted as K = ceil(ln(1-V)/ln(1-p)).  Marginalizing p
    gives rho * B(k, rho+1), the target pmf.  The p -> 1 edge yields K = 1.
    """
    alpha = _check_alpha(alpha)
    if n != int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    rho = 1.0 / (1.0 - alpha)
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(int(n))
    v = rng.random(int(n))
    p = u ** (1.0 / rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.ceil(np.log1p(-v) / np.log1p(-p))
    raw = np.where(p <= 0.0, float(_MAX_DRAW), raw)  # U = 0 edge: exact draw is +inf
    return np.clip(raw, 1, _MAX_DRAW).astype(np.int64)


def log_likelihood(data: FrequencySample, alpha: float | np.ndarray) -> float | np.ndarray:
    """Sum over entries of count * log_pmf(k, alpha).

    ``alpha`` is a float, or a 1-d array of them, for which an array of
    log-likelihoods comes back from one array pass; each equals, bit for
    bit, the float that a call at that alpha alone returns.
    """
    if not isinstance(alpha, np.ndarray) or alpha.ndim == 0:
        alpha = _check_alpha(alpha)
        return float(np.dot(data.multiplicities, _log_pmf(data.values, 1.0 / (1.0 - alpha))))
    alphas = alpha.astype(np.float64, copy=False)
    if alphas.ndim != 1:
        raise ValueError(f"alpha must be a float or a 1-d array, got shape {alphas.shape}")
    if not _inside_unit_interval(alphas):
        raise ValueError("alpha must lie in the open interval (0, 1) at every point")
    c = 1.0 / (1.0 - alphas)
    c1 = c + 1.0
    # math.log per point, as the scalar call takes it: np.log can round differently
    head = np.array([math.log(x) for x in c.tolist()]) + gammaln(c1)
    rows = log_gamma_ratio(data.values, c1[:, None])
    rows += head[:, None]
    # a stacked row-by-vector product takes one dot per row, as the scalar
    # call's np.dot does; a plain matrix-vector product may sum otherwise
    return (rows[:, None, :] @ data.multiplicities)[:, 0]
