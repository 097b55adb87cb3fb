"""The two objective priors for the Yule-Simon parameter alpha.

Jeffreys prior (continuous): proportional to sqrt of the Fisher
information, which reduces to the closed form

    I(alpha) = [1 - 3F2(1, c+1, 1; c+2, c+2; 1) / (2-alpha)^2] / (1-alpha)^2,

c = 1/(1-alpha).  The radicand is evaluated cancellation-free as
[(3-alpha)(1-alpha) - F1] / (2-alpha)^2 where F1 is the hypergeometric
series past its leading 1.  A brute-force expectation oracle
(`fisher_information_oracle`) provides an independent route for
verification.

Loss-based prior (discrete): on the grid D_M = {i/M : i = 1..M-1}, each
point gets mass proportional to exp(min KL divergence to any other grid
point) - 1.  The KL expectation terms are summed head-on and closed with an
Euler-Maclaurin tail; the family's monotone likelihood ratio in k puts the
minimum at a neighbouring grid point, so only neighbours are paired.

Prior construction is pure computation: no global state, deterministic
output for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, polygamma
from scipy.special import digamma as _psi

from .controls import QuadratureControl, SeriesControl
from .distribution import _check_alpha
from .errors import NumericError, SeriesConvergenceError
from .special import hyp3f2_unit_excess, integrate_unit_interval, log_gamma_ratio

__all__ = [
    "fisher_information",
    "FisherOracleEstimate",
    "fisher_information_oracle",
    "jeffreys_unnormalized",
    "jeffreys_log_unnormalized",
    "jeffreys_normalizer",
    "JeffreysPrior",
    "kl_divergence",
    "loss_based_prior",
    "GridPrior",
]

# Properness bound for the Jeffreys normalizer: pi/3 - ln(2 - sqrt(3)).
NORMALIZER_UPPER_BOUND = math.pi / 3.0 - math.log(2.0 - math.sqrt(3.0))

_DEFAULT_SERIES = SeriesControl()


def _radicand(alpha: float, ctrl: SeriesControl) -> float:
    """(3-alpha)(1-alpha) - F1, all over (2-alpha)^2; equals 1 - F/(2-alpha)^2."""
    c = 1.0 / (1.0 - alpha)
    f1 = hyp3f2_unit_excess(c + 1.0, c + 2.0, ctrl)
    rad = ((3.0 - alpha) * (1.0 - alpha) - f1) / ((2.0 - alpha) * (2.0 - alpha))
    if rad <= 0.0:
        # Provably positive on (0, 1); a nonpositive value means rounding at
        # the series tolerance, reported rather than clamped.
        raise SeriesConvergenceError(
            f"Fisher radicand nonpositive ({rad}) at alpha={alpha}; "
            "tighten the series tolerance",
            estimate=rad,
        )
    return rad


def fisher_information(alpha: float, ctrl: SeriesControl = _DEFAULT_SERIES) -> float:
    """Closed-form Fisher information I(alpha); strictly positive."""
    alpha = _check_alpha(alpha)
    one_m = 1.0 - alpha
    return _radicand(alpha, ctrl) / (one_m * one_m)


@dataclass(frozen=True)
class FisherOracleEstimate:
    """Brute-force estimate of I(alpha) with its truncation error bound.

    ``first_expectation`` is E_alpha[sum_{j=1..k} 1/(c+j)] (analytically
    1 - alpha) and ``second_expectation`` is
    E_alpha[sum_{j=0..k-1} 1/(c+1+j)^2] (analytically
    (1-alpha)^2/(2-alpha)^2 times the 3F2); both carry one-sided residual
    bounds.
    """

    value: float
    error_bound: float
    first_expectation: float
    first_bound: float
    second_expectation: float
    second_bound: float


def fisher_information_oracle(
    alpha: float, k_max: int = 1_000_000
) -> FisherOracleEstimate:
    """Independent route to I(alpha): the pre-reduction expectation form.

    Sums both expectations over k <= k_max against the pmf, then adds the
    exact partial tail A(k_max) * S(k_max+1) obtained by interchanging the
    order of summation (S is the closed-form survival function).  The
    remaining residual sum_{j>K} S(j)/(c+j)^p is bounded via
    S(j) <= Gamma(c+1) j^-c, giving Gamma(c+1) K^-c / c for the first
    expectation and Gamma(c+1) K^-(c+1) / (c+1) for the second.
    """
    alpha = _check_alpha(alpha)
    if k_max < 1_000:
        raise ValueError(f"k_max must be >= 1000, got {k_max}")
    c = 1.0 / (1.0 - alpha)
    log_c = math.log(c)
    lg_c1 = float(gammaln(c + 1.0))

    e1 = 0.0
    e2 = 0.0
    a_carry = 0.0  # A(k) = sum_{j<=k} 1/(c+j)
    b_carry = 0.0  # B(k) = sum_{j<=k} 1/(c+j)^2
    block = 1_000_000
    for start in range(1, k_max + 1, block):
        k = np.arange(start, min(start + block, k_max + 1), dtype=np.float64)
        pmf = np.exp(log_c + gammaln(k) + lg_c1 - gammaln(k + c + 1.0))
        inv = 1.0 / (c + k)
        a_vals = a_carry + np.cumsum(inv)
        b_vals = b_carry + np.cumsum(inv * inv)
        e1 += float(np.dot(pmf, a_vals))
        e2 += float(np.dot(pmf, b_vals))
        a_carry = float(a_vals[-1])
        b_carry = float(b_vals[-1])

    surv = math.exp(float(gammaln(k_max + 1)) + lg_c1 - float(gammaln(c + k_max + 1)))
    e1 += a_carry * surv
    e2 += b_carry * surv
    e1_bound = math.exp(lg_c1 - c * math.log(k_max)) / c
    e2_bound = math.exp(lg_c1 - (c + 1.0) * math.log(k_max)) / (c + 1.0)

    one_m = 1.0 - alpha
    value = -1.0 / one_m**2 + 2.0 / one_m**3 * e1 - 1.0 / one_m**4 * e2
    bound = 2.0 / one_m**3 * e1_bound + 1.0 / one_m**4 * e2_bound
    return FisherOracleEstimate(value, bound, e1, e1_bound, e2, e2_bound)


def jeffreys_unnormalized(alpha: float, ctrl: SeriesControl = _DEFAULT_SERIES) -> float:
    """q(alpha) = sqrt(I(alpha)); positive and finite on (0, 1)."""
    alpha = _check_alpha(alpha)
    return math.sqrt(_radicand(alpha, ctrl)) / (1.0 - alpha)


def jeffreys_log_unnormalized(
    alpha: float, ctrl: SeriesControl = _DEFAULT_SERIES
) -> float:
    """ln q(alpha), the form MCMC consumes (the normalizer cancels)."""
    alpha = _check_alpha(alpha)
    return 0.5 * math.log(_radicand(alpha, ctrl)) - math.log1p(-alpha)


def jeffreys_normalizer(
    quad_ctrl: QuadratureControl = QuadratureControl(),
    series_ctrl: SeriesControl = _DEFAULT_SERIES,
) -> float:
    """K = integral of q over (0, 1); finite, at most pi/3 - ln(2-sqrt(3))."""
    return integrate_unit_interval(
        lambda a: jeffreys_unnormalized(a, series_ctrl), quad_ctrl
    )


@dataclass
class JeffreysPrior:
    """The Jeffreys prior with its evaluation controls and cached normalizer.

    The series control is the package default: its rel_tol = 1e-12 costs no
    more than a looser one, because the 3F2 series meets it with its first
    128-term head at every alpha.
    """

    series_ctrl: SeriesControl = _DEFAULT_SERIES
    quad_ctrl: QuadratureControl = QuadratureControl()
    _normalizer: float | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def unnormalized(self, alpha: float) -> float:
        return jeffreys_unnormalized(alpha, self.series_ctrl)

    def log_unnormalized(self, alpha: float) -> float:
        return jeffreys_log_unnormalized(alpha, self.series_ctrl)

    def normalizer(self) -> float:
        """Computed once per prior instance and reused."""
        if self._normalizer is None:
            value = jeffreys_normalizer(self.quad_ctrl, self.series_ctrl)
            if not 0.0 < value <= NORMALIZER_UPPER_BOUND + 1e-6:
                raise NumericError(
                    f"normalizer {value} violates (0, {NORMALIZER_UPPER_BOUND}]"
                )
            self._normalizer = value
        return self._normalizer

    def density(self, alpha: float) -> float:
        return self.unnormalized(alpha) / self.normalizer()


@dataclass(frozen=True)
class GridPrior:
    """A probability vector over the grid {i/M : i = 1..M-1}.

    Doubles as the container for exact grid posteriors (same support,
    updated masses).
    """

    m: int
    support: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        if self.m < 3:
            raise ValueError(f"grid denominator M must be >= 3, got {self.m}")
        support = np.asarray(self.support, dtype=np.float64)
        masses = np.asarray(self.masses, dtype=np.float64)
        if support.shape != masses.shape or support.ndim != 1:
            raise ValueError("support and masses must be 1-d arrays of equal length")
        if not (np.all(support > 0.0) and np.all(support < 1.0)):
            raise ValueError("support points must lie strictly inside (0, 1)")
        if not np.all(np.diff(support) > 0.0):
            raise ValueError("support must be strictly increasing")
        if np.any(masses < 0.0):
            raise ValueError("masses must be nonnegative")
        if abs(float(masses.sum()) - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1, got {masses.sum()!r}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)


# ---------------------------------------------------------------------------
# Kullback-Leibler divergence and the loss-based prior.
#
# D(alpha || alpha') = log(c/c') + E_alpha[log B(k, c+1) - log B(k, c'+1)].
# The expectation is a single sum over k: a head of terms summed outright,
# then an Euler-Maclaurin closure
#     sum_{k>=A} h(k) = int_A^inf h + h(A)/2 - h'(A)/12 + h'''(A)/720 + R,
# with the integral taken under t = A e^w (Gauss-Legendre panels in w) and
# |R| estimated by |h'''(A)|/720, the size of the last closure term: the
# rule special.hyp3f2_unit_excess uses for the 3F2 series.  A 1,024-term
# head meets rel_tol = 1e-12 on grids up to M = 1,000 (at M = 1,000 the
# estimate is 4.9e-13 of the KL).  Only neighbouring grid points are paired:
# each pair reads adjacent column slices of the per-gridpoint vectors and
# differences its log B terms term by term, so the work is O(M).
# ---------------------------------------------------------------------------

_KL_HEAD = 1024
_KL_BLOCK_FLOATS = 1 << 17  # floats per head block (1 MB): cache-sized, so the cost is steady


def _gauss_log_nodes(n_per_panel: int = 16, panel_width: float = 2.0, w_max: float = 64.0):
    x, w = np.polynomial.legendre.leggauss(n_per_panel)
    edges = np.arange(0.0, w_max + 0.5 * panel_width, panel_width)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes.append((lo + hi) / 2.0 + (hi - lo) / 2.0 * x)
        weights.append((hi - lo) / 2.0 * w)
    return np.concatenate(nodes), np.concatenate(weights)


_W_NODES, _W_WEIGHTS = _gauss_log_nodes()


def _grid_vectors(cs: np.ndarray, t: np.ndarray):
    """log B(t, c+1) column per grid point and the matching pmf values."""
    log_beta = gammaln(cs + 1.0)[None, :] + log_gamma_ratio(
        t[:, None], cs[None, :] + 1.0
    )
    pmf = cs[None, :] * np.exp(log_beta)
    return log_beta, pmf


def _pair_sums(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Column sums of p_own (v_own - v_other) over neighbouring columns: row 0
    pairs column i with i+1, row 1 column i+1 with i."""
    lo, hi = slice(None, -1), slice(1, None)  # views: index arrays would copy
    return np.stack([(p[:, lo] * (v[:, lo] - v[:, hi])).sum(axis=0),
                     (p[:, hi] * (v[:, hi] - v[:, lo])).sum(axis=0)])


def _neighbour_kl(cs: np.ndarray, head: int):
    """Neighbour KLs and their remainder estimates, both of shape (2, M-1):
    entry i of row 0 is KL(cs[i] || cs[i+1]), of row 1 KL(cs[i+1] || cs[i])."""
    block = max(1, _KL_BLOCK_FLOATS // len(cs))
    head_sum = sum(
        _pair_sums(*_grid_vectors(cs, np.arange(k0 + 1.0, min(k0 + block, head) + 1.0)))
        for k0 in range(0, head, block)
    )
    a = float(head + 1)
    t = a * np.exp(_W_NODES)
    v_tail, p_tail = _grid_vectors(cs, t)
    tail_int = _pair_sums(v_tail, (_W_WEIGHTS * t)[:, None] * p_tail)  # dt = t dw

    # boundary terms at t = a
    v_a = float(gammaln(a)) + gammaln(cs + 1.0) - gammaln(a + cs + 1.0)
    p_a = cs * np.exp(v_a)
    dv_a = float(_psi(a)) - _psi(a + cs + 1.0)
    d2v_a = float(polygamma(1, a)) - polygamma(1, a + cs + 1.0)
    d3v_a = float(polygamma(2, a)) - polygamma(2, a + cs + 1.0)

    def pairs(x):  # x at each pair's own point and at its other point
        return np.stack([x[:-1], x[1:]]), np.stack([x[1:], x[:-1]])

    (v, v_o), (dv, dv_o), (d2v, d2v_o), (d3v, d3v_o), (p, _), (log_c, log_c_o) = (
        pairs(x) for x in (v_a, dv_a, d2v_a, d3v_a, p_a, np.log(cs))
    )
    # h = p D with D = v - v_o, and p' = p v', p'' = p (v'^2 + v''),
    # p''' = p (v'^3 + 3 v' v'' + v'''), so h''' = p'''D + 3p''D' + 3p'D'' + pD'''
    diff = v - v_o
    d_diff = dv - dv_o
    h_a = p * diff
    hp_a = p * (dv * diff + d_diff)
    hppp_a = p * (
        (dv**3 + 3.0 * dv * d2v + d3v) * diff
        + 3.0 * (dv**2 + d2v) * d_diff
        + 3.0 * dv * (d2v - d2v_o)
        + (d3v - d3v_o)
    )
    kl = log_c - log_c_o + head_sum + tail_int + 0.5 * h_a - hp_a / 12.0 + hppp_a / 720.0
    return kl, np.abs(hppp_a) / 720.0


def _certified_neighbour_kl(cs: np.ndarray, ctrl: SeriesControl) -> np.ndarray:
    """`_neighbour_kl` with the head grown x4 from _KL_HEAD until every
    remainder estimate |h'''(A)|/720 is within ctrl.rel_tol of its KL; past
    ctrl.max_terms raises SeriesConvergenceError carrying the KL array as its
    estimate.  The default tolerance needs no growth up to M = 1,000."""
    head = min(_KL_HEAD, ctrl.max_terms)
    while True:
        kl, remainder = _neighbour_kl(cs, head)
        bound = float(remainder.max())
        if np.all(remainder <= ctrl.rel_tol * np.maximum(np.abs(kl), 1e-12)):
            return kl
        if head >= ctrl.max_terms:
            raise SeriesConvergenceError(
                f"KL tail remainder {bound} not within tolerance on a "
                f"{len(cs)}-point grid with max_terms={ctrl.max_terms}",
                estimate=kl,
                error_bound=bound,
            )
        head = min(head * 4, ctrl.max_terms)


def kl_divergence(
    alpha: float, alpha_prime: float, ctrl: SeriesControl = _DEFAULT_SERIES
) -> float:
    """D_KL(f(.|alpha) || f(.|alpha')); nonnegative, zero iff equal."""
    alpha = _check_alpha(alpha)
    alpha_prime = _check_alpha(alpha_prime)
    if alpha == alpha_prime:
        return 0.0
    cs = np.array([1.0 / (1.0 - alpha), 1.0 / (1.0 - alpha_prime)])
    value = float(_certified_neighbour_kl(cs, ctrl)[0, 0])
    if value < -1e-8:
        raise NumericError(
            f"KL divergence came out negative ({value}) at ({alpha}, {alpha_prime})"
        )
    return max(value, 0.0)


def loss_based_prior(m: int, ctrl: SeriesControl = _DEFAULT_SERIES) -> GridPrior:
    """Masses proportional to exp(min KL to any other grid point) - 1.

    The family has a monotone likelihood ratio in k, so KL(alpha_i || alpha')
    grows as alpha' moves away from alpha_i on either side: the minimum is at
    a neighbouring grid point, and only those pairs are computed.
    Deterministic: identical inputs give bit-identical masses.
    """
    if m < 3:
        raise ValueError(f"grid denominator M must be >= 3, got {m}")
    support = np.arange(1, m, dtype=np.float64) / m
    to_next, to_prev = _certified_neighbour_kl(1.0 / (1.0 - support), ctrl)
    # the end points have one neighbour each
    worth = np.minimum(np.append(to_next, np.inf), np.insert(to_prev, 0, np.inf))
    if np.any(worth <= 0.0):
        raise NumericError("minimum KL must be positive on a grid of distinct points")
    masses = np.expm1(worth)
    masses /= masses.sum()
    return GridPrior(m, support, masses)
