"""The two objective priors for the Yule-Simon parameter alpha.

Jeffreys prior (continuous): proportional to sqrt of the Fisher
information, which reduces to the closed form

    I(alpha) = [1 - 3F2(1, c+1, 1; c+2, c+2; 1) / (2-alpha)^2] / (1-alpha)^2,

c = 1/(1-alpha).  The radicand is evaluated cancellation-free as
[(3-alpha)(1-alpha) - F1] / (2-alpha)^2, F1 being the hypergeometric series
past its leading 1.  A brute-force expectation oracle
(`fisher_information_oracle`) is an independent route for verification.

Loss-based prior (discrete): on the grid D_M = {i/M : i = 1..M-1}, each
point gets mass proportional to exp(min KL divergence to any other grid
point) - 1.  The family's monotone likelihood ratio in k puts the minimum at
a neighbouring grid point, so only neighbours are paired.  Each KL is summed
by parts, in O(delta^2) terms that do not cancel, over a 128-term head closed
as the 3F2 series is; it is within about 1e-15 of 40-digit sums.

Prior construction is pure computation: no global state, deterministic
output for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, polygamma

from .controls import QuadratureControl, SeriesControl
from .distribution import _check_alpha, _inside_unit_interval
from .errors import NumericError, SeriesConvergenceError
from .special import _HEAD, _TAIL_W, _TAIL_X, _excess_estimate_array, hyp3f2_unit_excess
from .special import integrate_unit_interval, log_gamma_ratio

__all__ = [
    "fisher_information",
    "FisherOracleEstimate",
    "fisher_information_oracle",
    "jeffreys_unnormalized",
    "jeffreys_log_unnormalized",
    "jeffreys_log_unnormalized_array",
    "jeffreys_normalizer",
    "JeffreysPrior",
    "kl_divergence",
    "loss_based_prior",
    "GridPrior",
]

# Properness bound for the Jeffreys normalizer: pi/3 - ln(2 - sqrt(3)).
NORMALIZER_UPPER_BOUND = math.pi / 3.0 - math.log(2.0 - math.sqrt(3.0))

_DEFAULT_SERIES = SeriesControl()


def _radicand_of(alpha: float, f1: float) -> float:
    """(3-alpha)(1-alpha) - F1, all over (2-alpha)^2; equals 1 - F/(2-alpha)^2."""
    return ((3.0 - alpha) * (1.0 - alpha) - f1) / ((2.0 - alpha) * (2.0 - alpha))


def _radicand(alpha: float, ctrl: SeriesControl) -> float:
    """The radicand at alpha, its F1 summed to ctrl's tolerance."""
    c = 1.0 / (1.0 - alpha)
    rad = _radicand_of(alpha, hyp3f2_unit_excess(c + 1.0, c + 2.0, ctrl))
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


def jeffreys_log_unnormalized_array(
    alphas, ctrl: SeriesControl = _DEFAULT_SERIES
) -> np.ndarray:
    """ln q at each alpha of a 1-d array; each value is
    `jeffreys_log_unnormalized`'s, bit for bit.

    The 3F2 series is summed for all of them in one array pass: about
    5 us per alpha at the 17 to 256 alphas a Jeffreys fit asks for at
    once (1.2-1.3 ms at 256), where a scalar call takes about 19 us.
    An alpha that the first head does not certify, or whose radicand is
    not positive, goes through the scalar call, which grows the head or
    raises; so does every alpha when ``ctrl.max_terms`` is below the first
    head.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1 or not _inside_unit_interval(alphas):
        raise ValueError("alphas must be a 1-d array of values in the open interval (0, 1)")
    if ctrl.max_terms < _HEAD:
        return np.array([jeffreys_log_unnormalized(a, ctrl) for a in alphas.tolist()])
    c = 1.0 / (1.0 - alphas)
    excesses, bounds = _excess_estimate_array(c + 1.0, c + 2.0)
    out = []
    for alpha, f1, bound in zip(alphas.tolist(), excesses, bounds):
        rad = _radicand_of(alpha, f1)
        if bound <= ctrl.rel_tol * (1.0 + f1) and rad > 0.0:
            out.append(0.5 * math.log(rad) - math.log1p(-alpha))
        else:
            out.append(jeffreys_log_unnormalized(alpha, ctrl))
    return np.array(out)


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

    def log_unnormalized_array(self, alphas) -> np.ndarray:
        return jeffreys_log_unnormalized_array(alphas, self.series_ctrl)

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
# Kullback-Leibler divergence and the loss-based prior.  With c = 1/(1-alpha),
# delta = c' - c and S_c(i) = P(k >= i), the log likelihood ratio at k is
# log(c/c') + sum_{j<=k} log1p(delta/(c+j)); its mean, by parts and with
# sum_{i>=1} S_c(i)/(c+i) = 1/c, is
#     D(alpha || alpha') = sum_{i>=1} S_c(i) phi(delta/(c+i)) - phi(delta/c),
# phi(x) = log1p(x) - x: O(delta^2) terms, falling like i^-(c+2), that do not
# cancel.  The first term less phi(delta/c), which would cancel at large c, is
# phi(-delta/((c+1)c')) + delta^2/(c c' (c+1)).  The head to i = 128 takes
# S_c(2) = 1/(c+1), S_c(i+1) = S_c(i) i/(i+c).  The rest, with
# h(t) = S_c(t) phi(delta/(c+t)) and S_c(t) = G(t) G(c+1)/G(t+c), is closed
# as the 3F2 series is: sum_{i>=A} h(i) = int_A^inf h + h(A)/2 - h'(A)/12
# + h'''(A)/720 + R, the integral by special's Gauss-Laguerre rule in
# x = (c+1) ln(t/A), |R| estimated by |h'''(A)|/720: below 3e-14 of the KL up
# to M = 10^4, so the first head meets rel_tol = 1e-12.
# ---------------------------------------------------------------------------

_KL_HEAD = 128
_KL_BLOCK_FLOATS = 1 << 15  # floats per block (256 KB): cache-sized, and flat in M

# phi(x)/x^2 = -1/2 + x/3 - x^2/4 + ... to x^11, highest power first: below |x| = 0.05
# it truncates under 4e-17 of phi, above it log1p(x) - x rounds off under 5e-15 of phi.
_PHI_SERIES_MAX = 0.05
_PHI_SERIES = tuple((-1.0) ** (n + 1) / n for n in range(13, 1, -1))


def _phi(x: np.ndarray) -> np.ndarray:
    """log1p(x) - x elementwise, without the cancellation at small |x|."""
    out = np.full(x.shape, _PHI_SERIES[0])
    for coef in _PHI_SERIES[1:]:
        out *= x
        out += coef
    out *= x * x
    far = np.abs(x) >= _PHI_SERIES_MAX
    out[far] = np.log1p(x[far]) - x[far]
    return out


class _KlHead:
    """Neighbour-KL head sums over terms 2..``terms``, and S_c(terms + 1)."""
    def __init__(self, cs: np.ndarray, delta: np.ndarray):
        self.cs, self.delta, self.terms = cs, delta, 1  # delta[i] = cs[i+1] - cs[i]
        self.sums, self.survival = np.zeros((2, len(delta))), 1.0 / (cs + 1.0)


def _neighbour_kl(cs, head: int):
    """Neighbour KLs and their remainder estimates, both of shape (2, M-1):
    entry i of row 0 is KL(cs[i] || cs[i+1]), of row 1 KL(cs[i+1] || cs[i]).
    ``cs`` is an array of c values, whose differences are then the deltas,
    or a `_KlHead`, whose heads this call continues to ``head`` terms."""
    state = cs if isinstance(cs, _KlHead) else _KlHead(cs, np.diff(cs))
    n, a = len(state.cs), head + 1.0
    width = min(n, _KL_BLOCK_FLOATS // _KL_HEAD)  # grid points per block
    chunk = _KL_BLOCK_FLOATS // width  # head terms per block
    lo, hi, survival = slice(None, -1), slice(1, None), np.empty(n)
    kl, remainder = np.empty((2, n - 1)), np.empty((2, n - 1))
    for p0 in range(0, n - 1, width - 1):  # neighbouring blocks share a point
        points = slice(p0, min(p0 + width, n))
        pairs = slice(p0, points.stop - 1)
        c, delta, s = state.cs[points], state.delta[pairs], state.survival[points]
        rows = ((lo, hi, delta), (hi, lo, -delta))  # own point, other point, delta
        for j0 in range(state.terms, head, chunk):
            i = np.arange(j0 + 1.0, min(j0 + chunk, head) + 1.0)[:, None]  # the terms
            ratio = (i - 1.0) / (i - 1.0 + c)  # S_c(i) / S_c(i-1)
            ratio[0] = s
            surv = np.cumprod(ratio, axis=0)  # S_c(i)
            s = surv[-1] * i[-1] / (i[-1] + c)
            for row, (own, _, d) in enumerate(rows):
                state.sums[row, pairs] += (surv[:, own] * _phi(d / (c[own] + i))).sum(axis=0)
        survival[points] = s

        # The closure from A = head + 1, where S_c(A) = s; node 0 is t = A.  The
        # derivatives of phi(d/(c+t)) start from d^2 u^2 v, u = 1/(c+t), v = 1/(c'+t).
        t = a * np.exp(_TAIL_X[:, None] / (c + 1.0))
        surv_t = np.exp(log_gamma_ratio(t, c) + gammaln(c + 1.0))
        for row, (own, other, d) in enumerate(rows):
            phi_t = _phi(d / (c[own] + t[:, own]))
            c1 = c[own] + 1.0
            tail_int = _TAIL_W @ (t[:, own] * surv_t[:, own] * phi_t) / c1
            g1, g2, g3 = (polygamma(k, a) - polygamma(k, a + c[own]) for k in range(3))
            u, v = 1.0 / (c[own] + a), 1.0 / (c[other] + a)
            w = 2.0 * u + v
            f0, f1, s_a = phi_t[0], d * d * u * u * v, s[own]
            h3_a = s_a * ((g1 * g1 * g1 + 3.0 * g1 * g2 + g3) * f0
                          + f1 * (3.0 * (g1 * g1 + g2 - g1 * w) + w * w + 2.0 * u * u + v * v))
            first = _phi(-d / (c1 * c[other])) + d * d / (c[own] * c[other] * c1)
            kl[row, pairs] = (first + state.sums[row, pairs] + tail_int + 0.5 * s_a * f0
                              - s_a * (g1 * f0 + f1) / 12.0 + h3_a / 720.0)
            remainder[row, pairs] = np.abs(h3_a) / 720.0
    state.survival, state.terms = survival, head
    return kl, remainder


def _certified_neighbour_kl(alphas: np.ndarray, ctrl: SeriesControl) -> np.ndarray:
    """`_neighbour_kl` on the grid ``alphas``, each delta (alpha' - alpha)/
    ((1-alpha)(1-alpha')), not a difference of rounded c's.  The head grows x4
    from _KL_HEAD, continuing the last, until each remainder is within ctrl.rel_tol
    of its KL; past ctrl.max_terms, or below _KL_HEAD, raises with the KLs."""
    one_m = 1.0 - alphas
    state = _KlHead(1.0 / one_m, np.diff(alphas) / (one_m[:-1] * one_m[1:]))
    head = min(_KL_HEAD, ctrl.max_terms)
    while True:
        kl, remainder = _neighbour_kl(state, head)
        if head >= _KL_HEAD and np.all(remainder <= ctrl.rel_tol * np.maximum(np.abs(kl), 1e-12)):
            return kl
        if head >= ctrl.max_terms:
            bound = float(remainder.max())
            raise SeriesConvergenceError(
                f"KL tail remainder {bound} not within tolerance at max_terms={ctrl.max_terms}",
                estimate=kl, error_bound=bound)
        head = min(head * 4, ctrl.max_terms)


def kl_divergence(
    alpha: float, alpha_prime: float, ctrl: SeriesControl = _DEFAULT_SERIES
) -> float:
    """D_KL(f(.|alpha) || f(.|alpha')); nonnegative, zero iff equal.  Summed by
    parts over a 128-term head with a Gauss-Laguerre Euler-Maclaurin closure
    (see above): within about 1e-15 of 40-digit sums, even where it is 3e-7."""
    alpha, alpha_prime = _check_alpha(alpha), _check_alpha(alpha_prime)
    if alpha == alpha_prime:
        return 0.0
    value = float(_certified_neighbour_kl(np.array([alpha, alpha_prime]), ctrl)[0, 0])
    if value < -1e-8:
        raise NumericError(f"KL came out negative ({value}) at ({alpha}, {alpha_prime})")
    return max(value, 0.0)


def loss_based_prior(m: int, ctrl: SeriesControl = _DEFAULT_SERIES) -> GridPrior:
    """Masses proportional to exp(min KL to any other grid point) - 1.

    The family has a monotone likelihood ratio in k, so KL(alpha_i || alpha')
    grows as alpha' moves away from alpha_i on either side: the minimum is at
    a neighbouring grid point, and only those pairs are computed, as in
    `kl_divergence`, in O(M) time and memory flat in M; the first head
    certifies up to at least M = 10^4.  Deterministic: identical inputs give
    bit-identical masses.

    The KL to a neighbour 1/M away is I(alpha_i) / (2 M^2) to leading order,
    so at each fixed alpha the masses go as I(alpha)(1 + O(1/M)), I the
    Fisher information.  I(alpha) grows as 1/(1 - alpha) near 1, where its
    integral diverges, so the masses have no proper limit as M grows: they
    drift to the top of the grid.  The top point holds 0.312, 0.236, 0.147,
    0.095 and 0.070 of the mass at M = 10, 20, 10^2, 10^3 and 10^4; the
    points above 0.99 hold 0.33 at M = 10^3 and 0.51 at M = 10^4.
    """
    if m < 3:
        raise ValueError(f"grid denominator M must be >= 3, got {m}")
    support = np.arange(1, m, dtype=np.float64) / m
    to_next, to_prev = _certified_neighbour_kl(support, ctrl)
    # the end points have one neighbour each
    worth = np.minimum(np.append(to_next, np.inf), np.insert(to_prev, 0, np.inf))
    if np.any(worth <= 0.0):
        raise NumericError("minimum KL must be positive on a grid of distinct points")
    masses = np.expm1(worth)
    masses /= masses.sum()
    return GridPrior(m, support, masses)
