"""Numerically robust special functions used throughout the package.

`log_gamma_ratio` takes ln Gamma(t) - ln Gamma(t+s) over broadcast arrays
of t and s, with one Stirling switch per element.  It raises s to the third
and fourth powers by products, which round alike in scalar and in array
arithmetic (Python's ``**`` calls C ``pow``, and numpy's vector ``**`` may
round otherwise), so every element equals the call at that element alone.
The generalized hypergeometric series at unit argument is implemented here
because its error control is load-bearing for the prior construction.  One
closure, `_excess_estimate`, sums it over a fixed 128-term head and closes
it by Euler-Maclaurin with a Gauss-Laguerre tail integral, over arrays of
(a, b); `hyp3f2_unit_excess` certifies its one-element result or raises.

All functions are pure; safe to call concurrently from any number of
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import SeriesConvergenceError

__all__ = [
    "SeriesControl",
    "log_gamma_ratio",
    "hyp3f2_unit_excess",
]

# The package tolerance: a series value is returned only when its remainder
# estimate is within this much of the sum, relative to it.
_REL_TOL = 1e-12


@dataclass(frozen=True)
class SeriesControl:
    """The tolerance of `hyp3f2_unit_excess`: its remainder estimate must be
    within ``rel_tol`` of the sum, or it raises SeriesConvergenceError.  The
    priors use the default, 1e-12, which the head meets on their family."""

    rel_tol: float = _REL_TOL

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")


def _require_positive(name: str, x: float) -> float:
    x = float(x)
    if not x > 0.0 or math.isinf(x) or math.isnan(x):
        raise ValueError(f"{name} must be a positive finite real, got {x}")
    return x


def log_gamma_ratio(t, s):
    """ln Gamma(t) - ln Gamma(t+s), elementwise, stable for large t.

    Direct lgamma subtraction loses ~t ln(t) * eps absolute accuracy to
    cancellation, so for t >= max(1e4, 1000 s) the Stirling expansion

        -[s ln t + s(s-1)/(2t) + (s^2/4 - s^3/6 - s/12)/t^2
          + (s^4/12 - s^3/6 + s^2/12)/t^3]

    is used instead (absolute error O(s^5/t^4), below 1e-11 at the switch
    point and falling fast).  Arguments broadcast like numpy ufuncs; scalar
    and 0-d inputs return a float.  Each element is, bit for bit, the call
    at that element's t and s alone.
    """
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    out = scipy.special.gammaln(t) - scipy.special.gammaln(t + s)
    t_max = t.max(initial=-np.inf)
    if s.ndim == 0:
        s = float(s)  # the s-only terms below then cost Python arithmetic
        switch = lowest_switch = max(1e4, 1000.0 * s)
    elif t_max >= 1e4:  # no switch lies below 1e4: most calls stop here
        switch = np.maximum(1e4, 1000.0 * s)
        lowest_switch = switch.min(initial=np.inf)
    else:
        return out
    if t_max < lowest_switch:
        return float(out) if out.ndim == 0 else out
    if out.ndim == 0:
        return float(out if t < switch else _stirling(t, s))
    # The branch only where t reaches the lowest switch, picked by t's own
    # mask where t spans the result's trailing axes (the grid likelihood's
    # values do: one column of 232 on a surnames table with one k past 1e4).
    far = t >= lowest_switch
    if out.shape[out.ndim - t.ndim :] != t.shape:
        far = np.broadcast_to(far, out.shape)
    t_far = np.broadcast_to(t, out.shape)[..., far]
    if isinstance(s, float):
        s_far, switch_far = s, switch
    else:
        s_far = np.broadcast_to(s, out.shape)[..., far]
        switch_far = np.broadcast_to(switch, out.shape)[..., far]
    out[..., far] = np.where(t_far < switch_far, out[..., far], _stirling(t_far, s_far))
    return out


def _stirling(t, s):
    """The Stirling branch of log_gamma_ratio.  The sign is folded into the
    terms, which leaves every rounding unchanged."""
    tt = t * t
    s2 = s * s
    s3 = s2 * s
    return (
        ((-s) * np.log(t) - s * (s - 1.0) / (2.0 * t)) - (s2 / 4.0 - s3 / 6.0 - s / 12.0) / tt
    ) - (s3 * s / 12.0 - s3 / 6.0 + s2 / 12.0) / (tt * t)


# Length of the 3F2 head.  At this length the remainder estimate is below
# 5e-14 of the sum on the whole family the package uses, so the package
# tolerance is always met.
_HEAD = 128

# 16-point Gauss-Laguerre rule for the tail integral, with a node at x = 0
# (weight 0) prepended so that the same evaluation gives h at the boundary.
# The weights carry e^x because the integrand is supplied without e^-x.
_LAGUERRE_X, _LAGUERRE_W = np.polynomial.laguerre.laggauss(16)
_TAIL_X = np.append(0.0, _LAGUERRE_X)
_TAIL_W = np.append(0.0, _LAGUERRE_W * np.exp(_LAGUERRE_X))
# ln h(t) = lnG(t+1) + lnG(t+a) - 2 lnG(t+b) + const: the weights of its parts
_LOG_H_SIGNS = np.array([1.0, 1.0, -2.0])
_ZETA_ORDERS = np.array([[2.0], [3.0]])
# psi, zeta(2, .) and zeta(3, .) at A + 1 for the 128-term head, A = _HEAD + 1:
# the part of the derivatives of ln h at A that does not depend on (a, b)
_PSI_A1 = float(scipy.special.psi(_HEAD + 2.0))
_ZETA2_A1, _ZETA3_A1 = scipy.special.zeta(_ZETA_ORDERS[:, 0], _HEAD + 2.0).tolist()


def _excess_estimate(
    a: np.ndarray, b: np.ndarray, head: int = _HEAD
) -> tuple[list[float], list[float]]:
    """The excess at each (a, b) of two 1-d arrays in the series' domain,
    summed to l = ``head`` and closed from A = head + 1.

    The terms continue to real t as
    h(t) = G(t+1) G(t+a) G(b)^2 / (G(a) G(t+b)^2), and by Euler-Maclaurin

        sum_{l>=A} h(l) = int_A^inf h + h(A)/2 - h'(A)/12 + h'''(A)/720 + R.

    The integral is a 16-point Gauss-Laguerre rule in x = r ln(t/A), where
    t h(t) falls like t^-r with r = 2b - a - 2; the derivatives of ln h are
    sums of psi, zeta(2, .) and zeta(3, .).  Returns the list of the
    excesses and the list of their remainder estimates |h'''(A)|/720;
    certifying them is the caller's part.

    Each value is the one-element call's bit for bit: the ln h and tail
    contractions are stacked matmuls (one small dot per row), and the last
    operations run per element in Python floats, which round as numpy's do
    and, up to a few dozen elements, cost less than the array operations
    they replace.
    """
    # the head, by t_{l+1} = t_l (l+1)(a+l)/(b+l)^2 from t_0 = 1
    m = np.arange(head + 1.0)
    bm = m[:head] + b[:, None]
    bm *= bm
    ratios = m[:head] + a[:, None]
    ratios *= m[1:]
    ratios /= bm
    head_sum = ratios.cumprod(axis=1).sum(axis=1)

    # Under t = A e^(x/r) the tail integral is (1/r) times the integral of
    # e^-x [e^x t h(t)] over (0, inf), and the bracket tends to a constant.
    big_a = head + 1.0
    r = 2.0 * b - a - 2.0
    t = big_a * np.exp(_TAIL_X / r[:, None])
    shifts = np.empty((len(a), 1, 3))
    shifts[:, 0, 0], shifts[:, 0, 1], shifts[:, 0, 2] = 1.0, a, b
    pairs = zip(a.tolist(), b.tolist())
    log_norm = np.array([2.0 * math.lgamma(y) - math.lgamma(x) for x, y in pairs])
    # Plain gammaln differences: their rounding grows like t ln(t) eps, but
    # the Laguerre weight of a node falls faster (as e^-x against e^(x/r),
    # r >= 2), so no node's error reaches 1e-13 of the tail integral.  The
    # Stirling branch of log_gamma_ratio would double the cost of a call.
    log_h = scipy.special.gammaln(t[:, :, None] + shifts) @ _LOG_H_SIGNS
    log_h += log_norm[:, None]
    h = np.exp(log_h)
    r_tail = ((t * h)[:, None, :] @ _TAIL_W)[:, 0]  # r times the tail integral

    # derivatives of ln h at A, from psi, psi' = zeta(2, .), psi'' = -2 zeta(3, .),
    # each a contraction with _LOG_H_SIGNS summed left to right, as a dot
    # sums three terms (each product is exact)
    if head == _HEAD:
        p1, z2_1, z3_1 = _PSI_A1, _ZETA2_A1, _ZETA3_A1
    else:
        p1 = float(scipy.special.psi(big_a + 1.0))
        z2_1, z3_1 = scipy.special.zeta(_ZETA_ORDERS[:, 0], big_a + 1.0).tolist()
    x = big_a + shifts[:, :, 1:]
    psi = scipy.special.psi(x)[:, 0]
    zeta = scipy.special.zeta(_ZETA_ORDERS, x)
    excesses, bounds = [], []
    columns = (head_sum, r_tail, r, h[:, 0], psi, zeta)
    for s, r_tail_i, r_i, h_a, (pa, pb), ((z2a, z2b), (z3a, z3b)) in zip(
        *(col.tolist() for col in columns)
    ):
        d1 = p1 + pa + -2.0 * pb
        d2 = z2_1 + z2a + -2.0 * z2b
        d3 = -2.0 * (z3_1 + z3a + -2.0 * z3b)
        h3_a = h_a * (d1 * d1 * d1 + 3.0 * d1 * d2 + d3)
        excesses.append(s + r_tail_i / r_i + 0.5 * h_a - h_a * d1 / 12.0 + h3_a / 720.0)
        bounds.append(abs(h3_a) / 720.0)
    return excesses, bounds


def hyp3f2_unit_excess(a: float, b: float, ctrl: SeriesControl = SeriesControl()) -> float:
    """The series 3F2(1, a, 1; b, b; 1) minus its leading 1.

    The excess sum_{l>=1} l! (a)_l / (b)_l^2 is computed on its own, which
    keeps full relative accuracy in it; downstream subtractions need that
    when the full series is close to 1.

    Head: the first 128 terms, by the recurrence
    t_{l+1} = t_l (l+1)(a+l)/(b+l)^2, closed by Euler-Maclaurin from A = 129
    with a Gauss-Laguerre tail integral (`_excess_estimate` at one pair).

    Bound: the result is returned when |h'''(A)|/720, the size of the last
    closure term, is at most ctrl.rel_tol * (1 + excess).  On the whole
    b = a + 1 >= 3 family the package uses it is below 5e-14 of the sum, so a
    call costs about 30 us at every alpha and is within a few ulps of 40-digit
    sums.

    Raises
    ------
    ValueError
        If a, b are not positive with b > a (series divergence), or
        r = 2b - a - 2 < 2 (the quadrature is accurate only for tails at
        least that steep; the family b = a + 1 >= 3 has r = a >= 2).
    SeriesConvergenceError
        If the bound is above ctrl.rel_tol * (1 + excess); carries the
        estimate of the full series and the bound.
    """
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    if b <= a:
        raise ValueError(f"series requires b > a for convergence, got a={a}, b={b}")
    if 2.0 * b - a - 2.0 < 2.0:
        raise ValueError(f"tail closure requires 2b - a >= 4, got a={a}, b={b}")
    (f1,), (bound,) = _excess_estimate(np.array([a]), np.array([b]))
    if not bound <= ctrl.rel_tol * (1.0 + f1):
        raise SeriesConvergenceError(
            f"3F2 series remainder {bound} exceeds rel_tol={ctrl.rel_tol} "
            f"of the sum after {_HEAD} terms (a={a}, b={b})",
            estimate=1.0 + f1,
            error_bound=bound,
        )
    return f1
