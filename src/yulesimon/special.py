"""Numerically robust special functions used throughout the package.

`log_gamma_ratio` takes ln Gamma(t) - ln Gamma(t+s) over broadcast arrays
of t and s, with one Stirling switch per element.  It raises s to the third
and fourth powers by products, which round alike in scalar and in array
arithmetic (Python's ``**`` calls C ``pow``, and numpy's vector ``**`` may
round otherwise), so every element equals the call at that element alone.
The generalized hypergeometric series at unit argument and the
unit-interval quadrature are implemented here because their error control
is load-bearing for the prior construction.  The series is summed over a
128-term head and closed by Euler-Maclaurin with a Gauss-Laguerre tail
integral, under a remainder bound; for the Jeffreys family the first head
always meets the default tolerance, so a call costs the same tens of
microseconds at every alpha.  `_excess_estimate_array` takes that first
head over arrays of (a, b).

All functions are pure; safe to call concurrently from any number of
threads.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.special

from .controls import QuadratureControl, SeriesControl
from .errors import QuadratureError, SeriesConvergenceError

__all__ = [
    "log_gamma_ratio",
    "hyp3f2_unit_excess",
    "integrate_unit_interval",
]


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


# Length of the first 3F2 head.  At this length the remainder estimate is
# below 7e-14 of the sum on the whole family the package uses, so the
# default rel_tol = 1e-12 never grows the head.
_HEAD = 128
# Terms per head block (32 KB of floats): a grown head is summed block by
# block, so its memory does not grow with it.  The first head is one block.
_HEAD_BLOCK = 4096
_BLOCK_M = np.arange(_HEAD_BLOCK, dtype=np.float64)
# m and m + 1 over the first head (integers, so m + 1.0 rounds to these)
_HEAD_M, _HEAD_M1 = _BLOCK_M[:_HEAD], _BLOCK_M[1 : _HEAD + 1]

# 16-point Gauss-Laguerre rule for the tail integral, with a node at x = 0
# (weight 0) prepended so that the same evaluation gives h at the boundary.
# The weights carry e^x because the integrand is supplied without e^-x.
_LAGUERRE_X, _LAGUERRE_W = np.polynomial.laguerre.laggauss(16)
_TAIL_X = np.append(0.0, _LAGUERRE_X)
_TAIL_W = np.append(0.0, _LAGUERRE_W * np.exp(_LAGUERRE_X))
# ln h(t) = lnG(t+1) + lnG(t+a) - 2 lnG(t+b) + const: the weights of its parts
_LOG_H_SIGNS = np.array([1.0, 1.0, -2.0])
_ZETA_ORDERS = np.array([[2.0], [3.0]])


def _head_sum(
    a: float, b: float, head: int, start: int = 0, total: float = 0.0, term: float = 1.0
) -> tuple[float, float]:
    """Adds the terms l = start+1..head to ``total``, given ``term``, the
    l = start term; returns the new total and the l = head term.

    The terms are summed in blocks that carry the running term, each block
    m0 + m over a view m of one constant index array, with m0 folded into
    the scalars: no index array is built per call.  A grown head continues
    the last one by passing its total and term back in.
    """
    for m0 in range(start, head, _HEAD_BLOCK):
        m = _BLOCK_M[: head - m0]
        bm = m + (b + m0)
        block = ((m + (m0 + 1.0)) * (m + (a + m0)) / (bm * bm)).cumprod()
        total += term * float(block.sum())
        term *= float(block[-1])
    return total, term


def _excess_estimate(
    a: float, b: float, head: int, head_sum: float | None = None
) -> tuple[float, float]:
    """The excess summed to l = head (or given that sum) and closed by
    Euler-Maclaurin from A = head + 1; returns it with the remainder
    estimate |h'''(A)|/720."""
    if head_sum is None:
        head_sum = _head_sum(a, b, head)[0]

    # Under t = A e^(x/r) the tail integral is (1/r) times the integral of
    # e^-x [e^x t h(t)] over (0, inf), and the bracket tends to a constant.
    big_a = head + 1.0
    r = 2.0 * b - a - 2.0
    t = big_a * np.exp(_TAIL_X / r)
    shifts = np.array([1.0, a, b])
    log_norm = 2.0 * math.lgamma(b) - math.lgamma(a)
    if head <= _HEAD:
        # Plain gammaln differences: their rounding grows like t ln(t) eps,
        # but the Laguerre weight of a node falls faster (as e^-x against
        # e^(x/r), r >= 2), so no node's error reaches 1e-13 of the tail
        # integral.  The Stirling branch of log_gamma_ratio would double the
        # cost of a call.
        log_h = scipy.special.gammaln(t[:, None] + shifts) @ _LOG_H_SIGNS
    else:
        # A grown head puts the last nodes near t = 1e16, where the plain
        # differences keep no digit at all.
        log_h = log_gamma_ratio(t + 1.0, b - 1.0) + log_gamma_ratio(t + a, b - a)
    h = np.exp(log_h + log_norm)
    tail_int = float(_TAIL_W @ (t * h)) / r

    # derivatives of ln h at A, from psi, psi' = zeta(2, .), psi'' = -2 zeta(3, .)
    x = big_a + shifts
    d1 = float(scipy.special.psi(x) @ _LOG_H_SIGNS)
    d2, z3 = (scipy.special.zeta(_ZETA_ORDERS, x) @ _LOG_H_SIGNS).tolist()
    d3 = -2.0 * z3
    h_a = float(h[0])
    h1_a = h_a * d1
    h3_a = h_a * (d1 * d1 * d1 + 3.0 * d1 * d2 + d3)
    f1 = head_sum + tail_int + 0.5 * h_a - h1_a / 12.0 + h3_a / 720.0
    return f1, abs(h3_a) / 720.0


def _excess_estimate_array(a: np.ndarray, b: np.ndarray) -> tuple[list[float], list[float]]:
    """`_excess_estimate` over the first head at each (a, b) of two 1-d
    arrays in the series' domain, in one array pass: the same 128-term
    head, Gauss-Laguerre tail and |h'''(A)|/720 bound.  Returns the list of
    the excesses and the list of their bounds; certifying them is the
    caller's part.

    Each value is the scalar call's bit for bit, being taken by its
    operations in its order: rows of the head summed by numpy's pairwise
    sum, the three-term and 17-term contractions as stacked matmuls (one
    small dot per row, as the scalar call's ``@``), ln G(a), ln G(b) by
    ``math.lgamma``, and the closure's last operations per element in
    Python floats, which round as numpy's do and, up to a few dozen
    elements, cost less than the dozen array operations they replace.
    About 3 us per element plus 19 us per call, where a scalar call takes
    15 us.
    """
    bm = _HEAD_M + b[:, None]
    bm *= bm
    ratios = _HEAD_M + a[:, None]
    ratios *= _HEAD_M1
    ratios /= bm
    head_sum = ratios.cumprod(axis=1).sum(axis=1)

    big_a = _HEAD + 1.0
    r = 2.0 * b - a - 2.0
    t = big_a * np.exp(_TAIL_X / r[:, None])
    shifts = np.empty((len(a), 1, 3))
    shifts[:, 0, 0], shifts[:, 0, 1], shifts[:, 0, 2] = 1.0, a, b
    pairs = zip(a.tolist(), b.tolist())
    log_norm = np.array([2.0 * math.lgamma(y) - math.lgamma(x) for x, y in pairs])
    log_h = scipy.special.gammaln(t[:, :, None] + shifts) @ _LOG_H_SIGNS
    log_h += log_norm[:, None]
    h = np.exp(log_h)
    r_tail = ((t * h)[:, None, :] @ _TAIL_W)[:, 0]  # r times the tail integral

    x = big_a + shifts
    d1 = (scipy.special.psi(x) @ _LOG_H_SIGNS)[:, 0]
    d2, z3 = (scipy.special.zeta(_ZETA_ORDERS, x) @ _LOG_H_SIGNS).T
    excesses, bounds = [], []
    columns = (head_sum, r_tail, r, h[:, 0], d1, d2, z3)
    for s, r_tail_i, r_i, h_a, g1, g2, g3 in zip(*(col.tolist() for col in columns)):
        h3_a = h_a * (g1 * g1 * g1 + 3.0 * g1 * g2 + -2.0 * g3)
        excesses.append(s + r_tail_i / r_i + 0.5 * h_a - h_a * g1 / 12.0 + h3_a / 720.0)
        bounds.append(abs(h3_a) / 720.0)
    return excesses, bounds


def hyp3f2_unit_excess(a: float, b: float, ctrl: SeriesControl = SeriesControl()) -> float:
    """The series 3F2(1, a, 1; b, b; 1) minus its leading 1.

    The excess sum_{l>=1} l! (a)_l / (b)_l^2 is computed on its own, which
    keeps full relative accuracy in it; downstream subtractions need that
    when the full series is close to 1.

    Head: the first 128 terms, by the recurrence
    t_{l+1} = t_l (l+1)(a+l)/(b+l)^2.  A grown head continues the last one
    in blocks of 4,096 terms that carry the running term, so no term is
    summed twice and the memory stays flat.

    Closure: the terms continue to real t as
    h(t) = G(t+1) G(t+a) G(b)^2 / (G(a) G(t+b)^2), and the rest of the
    series is closed from A = head + 1 by Euler-Maclaurin,

        sum_{l>=A} h(l) = int_A^inf h + h(A)/2 - h'(A)/12 + h'''(A)/720 + R.

    The integral is a 16-point Gauss-Laguerre rule in x = r ln(t/A), where
    t h(t) falls like t^-r with r = 2b - a - 2; the derivatives of ln h are
    sums of psi, zeta(2, .) and zeta(3, .).  On a grown head the last nodes
    reach t = 1e16, so ln h is taken there from log_gamma_ratio.

    Bound: the result is returned when |h'''(A)|/720, the size of the last
    closure term, is at most ctrl.rel_tol * (1 + excess); otherwise the head
    grows x4, up to ctrl.max_terms.  The bound falls no faster than
    A^-(r+4), so a tolerance that a head of ctrl.max_terms terms would miss
    even at that rate is refused at once.

    Cost: the 128-term head meets rel_tol = 1e-12 on the whole b = a + 1 >= 3
    family the package uses, so a call costs the same (tens of microseconds)
    at every alpha, and the excess is within a few ulps of 40-digit sums.

    Raises
    ------
    ValueError
        If a, b are not positive with b > a (series divergence), or
        r = 2b - a - 2 < 2 (the quadrature is accurate only for tails at
        least that steep; the family b = a + 1 >= 3 has r = a >= 2).
    SeriesConvergenceError
        If the bound is not met with a head of ctrl.max_terms terms, cannot
        be met by one at the bound's fastest decay, or ctrl.max_terms is
        below the 128-term first head; carries the estimate of the full
        series and the bound of the last head summed.
    """
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    if b <= a:
        raise ValueError(f"series requires b > a for convergence, got a={a}, b={b}")
    if 2.0 * b - a - 2.0 < 2.0:
        raise ValueError(f"tail closure requires 2b - a >= 4, got a={a}, b={b}")
    head = min(_HEAD, ctrl.max_terms)
    head_sum, term = _head_sum(a, b, head)
    f1, bound = _excess_estimate(a, b, head, head_sum)
    while not (head >= _HEAD and bound <= ctrl.rel_tol * (1.0 + f1)):
        # the bound falls like A^-(r+4) at best: the least any head up to
        # the cap can reach
        least = bound * ((head + 1.0) / (ctrl.max_terms + 1.0)) ** (2.0 * b - a + 2.0)
        if head >= ctrl.max_terms or least > ctrl.rel_tol * (1.0 + f1):
            raise SeriesConvergenceError(
                f"3F2 series cannot converge within {ctrl.max_terms} terms "
                f"(a={a}, b={b}, rel_tol={ctrl.rel_tol})",
                estimate=1.0 + f1,
                error_bound=bound,
            )
        grown = min(4 * head, ctrl.max_terms)
        head_sum, term = _head_sum(a, b, grown, head, head_sum, term)
        head = grown
        f1, bound = _excess_estimate(a, b, head, head_sum)
    return f1


def integrate_unit_interval(
    f: Callable[[float], float], ctrl: QuadratureControl = QuadratureControl()
) -> float:
    """Adaptive integral of f over (0, 1) to absolute tolerance ctrl.abs_tol.

    The interval is split at 1 - delta (delta = 0.1) and the right piece is
    integrated under the substitution alpha = 1 - u^2, which turns an
    integrable (1-alpha)^(-1/2) endpoint singularity (the Jeffreys density
    behaves this way near 1) into a smooth integrand.

    Raises QuadratureError with the best estimate and error bound when the
    tolerance cannot be certified.
    """
    # Imported here: scipy.integrate pulls in scipy.optimize, linalg and
    # sparse, which no other path of the package needs.
    import scipy.integrate

    delta = 0.1

    def right_piece(u: float) -> float:
        return 2.0 * u * f(1.0 - u * u)

    pieces = [
        (f, 0.0, 1.0 - delta),
        (right_piece, 0.0, math.sqrt(delta)),
    ]
    total = 0.0
    err_total = 0.0
    for integrand, lo, hi in pieces:
        out = scipy.integrate.quad(
            integrand,
            lo,
            hi,
            epsabs=ctrl.abs_tol / 2.0,
            epsrel=1.49e-12,
            limit=ctrl.max_subdivisions,
            full_output=1,
        )
        value, abserr = out[0], out[1]
        if len(out) > 3:  # quadpack appended a warning message
            raise QuadratureError(
                f"quadrature failed on [{lo}, {hi}]: {out[3]}",
                estimate=value,
                error_bound=abserr,
            )
        total += value
        err_total += abserr
    if err_total > ctrl.abs_tol:
        raise QuadratureError(
            f"requested abs_tol={ctrl.abs_tol} not met (error bound {err_total})",
            estimate=total,
            error_bound=err_total,
        )
    return total
