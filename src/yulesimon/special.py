"""Numerically robust special functions used throughout the package.

log-gamma, log-beta and the polygammas are thin validated wrappers over
scipy.special (accuracy documented per function).  The generalized
hypergeometric series at unit argument and the unit-interval quadrature are
implemented here because their error control is load-bearing for the prior
construction.

All functions are pure; safe to call concurrently from any number of
threads.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.special

from .controls import QuadratureControl, SeriesControl
from .errors import QuadratureError, SeriesConvergenceError

__all__ = [
    "log_gamma",
    "log_beta",
    "log_gamma_ratio",
    "digamma",
    "trigamma",
    "hyp3f2_unit",
    "hyp3f2_unit_excess",
    "integrate_unit_interval",
]


def _require_positive(name: str, x: float) -> float:
    x = float(x)
    if not x > 0.0 or math.isinf(x) or math.isnan(x):
        raise ValueError(f"{name} must be a positive finite real, got {x}")
    return x


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Relative error below 1e-13 on [1e-6, 1e12] (scipy's gammaln; checked
    against extended-precision oracles in the test suite).
    """
    return float(scipy.special.gammaln(_require_positive("x", x)))


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b) for a, b > 0.

    Evaluated in log space, so it stays finite for arguments up to
    surname-scale counts (b ~ 1e7).
    """
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    return float(
        scipy.special.gammaln(a) + scipy.special.gammaln(b) - scipy.special.gammaln(a + b)
    )


def log_gamma_ratio(t, s):
    """ln Gamma(t) - ln Gamma(t+s), elementwise, stable for large t.

    Direct lgamma subtraction loses ~t ln(t) * eps absolute accuracy to
    cancellation, so for t >= max(1e4, 1000 s) the Stirling expansion

        -[s ln t + s(s-1)/(2t) + (s^2/4 - s^3/6 - s/12)/t^2
          + (s^4/12 - s^3/6 + s^2/12)/t^3]

    is used instead (absolute error O(s^5/t^4), below 1e-11 at the switch
    point and falling fast).  Arguments broadcast like numpy ufuncs; scalar
    inputs return a float.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    s_arr = np.asarray(s, dtype=np.float64)
    t_b, s_b = np.broadcast_arrays(t_arr, s_arr)
    out = np.empty(t_b.shape, dtype=np.float64)
    direct = t_b < np.maximum(1e4, 1000.0 * s_b)
    out[direct] = scipy.special.gammaln(t_b[direct]) - scipy.special.gammaln(
        t_b[direct] + s_b[direct]
    )
    if not np.all(direct):
        tl = t_b[~direct]
        sl = s_b[~direct]
        out[~direct] = -(
            sl * np.log(tl)
            + sl * (sl - 1.0) / (2.0 * tl)
            + (sl * sl / 4.0 - sl**3 / 6.0 - sl / 12.0) / (tl * tl)
            + (sl**4 / 12.0 - sl**3 / 6.0 + sl * sl / 12.0) / (tl * tl * tl)
        )
    if np.isscalar(t) and np.isscalar(s):
        return float(out)
    return out


def digamma(x: float) -> float:
    """psi(x), the logarithmic derivative of Gamma, for x > 0."""
    return float(scipy.special.digamma(_require_positive("x", x)))


def trigamma(x: float) -> float:
    """psi'(x) = sum_{k>=0} 1/(x+k)^2 for x > 0."""
    return float(scipy.special.polygamma(1, _require_positive("x", x)))


_SERIES_BLOCK = 4096


def hyp3f2_unit_excess(a: float, b: float, ctrl: SeriesControl = SeriesControl()) -> float:
    """The series 3F2(1, a, 1; b, b; 1) minus its leading 1.

    Summing sum_{l>=1} l! (a)_l / (b)_l^2 directly (term recurrence
    t_{l+1} = t_l (l+1)(a+l)/(b+l)^2) keeps full relative accuracy in the
    excess itself, which downstream subtractions need when the full series
    is close to 1.  The stopping rule requires both the current term and
    the analytic tail bound t_l (l+1)/(b-2) to drop below ctrl.rel_tol
    relative to the full sum.  Terms are advanced _SERIES_BLOCK at a time
    with a cumulative product and the stopping rule is checked between
    blocks, so at least one block is always summed.  Terms decay like
    l^(-b), so the series is slowest for b near its lower end; the default
    max_terms accommodates b down to ~3.

    Raises
    ------
    ValueError
        If a, b are not positive with b > a (series divergence) or b <= 2
        (no certified tail bound; never occurs in the b = a + 1 >= 3 family
        this package needs).
    SeriesConvergenceError
        If max_terms is reached first; carries the partial sum and tail
        bound.
    """
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    if b <= a:
        raise ValueError(f"series requires b > a for convergence, got a={a}, b={b}")
    if b <= 2.0:
        raise ValueError(f"tail bound requires b > 2, got b={b}")
    f1 = 0.0
    t = 1.0  # t_0
    l = 0
    while l < ctrl.max_terms:
        total = 1.0 + f1
        if t <= ctrl.rel_tol * total and t * (l + 1) / (b - 2.0) <= ctrl.rel_tol * total:
            return float(f1)
        m = np.arange(l, min(l + _SERIES_BLOCK, ctrl.max_terms), dtype=np.float64)
        terms = t * np.cumprod((m + 1.0) * (a + m) / ((b + m) * (b + m)))
        f1 += terms.sum()
        t = terms[-1]
        l += len(m)
    raise SeriesConvergenceError(
        f"3F2 series did not converge within {ctrl.max_terms} terms "
        f"(a={a}, b={b}, rel_tol={ctrl.rel_tol})",
        estimate=1.0 + f1,
        error_bound=t * (l + 1) / (b - 2.0),
    )


def hyp3f2_unit(a: float, b: float, ctrl: SeriesControl = SeriesControl()) -> float:
    """3F2(1, a, 1; b, b; 1) = sum_l  l! (a)_l / (b)_l^2  for b > a.

    Always >= 1: all terms are positive and the l = 0 term is 1.  See
    :func:`hyp3f2_unit_excess` for the summation and error control.
    """
    return 1.0 + hyp3f2_unit_excess(a, b, ctrl)


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
