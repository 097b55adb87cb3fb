"""Independent posterior oracles for the correctness checks.

Jeffreys posterior: alpha is one-dimensional, so q(alpha) L(data | alpha)
can be normalized by quadrature.  The prior is evaluated with
``mpmath.hyp3f2(1, c+1, 1; c+2, c+2; 1)`` at 30 significant digits, which
shares no code with the package's series; log q is sampled on Chebyshev
nodes in x = logit(alpha) and interpolated (log q is smooth and slowly
varying in x), the likelihood is summed with scipy's gammaln, and the
density in x (with the Jacobian alpha (1 - alpha)) is integrated on a dense
uniform grid.  The result is accurate to far better than any chain's Monte
Carlo error; ``python3 perfbench/oracle.py`` recomputes the pinned values.

Loss-based grid posterior: ``yulesimon.exact_grid_posterior`` normalizes
the grid posterior in closed form and is the oracle the discrete chain is
checked against (it does not run the sampler).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.special import gammaln

# Pinned Jeffreys posterior of the embedded hits data (n = 16), computed by
# ``posterior_oracle(HITS_ENTRIES)``; see ``main`` below.
HITS_ENTRIES = ((1, 7), (2, 2), (4, 2), (10, 1), (13, 1), (30, 1), (57, 1), (119, 1))
# The mean agrees to 1e-12 between 10 and 14 nodes per panel and between
# 40,001 and 80,001 grid points; the quantiles, read off a linearly
# interpolated CDF, to about 1e-8.
HITS_POSTERIOR = {
    "mean": 0.088621982668,
    "q025": 0.00280600,
    "q500": 0.06999507,
    "q975": 0.27230910,
    "sd": 0.073596764484,
}
# The same for the light-tail data of workload seed 1 (``inputs.py``).  Other
# seeds' light-tail posteriors are computed when a run starts.
LIGHT_TAIL_SEED1_POSTERIOR = {
    "mean": 0.789337327783,
    "q025": 0.77609968,
    "q500": 0.78942248,
    "q975": 0.80209106,
    "sd": 0.006631141248,
}


@dataclass(frozen=True)
class PosteriorOracle:
    mean: float
    q025: float
    q500: float
    q975: float
    sd: float


def jeffreys_log_q(alpha: float) -> float:
    """ln q(alpha) = 0.5 ln[1 - F / (2 - alpha)^2] - ln(1 - alpha) by mpmath."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        c = 1 / (1 - a)
        f = mpmath.hyp3f2(1, c + 1, 1, c + 2, c + 2, 1)
        radicand = 1 - f / (2 - a) ** 2
        return float(mpmath.log(radicand) / 2 - mpmath.log(1 - a))


def log_likelihood(entries, alpha: np.ndarray) -> np.ndarray:
    ks = np.array([k for k, _ in entries], dtype=np.float64)[:, None]
    counts = np.array([n for _, n in entries], dtype=np.float64)[:, None]
    c = 1.0 / (1.0 - alpha)[None, :]
    terms = np.log(c) + gammaln(ks) + gammaln(c + 1.0) - gammaln(ks + c + 1.0)
    return (counts * terms).sum(axis=0)


def _support(entries) -> tuple[float, float]:
    """The x-interval where likelihood times Jacobian is within e^-50 of its
    peak.  The prior changes by far less than e^10 over any such interval,
    so the posterior density at its ends is below e^-40 of the peak (checked
    after the fact in ``posterior_oracle``)."""
    x = np.linspace(-80.0, 30.0, 22001)
    alpha = 1.0 / (1.0 + np.exp(-x))
    log_w = log_likelihood(entries, alpha) + np.log(alpha) + np.log1p(-alpha)
    keep = x[log_w > log_w.max() - 50.0]
    if keep[0] == x[0] or keep[-1] == x[-1]:
        raise RuntimeError("posterior mass reaches the edge of the scanned range")
    return float(keep[0]), float(keep[-1])


def _log_q_on(x: np.ndarray, x_lo: float, x_hi: float, nodes: int) -> np.ndarray:
    """Piecewise Chebyshev interpolant of ln q in x, panels at most 2 wide."""
    panels = max(1, math.ceil((x_hi - x_lo) / 2.0))
    edges = np.linspace(x_lo, x_hi, panels + 1)
    cheb = np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)
    out = np.empty_like(x)
    which = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, panels - 1)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        x_nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * cheb
        values = [jeffreys_log_q(1.0 / (1.0 + math.exp(-xn))) for xn in x_nodes]
        fit = np.polynomial.Chebyshev.fit(x_nodes, values, nodes - 1, domain=[lo, hi])
        out[which == i] = fit(x[which == i])
    return out


def posterior_oracle(entries, nodes: int = 10, grid: int = 40_001) -> PosteriorOracle:
    """Mean, 2.5/50/97.5% quantiles and sd of the Jeffreys posterior."""
    x_lo, x_hi = _support(entries)
    x = np.linspace(x_lo, x_hi, grid)
    alpha = 1.0 / (1.0 + np.exp(-x))
    log_w = (
        _log_q_on(x, x_lo, x_hi, nodes)
        + log_likelihood(entries, alpha)
        + np.log(alpha)
        + np.log1p(-alpha)
    )
    w = np.exp(log_w - log_w.max())
    if max(w[0], w[-1]) > math.exp(-40.0):
        raise RuntimeError("posterior support interval truncates the density")
    dx = x[1] - x[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dx)])
    total = cdf[-1]
    cdf /= total
    mean = float(np.trapezoid(alpha * w, dx=dx) / total)
    second = float(np.trapezoid(alpha * alpha * w, dx=dx) / total)
    q025, q500, q975 = (float(np.interp(p, cdf, alpha)) for p in (0.025, 0.5, 0.975))
    return PosteriorOracle(mean, q025, q500, q975, math.sqrt(max(second - mean * mean, 0.0)))


def main() -> None:
    print(posterior_oracle(HITS_ENTRIES))


if __name__ == "__main__":
    main()
