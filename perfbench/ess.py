"""Effective sample size and Monte Carlo standard error of a scalar chain.

Geyer's initial positive sequence estimator (Geyer 1992, Statistical
Science 7:473).  With autocovariances g(k) taken with divisor n, the sums of
adjacent pairs G(m) = g(2m) + g(2m+1) are positive for a reversible chain;
the estimate truncates at the first non-positive pair:

    sigma^2 = -g(0) + 2 * sum_{m < M} G(m),   ESS = n g(0) / sigma^2,
    MCSE = sqrt(sigma^2 / n).

The benchmark uses this to turn chain output into ESS per second and to
check chain means against pinned posterior means within k * MCSE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EssEstimate:
    ess: float
    mcse: float


def autocovariance(x: np.ndarray) -> np.ndarray:
    """g(k) for k = 0..n-1 with divisor n, by zero-padded FFT."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, size)
    return np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n


def geyer_ess(x) -> EssEstimate:
    """ESS and MCSE of the mean of ``x`` by the initial positive sequence.

    A constant chain has no measurable variance: its ESS is reported as 1
    (one distinct state) and its MCSE as 0.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n < 4:
        raise ValueError(f"need at least 4 draws, got {n}")
    gamma = autocovariance(x)
    g0 = float(gamma[0])
    if g0 <= 0.0:
        return EssEstimate(1.0, 0.0)
    pairs = gamma[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pairs <= 0.0)
    stop = int(nonpositive[0]) if len(nonpositive) else len(pairs)
    sigma2 = -g0 + 2.0 * float(pairs[:stop].sum())
    # A strongly anticorrelated chain can drive sigma2 to zero or below; cap
    # ESS at n * log10(n), as Stan does, so it cannot report an absurd value.
    cap = n * math.log10(n)
    ess = min(n * g0 / sigma2, cap) if sigma2 > 0.0 else cap
    return EssEstimate(ess, math.sqrt(g0 / ess))
