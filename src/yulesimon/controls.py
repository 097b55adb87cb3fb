"""The tolerance and term budget for series summation."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SeriesControl:
    """Stopping rule for infinite-series evaluation.

    ``rel_tol`` bounds the remainder estimate relative to the sum.  The
    series are summed term by term over a head and closed analytically past
    it; ``max_terms`` caps the head, which grows x4 until the remainder
    meets ``rel_tol``.  Hitting the cap before the tolerance is an explicit
    :class:`~yulesimon.errors.SeriesConvergenceError`, never a silent
    truncation.
    """

    rel_tol: float = 1e-12
    max_terms: int = 10_000_000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")

