"""Frequentist validation harness: coverage of the 95% credible interval
and relative root-MSE over a grid of true alpha values, plus single-dataset
case studies.

The K replicates of a study, whatever its prior, are dealt to
min(workers, ceil(K / _CHAINS_PER_SHARD)) shards; one shard runs in this
process, more run one per pool process.  A shard fits its replicates one
after another, each by one call of its prior's sampler.

Reproducibility contract: every (alpha index, replicate index) pair derives
its data and chain seeds from the master seed through a SeedSequence spawn
key, and each fit depends only on its data, its prior and its seed.  So
results are bit-identical whatever the worker count and the shards;
aggregation is an ordered reduction over (alpha, replicate).
"""

from __future__ import annotations

import concurrent.futures
import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from .distribution import FrequencySample, sample
from .errors import NumericError
from .inference import (
    McmcConfig,
    PosteriorSummary,
    sample_posterior_continuous,
    sample_posterior_discrete,
    summarize,
)
from .priors import GridPrior, JeffreysPrior, loss_based_prior

__all__ = [
    "PriorSpec",
    "StudyConfig",
    "StudyRow",
    "StudyResult",
    "run_coverage_study",
    "run_fixed_sample_study",
    "default_grid",
]


@dataclass(frozen=True)
class PriorSpec:
    """Which prior a study fits: Jeffreys or loss-based with grid size m."""

    kind: str  # "jeffreys" | "loss"
    m: int | None = None

    def __post_init__(self):
        if self.kind not in ("jeffreys", "loss"):
            raise ValueError(f"prior kind must be 'jeffreys' or 'loss', got {self.kind}")
        if self.kind == "loss" and (self.m is None or self.m < 3):
            raise ValueError("loss-based prior needs a grid denominator m >= 3")

    @property
    def label(self) -> str:
        return "jeffreys" if self.kind == "jeffreys" else f"loss-m{self.m}"


@dataclass(frozen=True)
class StudyConfig:
    """Coverage-study settings.

    ``mcmc.seed`` is ignored: replicate chains derive their seeds from
    ``master_seed`` (see module docstring).
    """

    alphas: tuple[float, ...]
    n: int
    replicates: int
    mcmc: McmcConfig
    prior_spec: PriorSpec
    master_seed: int

    def __post_init__(self):
        if not self.alphas:
            raise ValueError("at least one true alpha is required")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ValueError(f"true alpha values must lie in (0, 1), got {a}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be >= 0, got {self.master_seed}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))


@dataclass(frozen=True)
class StudyRow:
    alpha: float
    coverage: float
    rel_rmse_mean: float
    rel_rmse_median: float
    failures: int


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...]

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["alpha", "coverage", "rel_rmse_mean", "rel_rmse_median", "failures"]
            )
            for row in self.rows:
                writer.writerow(
                    [
                        f"{row.alpha:.17g}",
                        f"{row.coverage:.17g}",
                        f"{row.rel_rmse_mean:.17g}",
                        f"{row.rel_rmse_median:.17g}",
                        row.failures,
                    ]
                )


# Replicates per shard: a study of K replicates runs in
# min(workers, ceil(K / 10)) shards.  A second shard pays for its pool
# (about 12 ms to start, fork and collect) once it takes more than that off
# the first.  Timed in one process on a shared 2-CPU host, medians of 7
# calls: a Jeffreys replicate at n = 30 and 600 iterations costs about
# 5.4 ms (1.1-1.5 ms of it the proposal's scan and nodes), so 9 replicates
# take 49 ms in one process and half of 10 take 27 ms; a grid-prior
# replicate (M = 10, n = 30) costs 0.37 ms at 600 iterations and 0.9 ms at
# 10,000.
_CHAINS_PER_SHARD = 10


def default_grid(m: int) -> tuple[float, ...]:
    """The study grid matching a discretization denominator: {i/m}."""
    return tuple(np.arange(1, m, dtype=np.float64) / m)


def _replicate_seeds(master_seed: int, alpha_idx: int, rep_idx: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(alpha_idx, rep_idx))
    state = ss.generate_state(4, dtype=np.uint64)
    return int(state[0]), int(state[1])


def _fit_one(
    alpha_true: float,
    n: int,
    data_seed: int,
    chain_seed: int,
    mcmc: McmcConfig,
    prior,
) -> PosteriorSummary:
    data = FrequencySample.from_observations(sample(alpha_true, n, data_seed))
    cfg = replace(mcmc, seed=chain_seed)
    if isinstance(prior, GridPrior):
        chain = sample_posterior_discrete(data, prior, cfg)
    else:
        chain = sample_posterior_continuous(data, prior, cfg)
    return summarize(chain)


def _run_task(args) -> tuple[int, int, PosteriorSummary | None]:
    alpha_idx, rep_idx, alpha_true, n, master_seed, mcmc, prior = args
    data_seed, chain_seed = _replicate_seeds(master_seed, alpha_idx, rep_idx)
    try:
        summary = _fit_one(alpha_true, n, data_seed, chain_seed, mcmc, prior)
    except NumericError:
        return alpha_idx, rep_idx, None
    return alpha_idx, rep_idx, summary


def _run_shard(tasks) -> list[tuple[int, int, PosteriorSummary | None]]:
    """Replicates (tasks as for `_run_task`) one after another; a fit that
    raised ``NumericError`` gives None."""
    return [_run_task(task) for task in tasks]


def _build_prior(spec: PriorSpec):
    if spec.kind == "jeffreys":
        return JeffreysPrior()
    return loss_based_prior(spec.m)


def run_coverage_study(cfg: StudyConfig, workers: int | None = None) -> StudyResult:
    """Coverage and relative root-MSE per true alpha.

    For each alpha: ``cfg.replicates`` datasets of size ``cfg.n`` are
    generated and fitted; coverage is the fraction of replicates whose
    [0.025, 0.975] interval contains the truth, and rel_rmse is
    sqrt(MSE)/alpha computed from the posterior means (and, in the second
    column, medians).  Replicates that fail numerically (``NumericError``)
    are counted in the ``failures`` column instead of aborting the study;
    any other exception propagates.

    ``workers`` (default: machine parallelism) is an upper bound on the
    processes used, not a count, for either prior.  K replicates run in
    min(workers, ceil(K / _CHAINS_PER_SHARD)) shards, so a study of fewer
    than _CHAINS_PER_SHARD + 1 replicates runs in this process and forks
    nothing.  The output does not depend on the worker count (see the
    module docstring).
    """
    prior = _build_prior(cfg.prior_spec)
    tasks = [
        (ia, ir, alpha, cfg.n, cfg.master_seed, cfg.mcmc, prior)
        for ia, alpha in enumerate(cfg.alphas)
        for ir in range(cfg.replicates)
    ]
    if workers is None:
        workers = os.cpu_count() or 1
    shards = max(1, min(workers, -(-len(tasks) // _CHAINS_PER_SHARD)))
    parts = [tasks[s::shards] for s in range(shards)]
    if shards == 1:
        done = map(_run_shard, parts)
    else:
        # The default start method.  Where that is fork (Linux), the only
        # other threads are OpenBLAS's, which its fork handler stops;
        # spawned workers would re-import numpy and scipy, 0.6-1.2 s per
        # study here.
        with concurrent.futures.ProcessPoolExecutor(max_workers=shards) as pool:
            done = list(pool.map(_run_shard, parts))
    results = {(ia, ir): summary for part in done for ia, ir, summary in part}

    rows = []
    for ia, alpha in enumerate(cfg.alphas):
        summaries = [results[(ia, ir)] for ir in range(cfg.replicates)]
        ok = [s for s in summaries if s is not None]
        failures = len(summaries) - len(ok)
        if not ok:
            rows.append(StudyRow(alpha, 0.0, float("nan"), float("nan"), failures))
            continue
        covered = np.array([s.ci_low <= alpha <= s.ci_high for s in ok], dtype=float)
        means = np.array([s.mean for s in ok])
        medians = np.array([s.median for s in ok])
        rows.append(
            StudyRow(
                alpha,
                float(covered.mean()),
                float(np.sqrt(np.mean((means - alpha) ** 2)) / alpha),
                float(np.sqrt(np.mean((medians - alpha) ** 2)) / alpha),
                failures,
            )
        )
    return StudyResult(tuple(rows))


def run_fixed_sample_study(
    alpha_true: float, n: int, seed: int
) -> dict[str, PosteriorSummary]:
    """One simulated dataset, three fits: Jeffreys, loss m=10, loss m=20.

    Uses the 10,000-iteration / 2,000-burn-in budget; returns summaries
    keyed by prior label, in that order.
    """
    ss = np.random.SeedSequence(entropy=seed)
    state = ss.generate_state(8, dtype=np.uint64)
    mcmc = McmcConfig(iterations=10_000, burn_in=2_000, seed=0)
    specs = (PriorSpec("jeffreys"), PriorSpec("loss", 10), PriorSpec("loss", 20))
    return {
        spec.label: _fit_one(
            alpha_true, n, int(state[0]), int(state[i + 1]), mcmc, _build_prior(spec)
        )
        for i, spec in enumerate(specs)
    }
