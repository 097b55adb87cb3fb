"""Frequentist validation harness: coverage of the 95% credible interval
and relative root-MSE over a grid of true alpha values, plus single-dataset
case studies.

The K replicates of a study, whatever its prior, are dealt to
min(workers, ceil(K / _CHAINS_PER_SHARD)) shards; one shard runs in this
process, more run one per pool process.  In a shard, grid-prior replicates
run one after another, and Jeffreys replicates run as batches of chains
(`sample_posterior_continuous` given sequences): each round evaluates the
whole batch's proposals together, with one array prior call and one
`LikelihoodStack` call over (sample, alpha) pairs.  Nine or more live
chains take one proposal each per round; fewer take predicted runs.

Reproducibility contract: every (alpha index, replicate index) pair derives
its data and chain seeds from the master seed through a SeedSequence spawn
key, and a chain run in a batch equals, draw for draw, the chain of a
single call with the same seed: its own PCG64 stream, and prior and
likelihood values bit for bit the scalar calls'.  So results are
bit-identical whatever the worker count, the shards and the batches;
aggregation is an ordered reduction over (alpha, replicate).
"""

from __future__ import annotations

import concurrent.futures
import csv
import os
from dataclasses import dataclass, replace
from typing import Sequence

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
# min(workers, ceil(K / 10)) shards.  Timed in one process at n = 30 on a
# 2-CPU machine when this size was chosen, a round of one proposal per chain
# cost about 41 us plus 4.3 us per chain, and a single chain 21 us per
# iteration (at its acceptance, 0.7-0.8 at n = 30, most predicted runs are
# too short for an array call, so it steps one proposal at a time; so does
# a shard while any of its chains does).  The per-replicate pool that shards
# replace (chunksize 4) ran four single chains back to back per task,
# 84 us per iteration, so shards of at most 10 chains (84 us) keep a study
# of 4 or more replicates no slower per iteration than that pool on any
# number of cores; 24-chain shards (144 us) would not.  With fewer
# workers than ceil(K / 10), each shard holds K / workers chains at a
# fraction of their single-chain cost.  A second shard pays for its pool
# (about 12 ms to start, fork and collect) from 10 chains at 600 iterations:
# halving a 10-chain shard saves 21 us per iteration.  The comparison
# across cores rests on this model: on that machine two busy processes
# each ran at half speed, so parallel runs could not be timed.  Grid-prior
# replicates take the same shards: a 10,000-iteration task (M = 10, n = 30)
# costs about 0.9 ms, 0.37 ms at 600 iterations (medians of 360 tasks in
# one process on that machine), so a 10-task shard takes 4-9 ms, less
# than a second shard's pool costs to start.
_CHAINS_PER_SHARD = 10
# Chains per batch: a batch holds 24 bytes per chain-iteration
# (steps, uniforms and the state trace), so 256 chains of 10,000
# iterations take 61 MB; past about 60 chains the cost per chain-iteration
# no longer falls, so larger batches would gain nothing.
_MAX_BATCH = 256


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
    """Replicates (tasks as for `_run_task`, all with one prior): grid-prior
    ones one after another, Jeffreys ones as chain batches of at most
    _MAX_BATCH.  A fit that raised ``NumericError`` gives None."""
    if isinstance(tasks[0][-1], GridPrior):
        return [_run_task(task) for task in tasks]
    out = []
    for b0 in range(0, len(tasks), _MAX_BATCH):
        batch = tasks[b0 : b0 + _MAX_BATCH]
        samples, cfgs = [], []
        for alpha_idx, rep_idx, alpha_true, n, master_seed, mcmc, prior in batch:
            data_seed, chain_seed = _replicate_seeds(master_seed, alpha_idx, rep_idx)
            samples.append(FrequencySample.from_observations(sample(alpha_true, n, data_seed)))
            cfgs.append(replace(mcmc, seed=chain_seed))
        chains = sample_posterior_continuous(samples, prior, cfgs)
        for (alpha_idx, rep_idx, *_), chain in zip(batch, chains):
            summary = None if isinstance(chain, NumericError) else summarize(chain)
            out.append((alpha_idx, rep_idx, summary))
    return out


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
    nothing.  A shard runs grid-prior replicates one after another and
    Jeffreys replicates as chain batches.  The output does not
    depend on the worker count (see the module docstring).
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
