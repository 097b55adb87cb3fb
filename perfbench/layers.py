"""Per-layer measurements: each public function timed on its own.

Every row is measured in every traced run, whatever the workload, so each
traced record carries the full per-layer set.  Inputs are the workload
seed's generated files plus the embedded hits data; chain seeds are fixed
per workload seed, so ESS, acceptance and warning counts repeat exactly for
a given seed.  Which end-to-end metric each row should move is recorded in
``facts.json``.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

from . import inputs
from .ess import geyer_ess
from .tracing import Tracer
from .workloads import SURNAMES_M

ALPHAS = (0.02, 0.08, 0.3, 0.6, 0.9)
CHAIN_TOL = 1e-10  # the series tolerance the Jeffreys chain uses


def per_call(fn, budget_s: float = 0.2, min_reps: int = 5) -> float:
    """Median wall seconds of one call of ``fn`` over at least ``min_reps``
    calls and ``budget_s`` seconds."""
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(directory: Path, seed: int) -> dict[str, tuple[float, str]]:
    """Every per-layer row as name -> (value, unit)."""
    import yulesimon as ys

    rows: dict[str, tuple[float, str]] = {}
    ctrl = ys.SeriesControl(rel_tol=CHAIN_TOL)
    prior = ys.JeffreysPrior()
    for a in ALPHAS:
        c = 1.0 / (1.0 - a)
        us = 1e6 * per_call(lambda: ys.hyp3f2_unit_excess(c + 1.0, c + 2.0, ctrl))
        rows[f"special.hyp3f2_excess_us.a{a}"] = (us, "us")
        rows[f"priors.jeffreys_log_us.a{a}"] = (1e6 * per_call(lambda: prior.log_unnormalized(a)), "us")
    for n in (64, 16384):
        t = np.arange(1.0, n + 1.0)
        rows[f"special.log_gamma_ratio_us.n{n}"] = (
            1e6 * per_call(lambda: ys.log_gamma_ratio(t, 2.5)),
            "us",
        )

    rows["priors.loss_prior_s.m100"] = (per_call(lambda: ys.loss_based_prior(100), 0.0, 3), "s")
    t0 = time.perf_counter()
    grid = ys.loss_based_prior(SURNAMES_M)
    rows["priors.loss_prior_s.m1000"] = (time.perf_counter() - t0, "s")
    tracemalloc.start()
    try:
        ys.loss_based_prior(SURNAMES_M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows["priors.loss_prior_peak_mb.m1000"] = (peak / 2**20, "MB")
    t0 = time.perf_counter()
    ys.JeffreysPrior().normalizer()
    rows["priors.jeffreys_normalizer_s"] = (time.perf_counter() - t0, "s")

    light_tail_csv = directory / "light_tail.csv"
    surnames_csv = directory / "surnames.csv"
    if not light_tail_csv.exists():
        inputs.write_light_tail_csv(light_tail_csv, seed)
    if not surnames_csv.exists():
        inputs.write_surnames_csv(surnames_csv, seed)
    rows["data.load_count_table_ms.surnames"] = (
        1e3 * per_call(lambda: ys.load_count_table(str(surnames_csv), "surnames"), 0.0, 3),
        "ms",
    )
    data = {
        "hits": ys.music_hits_frequencies(),
        "light-tail": ys.load_count_table(str(light_tail_csv), "hits"),
        "surnames": ys.load_count_table(str(surnames_csv), "surnames"),
    }
    for name, sample in data.items():
        rows[f"distribution.log_likelihood_us.{name}"] = (
            1e6 * per_call(lambda: ys.log_likelihood(sample, 0.5)),
            "us",
        )
    draws = ys.sample(0.5, 30, seed)
    rows["distribution.sample_us.n30"] = (1e6 * per_call(lambda: ys.sample(0.5, 30, seed)), "us")
    rows["distribution.from_observations_us.n30"] = (
        1e6 * per_call(lambda: ys.FrequencySample.from_observations(draws)),
        "us",
    )

    chains = {
        "hits": (ys.sample_posterior_continuous, prior, ys.McmcConfig(2_000, 400, seed)),
        "light-tail": (ys.sample_posterior_continuous, prior, ys.McmcConfig(4_000, 1_000, seed)),
        "surnames": (ys.sample_posterior_discrete, grid, ys.McmcConfig(25_000, 5_000, seed)),
    }
    for name, (sampler, chain_prior, cfg) in chains.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ys.TuningWarning)
            t0 = time.perf_counter()
            chain = sampler(data[name], chain_prior, cfg)
            elapsed = time.perf_counter() - t0
        rows[f"inference.us_per_iter.{name}"] = (1e6 * elapsed / cfg.iterations, "us")
        rows[f"inference.acceptance.{name}"] = (chain.acceptance_rate, "ratio")
        rows[f"inference.ess.{name}"] = (geyer_ess(chain.draws).ess, "count")
        warned = sum(issubclass(w.category, ys.TuningWarning) for w in caught)
        rows[f"inference.tuning_warnings.{name}"] = (warned, "count")
    rows["inference.exact_grid_posterior_ms.m1000"] = (
        1e3 * per_call(lambda: ys.exact_grid_posterior(data["surnames"], grid), 0.0, 3),
        "ms",
    )

    rows.update(_experiments(ys, seed))
    return rows


def _experiments(ys, seed: int) -> dict[str, tuple[float, str]]:
    """Replicate times from a traced one-worker study, and how well two
    workers use the machine on the same study untraced."""
    cfg = ys.StudyConfig(
        alphas=ys.default_grid(10),
        n=30,
        replicates=1,
        mcmc=ys.McmcConfig(600, 100, seed=0),
        prior_spec=ys.PriorSpec("jeffreys"),
        master_seed=seed,
    )
    tracer = Tracer()
    tracer.call(ys.run_coverage_study, cfg, workers=1)
    # With one worker a replicate is one `sample` span followed by its chain.
    replicate_s = [
        span.end - start
        for start, span in zip(
            (s.start for s in tracer.spans if s.name.endswith(".sample")),
            (s for s in tracer.spans if s.name.endswith(".sample_posterior_continuous")),
        )
    ]
    t0 = time.perf_counter()
    ys.run_coverage_study(cfg, workers=2)
    pooled = time.perf_counter() - t0
    return {
        "experiments.replicate_s_p50": (statistics.median(replicate_s), "s"),
        "experiments.pool_efficiency": (sum(replicate_s) / (2.0 * pooled), "ratio"),
    }
