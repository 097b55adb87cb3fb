"""The four workloads: their input files, the ``ys`` call one operation
makes, and the check every operation's output must pass.

Each operation is one call of ``yulesimon.cli.main``; its outputs are read
back from the files the program wrote and checked against an oracle that
does not run the code under test:

* Jeffreys fits: the chain mean must lie within ``K_SIGMA`` Geyer MCSE of
  the quadrature posterior mean in ``oracle.py``;
* the loss-prior fit: the chain mean must lie within ``K_SIGMA`` MCSE of the
  mean of ``exact_grid_posterior``, and every draw on the grid;
* the coverage study: the ``failures`` column must be zero in every row.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import inputs, oracle
from .ess import geyer_ess

# Chain mean vs. oracle mean, in MCSE units.  The estimated MCSE of a short
# chain is itself uncertain, so the band is wider than a nominal 3 sigma.
K_SIGMA = 5.0
SURNAMES_M = 1000


@dataclass
class OpResult:
    seconds: float
    ok: bool
    reason: str = ""
    draws: int = 0  # kept posterior draws, summed over the call's chains
    replicates: int = 0
    ess: float = 0.0
    z: float = 0.0
    acceptance: float = 0.0


def read_hits_csv(path: Path) -> tuple[tuple[int, int], ...]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return tuple(sorted((int(k), int(n)) for k, n in rows))


def read_surnames_csv(path: Path) -> tuple[tuple[int, int], ...]:
    with open(path, newline="", encoding="utf-8") as fh:
        freqs = Counter(int(row[1]) for row in list(csv.reader(fh))[1:])
    return tuple(sorted(freqs.items()))


class FitWorkload:
    """``ys fit`` with chain and summary outputs; the check compares the
    chain mean with an oracle mean."""

    prior = "jeffreys"
    outputs = ("chain.csv", "summary.json")

    def __init__(self, name: str, iters: int, burnin: int):
        self.name = name
        self.iters, self.burnin = iters, burnin

    def prepare(self, directory: Path, seed: int) -> None:
        """Write this workload's input files."""

    def data_args(self, directory: Path, warm_up: bool = False) -> list[str]:
        raise NotImplementedError

    def oracle_mean(self, directory: Path) -> float:
        raise NotImplementedError

    def argv(self, directory, warm_up=False, single_process=False) -> list[str]:
        iters, burnin = (40, 10) if warm_up else (self.iters, self.burnin)
        return [
            "fit",
            *self.data_args(directory, warm_up),
            "--prior", self.prior,
            "--iters", str(iters),
            "--burnin", str(burnin),
            "--seed", str(inputs.CALL_SEED),
            "--out-chain", str(directory / "chain.csv"),
            "--out-summary", str(directory / "summary.json"),
        ]  # fmt: skip

    def check(self, directory: Path, reference: float, result: OpResult) -> None:
        with open(directory / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        draws = np.loadtxt(directory / "chain.csv", skiprows=1, ndmin=1)
        result.draws = len(draws)
        result.acceptance = float(summary["acceptance_rate"])
        if len(draws) != self.iters - self.burnin:
            result.ok, result.reason = False, f"chain has {len(draws)} draws"
            return
        if abs(summary["mean"] - draws.mean()) > 1e-12:
            result.ok, result.reason = False, "summary mean disagrees with the chain"
            return
        self.check_support(draws, result)
        if not result.ok:
            return
        est = geyer_ess(draws)
        result.ess = est.ess
        error = float(draws.mean()) - reference
        result.z = error / est.mcse if est.mcse > 0.0 else (0.0 if error == 0.0 else math.inf)
        if abs(result.z) > K_SIGMA:
            result.ok = False
            result.reason = (
                f"chain mean {draws.mean():.6g} is {result.z:.2f} MCSE from the "
                f"oracle mean {reference:.6g}"
            )

    def check_support(self, draws: np.ndarray, result: OpResult) -> None:
        if not (np.all(draws > 0.0) and np.all(draws < 1.0)):
            result.ok, result.reason = False, "draw outside (0, 1)"


class HitsFit(FitWorkload):
    def data_args(self, directory, warm_up=False):
        return ["--data", "hits"]

    def oracle_mean(self, directory):
        import yulesimon

        if yulesimon.music_hits_frequencies().entries != oracle.HITS_ENTRIES:
            raise RuntimeError("the embedded hits data differ from the pinned oracle's")
        return oracle.HITS_POSTERIOR["mean"]


class LightTailFit(FitWorkload):
    def prepare(self, directory, seed):
        inputs.write_light_tail_csv(directory / "light_tail.csv", seed)

    def data_args(self, directory, warm_up=False):
        return ["--data", str(directory / "light_tail.csv"), "--mode", "hits"]

    def oracle_mean(self, directory):
        return oracle.posterior_oracle(read_hits_csv(directory / "light_tail.csv")).mean


class SurnamesLossFit(FitWorkload):
    prior = "loss"

    def prepare(self, directory, seed):
        inputs.write_surnames_csv(directory / "surnames.csv", seed)

    def data_args(self, directory, warm_up=False):
        # The warm-up loads the same file but builds only a 10-point prior.
        m = 10 if warm_up else SURNAMES_M
        return ["--data", str(directory / "surnames.csv"), "--mode", "surnames", "--m", str(m)]

    def oracle_mean(self, directory):
        import yulesimon

        data = yulesimon.FrequencySample(read_surnames_csv(directory / "surnames.csv"))
        self.grid = yulesimon.loss_based_prior(SURNAMES_M)
        exact = yulesimon.exact_grid_posterior(data, self.grid)
        return float(np.dot(exact.support, exact.masses))

    def check_support(self, draws, result):
        if not np.all(np.isin(draws, self.grid.support)):
            result.ok, result.reason = False, "draw off the prior's grid"


class CoverageStudy:
    """``ys simulate`` on the 9-point grid {0.1, ..., 0.9} at n = 30."""

    m, n = 10, 30
    outputs = ("study.csv",)

    def __init__(self, name: str, reps: int, iters: int, burnin: int, workers: int):
        self.name = name
        self.reps, self.iters, self.burnin, self.workers = reps, iters, burnin, workers

    def prepare(self, directory: Path, seed: int) -> None:
        """The study generates its own data from the master seed."""

    def oracle_mean(self, directory: Path) -> None:
        return None

    def argv(self, directory, warm_up=False, single_process=False) -> list[str]:
        reps, iters, burnin = (1, 20, 5) if warm_up else (self.reps, self.iters, self.burnin)
        return [
            "simulate",
            "--prior", "jeffreys",
            "--m", str(self.m),
            "--n", str(self.n),
            "--reps", str(reps),
            "--iters", str(iters),
            "--burnin", str(burnin),
            "--seed", str(inputs.CALL_SEED),
            "--workers", str(1 if single_process else self.workers),
            "--out", str(directory / "study.csv"),
        ]  # fmt: skip

    def check(self, directory: Path, reference: None, result: OpResult) -> None:
        with open(directory / "study.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        alphas = [round(float(row["alpha"]) * self.m) for row in rows]
        if alphas != list(range(1, self.m)):
            result.ok, result.reason = False, f"study rows are for alphas {alphas}"
            return
        failures = sum(int(row["failures"]) for row in rows)
        result.replicates = len(rows) * self.reps
        result.draws = result.replicates * (self.iters - self.burnin)
        if failures:
            result.ok, result.reason = False, f"{failures} failed replicates"
            return
        if not all(0.0 <= float(row["coverage"]) <= 1.0 for row in rows):
            result.ok, result.reason = False, "coverage outside [0, 1]"


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        HitsFit("jeffreys-hits", iters=1_000, burnin=200),
        LightTailFit("jeffreys-light-tail", iters=4_000, burnin=1_000),
        SurnamesLossFit("loss-surnames", iters=25_000, burnin=5_000),
        CoverageStudy("coverage-jeffreys", reps=1, iters=600, burnin=100, workers=2),
    )
}
