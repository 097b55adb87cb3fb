"""Input files for the workloads, generated from the workload seed.

The program under test only ever sees these files (plus its own embedded
``hits`` table).  Every generator is a pure function of the seed, so one
seed always yields byte-identical files.  Draws come from numpy's own
generator through the exact mixture representation of the Yule-Simon law
(p ~ Beta(rho, 1), K | p geometric), not from the package's sampler, so a
defect in ``yulesimon.distribution.sample`` cannot shape the benchmark's
inputs.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

LIGHT_TAIL_ALPHA = 0.8
LIGHT_TAIL_DRAWS = 5_000
SURNAMES_ALPHA = 0.3
SURNAMES_ROWS = 100_000


def _stream(seed: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, purpose])))


def yule_simon_draws(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    rho = 1.0 / (1.0 - alpha)
    p = rng.beta(rho, 1.0, size=n)
    return rng.geometric(p).astype(np.int64)


def write_light_tail_csv(path: Path, seed: int) -> None:
    """Hits-mode ``k,count`` table of 5,000 draws at alpha = 0.8."""
    draws = yule_simon_draws(LIGHT_TAIL_ALPHA, LIGHT_TAIL_DRAWS, _stream(seed, 1))
    values, counts = np.unique(draws, return_counts=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "count"])
        writer.writerows(zip(values.tolist(), counts.tolist()))


def write_surnames_csv(path: Path, seed: int) -> None:
    """Surnames-mode ``label,frequency`` table: 1e5 rows, one draw each."""
    draws = yule_simon_draws(SURNAMES_ALPHA, SURNAMES_ROWS, _stream(seed, 2))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("label,frequency\n")
        fh.writelines(f"S{i:06d},{k}\n" for i, k in enumerate(draws.tolist()))


# Every ``ys fit`` or ``ys simulate`` call of every run gets this ``--seed``,
# so each call repeats the same chains.  The cost of a hits fit or of a
# 9-replicate study depends strongly on the chains' paths (study cost varies
# by 31% from one study seed to the next, a hits fit by 10% from one chain
# seed to the next), and a run holds only 10 to 100 calls, so runs that drew
# fresh chains could not agree within a 25% bound.  The workload seed varies
# the data files instead.
CALL_SEED = 20160419
