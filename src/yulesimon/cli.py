"""Command-line interface.

Subcommands: prior, fit, simulate, sample, transform-returns.  Every
randomized subcommand requires an explicit --seed (reproducibility is the
point; there is no wall-clock default).  Exit codes: 0 success; 1 usage
error, for an argument the parser refuses or a value the package's
constructors refuse (``--iters 0``, ``--alpha 1.5``, ``--m 2``); 2 data
error (a malformed or undecodable input file, or one that cannot be read
or written); 3 numerical failure.  Any other exception propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import data as data_mod
from .distribution import FrequencySample, sample as sample_draws
from .errors import DataFormatError, NumericError
from .experiments import PriorSpec, StudyConfig, default_grid, run_coverage_study
from .inference import (
    Chain,
    McmcConfig,
    sample_posterior_continuous,
    sample_posterior_discrete,
    summarize,
)
from .priors import JeffreysPrior, loss_based_prior


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 1
        raise _UsageError(message)


@contextlib.contextmanager
def _argument_values():
    """Turns the ValueError of a constructor given argument values into a
    usage error.  Only such constructors run inside it, so no data error
    or program fault is taken for one."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="ys", description="Objective Bayesian Yule-Simon toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_prior = sub.add_parser("prior", help="tabulate a prior to CSV")
    p_prior.add_argument("--kind", choices=["jeffreys", "loss"], required=True)
    p_prior.add_argument("--m", type=int, default=10, help="grid denominator (loss)")
    p_prior.add_argument(
        "--grid-points", type=int, default=201, help="tabulation density (jeffreys)"
    )
    p_prior.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="fit a posterior to a dataset")
    p_fit.add_argument("--data", required=True, help="'hits' or a CSV path")
    p_fit.add_argument(
        "--mode",
        choices=["hits", "surnames", "returns"],
        default="hits",
        help="file interpretation; 'returns' expects a date,adj_close price CSV",
    )
    p_fit.add_argument("--prior", choices=["jeffreys", "loss"], required=True)
    p_fit.add_argument("--m", type=int, default=10)
    p_fit.add_argument("--iters", type=int, default=25_000)
    p_fit.add_argument("--burnin", type=int, default=5_000)
    p_fit.add_argument("--seed", type=int, required=True)
    p_fit.add_argument("--decimals", type=int, default=2, help="returns truncation digits")
    p_fit.add_argument("--out-summary")
    p_fit.add_argument("--out-chain")

    p_sim = sub.add_parser("simulate", help="coverage/precision study to CSV")
    p_sim.add_argument("--prior", choices=["jeffreys", "loss"], required=True)
    p_sim.add_argument("--m", type=int, default=10, help="grid denominator (also the alpha grid)")
    p_sim.add_argument("--n", type=int, default=100)
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--iters", type=int, default=10_000)
    p_sim.add_argument("--burnin", type=int, default=2_000)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--out", required=True)

    p_sample = sub.add_parser("sample", help="draw from the distribution")
    p_sample.add_argument("--alpha", type=float, required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", required=True)

    p_tr = sub.add_parser("transform-returns", help="price CSV to return series CSV")
    p_tr.add_argument("--in", dest="in_path", required=True)
    p_tr.add_argument("--out", required=True)

    return parser


def _load_fit_data(args) -> FrequencySample:
    if args.data == "hits":
        return data_mod.music_hits_frequencies()
    if args.mode == "hits":
        return data_mod.load_count_table(args.data, mode="hits")
    if args.mode == "surnames":
        return data_mod.load_count_table(args.data, mode="surnames")
    prices = data_mod.ingest_prices(args.data)
    return data_mod.discretize_returns(data_mod.to_returns(prices), decimals=args.decimals)


def _write_csv(path: str, header: str, lines) -> None:
    """The header line, then ``lines`` (each ending in a newline), written in
    one call."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "".join(lines))


def _write_chain_csv(path: str, chain: Chain) -> None:
    """One ``f"{draw:.17g}"`` line per draw; each distinct draw is formatted
    once (a grid chain holds few), and the file is written in one call."""
    values, inverse = np.unique(chain.draws, return_inverse=True)
    lines = [f"{value:.17g}\n" for value in values.tolist()]
    _write_csv(path, "draw", map(lines.__getitem__, inverse.tolist()))


def _write_summary_json(path: str, label: str, chain: Chain) -> None:
    stats = summarize(chain)
    payload = {
        "prior": label,
        "mean": stats.mean,
        "median": stats.median,
        "ci_low": stats.ci_low,
        "ci_high": stats.ci_high,
        "acceptance_rate": chain.acceptance_rate,
        "iterations": chain.config.iterations,
        "burn_in": chain.config.burn_in,
        "seed": chain.config.seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_prior(args) -> int:
    if args.kind == "loss":
        with _argument_values():
            PriorSpec("loss", args.m)
        prior = loss_based_prior(args.m)
        pairs = zip(prior.support.tolist(), prior.masses.tolist())
        _write_csv(args.out, "alpha,mass", (f"{a:.17g},{p:.17g}\n" for a, p in pairs))
        return 0
    if args.grid_points < 1:
        raise _UsageError("--grid-points must be >= 1")
    prior = JeffreysPrior()
    normalizer = prior.normalizer()
    grid = np.arange(1, args.grid_points + 1) / (args.grid_points + 1)
    rows = zip(grid.tolist(), prior.unnormalized(grid).tolist())
    _write_csv(
        args.out,
        "alpha,unnormalized,density",
        (f"{alpha:.17g},{q:.17g},{q / normalizer:.17g}\n" for alpha, q in rows),
    )
    return 0


def _cmd_fit(args) -> int:
    with _argument_values():
        cfg = McmcConfig(iterations=args.iters, burn_in=args.burnin, seed=args.seed)
        if args.prior == "loss":
            PriorSpec("loss", args.m)
    if args.decimals < 0:
        raise _UsageError(f"--decimals must be >= 0, got {args.decimals}")
    data = _load_fit_data(args)
    if args.prior == "jeffreys":
        label = "jeffreys"
        chain = sample_posterior_continuous(data, JeffreysPrior(), cfg)
    else:
        label = f"loss-m{args.m}"
        chain = sample_posterior_discrete(data, loss_based_prior(args.m), cfg)
    if args.out_summary:
        _write_summary_json(args.out_summary, label, chain)
    if args.out_chain:
        _write_chain_csv(args.out_chain, chain)
    if not args.out_summary and not args.out_chain:
        stats = summarize(chain)
        print(
            f"{label}: mean={stats.mean:.4f} median={stats.median:.4f} "
            f"ci=({stats.ci_low:.4f}, {stats.ci_high:.4f}) "
            f"acceptance={chain.acceptance_rate:.3f}"
        )
    return 0


def _cmd_simulate(args) -> int:
    with _argument_values():
        spec = (
            PriorSpec("jeffreys") if args.prior == "jeffreys" else PriorSpec("loss", args.m)
        )
        cfg = StudyConfig(
            alphas=default_grid(args.m),
            n=args.n,
            replicates=args.reps,
            mcmc=McmcConfig(iterations=args.iters, burn_in=args.burnin, seed=0),
            prior_spec=spec,
            master_seed=args.seed,
        )
    result = run_coverage_study(cfg, workers=args.workers)
    result.to_csv(args.out)
    return 0


def _cmd_sample(args) -> int:
    with _argument_values():  # a pure function of the arguments
        draws = sample_draws(args.alpha, args.n, args.seed)
    _write_csv(args.out, "k", (f"{k}\n" for k in draws.tolist()))
    return 0


def _cmd_transform_returns(args) -> int:
    returns = data_mod.to_returns(data_mod.ingest_prices(args.in_path))
    _write_csv(args.out, "z", (f"{z:.17g}\n" for z in returns.values.tolist()))
    return 0


_COMMANDS = {
    "prior": _cmd_prior,
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "sample": _cmd_sample,
    "transform-returns": _cmd_transform_returns,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (DataFormatError, UnicodeDecodeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
