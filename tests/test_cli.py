import json

import pytest

from yulesimon import SeriesConvergenceError, cli


def test_fit_loss_writes_summary_and_chain(tmp_path):
    summary = tmp_path / "summary.json"
    chain = tmp_path / "chain.csv"
    code = cli.main(
        [
            "fit", "--data", "hits", "--prior", "loss", "--m", "10",
            "--iters", "600", "--burnin", "100", "--seed", "4",
            "--out-summary", str(summary), "--out-chain", str(chain),
        ]
    )
    assert code == 0
    payload = json.loads(summary.read_text())
    assert set(payload) == {
        "prior", "mean", "median", "ci_low", "ci_high",
        "acceptance_rate", "iterations", "burn_in", "seed",
    }
    assert payload["prior"] == "loss-m10"
    assert (payload["iterations"], payload["burn_in"], payload["seed"]) == (600, 100, 4)
    lines = chain.read_text().splitlines()
    assert lines[0] == "draw"
    assert len(lines) - 1 == 600 - 100
    assert all(0.0 < float(v) < 1.0 for v in lines[1:])


def test_sample_writes_draws(tmp_path):
    out = tmp_path / "draws.csv"
    argv = ["sample", "--alpha", "0.5", "--n", "25", "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k"
    assert len(lines) == 26
    assert all(int(k) >= 1 for k in lines[1:])


def test_wide_jeffreys_proposals_stay_inside_unit_interval(tmp_path):
    # A single observation of 1 leaves a posterior whose right tail falls
    # only as e^(-x/2) in the logit x, to the end of the sampler's range at
    # x = 30; the proposals across it must give draws inside (0, 1), with
    # no warning.
    table = tmp_path / "one.csv"
    table.write_text("k,count\n1,1\n", encoding="utf-8")
    chain = tmp_path / "chain.csv"
    code = cli.main(
        [
            "fit", "--data", str(table), "--mode", "hits", "--prior", "jeffreys",
            "--seed", "0", "--iters", "2000", "--burnin", "100", "--out-chain", str(chain),
        ]
    )
    assert code == 0
    assert all(0.0 < float(v) < 1.0 for v in chain.read_text().splitlines()[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--data", "hits", "--prior", "loss", "--seed", "0", "--no-such-flag"],
        ["fit", "--data", "hits", "--prior", "loss"],
        ["fit", "--data", "hits", "--prior", "jeffreys", "--seed", "0", "--proposal-scale", "0.5"],
    ],
    ids=["unknown-flag", "missing-seed", "proposal-scale"],
)
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--data", "hits", "--prior", "jeffreys", "--seed", "0", "--iters", "0"],
        ["fit", "--data", "hits", "--prior", "loss", "--m", "2", "--seed", "0"],
        ["fit", "--data", "hits", "--prior", "loss", "--seed", "-1"],
        ["fit", "--data", "hits", "--prior", "loss", "--seed", "0", "--decimals", "-1"],
        ["sample", "--alpha", "1.5", "--n", "5", "--seed", "0", "--out", "unused.csv"],
        ["sample", "--alpha", "0.5", "--n", "0", "--seed", "0", "--out", "unused.csv"],
        ["prior", "--kind", "loss", "--m", "2", "--out", "unused.csv"],
        ["simulate", "--prior", "loss", "--m", "2", "--seed", "0", "--out", "unused.csv"],
        ["simulate", "--prior", "jeffreys", "--reps", "0", "--seed", "0", "--out", "unused.csv"],
    ],
    ids=[
        "iters-0", "fit-m-2", "negative-seed", "negative-decimals", "alpha-1.5",
        "n-0", "prior-m-2", "simulate-m-2", "reps-0",
    ],
)
def test_refused_argument_values_exit_1(tmp_path, monkeypatch, argv, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "unused.csv").exists()


def test_undecodable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    path.write_bytes(b"label,frequency\nA,3\nB\xff,4\n")
    argv = ["fit", "--data", str(path), "--mode", "surnames", "--prior", "loss"]
    argv += ["--seed", "0"]
    assert cli.main(argv) == 2
    assert "data error" in capsys.readouterr().err


def test_single_price_exits_2(tmp_path, capsys):
    path = tmp_path / "prices.csv"
    path.write_text("date,adj_close\n2014-10-01,100.0\n", encoding="utf-8")
    argv = ["fit", "--data", str(path), "--mode", "returns", "--prior", "loss", "--seed", "0"]
    assert cli.main(argv) == 2
    assert "data error" in capsys.readouterr().err


def test_other_value_errors_propagate(monkeypatch):
    def broken(*args):
        raise ValueError("a fault in the program, not in its input")

    monkeypatch.setattr(cli, "sample_posterior_discrete", broken)
    with pytest.raises(ValueError, match="fault in the program"):
        cli.main(["fit", "--data", "hits", "--prior", "loss", "--seed", "0"])


def test_missing_file_exits_2(tmp_path, capsys):
    argv = ["fit", "--data", str(tmp_path / "absent.csv"), "--prior", "loss", "--seed", "0"]
    assert cli.main(argv) == 2
    assert "data error" in capsys.readouterr().err


def test_malformed_count_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    path.write_text("k,count\n1,3\n2,many\n", encoding="utf-8")
    assert cli.main(["fit", "--data", str(path), "--prior", "loss", "--seed", "0"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def fail(m):
        raise SeriesConvergenceError("forced", estimate=None, error_bound=1.0)

    monkeypatch.setattr(cli, "loss_based_prior", fail)
    assert cli.main(["fit", "--data", "hits", "--prior", "loss", "--seed", "0"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def _chains():
    import numpy as np

    import yulesimon as ys

    hits = ys.music_hits_frequencies()
    cfg = ys.McmcConfig(iterations=3_000, burn_in=500, seed=7)
    distinct = np.random.default_rng(5).uniform(1e-9, 1.0, 2_000)
    return {
        "discrete": ys.sample_posterior_discrete(hits, ys.loss_based_prior(20), cfg),
        "continuous": ys.sample_posterior_continuous(hits, ys.JeffreysPrior(), cfg),
        "all-distinct": ys.Chain(distinct, 0.5, ys.McmcConfig(2_000, 0, 1)),
    }


@pytest.mark.parametrize("kind", ["discrete", "continuous", "all-distinct"])
def test_chain_writer_bytes(tmp_path, kind):
    chain = _chains()[kind]
    path = tmp_path / "chain.csv"
    cli._write_chain_csv(str(path), chain)
    written = path.read_bytes()
    reference = "draw\n" + "".join(f"{v:.17g}\n" for v in chain.draws)
    assert written == reference.encode("utf-8")
    lines = written.decode().splitlines()
    assert [float(v) for v in lines[1:]] == chain.draws.tolist()


def _run_and_read(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def test_sample_bytes(tmp_path):
    import yulesimon as ys

    written = _run_and_read(tmp_path, ["sample", "--alpha", "0.3", "--n", "20000", "--seed", "3"])
    reference = "k\n" + "".join(f"{int(k)}\n" for k in ys.sample(0.3, 20_000, 3))
    assert written == reference.encode("utf-8")


def test_loss_prior_bytes(tmp_path):
    import yulesimon as ys

    written = _run_and_read(tmp_path, ["prior", "--kind", "loss", "--m", "100"])
    prior = ys.loss_based_prior(100)
    reference = "alpha,mass\n" + "".join(
        f"{alpha:.17g},{mass:.17g}\n" for alpha, mass in zip(prior.support, prior.masses)
    )
    assert written == reference.encode("utf-8")


def test_jeffreys_prior_bytes(tmp_path):
    import numpy as np

    import yulesimon as ys

    written = _run_and_read(tmp_path, ["prior", "--kind", "jeffreys", "--grid-points", "51"])
    prior = ys.JeffreysPrior()
    normalizer = prior.normalizer()
    lines = []
    for alpha in np.arange(1, 52) / 52:
        q = prior.unnormalized(float(alpha))
        lines.append(f"{alpha:.17g},{q:.17g},{q / normalizer:.17g}\n")
    assert written == ("alpha,unnormalized,density\n" + "".join(lines)).encode("utf-8")


# sha256 of `ys prior --kind jeffreys` (201 grid points), as written when the
# normalizer became the fixed trapezoid rule in logit alpha (the density
# column moved by at most 1.4e-12 relative; the other columns did not move)
JEFFREYS_PRIOR_SHA256 = "f140b08fff4131ab75e4940a208a3ad7c5dcaecdb020c22c407aaa8fb4674403"


def test_jeffreys_prior_sha256(tmp_path):
    import hashlib

    written = _run_and_read(tmp_path, ["prior", "--kind", "jeffreys"])
    assert hashlib.sha256(written).hexdigest() == JEFFREYS_PRIOR_SHA256


def test_transform_returns_bytes(tmp_path):
    import datetime

    import numpy as np

    import yulesimon as ys

    prices = tmp_path / "prices.csv"
    start = datetime.date(2001, 1, 1)
    walk = 100.0 * np.exp(np.cumsum(np.random.default_rng(2).normal(0.0, 0.02, 500)))
    prices.write_text(
        "date,adj_close\n"
        + "".join(f"{start + datetime.timedelta(days=i)},{p!r}\n" for i, p in enumerate(walk.tolist()))
    )
    written = _run_and_read(tmp_path, ["transform-returns", "--in", str(prices)])
    returns = ys.to_returns(ys.ingest_prices(str(prices)))
    reference = "z\n" + "".join(f"{z:.17g}\n" for z in returns.values)
    assert written == reference.encode("utf-8")


# `ys simulate --prior jeffreys --m 10 --n 30 --reps 1 --iters 600 --burnin 100
# --seed 20160419`, as written when Jeffreys fits became independence
# Metropolis-Hastings chains from a tabulated proposal.
JEFFREYS_STUDY_CSV = """\
alpha,coverage,rel_rmse_mean,rel_rmse_median,failures
0.10000000000000001,1,0.6333496821664325,0.41009319755826307,0
0.20000000000000001,1,1.4818450873727542,1.5760372155541931,0
0.29999999999999999,1,0.27974266694524264,0.28508379947027801,0
0.40000000000000002,0,0.67060082448339353,0.71044716678615361,0
0.5,1,0.075692163524086031,0.034013430083828844,0
0.59999999999999998,0,0.38077107095088514,0.40280876946710437,0
0.69999999999999996,1,0.17186936012260784,0.16107769034484584,0
0.80000000000000004,1,0.14255543918633568,0.15778212031606648,0
0.90000000000000002,1,0.011112352329189439,0.0009176709556663671,0
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_jeffreys_study_bytes(tmp_path, workers):
    argv = [
        "simulate", "--prior", "jeffreys", "--m", "10", "--n", "30", "--reps", "1",
        "--iters", "600", "--burnin", "100", "--seed", "20160419", "--workers", workers,
    ]
    expected = JEFFREYS_STUDY_CSV.replace("\n", "\r\n")  # csv.writer's row ends
    assert _run_and_read(tmp_path, argv) == expected.encode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--data", "hits", "--prior", "jeffreys", "--seed", "1",
         "--iters", "50", "--burnin", "10", "--out-summary"],
        ["prior", "--kind", "jeffreys", "--out"],
    ],
    ids=["fit", "prior"],
)
def test_command_does_not_import_scipy_integrate(tmp_path, argv):
    # scipy.integrate brings scipy.optimize, linalg and sparse with it, and
    # no command needs it: the Jeffreys normalizer is a fixed trapezoid rule.
    import os
    import subprocess
    import sys

    import yulesimon

    code = (
        "import sys\n"
        "import yulesimon.cli\n"
        "assert yulesimon.cli.main(sys.argv[1:]) == 0\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(yulesimon.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def _sha256(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the chain CSV and the summary JSON of `ys fit --prior jeffreys`,
# as written when Jeffreys fits became independence Metropolis-Hastings
# chains from a tabulated proposal: on the hits data (acceptance 0.999), and
# on a hits-mode table of ys.sample(0.8, 5000, seed=3) (acceptance 1.0).
JEFFREYS_FIT_SHA256 = {
    "hits": (
        "958dac00d09b4666d8478f21357c511be6a1355571b4290525d1b9c0de92533e",
        "c1b63c7e2f6ec904b1f95e4b2ca3b2853e5213a164ad1fbe53a68f1fecfa5086",
    ),
    "light-tail": (
        "6fa3c142b029989ecfaa4a0bf4d5ac87df097f84d0fa59afed18fd07fd1755b5",
        "79c3ccd8f3af264cc1ebe1eefdcadd71ad20b834efa8b70944b6d390f3af16ad",
    ),
}


@pytest.mark.parametrize("case", ["hits", "light-tail"])
def test_jeffreys_fit_bytes(tmp_path, case):
    import numpy as np

    import yulesimon as ys

    if case == "hits":
        argv = ["--data", "hits", "--iters", "3000", "--burnin", "500"]
    else:
        values, counts = np.unique(ys.sample(0.8, 5_000, 3), return_counts=True)
        table = tmp_path / "light_tail.csv"
        rows = "".join(f"{k},{c}\n" for k, c in zip(values.tolist(), counts.tolist()))
        table.write_text("k,count\n" + rows, encoding="utf-8")
        argv = ["--data", str(table), "--mode", "hits", "--iters", "4000", "--burnin", "1000"]
    chain, summary = tmp_path / "chain.csv", tmp_path / "summary.json"
    argv = ["fit", *argv, "--prior", "jeffreys", "--seed", "7"]
    assert cli.main(argv + ["--out-chain", str(chain), "--out-summary", str(summary)]) == 0
    assert (_sha256(chain), _sha256(summary)) == JEFFREYS_FIT_SHA256[case]


# `ys simulate --prior loss --m 10 --n 30 --reps 2 --iters 600 --burnin 100
# --seed 20160419`, as written when grid-prior draws became independent
# draws from the exact grid posterior.
LOSS_STUDY_CSV = """\
alpha,coverage,rel_rmse_mean,rel_rmse_median,failures
0.10000000000000001,1,0.71961795419514107,0.70710678118654757,0
0.20000000000000001,1,1.4975822181102443,1.4999999999999998,0
0.29999999999999999,1,0.25299011838409818,0.33333333333333337,0
0.40000000000000002,1,0.52869757423313379,0.63737743919909806,0
0.5,1,0.1576045684617042,0.14142135623730948,0
0.59999999999999998,0.5,0.36295492527003653,0.4249182927993988,0
0.69999999999999996,1,0.10364657372483649,0.10101525445522105,0
0.80000000000000004,1,0.077281951321120396,0.088388347648318419,0
0.90000000000000002,1,0.020275875100993841,0,0
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_loss_study_bytes(tmp_path, workers):
    argv = [
        "simulate", "--prior", "loss", "--m", "10", "--n", "30", "--reps", "2",
        "--iters", "600", "--burnin", "100", "--seed", "20160419", "--workers", workers,
    ]
    expected = LOSS_STUDY_CSV.replace("\n", "\r\n")  # csv.writer's row ends
    assert _run_and_read(tmp_path, argv) == expected.encode("utf-8")


# sha256 of the chain CSV and the summary JSON of `ys fit --prior loss`, as
# written when grid-prior draws became independent draws from the exact
# grid posterior: on the hits data at M = 20, and on a surnames-mode table
# of ys.sample(0.3, 20000, seed=3) at M = 1,000.
LOSS_FIT_SHA256 = {
    "hits": (
        "878a9919ee80ce41ff00f0cdabb091af01f64abd27e99f690f57ced0c3401dee",
        "2bb5a2e28df96faf440d56cca26910538412e26241e73e76595c8729c2567e17",
    ),
    "surnames": (
        "b1c29f52092d0a55946df03bb61e81ca49ffd7a8e91459cf166c6354954a7378",
        "c5f2ba561129173ee6009ae6dbdd026d8bc92d82dae3d8e7f785948470b8897f",
    ),
}


@pytest.mark.parametrize("case", ["hits", "surnames"])
def test_loss_fit_bytes(tmp_path, case):
    import yulesimon as ys

    if case == "hits":
        argv = ["--data", "hits", "--m", "20", "--iters", "3000", "--burnin", "500"]
    else:
        table = tmp_path / "surnames.csv"
        rows = "".join(f"S{i:05d},{k}\n" for i, k in enumerate(ys.sample(0.3, 20_000, 3).tolist()))
        table.write_text("label,frequency\n" + rows, encoding="utf-8")
        argv = ["--data", str(table), "--mode", "surnames", "--m", "1000"]
        argv += ["--iters", "4000", "--burnin", "1000"]
    chain, summary = tmp_path / "chain.csv", tmp_path / "summary.json"
    argv = ["fit", *argv, "--prior", "loss", "--seed", "7"]
    assert cli.main(argv + ["--out-chain", str(chain), "--out-summary", str(summary)]) == 0
    assert (_sha256(chain), _sha256(summary)) == LOSS_FIT_SHA256[case]
