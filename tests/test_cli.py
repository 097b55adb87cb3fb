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


@pytest.mark.filterwarnings("ignore::yulesimon.TuningWarning")
def test_wide_jeffreys_proposals_stay_inside_unit_interval(tmp_path):
    # Steps this wide propose logits past 36.7, where alpha rounds to 1.0;
    # such proposals must be rejected, not fail the run as a data error.
    chain = tmp_path / "chain.csv"
    code = cli.main(
        [
            "fit", "--data", "hits", "--prior", "jeffreys", "--seed", "0",
            "--iters", "2000", "--burnin", "100", "--proposal-scale", "40",
            "--out-chain", str(chain),
        ]
    )
    assert code == 0
    assert all(0.0 < float(v) < 1.0 for v in chain.read_text().splitlines()[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--data", "hits", "--prior", "loss", "--seed", "0", "--no-such-flag"],
        ["fit", "--data", "hits", "--prior", "loss"],
    ],
    ids=["unknown-flag", "missing-seed"],
)
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert "usage error" in capsys.readouterr().err


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


@pytest.mark.filterwarnings("ignore::yulesimon.TuningWarning")
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
