"""The benchmark's tracer (perfbench/tracing.py) swaps package functions by
module attribute name; every name it lists must exist and be callable, or a
traced benchmark run fails on lookup."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import BOUNDARIES  # noqa: E402


@pytest.mark.parametrize("module_name, attr, layer", BOUNDARIES)
def test_boundary_attribute_is_callable(module_name, attr, layer):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"


def test_jeffreys_fit_reaches_the_traced_likelihood(tmp_path, monkeypatch):
    # The tracer's likelihood boundary is `yulesimon.inference.log_likelihood`:
    # a Jeffreys fit must look that name up for every chunk of proposals.
    from yulesimon import cli, inference

    likelihood = inference.log_likelihood
    calls = []

    def counted(data, alpha):
        calls.append(alpha)
        return likelihood(data, alpha)

    monkeypatch.setattr(inference, "log_likelihood", counted)
    iterations = 2_000
    argv = ["fit", "--data", "hits", "--prior", "jeffreys", "--seed", "1"]
    argv += ["--iters", str(iterations), "--burnin", "500", "--out-summary", str(tmp_path / "s.json")]
    assert cli.main(argv) == 0
    assert len(calls) >= -(-iterations // inference._CHUNK)


def test_jeffreys_fit_reaches_the_traced_prior(tmp_path, monkeypatch):
    # The tracer's prior boundary is `yulesimon.priors.jeffreys_log_unnormalized`:
    # a Jeffreys fit must look that name up for every chunk of proposals.
    from yulesimon import cli, inference, priors

    log_prior = priors.jeffreys_log_unnormalized
    calls = []

    def counted(alpha, *args):
        calls.append(alpha)
        return log_prior(alpha, *args)

    monkeypatch.setattr(priors, "jeffreys_log_unnormalized", counted)
    iterations = 2_000
    argv = ["fit", "--data", "hits", "--prior", "jeffreys", "--seed", "1"]
    argv += ["--iters", str(iterations), "--burnin", "500", "--out-summary", str(tmp_path / "s.json")]
    assert cli.main(argv) == 0
    assert len(calls) >= -(-iterations // inference._CHUNK)
