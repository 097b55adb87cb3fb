"""Smoke test of the benchmark itself: every workload, traced and untraced,
at minimal length, must print every metric BENCHMARK.json names, with its
unit, and pass its correctness checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, oracle
from perfbench.compare import compare
from perfbench.meta import check_pairable
from perfbench.workloads import WORKLOADS, read_hits_csv

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
FACTS = json.loads((ROOT / "perfbench" / "facts.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace)]  # fmt: skip
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_run_emits_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))  # fmt: skip
    done = run_bench(tmp_path, "jeffreys-hits", 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_every_layer_row_has_a_prediction():
    predicted = {row for entry in FACTS["layer_to_end_to_end"] for row in entry["rows"]}
    measured = {m["name"] for m in BENCH["per_layer"] if not m["name"].startswith("trace.")}
    assert predicted == measured


def test_inputs_follow_the_seed(tmp_path):
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        inputs.write_surnames_csv(tmp_path / name, seed)
    a, b, c = ((tmp_path / name).read_bytes() for name in "abc")
    assert a == b and a != c


def test_records_on_different_backends_are_not_paired():
    meta = {"backend": "python", "nproc": 2, "workload": "jeffreys-hits"}
    record = {"trace": False, "meta": meta, "result": {"metrics": {}}}
    other = {**record, "meta": {**meta, "backend": "cython"}}
    with pytest.raises(ValueError, match="backend"):
        check_pairable(meta, other["meta"])
    with pytest.raises(ValueError, match="nproc"):
        compare([record], [{**record, "meta": {**meta, "nproc": 8}}], BENCH)


def test_pinned_hits_oracle():
    assert_pinned(oracle.posterior_oracle(oracle.HITS_ENTRIES), oracle.HITS_POSTERIOR)


def test_pinned_light_tail_oracle(tmp_path):
    inputs.write_light_tail_csv(tmp_path / "lt.csv", 1)
    got = oracle.posterior_oracle(read_hits_csv(tmp_path / "lt.csv"))
    assert_pinned(got, oracle.LIGHT_TAIL_SEED1_POSTERIOR)


def assert_pinned(got, pinned):
    assert got.mean == pytest.approx(pinned["mean"], abs=1e-11)
    assert got.sd == pytest.approx(pinned["sd"], abs=1e-11)
    for q in ("q025", "q500", "q975"):
        assert getattr(got, q) == pytest.approx(pinned[q], abs=1e-7)
