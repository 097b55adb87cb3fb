"""One benchmark run: set up, measure a workload for a fixed time, check
every operation, and build the record.

An untraced run (``trace=False``) gives the end-to-end metrics.  A traced
run gives the per-layer metrics: the rows of ``layers.measure`` plus, for
the workload itself, self time and calls per layer from spans recorded at
the layer boundaries, and the tracing overhead, measured by running every
operation once untraced and once traced with the same inputs.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import asdict
from pathlib import Path

from . import layers, meta
from .tracing import Tracer
from .workloads import WORKLOADS, CoverageStudy, OpResult

SETUP_PROBES = 2  # fresh processes that repeat the set-up, for a median of 3
MIN_OPS = 2
TAIL_BEYOND = 10  # a tail percentile needs this many operations beyond it


def _run_op(spec, argv: list[str], directory: Path, tracer, reference) -> OpResult:
    import yulesimon
    import yulesimon.cli

    for name in spec.outputs:  # so a call that writes nothing cannot pass on stale files
        (directory / name).unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", yulesimon.TuningWarning)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = yulesimon.cli.main(argv)
            else:
                rc = tracer.call(yulesimon.cli.main, argv)
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - t0
    result = OpResult(seconds, rc == 0, "" if rc == 0 else f"exit code {rc}")
    if result.ok:
        try:
            spec.check(directory, reference, result)
        except (OSError, ValueError, KeyError) as exc:
            result.ok, result.reason = False, f"unreadable output: {exc!r}"
    return result


def workload_dir(root: Path, workload: str, seed: int) -> Path:
    directory = root / ".bench_out" / f"{workload}-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def setup(workload: str, seed: int, root: Path) -> float:
    """Generate the inputs and make one minimal warm-up call; seconds taken."""
    import yulesimon.cli

    spec = WORKLOADS[workload]
    directory = workload_dir(root, workload, seed)
    t0 = time.perf_counter()
    spec.prepare(directory, seed)
    if yulesimon.cli.main(spec.argv(directory, warm_up=True)) != 0:
        raise RuntimeError(f"warm-up call of {workload} failed")
    return time.perf_counter() - t0


def _probe_setups(workload: str, seed: int) -> list[float]:
    """Set-up seconds (import included) of ``SETUP_PROBES`` fresh processes."""
    run_py = str(Path(__file__).resolve().parent / "run.py")
    argv = [sys.executable, run_py, "--workload", workload, "--seed", str(seed), "--setup-only"]
    return [
        float(subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(SETUP_PROBES)
    ]


def _tail(times: list[float]) -> dict | None:
    """The highest percentile with ``TAIL_BEYOND`` operations beyond it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(times)
    return {
        "value": ordered[n - TAIL_BEYOND - 1],
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "count": n,
        "beyond": TAIL_BEYOND,
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _report(spec, ops: list[OpResult], metrics: dict) -> dict:
    """The seven headline end-to-end figures, with n/a where one does not
    apply to the workload."""
    times = [op.seconds for op in ops]
    busy = sum(times)
    fit = not isinstance(spec, CoverageStudy)
    failed = sum(not op.ok for op in ops)
    return {
        "setup_s": metrics["setup_s"][0],
        "fit_s_p50": metrics["call_s_p50"][0] if fit else None,
        "fit_s_tail": _tail(times) if fit else None,
        "ess_per_s": sum(op.ess for op in ops) / busy if fit else None,
        "replicates_per_s": None if fit else sum(op.replicates for op in ops) / busy,
        "peak_rss_mb": metrics["peak_rss_mb"][0],
        "failed_frac": failed / len(ops),
        "acceptance_mean": statistics.fmean(op.acceptance for op in ops) if fit else None,
        "max_abs_z": max(abs(op.z) for op in ops) if fit else None,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, import_s: float):
    """Run one workload; return (result line, record)."""
    spec = WORKLOADS[workload]
    directory = workload_dir(root, workload, seed)
    setup_times = [import_s + setup(workload, seed, root)]
    reference = spec.oracle_mean(directory)  # benchmark-only work, not set-up

    metrics: dict[str, tuple[float, str]] = {}
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    if trace:
        metrics.update(layers.measure(directory, seed))
    # Spans recorded in pool workers are lost, so a traced run keeps every
    # call in this process, and its untraced twin does the same.
    argv = spec.argv(directory, single_process=trace)
    untraced: list[OpResult] = []
    traced: list[OpResult] = []
    while time.perf_counter() - start < seconds or len(untraced) < MIN_OPS:
        untraced.append(_run_op(spec, argv, directory, None, reference))
        if trace:
            traced.append(_run_op(spec, argv, directory, tracer, reference))
    ops = untraced + traced

    if trace:
        for layer, (self_s, calls) in tracer.layer_totals().items():
            metrics[f"trace.{layer}.self_s"] = (self_s / len(traced), "s")
            metrics[f"trace.{layer}.calls"] = (calls / len(traced), "count")
        ratios = [t.seconds / u.seconds for t, u in zip(traced, untraced)]
        metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    else:
        # Read before the probes run: they are children of this process too.
        rss_mb = _peak_rss_mb()
        setup_times += _probe_setups(workload, seed)
        times = [op.seconds for op in ops]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["call_s_p50"] = (statistics.median(times), "s")
        metrics["draws_per_s"] = (sum(op.draws for op in ops) / sum(times), "1/s")
        metrics["peak_rss_mb"] = (rss_mb, "MB")

    failed = sum(not op.ok for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "meta": meta.collect(root, workload, seed),
        "seconds": seconds,
        "trace": trace,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "report": None if trace else _report(spec, ops, metrics),
        "failures": [op.reason for op in ops if not op.ok],
        "ops": [asdict(op) for op in ops],
        "result": result,
    }
    records = root / ".bench_out" / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        spans = [asdict(s) for s in tracer.spans]
        (records / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    return result, record
