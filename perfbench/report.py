"""Run all four workloads untraced and print the seven end-to-end figures.

    python3 perfbench/report.py --seed N [--seconds S]

Each workload runs in its own process (``run.py``), which also runs the
oracle check on every operation.  Prints one line per workload and figure:
name, value, unit.  A figure that does not apply to a workload (ESS for a
coverage study, replicates for a single fit, a tail percentile with fewer
than 11 operations) prints as ``n/a``.  Exits 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNITS = {
    "setup_s": "s",
    "fit_s_p50": "s",
    "fit_s_tail": "s",
    "ess_per_s": "1/s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    any_failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]  # fmt: skip
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(f"{workload}: run failed\n{done.stderr}", file=sys.stderr)
            return 2
        record_path = ROOT / ".bench_out" / "records" / f"{workload}-seed{args.seed}-trace0.json"
        report = json.loads(record_path.read_text())["report"]
        any_failed |= report["failed_frac"] > 0.0
        for name, unit in UNITS.items():
            value = report[name]
            if value is None:
                shown = "n/a"
            elif name == "fit_s_tail":
                shown = (
                    f"{value['value']:.4g} (p{value['percentile']:.0f} of {value['count']} fits, "
                    f"{value['beyond']} beyond)"
                )
            else:
                shown = f"{value:.4g}"
            print(f"{workload:22s} {name:17s} {shown} {unit}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
