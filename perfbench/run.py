"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from the
checkout's ``src/``.  Prints a record summary, then as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Generated inputs and records go to ``.bench_out/``.
Exits non-zero, printing no result, if the package is missing.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up once and print the seconds taken"
    )
    args = parser.parse_args()

    package = ROOT / "src" / "yulesimon"
    if not (package / "__init__.py").is_file():
        print(f"error: no package at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench.meta import BLAS_THREAD_VARS

    # One process, at most nproc busy threads: the coverage workload runs two
    # pool workers, so BLAS is single-threaded everywhere.  Set before numpy
    # is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import yulesimon
    import yulesimon.cli  # noqa: F401

    if Path(yulesimon.__file__).resolve().parent != package.resolve():
        print(f"error: imported yulesimon from {yulesimon.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_only:
        print(import_s + bench.setup(args.workload, args.seed, ROOT))
        return 0
    if args.seconds is None:
        parser.error("--seconds is required")
    result, record = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, import_s
    )
    report = record["report"]
    if report is not None:
        for name, value in report.items():
            print(f"report {args.workload} {name} = {value}")
    for reason in record["failures"]:
        print(f"failed: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
