"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py PARENT_RECORDS... --change CHANGE_RECORDS...

Each argument is a record file written by ``run.py`` (``.bench_out/records/
*-trace0.json``) or a directory of them.  For every workload and end-to-end
metric it prints both medians and quartile spreads, and whether the change
is worse than the parent by more than the metric's bound in
``BENCHMARK.json``.  Records whose backend or CPU count differ are never
paired: the comparison stops with an error instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.meta import check_pairable  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    records = []
    for p in map(Path, paths):
        files = sorted(p.glob("*-trace0.json")) if p.is_dir() else [p]
        records += [json.loads(f.read_text()) for f in files]
    return [r for r in records if not r["trace"]]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(parent: list[dict], change: list[dict], bench: dict) -> list[str]:
    reference = (parent + change)[0]["meta"]
    for record in parent + change:
        check_pairable(reference, record["meta"])
    lines = []
    for workload in sorted({r["meta"]["workload"] for r in parent + change}):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in parent if r["meta"]["workload"] == workload]
            b = [r["result"]["metrics"][name]["value"] for r in change if r["meta"]["workload"] == workload]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            lines.append(
                f"{workload:22s} {name:12s} parent {ma:.5g} (spread {spread(a):.3f}, n={len(a)})  "
                f"change {mb:.5g} (spread {spread(b):.3f}, n={len(b)})  "
                f"worse by {worse:+.3f} of parent, bound {metric['bound']}: {verdict}"
            )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="+")
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        lines = compare(load(args.parent), load(args.change), bench)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if any(line.endswith("REGRESSION") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
