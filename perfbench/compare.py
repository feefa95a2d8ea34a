#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

Usage::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*-trace0.json`` records ``perfbench/run.py``
writes to ``perfbench/results/`` (copy that directory aside after running
the parent commit).  For every workload and end-to-end metric the report
gives each side's median and quartile spread (interquartile range over the
median) and whether the change is worse than the base by more than the
metric's bound.  Results from different hosts are refused: the comparison
exits with status 2 without comparing anything.  Exit status 1 means at
least one metric regressed beyond its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from host import MixedHostError, require_same_host

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace0.json"))]
    if not records:
        raise SystemExit(f"error: no *-trace0.json results in {directory}")
    return records


def worse_by(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0
    delta = (change - base) / abs(base)
    return -delta if better == "higher" else delta


def compare(base: list[dict], change: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether any metric regressed beyond its bound."""
    reference = base[0]["host"]
    for record in base + change:
        require_same_host(reference, record["host"])
    lines = []
    regressed = False
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for workload in workloads:
        lines.append(f"{workload}:")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = []
            for records in (base, change):
                sides.append([
                    r["result"]["metrics"][name]["value"]
                    for r in records
                    if r["workload"] == workload
                ])
            base_median = statistics.median(sides[0])
            change_median = statistics.median(sides[1])
            worse = worse_by(base_median, change_median, metric["better"])
            flag = "REGRESSED" if worse > metric["bound"] else "ok"
            regressed |= flag != "ok"
            lines.append(
                f"  {name:18s} base {base_median:12.6g} (spread {quartile_spread(sides[0]):.3f}, "
                f"n={len(sides[0])})  change {change_median:12.6g} "
                f"(spread {quartile_spread(sides[1]):.3f}, n={len(sides[1])})  "
                f"worse by {worse:+.3f} / bound {metric['bound']}  {flag}"
            )
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        lines, regressed = compare(load(Path(argv[0])), load(Path(argv[1])), spec)
    except MixedHostError as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
