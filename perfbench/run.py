#!/usr/bin/env python3
"""Repository benchmark: Lumiere in the simulator and on a TCP KV cluster.

Run from the repository root::

    python3 perfbench/run.py --workload sim-faulty-n64 --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
tracing; ``--trace 1`` makes a separate traced run and reports the
per-layer metrics (self time, calls and waste per layer), plus the tracing
overhead against an untraced run of the same size.  Every run checks the
program's outputs; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy of the
result, with the host it ran on, goes to ``perfbench/results/``
(``perfbench/compare.py`` compares two sets of them).

The workload's inputs derive from ``--seed`` only.  See METHODOLOGY.md for
why each workload exists and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r} (one of {workloads})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads as bench
    from host import host_record

    tracer = None
    if args.workload.startswith("sim-"):
        if args.trace:
            outcome, tracer = bench.run_sim_traced(args.workload, args.seed)
        else:
            outcome = bench.run_sim(args.workload, args.seed, args.seconds)
    elif args.trace:
        outcome, tracer = bench.run_tcp_traced(args.workload, args.seed, args.seconds)
    else:
        outcome = bench.run_tcp(args.workload, args.seed, args.seconds)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for metric in declared:
        name = metric["name"]
        if name not in outcome.metrics:
            missing.append(name)
        metrics[name] = {"value": outcome.metrics.get(name, 0), "unit": metric["unit"]}
    correct = outcome.correct and not missing
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    host = host_record(ROOT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    record = {
        "host": host,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "checks": outcome.checks,
        "notes": outcome.notes,
        "result": result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        # One span dump per workload (the latest traced run): dumps run to
        # tens of megabytes, too many to keep one per seed.
        tracer.dump(RESULTS / f"{args.workload}-spans")

    print("host " + json.dumps(host, sort_keys=True))
    for name, ok in outcome.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name in missing:
        print(f"check metric {name} measured: FAILED")
    for name, value in outcome.notes.items():
        print(f"note {name}: {value}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
