"""Staleness check for the ``BENCH_*.json`` reports the benchmark scripts commit.

Each committed report carries the ``repro`` version that produced it, so a
mismatch means its numbers describe an older codebase.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.version import __version__


def check_output_version(output_path: Path) -> list[str]:
    """Failures if the committed ``output_path`` JSON came from another version.

    A missing or unparseable file is not a failure: the run about to
    complete will (re)write it.
    """
    try:
        committed = json.loads(output_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    committed_version = committed.get("version")
    if committed_version is not None and committed_version != __version__:
        return [
            f"committed {output_path.name} was generated by version "
            f"{committed_version} but the repo is at {__version__}; re-run the "
            "benchmark and commit the refreshed JSON"
        ]
    return []


def report_output_version(output_path: Path) -> int:
    """Print the verdict of ``--check-output-version``; returns the exit code."""
    failures = check_output_version(output_path)
    for failure in failures:
        print(f"[bench] FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"[bench] OK: {output_path.name} matches version {__version__}")
    return 1 if failures else 0
