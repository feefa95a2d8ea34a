"""What machine and code a result came from, and the same-host rule.

Timings taken on different hosts are not comparable: a gate armed on
numbers from another machine measures the machines.  Every result records
:func:`host_record`, and :func:`require_same_host` refuses to compare two
results whose :func:`host_key` differs.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Optional

#: Fields that must match for two results to be compared.
HOST_FIELDS = ("cpu_count", "cpus_usable", "machine", "platform", "python")


class MixedHostError(ValueError):
    """Raised when two results come from different hosts."""


def _git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (``None`` outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def host_record(root: Path) -> dict:
    """Host and code identity for one result."""
    from repro.version import __version__

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "repro_version": __version__,
        "git_commit": _git_commit(root),
    }


def host_key(record: dict) -> tuple:
    return tuple(record.get(name) for name in HOST_FIELDS)


def require_same_host(first: dict, second: dict) -> None:
    """Raise :class:`MixedHostError` unless both host records match."""
    if host_key(first) != host_key(second):
        differing = [
            f"{name}: {first.get(name)!r} != {second.get(name)!r}"
            for name in HOST_FIELDS
            if first.get(name) != second.get(name)
        ]
        raise MixedHostError("results come from different hosts (" + "; ".join(differing) + ")")
