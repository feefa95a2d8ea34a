"""Span tracing from outside the program: wrappers around module functions.

The benchmark never edits the program.  For a traced run it replaces
selected functions and methods of ``repro`` modules with wrappers that
record one span per call — name, start, end and parent span — in flat
in-memory columns, and restores the originals afterwards.  Nothing is
written while the run executes; :meth:`Tracer.dump` writes the columns at
the end.

A span's name starts with its layer (``crypto.digest``, ``sim.run``); a
layer's self time is the time its spans cover minus the time their child
spans cover.  Callbacks that an event loop dispatches (simulator events,
asyncio timers) get a span named after the module the callback belongs
to (``core.event`` for a pacemaker timer fired by the simulator,
``gateway.timer`` for a load-generator timer on the asyncio loop), so work
the pacemaker or the load generator does from a timer is charged to its
own layer, and the simulator loop's self time is only the loop itself.

Wrappers must be installed before the scenario or cluster is built: the
program caches bound methods (dispatch tables, send listeners, apply
callbacks), and a cached original would bypass the wrapper.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

#: Layers in report order.  Each is named after the package or module whose
#: functions its spans wrap; METHODOLOGY.md says
#: which end-to-end metric each should move.
LAYERS = (
    "sim",
    "crypto",
    "core",
    "consensus",
    "mempool",
    "statemachine",
    "gateway",
    "codec",
    "transport",
    "metrics",
)

#: Module prefix -> layer, first match wins (so ``repro.consensus.mempool``
#: must precede ``repro.consensus``).  Callbacks from modules that match
#: nothing are charged to ``other``, which the report folds into the
#: untraced remainder.
MODULE_LAYERS = (
    ("repro.sim.", "sim"),
    ("repro.runtime.simulation", "sim"),
    ("repro.crypto.", "crypto"),
    ("repro.core.", "core"),
    ("repro.pacemakers.", "core"),
    ("repro.consensus.mempool", "mempool"),
    ("repro.consensus.", "consensus"),
    ("repro.statemachine.", "statemachine"),
    ("repro.runner.workload", "gateway"),
    ("repro.runtime.codec", "codec"),
    ("repro.runtime.", "transport"),
    ("repro.metrics.", "metrics"),
)


def layer_of_module(module: str) -> str:
    """The layer a module's code belongs to (``other`` if none)."""
    for prefix, layer in MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


# ----------------------------------------------------------------------
# Pure helpers (unit-tested)
# ----------------------------------------------------------------------
def self_times(
    name_ids: Sequence[int],
    parents: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
) -> dict[int, float]:
    """Self time per name id: each span's duration minus its direct children's.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Children of one span never overlap (one thread records them), so
    subtracting each child's whole duration from its parent is exact.
    """
    totals: dict[int, float] = {}
    for index, name_id in enumerate(name_ids):
        duration = ends[index] - starts[index]
        totals[name_id] = totals.get(name_id, 0.0) + duration
        parent = parents[index]
        if parent >= 0:
            parent_id = name_ids[parent]
            totals[parent_id] = totals.get(parent_id, 0.0) - duration
    return totals


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of the
    sample at or below it (``q`` in (0, 1]).  Raises on an empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class Tracer:
    """Span columns plus the counters wrappers record at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        #: Counts recorded by wrappers (shares per batch, bytes, refusals...).
        self.counts: dict[str, float] = {}
        #: Samples recorded by wrappers (mempool waits, loop lag), in ms.
        self.samples: dict[str, list[float]] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._event_names: dict[tuple[str, str], int] = {}
        self.call = self._make_call()

    # -- spans -----------------------------------------------------------
    def name_id(self, name: str) -> int:
        """Intern a span name."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _make_call(self) -> Callable[[int, Callable, tuple, dict], Any]:
        """Build :attr:`call`: run ``fn(*args, **kwargs)`` inside one span.

        A closure over the column appenders, so the per-span cost is a few
        local calls rather than attribute lookups.
        """
        append_name = self.name_ids.append
        append_parent = self.parents.append
        append_start = self.starts.append
        append_end = self.ends.append
        ends = self.ends
        stack = self._stack
        clock = time.perf_counter

        def call(name_id: int, fn: Callable, args: tuple, kwargs: dict) -> Any:
            index = len(ends)
            append_name(name_id)
            append_parent(stack[-1] if stack else -1)
            append_end(0.0)
            stack.append(index)
            append_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return call

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- installation ----------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` (restored by :meth:`uninstall`).

        For classes the attribute must be defined on ``owner`` itself, so a
        renamed or moved method fails here instead of silently going
        untraced.
        """
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(f"{owner.__qualname__} defines no {attr!r}")
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def spanned(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call records a span named ``name``."""
        name_id = self.name_id(name)
        call = self.call

        def traced(*args, **kwargs):
            return call(name_id, fn, args, kwargs)

        return traced

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        self.patch(owner, attr, self.spanned(name, getattr(owner, attr)))

    def wrap_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere it is bound by import.

        ``from m import f`` copies the binding into the importing module,
        so every loaded ``repro`` module holding the same function object
        is patched too.
        """
        original = getattr(sys.modules[module_name], attr)
        traced = self.spanned(name, original)
        for loaded_name, module in list(sys.modules.items()):
            if (loaded_name == "repro" or loaded_name.startswith("repro.")) and getattr(
                module, attr, None
            ) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, traced)

    def traced_callback(self, callback: Callable, suffix: str) -> Callable:
        """Wrap an event-loop callback in a span named after its layer."""
        module = getattr(callback, "__module__", None) or ""
        key = (module, suffix)
        name_id = self._event_names.get(key)
        if name_id is None:
            name_id = self._event_names[key] = self.name_id(
                f"{layer_of_module(module)}.{suffix}"
            )
        call = self.call

        def fire(*args):
            return call(name_id, callback, args, {})

        return fire

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reports ---------------------------------------------------------
    def span_count(self, name: str) -> int:
        """Number of spans recorded under ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return 0
        return self.name_ids.count(name_id)

    def span_counts(self) -> dict[str, int]:
        counts = [0] * len(self.names)
        for name_id in self.name_ids:
            counts[name_id] += 1
        return {name: counts[i] for i, name in enumerate(self.names)}

    def self_times(self) -> dict[str, float]:
        totals = self_times(self.name_ids, self.parents, self.starts, self.ends)
        return {self.names[name_id]: value for name_id, value in totals.items()}

    def dump(self, path: Path) -> None:
        """Write the span columns: ``<path>.json`` (names, counts) and
        ``<path>.bin`` (name id, parent, start, end columns back to back)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as out:
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(out)
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "columns": ["name_id:i32", "parent:i32", "start:f64", "end:f64"],
            "counts": self.counts,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
