"""Tests for the benchmark's self-time, percentile and comparison helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from compare import quartile_spread, worse_by  # noqa: E402
from host import MixedHostError, require_same_host  # noqa: E402
from tracer import Tracer, layer_of_module, percentile, self_times  # noqa: E402
from workloads import SimRepeat, best_segments  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [2, 5] > grandchild [3, 4]; sibling [6, 9] under root.
    name_ids = [0, 1, 2, 1]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 2.0, 3.0, 6.0]
    ends = [10.0, 5.0, 4.0, 9.0]
    totals = self_times(name_ids, parents, starts, ends)
    assert totals[0] == pytest.approx(10 - 3 - 3)
    assert totals[1] == pytest.approx((3 - 1) + 3)
    assert totals[2] == pytest.approx(1)
    assert sum(totals.values()) == pytest.approx(10)


def test_self_time_of_recursive_name_counts_each_level_once():
    # The same name nested in itself: outer [0, 4] > inner [1, 3].
    totals = self_times([0, 0], [-1, 0], [0.0, 1.0], [4.0, 3.0])
    assert totals[0] == pytest.approx(4)


def test_tracer_records_nesting_and_restores_patches():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "a.outer")
    tracer.wrap(Layer, "inner", "b.inner")
    assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer.outer.__name__ == "outer" and Layer.inner.__name__ == "inner"
    assert tracer.span_counts() == {"a.outer": 1, "b.inner": 1}
    assert list(tracer.parents) == [-1, 0]
    selfs = tracer.self_times()
    wall = tracer.ends[0] - tracer.starts[0]
    assert selfs["a.outer"] + selfs["b.inner"] == pytest.approx(wall)


def test_tracer_closes_span_when_the_call_raises():
    class Failing:
        def run(self):
            raise RuntimeError("boom")

    tracer = Tracer()
    tracer.wrap(Failing, "run", "x.run")
    with pytest.raises(RuntimeError):
        Failing().run()
    tracer.uninstall()
    assert tracer.ends[0] >= tracer.starts[0]
    assert not tracer._stack


def test_patch_refuses_inherited_attribute():
    class Base:
        def f(self):
            return 0

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().wrap(Child, "f", "x.f")


def test_traced_callback_is_named_after_its_module_layer():
    tracer = Tracer()
    fire = tracer.traced_callback(percentile, "event")
    assert fire([1.0, 2.0], 0.5) == 1.0
    assert tracer.names == ["other.event"]
    assert layer_of_module("repro.consensus.mempool") == "mempool"
    assert layer_of_module("repro.consensus.replica") == "consensus"
    assert layer_of_module("repro.runtime.codec") == "codec"
    assert layer_of_module("repro.runtime.tcp") == "transport"


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2


@pytest.mark.parametrize("values,q", [([], 0.5), ([1.0], 0.0), ([1.0], 1.5)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


def test_quartile_spread_and_direction():
    assert quartile_spread([10.0]) == 0.0
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)
    assert worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worse_by(100.0, 90.0, "lower") == pytest.approx(-0.10)


def test_mixed_hosts_are_refused():
    host = {"cpu_count": 2, "cpus_usable": 2, "machine": "x86_64",
            "platform": "Linux", "python": "3.11.7", "git_commit": "a"}
    require_same_host(host, {**host, "git_commit": "b"})
    with pytest.raises(MixedHostError):
        require_same_host(host, {**host, "cpu_count": 8})


def _repeat(segments):
    return SimRepeat(
        run_s=sum(segments), decisions=len(segments) - 1, messages=0, commits=0,
        events=0, worst_latency=1.0, consistent=True, segments=segments,
        fingerprint=(),
    )


def test_best_segments_takes_each_segments_fastest_repeat():
    repeats = [_repeat([1.0, 5.0, 2.0]), _repeat([3.0, 4.0, 1.0]), _repeat([2.0, 6.0, 3.0])]
    assert best_segments(repeats) == [1.0, 4.0, 1.0]


def test_best_segments_of_mismatched_repeats_is_the_fastest_repeat():
    repeats = [_repeat([1.0, 5.0, 2.0]), _repeat([1.0, 1.0]), _repeat([0.5, 0.5, 9.0])]
    assert best_segments(repeats) == [1.0, 1.0]
