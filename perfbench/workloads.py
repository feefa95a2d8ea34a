"""The two workloads: a faulty simulator run and a saturated TCP KV cluster.

Each ``run_*`` function returns a :class:`Outcome`: the metrics of one
benchmark invocation (end-to-end when untraced, per-layer when traced),
the operations attempted and failed, and named correctness checks.  All
load is generated in this one process — the simulator, or one asyncio loop
hosting every node of the TCP cluster — so on a small host the numbers
measure the program rather than the scheduler.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Optional

import probes
from tracer import Tracer, percentile

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.table1 import build_worst_case_config
from repro.runner.live import TcpCluster
from repro.runner.workload import WorkloadConfig

#: Simulator set-up samples taken before each repeat; ``setup_s`` is the
#: median of all of them, so the samples span the whole run.
SIM_SETUPS_PER_REPEAT = 3
#: Fewest simulator repeats per invocation: a per-segment best needs a few.
SIM_MIN_REPEATS = 3
#: Clusters per TCP invocation, each a set-up sample and a measured window.
TCP_CLUSTERS = 3
#: Applied requests and decisions before this many seconds past the
#: cluster's first applied request are excluded: the first second carries
#: the lazy connection set-up and the first views' bursts.
TCP_WARMUP_S = 2.0
#: The load generators stop this long after the measured window's planned
#: end, so the window stays saturated even if start-up was slow.
TCP_STOP_MARGIN_S = 1.0
#: ``peak_rss_mb`` on TCP is the process's peak resident memory when the
#: first cluster has applied this many requests.  The program keeps state
#: per applied request, so the peak at the end of a fixed-length window
#: grows with throughput: a faster host or program would read as more
#: memory.
TCP_RSS_AT_REQUESTS = 100_000
#: Longest wait for every submitted request to be applied on every replica.
TCP_DRAIN_TIMEOUT_S = 20.0
#: Longest wait for a cluster's first applied request.
TCP_START_TIMEOUT_S = 20.0


@dataclass
class Outcome:
    """What one invocation measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    checks: dict[str, bool] = field(default_factory=dict)
    #: Sample counts and other context printed next to the metrics.
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def faulty_config(seed: int) -> ScenarioConfig:
    """The Table-1 worst-case cell at n=64 (21 silent leaders, pre-GST
    clock-dispersion chaos until GST=20), cut to 1500 virtual seconds."""
    config = build_worst_case_config(
        {"n": 64, "protocol": "lumiere", "delta": 1.0, "actual_delay": 0.1, "seed": seed}
    )
    config.duration = 1500.0
    return config


SIM_CONFIGS: dict[str, Callable[[int], ScenarioConfig]] = {
    "sim-faulty-n64": faulty_config,
}


@dataclass
class SimRepeat:
    run_s: float
    decisions: int
    messages: int
    commits: int
    events: int
    worst_latency: Optional[float]
    consistent: bool
    #: Wall-clock seconds of the run cut at each honest decision: start to
    #: the first decision, between consecutive decisions, last decision to
    #: the end.  They sum to ``run_s``; the same seed gives the same cuts.
    segments: list[float]
    #: Fingerprint that must repeat exactly for the same seed.
    fingerprint: tuple


def _sim_setup_samples(
    make_config: Callable[[int], ScenarioConfig], seed: int, count: int
) -> list[float]:
    """Wall times of ``count`` scenario builds (config included)."""
    samples = []
    for _ in range(count):
        gc.collect()
        started = time.perf_counter()
        result = build_scenario(make_config(seed))
        samples.append(time.perf_counter() - started)
        del result
    return samples


def _sim_repeat(config: ScenarioConfig) -> tuple[SimRepeat, object]:
    """Build, start and run one scenario; returns the repeat and the result."""
    result = build_scenario(config)
    metrics = result.metrics
    honest = result.corruption.honest_ids
    decision_walls: list[float] = []
    record_decision = metrics.record_decision

    def timed_record_decision(at: float, view: int, leader: int) -> None:
        record_decision(at, view, leader)
        if leader in honest:
            decision_walls.append(time.perf_counter())

    metrics.record_decision = timed_record_decision
    for replica in result.replicas.values():
        replica.start()
    started = time.perf_counter()
    result.simulator.run(until=config.duration)
    ended = time.perf_counter()
    decisions = result.honest_decisions()
    commits = len(metrics.commits)
    events = result.simulator.events_processed
    ledgers = tuple(
        tuple(replica.ledger.block_ids) for replica in result.honest_replicas
    )
    cuts = [started, *decision_walls, ended]
    repeat = SimRepeat(
        run_s=ended - started,
        decisions=decisions,
        messages=metrics.total_honest_messages,
        commits=commits,
        events=events,
        worst_latency=metrics.latency_after(config.gst),
        consistent=result.ledgers_are_consistent(),
        segments=[b - a for a, b in zip(cuts, cuts[1:])],
        fingerprint=(decisions, commits, metrics.total_honest_messages, events, hash(ledgers)),
    )
    return repeat, result


def best_segments(repeats: list[SimRepeat]) -> list[float]:
    """Per-segment best over repeats: segment ``i`` is the fastest any
    repeat ran the work between its decisions ``i - 1`` and ``i``.

    Repeats of one seed do identical work segment by segment, so the
    minimum is the time that work takes when the host is not slowing it
    down; the host's speed swings by up to 2x from one second to the next,
    and a slow patch in one repeat then costs nothing.  Repeats that cut
    differently (a determinism failure) fall back to the fastest repeat.
    """
    if len({len(r.segments) for r in repeats}) != 1:
        return list(min(repeats, key=lambda r: r.run_s).segments)
    return [min(column) for column in zip(*(r.segments for r in repeats))]


def run_sim(workload: str, seed: int, seconds: float) -> Outcome:
    """Untraced simulator invocation: repeat the run while another repeat
    fits in ``seconds``, taking set-up samples before each repeat."""
    make_config = SIM_CONFIGS[workload]
    setups: list[float] = []
    repeats: list[SimRepeat] = []
    started = time.perf_counter()
    while True:
        setups += _sim_setup_samples(make_config, seed, SIM_SETUPS_PER_REPEAT)
        gc.collect()
        repeat, result = _sim_repeat(make_config(seed))
        del result
        repeats.append(repeat)
        elapsed = time.perf_counter() - started
        if len(repeats) >= SIM_MIN_REPEATS and elapsed * (1 + 1 / len(repeats)) > seconds:
            break
    first = repeats[0]
    failed = sum(
        1
        for r in repeats
        if r.fingerprint != first.fingerprint
        or not r.consistent
        or r.decisions == 0
        or r.worst_latency is None
    )
    best = best_segments(repeats)
    # Decision-to-decision intervals: the first and last segments are
    # start-up to the first decision and the tail after the last one.
    gaps = best[1:-1] or best
    rate = first.decisions / sum(best)
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "success_share": 1.0 - failed / len(repeats),
        "decisions_per_s": rate,
        "msgs_per_decision": first.messages / max(first.decisions, 1),
        "worst_latency_vs": first.worst_latency or 0.0,
        # A simulator run has no clients: its unit of service is a decision.
        "req_per_s": rate,
        "req_p50_ms": percentile(gaps, 0.50) * 1e3,
        "req_p99_ms": percentile(gaps, 0.99) * 1e3,
    }
    return Outcome(
        metrics=metrics,
        attempted=len(repeats),
        failed=failed,
        checks={
            "ledgers_prefix_consistent": all(r.consistent for r in repeats),
            "same_seed_runs_identical": all(
                r.fingerprint == first.fingerprint for r in repeats
            ),
        },
        notes={
            "repeats": len(repeats),
            "decisions_per_repeat": first.decisions,
            "setup_samples": len(setups),
            "latency_samples": len(gaps),
            "best_run_s": round(sum(best), 4),
            "run_s": [round(r.run_s, 4) for r in repeats],
        },
    )


def run_sim_traced(workload: str, seed: int) -> tuple[Outcome, Tracer]:
    """One untraced and one traced repeat; per-layer metrics of the traced one."""
    make_config = SIM_CONFIGS[workload]
    gc.collect()
    untraced, result = _sim_repeat(make_config(seed))
    del result
    gc.collect()
    tracer = Tracer()
    probes.install(tracer)
    try:
        started = time.perf_counter()
        traced, result = _sim_repeat(make_config(seed))
        wall_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    metrics = result.metrics
    honest = result.corruption.honest_ids
    backend = result.crypto_backend
    layer = probes.layer_metrics(
        tracer,
        wall_s,
        {
            "decisions": traced.decisions,
            "views": result.max_honest_view() + 1,
            "epoch_syncs": len({e for _, pid, e in metrics.epoch_syncs if pid in honest}),
            "requests_applied": metrics.requests_applied,
            "first_applies": 0,
            "duplicate_applies": 0,
            "frames_dropped": 0,
        },
    )
    untraced_rate = untraced.decisions / untraced.run_s
    traced_rate = traced.decisions / traced.run_s
    layer["trace.rate_untraced"] = untraced_rate
    layer["trace.rate_traced"] = traced_rate
    layer["trace.rate_overhead"] = traced_rate - untraced_rate
    traced_digests = tracer.span_count("crypto.digest") + tracer.span_count(
        "crypto.verify_batch"
    )
    checks = {
        "ledgers_prefix_consistent": untraced.consistent and traced.consistent,
        "same_seed_runs_identical": untraced.fingerprint == traced.fingerprint,
        "traced_events_equal_events_processed": layer["sim.events"] == traced.events,
        "traced_digests_equal_digest_calls": traced_digests == backend.digest_calls,
        "traced_commits_equal_commit_records": layer["consensus.commits"] == traced.commits,
        "traced_request_applies_equal_requests_applied": tracer.span_count(
            "metrics.record_request_applied"
        ) == metrics.requests_applied,
    }
    return Outcome(
        metrics=layer,
        attempted=2,
        failed=0 if checks["same_seed_runs_identical"] else 1,
        checks=checks,
        notes={"spans": len(tracer.starts)},
    ), tracer


# ----------------------------------------------------------------------
# TCP KV cluster
# ----------------------------------------------------------------------
def tcp_config(seed: int, stop: float) -> ScenarioConfig:
    """n=4 Lumiere on loopback TCP (binary codec, Delta=0.2) under a closed
    loop of 256 streams per replica with zero think time."""
    workload = WorkloadConfig(mode="closed", clients=256, think_time=0.0, stop=stop)
    return ScenarioConfig(
        n=4,
        pacemaker="lumiere",
        delta=0.2,
        seed=seed,
        record_trace=False,
        crypto_backend="hashing",
        workload=workload,
    )


@dataclass
class ClusterRun:
    setup_s: float
    first_qc_s: Optional[float]
    window_s: float = 0.0
    applied: int = 0
    latencies: list[float] = field(default_factory=list)
    decisions: int = 0
    messages: int = 0
    submitted: int = 0
    rejected: int = 0
    total_applied: int = 0
    #: ``peak_rss_mb()`` when ``TCP_RSS_AT_REQUESTS`` had been applied.
    rss_at_requests_mb: Optional[float] = None
    checks: dict[str, bool] = field(default_factory=dict)
    cluster: Optional[TcpCluster] = None


async def _wait_for(predicate: Callable[[], bool], timeout: float, poll: float) -> bool:
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            return False
        await asyncio.sleep(poll)
    return True


def _all_applied(cluster: TcpCluster) -> bool:
    """Every replica's store holds every submitted request."""
    submitted = cluster.metrics.requests_submitted
    return all(
        replica.state_machine.store.applied_total == submitted
        for replica in cluster.replicas.values()
    )


async def _peak_rss_at(metrics, requests: int, stop: asyncio.Event) -> Optional[float]:
    """``peak_rss_mb()`` once ``requests`` are applied; None if stopped first."""
    while metrics.requests_applied < requests:
        if stop.is_set():
            return None
        await asyncio.sleep(0.01)
    return peak_rss_mb()


async def _cluster_run(
    seed: int, window: float, probe_tracer: Optional[Tracer] = None, rss_probe: bool = False
) -> ClusterRun:
    """Start a cluster, time its set-up, then (``window`` > 0) load it for
    warm-up plus ``window`` seconds, drain it and stop it.  With
    ``rss_probe`` it also reads the peak memory at ``TCP_RSS_AT_REQUESTS``.

    With ``window == 0`` the cluster is stopped right after its first
    applied request: a set-up sample only.
    """
    stop_at = TCP_STOP_MARGIN_S + TCP_WARMUP_S + window
    cluster = TcpCluster(tcp_config(seed, stop_at), codec="binary")
    metrics = cluster.metrics
    probe_stop = asyncio.Event()
    probe_task = None
    rss_task = None
    started = time.perf_counter()
    try:
        await cluster.start()
        metrics = cluster.metrics
        served = await _wait_for(
            lambda: metrics.requests_applied > 0, TCP_START_TIMEOUT_S, 0.001
        )
        run = ClusterRun(
            setup_s=time.perf_counter() - started, first_qc_s=metrics.latency_after(0.0)
        )
        run.checks["cluster_served"] = served
        if window > 0 and served:
            if rss_probe:
                rss_task = asyncio.create_task(
                    _peak_rss_at(metrics, TCP_RSS_AT_REQUESTS, probe_stop)
                )
            if probe_tracer is not None:
                probe_task = asyncio.create_task(
                    probes.probe_loop_lag(probe_tracer, probe_stop)
                )
            ready = cluster.clock.now
            window_start = ready + TCP_WARMUP_S
            window_end = min(window_start + window, stop_at)
            await asyncio.sleep(max(0.0, stop_at - cluster.clock.now))
            run.checks["drained"] = await _wait_for(
                lambda: _all_applied(cluster), TCP_DRAIN_TIMEOUT_S, 0.02
            )
            run.window_s = window_end - window_start
            run.applied = metrics.requests_applied_between(window_start, window_end)
            run.latencies = metrics.request_latencies(after=window_start)[: run.applied]
            run.decisions = sum(
                1 for t in metrics.honest_decision_times_after(window_start) if t < window_end
            )
            run.messages = metrics.messages_between(window_start, window_end)
    finally:
        probe_stop.set()
        if probe_task is not None:
            await probe_task
        if rss_task is not None:
            run.rss_at_requests_mb = await rss_task
        await cluster.stop()
    run.submitted = metrics.requests_submitted
    run.rejected = metrics.requests_rejected
    run.total_applied = metrics.requests_applied
    digests = cluster.kv_digests()
    run.checks.update({
        "ledgers_prefix_consistent": cluster.ledgers_are_consistent(),
        "kv_apply_chains_consistent": cluster.kv_consistent(),
        "no_teardown_errors": not cluster.teardown_errors,
    })
    if window > 0:
        run.checks["kv_digests_equal"] = len(set(digests.values())) == 1
        run.checks["every_request_applied"] = run.total_applied == run.submitted
    run.cluster = cluster
    return run


def _tcp_rates(runs: list[ClusterRun]) -> dict[str, float]:
    """Rates and latency percentiles over the clusters' windows pooled."""
    window = sum(run.window_s for run in runs)
    decisions = sum(run.decisions for run in runs)
    latencies = [latency for run in runs for latency in run.latencies]
    return {
        "decisions_per_s": decisions / window,
        "msgs_per_decision": sum(run.messages for run in runs) / max(decisions, 1),
        "req_per_s": sum(run.applied for run in runs) / window,
        "req_p50_ms": percentile(latencies, 0.50) * 1e3,
        "req_p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def _merge_checks(runs: list[ClusterRun]) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    for run in runs:
        for name, ok in run.checks.items():
            checks[name] = checks.get(name, True) and ok
    return checks


def _failures(runs: list[ClusterRun]) -> tuple[int, int]:
    """(attempted, failed) requests: refused, or not applied after the drain."""
    attempted = sum(run.submitted + run.rejected for run in runs)
    failed = sum(run.rejected + run.submitted - run.total_applied for run in runs)
    return attempted, failed


def run_tcp(workload: str, seed: int, seconds: float) -> Outcome:
    """Untraced TCP invocation: ``TCP_CLUSTERS`` clusters in turn, each
    started (one set-up sample), loaded for ``seconds / TCP_CLUSTERS``
    after its warm-up, drained and stopped.  Throughput and latency pool
    the clusters' windows, so one cluster that settles into an unusual
    batching pattern weighs a third; ``setup_s`` is the median start-up."""
    window = seconds / TCP_CLUSTERS
    runs = []
    for index in range(TCP_CLUSTERS):
        # A fresh event loop per cluster: in one shared loop every stopped
        # cluster left memory (and at times writer tasks) behind, which the
        # next cluster would have measured alongside its own.  Only the
        # first cluster reads memory: later ones start above its peak.
        run = asyncio.run(_cluster_run(seed, window, rss_probe=index == 0))
        run.cluster = None
        runs.append(run)
        gc.collect()
    attempted, failed = _failures(runs)
    checks = _merge_checks(runs)
    first_qcs = [r.first_qc_s for r in runs if r.first_qc_s is not None]
    checks["first_qc_observed"] = len(first_qcs) == len(runs)
    checks["windows_served"] = all(r.applied and r.decisions for r in runs)
    metrics = {
        "setup_s": median([r.setup_s for r in runs]),
        # Falls back to the whole run's peak if the first cluster never
        # applied ``TCP_RSS_AT_REQUESTS`` (the note says which was taken).
        "peak_rss_mb": runs[0].rss_at_requests_mb or peak_rss_mb(),
        "success_share": 1.0 - failed / max(attempted, 1),
        "worst_latency_vs": median(first_qcs) if first_qcs else 0.0,
    }
    if checks["windows_served"]:
        metrics.update(_tcp_rates(runs))
    return Outcome(
        metrics=metrics,
        attempted=max(attempted, 1),
        failed=failed,
        checks=checks,
        notes={
            "latency_samples": [len(r.latencies) for r in runs],
            "window_s": [round(r.window_s, 3) for r in runs],
            "decisions_in_window": [r.decisions for r in runs],
            "setup_samples_s": [round(r.setup_s, 4) for r in runs],
            "peak_rss_at": (
                f"{TCP_RSS_AT_REQUESTS} requests" if runs[0].rss_at_requests_mb else "end of run"
            ),
        },
    )


def run_tcp_traced(workload: str, seed: int, seconds: float) -> tuple[Outcome, Tracer]:
    """One untraced and one traced cluster of ``seconds / 2`` windows each."""
    window = max(1.0, seconds / 2)

    untraced = asyncio.run(_cluster_run(seed, window))
    untraced.cluster = None
    gc.collect()
    tracer = Tracer()
    probes.install(tracer)
    try:
        started = time.perf_counter()
        traced = asyncio.run(_cluster_run(seed, window, probe_tracer=tracer))
        wall_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    from repro.crypto.backend import get_default_backend

    cluster = traced.cluster
    metrics = cluster.metrics
    honest = metrics.honest_ids
    stores = [replica.state_machine.store for replica in cluster.replicas.values()]
    transports_dropped = sum(
        getattr(node.transport, "inner", node.transport).frames_dropped
        for node in cluster.nodes.values()
    )
    layer = probes.layer_metrics(
        tracer,
        wall_s,
        {
            "decisions": len(metrics.honest_decisions()),
            "views": max(metrics.max_view_entered(pid) for pid in honest) + 1,
            "epoch_syncs": len({e for _, pid, e in metrics.epoch_syncs if pid in honest}),
            "requests_applied": metrics.requests_applied,
            "first_applies": sum(store.applied_total for store in stores),
            "duplicate_applies": sum(store.duplicates_skipped for store in stores),
            "frames_dropped": transports_dropped,
        },
    )
    untraced_rate = untraced.applied / untraced.window_s if untraced.window_s else 0.0
    traced_rate = traced.applied / traced.window_s if traced.window_s else 0.0
    layer["trace.rate_untraced"] = untraced_rate
    layer["trace.rate_traced"] = traced_rate
    layer["trace.rate_overhead"] = traced_rate - untraced_rate
    traced_digests = tracer.span_count("crypto.digest") + tracer.span_count(
        "crypto.verify_batch"
    )
    checks = _merge_checks([untraced, traced])
    checks.update({
        "traced_digests_equal_digest_calls": traced_digests
        == get_default_backend().digest_calls,
        "traced_request_applies_equal_requests_applied": tracer.span_count(
            "metrics.record_request_applied"
        ) == metrics.requests_applied,
        "frames_dropped_counters_agree": transports_dropped
        == cluster.frames_dropped
        == metrics.fault_counts.get("frames_dropped", 0),
    })
    attempted, failed = _failures([untraced, traced])
    return Outcome(
        metrics=layer,
        attempted=max(attempted, 1),
        failed=failed,
        checks=checks,
        notes={"spans": len(tracer.starts), "loop_lag_samples": len(
            tracer.samples.get("transport.loop_lag_ms", ())
        )},
    ), tracer
