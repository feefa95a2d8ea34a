"""Live scenario execution: the campaign layer over the asyncio runtime.

Mirrors :mod:`repro.experiments.scenario` for runs that execute on an
:class:`~repro.runtime.asyncio_runtime.AsyncioRuntime` instead of the
discrete-event simulator:

* :func:`build_live_scenario` / :func:`run_live_scenario` — a whole cluster
  in-memory over a :class:`~repro.runtime.transports.LocalTransport`.
  Under the default :class:`~repro.runtime.asyncio_runtime.VirtualClock`
  this is the deterministic fast path (a zero-jitter run reproduces the
  simulator's decisions and ledgers exactly); pass a
  :class:`~repro.runtime.asyncio_runtime.MonotonicClock` for wall-clock
  pacing.
* :class:`NodeGroup` — the one build, start and teardown sequence for the
  live nodes of a list of pids, each with its own transport and runtime.
  :class:`TcpCluster` is one group over every pid, on real TCP sockets on
  localhost; each :class:`~repro.runner.process_cluster.ProcessCluster`
  worker runs one group over its shard.
* :class:`LiveRunResult` — the live
  :class:`~repro.experiments.scenario.RunResult`; both clusters share its
  :class:`~repro.experiments.scenario.ClusterView` safety and KV views
  (``ledgers_are_consistent``, ``kv_digests``, ``kv_chains``,
  ``kv_consistent``).  Every lane builds its nodes with the simulator's own
  protocol-stack and replica builders.
* :class:`LiveExecutor` — the frozen lane descriptor and ``"live"``
  campaign backend: a :class:`~repro.runner.campaign.Campaign` sweeps
  live-cluster cells exactly like simulated ones, producing the same
  picklable :class:`~repro.runner.record.RunRecord` rows (cache keys are
  salted with ``live:`` so live and simulated records never collide).

Live runs support the full adversarial surface: crash/recovery behaviours
(timer-driven, runtime-agnostic), simulator delay models and the named
``repro.faults`` scenarios.  A config with a ``delay_model`` or ``scenario``
is executed under a :class:`~repro.runtime.chaos.FaultyTransport` driving
the *same* schedule objects as the simulator (see
:mod:`repro.runtime.chaos`): under the default virtual clock this replays
the simulated scenario's decisions and ledgers exactly, and
injected-fault counters (drops, duplicates, partition epochs,
kills/restarts) surface through the run's
:class:`~repro.metrics.collector.MetricsCollector`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.consensus.replica import Replica
from repro.crypto.backend import CryptoBackend
from repro.errors import ConfigurationError
from repro.experiments.scenario import (
    ClusterView,
    RunResult,
    ScenarioConfig,
    _build_protocol_stack,
    _make_replica,
    _ProtocolStack,
)
from repro.metrics.collector import MetricsCollector
from repro.runner.record import RunRecord
from repro.runtime import (
    AsyncioRuntime,
    ChaosConfig,
    Clock,
    FaultCounters,
    FaultyTransport,
    LocalTransport,
    MonotonicClock,
    RuntimeContext,
    ShmTransport,
    TcpTransport,
    Transport,
    WireCodec,
    adapt_schedule,
    track_downtime,
)

#: How far behind zero a replica's local clock is re-anchored immediately
#: before ``start()`` on wall-clock runs.  Under the simulator, construction
#: and start happen at the same virtual instant, so ``lc(p) == 0 == c_0``
#: exactly and the first epoch event fires; on a wall clock, milliseconds
#: elapse in between, the local clock drifts past ``c_0`` and clock-driven
#: pacemakers would skip their bootstrap view.  Starting a hair early is
#: indistinguishable from a slightly later protocol start.
WALL_START_GRACE = 0.05


def _start_replicas(replicas: dict[int, Replica], wall: bool) -> None:
    """Start replicas in pid order, re-anchoring local clocks on wall runs."""
    for pid in sorted(replicas):
        if wall:
            replicas[pid].clock.set_to(-WALL_START_GRACE)
        replicas[pid].start()


@dataclass(frozen=True)
class KVSnapshot:
    """A node's replicated-KV digest and apply chain, shipped out of its
    process; it stands in for the node's state machine in the cluster views."""

    state_digest: str
    apply_chain: tuple[str, ...]

    def digest(self) -> str:
        return self.state_digest


@dataclass
class LiveRunResult(RunResult):
    """The outcome of one live (asyncio-runtime) run.

    The live sibling of
    :class:`~repro.experiments.scenario.ScenarioResult`: the same
    :class:`~repro.experiments.scenario.RunResult` summaries and checks,
    with the runtime and transport in place of the simulator and network.

    Multi-process runs (:class:`~repro.runner.process_cluster.ProcessCluster`)
    produce the same result type from merged shard reports: there the
    coordinator holds no replicas, runtime or transport (they lived and died
    in the node processes), so ``replicas`` is empty, ``runtime`` and
    ``transport`` are ``None``, and the views answer from
    ``ledger_block_ids`` / ``kv_snapshots`` / ``events`` instead.
    """

    runtime: Optional[AsyncioRuntime]
    transport: Optional[Transport]
    crypto_backend: Optional[CryptoBackend] = None
    #: Committed block ids per pid, for results whose ledgers lived in other
    #: OS processes (``None`` whenever ``replicas`` is populated).
    ledger_block_ids: Optional[dict[int, tuple[str, ...]]] = None
    #: Runtime-event total for results without a local runtime.
    events: Optional[int] = None
    #: KV snapshots shipped from node processes (``None`` whenever
    #: ``replicas`` is populated).
    kv_snapshots: Optional[dict[int, KVSnapshot]] = None

    @property
    def ledger_ids(self) -> dict[int, Sequence[str]]:
        """Committed block ids per honest pid, from replicas or shipped ids."""
        ledgers = super().ledger_ids if self.replicas else self.ledger_block_ids or {}
        honest = self.corruption.honest_ids
        return {pid: ids for pid, ids in sorted(ledgers.items()) if pid in honest}

    def _state_machines(self) -> Mapping[int, Any]:
        if self.replicas:
            return super()._state_machines()
        return self.kv_snapshots or {}

    @property
    def fault_counts(self) -> dict[str, int]:
        """Injected-fault totals by name (empty for fault-free runs)."""
        return self.metrics.fault_counts

    @property
    def events_processed(self) -> int:
        """Runtime events handled during the run (summed across node
        processes for multi-process results)."""
        if self.runtime is not None:
            return self.runtime.events_processed
        return self.events or 0

    def describe(self) -> str:
        """One-line run description for reports."""
        if self.runtime is None:
            mode = "process"
        else:
            mode = "virtual" if self.runtime.virtual else "wall"
        return (
            f"live[{mode}] {self.config.pacemaker} n={self.config.n} "
            f"decisions={self.honest_decisions()} commits={self.committed_blocks()} "
            f"consistent={self.ledgers_are_consistent()}"
        )


# ----------------------------------------------------------------------
# In-memory cluster (LocalTransport, one runtime)
# ----------------------------------------------------------------------
def build_live_scenario(
    config: ScenarioConfig,
    jitter: float = 0.0,
    clock: Optional[Clock] = None,
    transport: Optional[LocalTransport] = None,
    chaos: Optional[ChaosConfig] = None,
) -> LiveRunResult:
    """Construct an in-memory live cluster for ``config`` without running it.

    Fault-free configs get a bare :class:`LocalTransport` (base delay
    ``config.actual_delay``, jitter RNG seeded ``config.seed`` — the live
    twin of the simulated ``FixedDelay(actual_delay)`` scenario).  A
    ``delay_model`` or named ``scenario`` wraps a zero-delay transport in a
    :class:`~repro.runtime.chaos.FaultyTransport` imposing the adapted
    schedule under the config's partial-synchrony envelope; ``chaos`` adds
    drop/duplicate injectors either way.  Chaotic builds attach their
    :class:`~repro.runtime.chaos.FaultCounters` to the metrics collector
    and track behaviour-declared downtime windows as kills/restarts.
    """
    stack = _build_protocol_stack(config)
    delay_model, metrics, trace = stack.delay_model, stack.metrics, stack.trace
    chaotic = (
        delay_model is not None
        or (chaos is not None and chaos.active)
        or config.scenario is not None
    )
    counters = FaultCounters() if chaotic else None
    if transport is None:
        if delay_model is not None:
            if jitter:
                raise ConfigurationError(
                    "a delay model/scenario fully determines live latency; "
                    "transport jitter must stay 0 (it would add on top of "
                    "the schedule and break sim parity)"
                )
            # The schedule proposes every non-self latency, so the inner
            # transport contributes none of its own.
            inner = LocalTransport(delay=0.0, jitter=0.0, seed=config.seed)
            transport = FaultyTransport(
                inner,
                schedule=adapt_schedule(delay_model),
                network=config.network_config(),
                schedule_seed=config.seed,
                chaos=chaos,
                counters=counters,
            )
        else:
            transport = LocalTransport(
                delay=config.actual_delay, jitter=jitter, seed=config.seed
            )
            if chaos is not None and chaos.active:
                transport = FaultyTransport(transport, chaos=chaos, counters=counters)
    elif delay_model is not None:
        raise ConfigurationError(
            "pass either an explicit transport or a delay_model/scenario, "
            "not both (the scenario's schedule decides the transport)"
        )
    runtime = AsyncioRuntime(transport, clock=clock, trace=trace, seed=config.seed)
    metrics.attach_transport(transport)
    ctx = RuntimeContext(runtime=runtime, trace=trace)
    replicas = {
        pid: _make_replica(pid, ctx, config, stack)
        for pid in stack.protocol_config.processor_ids
    }
    if counters is not None:
        metrics.attach_fault_counters(counters)
        track_downtime(runtime, replicas, counters)
    return LiveRunResult(
        config=config,
        protocol_config=stack.protocol_config,
        metrics=metrics,
        trace=trace,
        replicas=replicas,
        corruption=stack.corruption,
        runtime=runtime,
        transport=transport,
        crypto_backend=stack.crypto_backend,
    )


async def run_live_scenario_async(
    config: ScenarioConfig,
    jitter: float = 0.0,
    clock: Optional[Clock] = None,
    max_events: Optional[int] = None,
    stop_when: Optional[Callable[[LiveRunResult], bool]] = None,
    chaos: Optional[ChaosConfig] = None,
) -> LiveRunResult:
    """Build and run an in-memory live cluster to ``config.duration``.

    ``duration`` is virtual seconds under the default
    :class:`VirtualClock` and wall seconds under a
    :class:`MonotonicClock`; ``stop_when`` (called with the result between
    events) ends the run early either way.
    """
    result = build_live_scenario(config, jitter=jitter, clock=clock, chaos=chaos)
    _start_replicas(result.replicas, wall=not result.runtime.virtual)
    predicate = None if stop_when is None else (lambda: stop_when(result))
    await result.runtime.run(
        until=config.duration, max_events=max_events, stop_when=predicate
    )
    if not result.runtime.virtual:
        await result.runtime.stop()
    return result


def run_live_scenario(
    config: ScenarioConfig,
    jitter: float = 0.0,
    clock: Optional[Clock] = None,
    max_events: Optional[int] = None,
    stop_when: Optional[Callable[[LiveRunResult], bool]] = None,
    chaos: Optional[ChaosConfig] = None,
) -> LiveRunResult:
    """Blocking wrapper over :func:`run_live_scenario_async` (owns the loop)."""
    return asyncio.run(
        run_live_scenario_async(
            config, jitter=jitter, clock=clock, max_events=max_events,
            stop_when=stop_when, chaos=chaos,
        )
    )


# ----------------------------------------------------------------------
# Node groups (one transport + runtime per node, shared clock and metrics)
# ----------------------------------------------------------------------
@dataclass
class TcpNode:
    """One node of a :class:`NodeGroup`.

    ``transport`` is the node's :class:`~repro.runtime.tcp.TcpTransport`
    (a :class:`~repro.runtime.shm.ShmTransport` in a shm group), or a
    :class:`~repro.runtime.chaos.FaultyTransport` wrapping it when the
    cluster runs a chaotic scenario.
    """

    pid: int
    transport: Transport
    runtime: AsyncioRuntime
    replica: Replica


@dataclass(frozen=True)
class ShardReport:
    """The picklable residue a stopped :class:`NodeGroup` ships out of its
    process."""

    pids: tuple[int, ...]
    metrics_state: dict
    ledger_ids: dict[int, tuple[str, ...]]
    events_processed: int
    messages_sent: int
    messages_delivered: int
    frames_dropped: int
    teardown_errors: tuple[str, ...]
    #: KV snapshots per pid (empty without a workload).
    kv: dict[int, KVSnapshot]


class NodeGroup(ClusterView):
    """Build, start, stop and report the live nodes of a list of pids.

    :class:`TcpCluster` is one group over every pid, in the calling
    process; each :class:`~repro.runner.process_cluster.ProcessCluster`
    worker runs one group over its shard.  The nodes share one clock,
    metrics collector and set of fault counters.  The phases match the
    worker bootstrap's barriers:

    1. :meth:`bind` builds the protocol stack and one transport per pid
       (:class:`~repro.runtime.tcp.TcpTransport`, or
       :class:`~repro.runtime.shm.ShmTransport` when ``shm_token`` names
       the cluster's ring segments), starts their servers and returns the
       pid → address map;
    2. :meth:`connect` installs the cluster's address map, wraps each
       transport in a :class:`~repro.runtime.chaos.FaultyTransport` when
       the config has a delay model or scenario, builds each node's
       runtime and replica, starts the transports and arms the fault
       accounting;
    3. :meth:`go` starts the replicas;
    4. :meth:`stop` stops the runtimes and folds each transport's drops
       and errors; :meth:`report` packs the picklable residue.

    If :meth:`bind` or :meth:`connect` raises, every transport bound so
    far is closed before the error propagates.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        pids: Iterable[int],
        clock: Clock,
        host: str = "127.0.0.1",
        codec: Union[WireCodec, str, None] = None,
        shm_token: Optional[str] = None,
    ) -> None:
        self.config = config
        self.pids = tuple(pids)
        self.clock = clock
        self.host = host
        self.codec = codec
        self.shm_token = shm_token
        #: The shared collector; :meth:`bind` installs the run's own.
        self.metrics = MetricsCollector()
        self.nodes: dict[int, TcpNode] = {}
        #: Shared injected-fault totals (``None`` unless the config is
        #: chaotic and :meth:`connect` has run).
        self.fault_counters: Optional[FaultCounters] = None
        #: Transport errors surfaced at :meth:`stop` (per-node
        #: ``last_errors``, prefixed with the node id).
        self.teardown_errors: list[str] = []
        #: Frames the transports lost, summed at :meth:`stop` (live totals
        #: are on the transports).
        self.frames_dropped = 0
        self._stack: Optional[_ProtocolStack] = None
        self._bound: dict[int, Transport] = {}
        self._torn_down = False

    async def bind(self) -> dict[int, tuple[str, int]]:
        """Build the stack and transports and start the servers (a shm
        node's server is its UDP doorbell); returns pid → address."""
        self._stack = _build_protocol_stack(self.config)
        self.metrics = self._stack.metrics
        if self.shm_token is not None:
            self._bound = {
                pid: ShmTransport(pid, token=self.shm_token, codec=self.codec, host=self.host)
                for pid in self.pids
            }
        else:
            self._bound = {
                pid: TcpTransport(pid, host=self.host, codec=self.codec) for pid in self.pids
            }
        addresses = {}
        try:
            for pid, transport in self._bound.items():
                addresses[pid] = await transport.start_server()
        except BaseException:
            await self._close()
            raise
        return addresses

    def key_fingerprint(self) -> tuple:
        """A cross-process comparable summary of the group's key ceremony."""
        signing_keys = self._stack.signing_keys
        return tuple((pid, signing_keys[pid].secret_token) for pid in sorted(signing_keys))

    async def connect(self, peers: Mapping[int, tuple[str, int]]) -> None:
        """Install the address map, build every node and start its transport."""
        stack = self._stack
        delay_model, metrics, trace = stack.delay_model, stack.metrics, stack.trace
        try:
            for transport in self._bound.values():
                transport.set_peers(peers)
            if delay_model is not None or self.config.scenario is not None:
                self.fault_counters = FaultCounters()
            for pid, transport in self._bound.items():
                if delay_model is not None:
                    # Each node imposes the shared schedule on its *outgoing*
                    # sends: a hold-then-forward approximation of the simulated
                    # latency (the real socket or ring adds its own small delay
                    # on top, so — unlike the single-runtime virtual-clock
                    # path — this lane makes no bit-exact parity claim).
                    # Per-node seed offsets mirror the runtimes' seeds.
                    transport = FaultyTransport(
                        transport,
                        schedule=adapt_schedule(delay_model),
                        network=self.config.network_config(),
                        schedule_seed=self.config.seed + pid,
                        counters=self.fault_counters,
                    )
                runtime = AsyncioRuntime(
                    transport, clock=self.clock, trace=trace, seed=self.config.seed + pid
                )
                metrics.attach_transport(transport)
                ctx = RuntimeContext(runtime=runtime, trace=trace)
                replica = _make_replica(pid, ctx, self.config, stack)
                self.nodes[pid] = TcpNode(pid, transport, runtime, replica)
            for node in self.nodes.values():
                await node.transport.start()
        except BaseException:
            await self._close()
            raise
        if self.fault_counters is not None:
            metrics.attach_fault_counters(self.fault_counters)
            for pid, node in self.nodes.items():
                track_downtime(node.runtime, {pid: node.replica}, self.fault_counters)

    def go(self) -> None:
        """Start every replica."""
        _start_replicas(self.replicas, wall=True)

    async def stop(self) -> None:
        """Shut every node down (concurrently, so EOFs propagate cleanly).

        Teardown surfaces rather than swallows: each transport's
        ``last_errors`` are folded into :attr:`teardown_errors` and its
        ``frames_dropped`` into :attr:`frames_dropped`, so a writer that
        died holding frames or a pump that crashed mid-run is visible here
        (and in the run's fault counts) instead of vanishing with the tasks.
        """
        await asyncio.gather(*(node.runtime.stop() for node in self.nodes.values()))
        if self._torn_down:
            return  # idempotent: don't double-count a second stop()
        self._torn_down = True
        for pid, node in sorted(self.nodes.items()):
            base = getattr(node.transport, "inner", node.transport)
            self.frames_dropped += base.frames_dropped
            self.teardown_errors.extend(f"node {pid}: {error}" for error in base.last_errors)

    def report(self) -> ShardReport:
        """The picklable residue of a stopped group."""
        nodes = self.nodes.values()
        return ShardReport(
            pids=self.pids,
            metrics_state=self.metrics.state(),
            ledger_ids={pid: tuple(ids) for pid, ids in self.ledger_ids.items()},
            events_processed=sum(node.runtime.events_processed for node in nodes),
            messages_sent=self.messages_sent,
            messages_delivered=sum(node.transport.messages_delivered for node in nodes),
            frames_dropped=self.frames_dropped,
            teardown_errors=tuple(self.teardown_errors),
            kv={
                pid: KVSnapshot(kv.digest(), kv.apply_chain)
                for pid, kv in self._state_machines().items()
            },
        )

    @property
    def replicas(self) -> dict[int, Replica]:
        """All replicas by pid."""
        return {pid: node.replica for pid, node in self.nodes.items()}

    @property
    def messages_sent(self) -> int:
        """Messages the nodes' transports have sent."""
        return sum(node.transport.messages_sent for node in self.nodes.values())

    async def _close(self) -> None:
        """Close every bound transport after a failed phase."""
        self.nodes.clear()
        for transport in self._bound.values():
            await transport.stop()


class LiveCluster(ClusterView):
    """The run surface :class:`TcpCluster` and
    :class:`~repro.runner.process_cluster.ProcessCluster` share: each
    defines ``run(duration, stop_when, poll)`` and ``min_committed()``."""

    async def run_until_commits(
        self, blocks: int, timeout: float, poll: float = 0.02
    ) -> int:
        """Run until every ledger holds ``blocks`` commits (or ``timeout`` wall
        seconds); returns the final minimum ledger length."""
        await self.run(
            timeout, stop_when=lambda c: c.min_committed() >= blocks, poll=poll
        )
        return self.min_committed()


class TcpCluster(NodeGroup, LiveCluster):
    """An n-replica Lumiere cluster over real TCP sockets on localhost.

    One :class:`NodeGroup` over every pid, inside one event loop:
    :meth:`start` binds the servers on ephemeral ports, installs the
    resulting address map on every node, then builds and starts the
    runtimes and replicas.  All nodes share one :class:`MonotonicClock`, so
    ledger commit times and metrics live on a single timeline.

    Parameters
    ----------
    config:
        The scenario to run; ``n``, ``pacemaker``, ``delta``, ``seed`` and
        ``crypto_backend`` are honoured (``actual_delay`` is real network
        latency now, so it is ignored).
    host:
        Listen address for every node (default localhost).
    codec:
        Wire codec for every node's :class:`~repro.runtime.tcp.TcpTransport`:
        a codec name (``"binary"``, the default, or ``"json"``) or a
        :class:`~repro.runtime.codec.WireCodec` instance shared by the whole
        cluster.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        host: str = "127.0.0.1",
        codec: Union[WireCodec, str, None] = None,
    ) -> None:
        super().__init__(config, range(config.n), MonotonicClock(), host=host, codec=codec)
        self._started = False

    async def start(self) -> None:
        """Bind servers, exchange addresses, build and start all replicas."""
        if self._started:
            return
        await self.connect(await self.bind())
        self.go()
        self._started = True

    def min_committed(self) -> int:
        """Length of the shortest ledger across the cluster."""
        if not self.nodes:
            return 0
        return min(len(node.replica.ledger) for node in self.nodes.values())

    async def run(
        self,
        duration: float,
        stop_when: Optional[Callable[["TcpCluster"], bool]] = None,
        poll: float = 0.02,
    ) -> None:
        """Run all nodes concurrently for ``duration`` wall seconds (or until
        ``stop_when(cluster)`` turns true)."""
        await self.start()
        predicate = None if stop_when is None else (lambda: stop_when(self))
        await asyncio.gather(
            *(
                node.runtime.run(until=duration, stop_when=predicate, poll=poll)
                for node in self.nodes.values()
            )
        )


# ----------------------------------------------------------------------
# Lanes: placement (one process vs one OS process per node) and transport
# ----------------------------------------------------------------------
#: Valid ``placement`` values for live clusters and campaign lanes.
PLACEMENTS = ("inline", "process")
#: Valid inter-node fabrics; ``"shm"`` needs process placement.
TRANSPORTS = ("tcp", "shm")


def make_live_cluster(
    config: ScenarioConfig,
    placement: str = "inline",
    host: str = "127.0.0.1",
    codec: Union[WireCodec, str, None] = None,
    processes: Optional[int] = None,
    transport: str = "tcp",
):
    """Build a live cluster with the requested process placement.

    ``placement="inline"`` returns a :class:`TcpCluster` — every node in
    the calling process, one event loop, real sockets.
    ``placement="process"`` returns a
    :class:`~repro.runner.process_cluster.ProcessCluster` — one spawned OS
    process per node (or per shard of ``processes`` workers), which is the
    multicore lane.  Both expose the same ``start`` / ``run`` /
    ``run_until_commits`` / ``stop`` / ``min_committed`` surface and the
    :class:`ClusterView` checks, so benchmarks and examples switch
    placement with this one knob.

    ``processes`` is only meaningful under process placement (inline has
    exactly one), as is ``transport="shm"`` (shared-memory rings between
    the node processes — the faster lane on one machine); the lane itself
    is checked by :class:`LiveExecutor`.
    """
    LiveExecutor(placement=placement, transport=transport)  # checks the lane
    if placement == "process":
        from repro.runner.process_cluster import ProcessCluster

        return ProcessCluster(
            config, host=host, codec=codec, processes=processes, transport=transport
        )
    if processes is not None:
        raise ConfigurationError(
            "processes is a process-placement knob; inline placement "
            "runs every node in the calling process"
        )
    return TcpCluster(config, host=host, codec=codec)


async def _run_process_cell(config: ScenarioConfig, transport: str) -> LiveRunResult:
    """Run ``config`` on a multi-process cluster for ``config.duration`` wall
    seconds; the cluster is always stopped and merged, even when the run
    raises."""
    from repro.runner.process_cluster import ProcessCluster

    cluster = ProcessCluster(config, transport=transport)
    try:
        await cluster.run(config.duration)
    finally:
        await cluster.stop()
    return cluster.result()


# ----------------------------------------------------------------------
# Campaign integration: the "live" backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveExecutor:
    """One live lane, and the callable cell executor of the ``"live"``
    campaign backend.

    Campaigns use a default instance; construct one explicitly to sweep the
    same grid under transport jitter::

        run_campaign(campaign, backend="live", live_executor=LiveExecutor(jitter=0.05))

    The lane is checked when it is built: ``placement="inline"`` (the
    default) runs each cell in-memory under the virtual clock — the
    deterministic fast path — and speaks only ``transport="tcp"``;
    ``placement="process"`` runs it on a multi-process cluster in real
    wall time, over localhost TCP or (``transport="shm"``) shared-memory
    rings.  Jitter and chaos are inline-transport knobs and are rejected
    under process placement (a process cell's noise is the real network's).
    """

    #: Uniform jitter band added to every cell's transport latency.
    jitter: float = 0.0
    #: Drop/duplicate injection applied to every cell's transport.
    chaos: Optional[ChaosConfig] = None
    #: Where each cell's nodes run: ``"inline"`` (one process, virtual
    #: clock) or ``"process"`` (one OS process per node, wall clock).
    placement: str = "inline"
    #: Inter-node fabric under process placement: ``"tcp"`` or ``"shm"``.
    transport: str = "tcp"

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ConfigurationError(
                f"unknown placement {self.placement!r}; expected one of {PLACEMENTS}"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; available: {', '.join(TRANSPORTS)}"
            )
        if self.placement == "inline":
            if self.transport != "tcp":
                raise ConfigurationError(
                    "transport=\"shm\" is a process-placement knob; inline "
                    "placement shares one heap and has no process boundary for "
                    "shared memory to cross (use placement=\"process\")"
                )
        elif self.jitter:
            raise ConfigurationError(
                "jitter is an inline-transport knob; process placement runs "
                "over real sockets whose latency is not simulated"
            )
        elif self.chaos is not None and self.chaos.active:
            raise ConfigurationError(
                "chaos injection applies to inline transports; process "
                "placement does not support it (use a scenario/delay_model, "
                "which the node processes impose themselves)"
            )

    @property
    def cache_salt(self) -> str:
        """Cache-key prefix binding everything this executor changes about a run.

        ``live:`` alone for the canonical zero-jitter, fault-free, inline
        executor; the jitter value, chaos knobs, non-default placement and
        non-default transport are folded in otherwise, so records produced
        under different latency noise, injected faults, process placement
        or message fabric never answer for each other from a shared cache.
        """
        knobs = []
        if self.jitter != 0.0:
            knobs.append(f"jitter={self.jitter!r}")
        if self.chaos is not None and self.chaos.active:
            knobs.append(self.chaos.describe())
        if self.placement != "inline":
            knobs.append(f"placement={self.placement}")
        if self.transport != "tcp":
            knobs.append(f"transport={self.transport}")
        if not knobs:
            return "live:"
        return f"live[{','.join(knobs)}]:"

    def __call__(
        self,
        build: Callable[[dict[str, Any]], ScenarioConfig],
        params: dict[str, Any],
        run_id: str,
        key: str,
        max_events: Optional[int] = None,
        config: Optional[ScenarioConfig] = None,
    ) -> RunRecord:
        """Run one campaign cell on this lane.

        The live twin of :func:`repro.runner.executor.execute_cell`: same
        picklable :class:`RunRecord` shape, with ``events_processed``
        counted by the runtime.  ``key`` arrives already salted with
        :attr:`cache_salt` by the campaign layer.
        """
        if config is None:
            config = build(params)
        started = time.perf_counter()
        if self.placement == "process":
            result = asyncio.run(_run_process_cell(config, self.transport))
        else:
            result = run_live_scenario(
                config, jitter=self.jitter, max_events=max_events, chaos=self.chaos
            )
        wall_time = time.perf_counter() - started
        return RunRecord.of(result, run_id, key, params, wall_time)
