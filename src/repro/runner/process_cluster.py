"""``ProcessCluster``: one OS process per node (or shard of nodes) over TCP.

:class:`~repro.runner.live.TcpCluster` runs every replica of a live cluster
inside a single Python process — real sockets, but one GIL, so ``n`` nodes'
crypto, codec and protocol work serialise onto one core.  This module is
the multicore lane: the same replica stack, the same
:class:`~repro.runtime.tcp.TcpTransport`, but each node (or a shard of
``k`` nodes) boots in its **own spawned OS process** with its own asyncio
loop and crypto backend, and the parent acts purely as coordinator.

Bootstrap dance (the ``TcpCluster`` dance, stretched over a control pipe;
each worker runs the phases of one :class:`~repro.runner.live.NodeGroup`):

1. the parent spawns one worker per shard (``spawn`` context — fresh
   interpreters, see the key-determinism note below) with a duplex
   :func:`multiprocessing.Pipe` each;
2. each worker binds its group (protocol stack, transports, servers on
   ephemeral ports) and reports ``("addresses", {pid: (host, port)})``;
3. the parent assembles the full address map and broadcasts it back;
   workers connect their groups to it and report ``("ready",)``;
4. the parent broadcasts ``("go",)`` and every worker starts its replicas —
   the barrier keeps cross-process start skew at pipe latency rather than
   interpreter-boot latency;
5. during the run the parent polls ``("status",)`` → per-pid ledger
   lengths; at shutdown it sends ``("stop",)`` and each worker ships back
   its group's picklable :class:`~repro.runner.live.ShardReport` (metrics
   snapshot, ledger ids, KV snapshots, counters, teardown errors), which
   the parent merges into one cluster-wide
   :class:`~repro.runner.live.LiveRunResult`.

**Key determinism.**  Signing keys draw their secrets from a per-process
monotonic counter, so two processes agree on the whole key ceremony exactly
when they mint the same keys in the same order starting from a fresh
counter.  Spawned workers satisfy this by construction (fresh interpreter,
``PKI.setup`` is the first key-creating act), and the coordinator verifies
it anyway: every worker reports a key fingerprint with its addresses, and a
mismatch aborts the bootstrap with a configuration error instead of an
unexplainable signature-verification storm.  The ``counting`` crypto
backend is rejected outright — its digests are process-local interning
tokens and can never validate across process boundaries.

**Timeline.**  All workers anchor their
:class:`~repro.runtime.asyncio_runtime.MonotonicClock` to one
``time.monotonic()`` origin chosen by the parent (``CLOCK_MONOTONIC`` is
system-wide on Linux), so merged metrics live on a single timeline exactly
like a shared in-process clock.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.scenario import ScenarioConfig, _build_protocol_stack
from repro.metrics.collector import MetricsCollector, merge_metrics_states
from repro.runner.live import (
    KVSnapshot,
    LiveCluster,
    LiveExecutor,
    LiveRunResult,
    NodeGroup,
    ShardReport,
)
from repro.runtime import (
    DEFAULT_RING_BYTES,
    MonotonicClock,
    create_cluster_rings,
    destroy_cluster_rings,
)
from repro.sim.tracing import TraceRecorder

#: Extra wall-clock seconds a worker outlives its configured duration before
#: self-destructing — the orphan guard for a coordinator that died without
#: sending ``("stop",)``.
WORKER_LIFETIME_MARGIN = 120.0
#: Seconds between a worker's control-pipe polls (and the coordinator's
#: polls of a worker's pipe).
WORKER_POLL = 0.02
#: Minimum seconds between two coordinator status rounds.
STATUS_INTERVAL = 0.05
#: Seconds the coordinator waits for each bootstrap reply of a worker.
BOOTSTRAP_TIMEOUT = 120.0
#: Seconds the coordinator waits for a stopping worker's report, and then
#: for its exit, before terminating it.
TEARDOWN_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# Worker side (runs in the spawned process)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardSpec:
    """Everything one worker needs, shipped through the spawn pickle."""

    config: ScenarioConfig
    pids: tuple[int, ...]
    host: str
    codec: Optional[str]
    clock_origin: float
    lifetime: float
    #: Names the parent-created shared-memory ring segments when the
    #: cluster runs over ``transport="shm"``; ``None`` means TCP.
    shm_token: Optional[str] = None


async def _pipe_recv(conn, timeout: Optional[float] = None):
    """Await the next control message without blocking the event loop."""
    loop = asyncio.get_running_loop()
    deadline = None if timeout is None else loop.time() + timeout
    while True:
        if conn.poll():
            return conn.recv()
        if deadline is not None and loop.time() >= deadline:
            raise TimeoutError("control-channel message timed out")
        await asyncio.sleep(WORKER_POLL)


async def _shard_main(spec: _ShardSpec, conn) -> None:
    group = NodeGroup(
        spec.config, spec.pids, MonotonicClock(origin=spec.clock_origin),
        host=spec.host, codec=spec.codec, shm_token=spec.shm_token,
    )
    # For shm the "addresses" are the nodes' UDP doorbells; the bootstrap
    # exchange is byte-for-byte the same dance either way.
    conn.send(("addresses", await group.bind(), group.key_fingerprint()))
    kind, peers = await _pipe_recv(conn, timeout=spec.lifetime)
    assert kind == "peers", f"unexpected bootstrap message {kind!r}"
    await group.connect(peers)
    conn.send(("ready",))
    kind, = await _pipe_recv(conn, timeout=spec.lifetime)
    assert kind == "go", f"unexpected bootstrap message {kind!r}"
    group.go()

    # Serve the control channel until told to stop (or until the orphan
    # guard fires).  Replicas run entirely on loop timers and transport
    # tasks; this coroutine only answers status probes.
    loop = asyncio.get_running_loop()
    deadline = loop.time() + spec.lifetime
    stopping = False
    while not stopping and loop.time() < deadline:
        await asyncio.sleep(WORKER_POLL)
        try:
            while conn.poll():
                message = conn.recv()
                if message[0] == "status":
                    conn.send(
                        ("status", {pid: len(r.ledger) for pid, r in group.replicas.items()})
                    )
                elif message[0] == "stop":
                    stopping = True
                    break
        except (EOFError, OSError):
            stopping = True  # coordinator went away: tear down and exit

    await group.stop()
    try:
        conn.send(("result", group.report()))
    except (BrokenPipeError, OSError):
        pass  # coordinator already gone; nothing left to report to


def _shard_worker(spec: _ShardSpec, conn) -> None:
    """Spawn target: run the shard, ship errors instead of dying silently."""
    try:
        profile_dir = os.environ.get("REPRO_WORKER_PROFILE")
        if profile_dir:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                asyncio.run(_shard_main(spec, conn))
            finally:
                profiler.disable()
                profiler.dump_stats(
                    os.path.join(profile_dir, f"worker-{os.getpid()}.prof")
                )
        else:
            asyncio.run(_shard_main(spec, conn))
    except Exception:  # noqa: BLE001 - crossing a process boundary
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Coordinator-side handle for one spawned shard."""

    index: int
    pids: tuple[int, ...]
    process: Any
    conn: Any
    alive: bool = True
    report: Optional[ShardReport] = None
    commits: dict[int, int] = field(default_factory=dict)


class ProcessCluster(LiveCluster):
    """An n-replica cluster with one OS process per node (or shard).

    The multicore sibling of :class:`~repro.runner.live.TcpCluster`: the
    public surface (``start`` / ``run`` / ``run_until_commits`` / ``stop``,
    ``min_committed``, the
    :class:`~repro.experiments.scenario.ClusterView` checks, ``metrics``)
    mirrors it, so benchmarks and examples switch placement with one
    constructor.  The differences are inherent to the process
    boundary:

    * ``metrics`` holds the *merged* cluster-wide collector, and the views
      answer from the workers' shipped ledgers and KV snapshots, only after
      :meth:`stop` (during the run the parent sees ledger lengths, not
      events; the views raise until then);
    * ``stop_when`` predicates receive the cluster and may consult
      :meth:`min_committed`, which refreshes at the status-poll cadence;
    * protocol traces (``config.record_trace``) stay inside the workers and
      are discarded — cross-process trace merge is not supported.

    Parameters
    ----------
    config:
        The scenario to run; ``n``, ``pacemaker``, ``delta``, ``seed``,
        ``crypto_backend`` and a named ``scenario``/``delay_model`` are
        honoured exactly as :class:`~repro.runner.live.TcpCluster` honours
        them.  The ``counting`` crypto backend is rejected: its digests are
        process-local interning tokens and cannot validate across nodes
        that do not share a heap.
    processes:
        Number of worker processes; defaults to one per node.  Fewer
        processes shard the nodes contiguously (``k`` nodes per worker) —
        useful when ``n`` exceeds the core count.
    codec:
        Wire-codec *name* (``"binary"``/``"json"``); codec instances do not
        cross the spawn boundary.
    transport:
        Inter-node fabric.  ``"tcp"`` (default) speaks length-prefixed
        frames over localhost sockets; ``"shm"`` moves frames through
        shared-memory SPSC rings (:class:`~repro.runtime.shm.ShmTransport`)
        — no per-frame syscalls, no kernel copies — which is the faster
        lane whenever the whole cluster shares a machine.  The parent
        creates one segment per directed node pair before spawning and is
        the only process that unlinks them.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        host: str = "127.0.0.1",
        codec: Optional[str] = None,
        processes: Optional[int] = None,
        transport: str = "tcp",
    ) -> None:
        LiveExecutor(placement="process", transport=transport)  # checks the lane
        if codec is not None and not isinstance(codec, str):
            raise ConfigurationError(
                "ProcessCluster takes a codec *name* (codec instances do not "
                "survive the spawn pickle); pass \"binary\" or \"json\""
            )
        if config.crypto_backend == "counting":
            raise ConfigurationError(
                "the counting crypto backend interns digests per process and "
                "cannot validate across OS processes; use \"hashing\" or "
                "\"interned\" for process placement"
            )
        if processes is not None and processes < 1:
            raise ConfigurationError(f"processes must be >= 1, got {processes}")
        self.config = config
        self.transport = transport
        self.host = host
        self.codec = codec
        self.processes = min(processes, config.n) if processes is not None else config.n
        #: Merged cluster-wide metrics; populated by :meth:`stop`.
        self.metrics = MetricsCollector()
        #: Errors surfaced during teardown: transport ``last_errors`` from
        #: every node, plus coordinator-observed worker failures (crashes,
        #: missing reports, non-zero exit codes).
        self.teardown_errors: list[str] = []
        #: Total frames lost to exhausted connect windows, cluster-wide.
        self.frames_dropped = 0
        #: Sum of every node runtime's ``events_processed``.
        self.events_processed = 0
        #: Wire totals across all nodes (populated by :meth:`stop`).
        self.messages_sent = 0
        self.messages_delivered = 0
        self._ledger_ids: dict[int, tuple[str, ...]] = {}
        self._kv: dict[int, KVSnapshot] = {}
        self._workers: list[_Worker] = []
        self._stack = None
        self._segments: list = []  # parent-owned shm ring segments
        self._started = False
        self._stopped = False
        self._status_due = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the workers and run the address/ready/go bootstrap dance."""
        if self._started:
            return
        # Parent-side stack build: only protocol_config and the corruption
        # plan are kept (for summaries); the parent mints keys it never uses.
        self._stack = _build_protocol_stack(self.config)
        pids = list(self._stack.protocol_config.processor_ids)
        shards = self._partition(pids, self.processes)
        origin = time.monotonic()
        lifetime = self.config.duration + WORKER_LIFETIME_MARGIN
        ctx = multiprocessing.get_context("spawn")
        shm_token = None
        if self.transport == "shm":
            # The parent creates every directed-pair ring segment before the
            # first worker exists and remains their sole owner; workers only
            # attach by the deterministic names the token implies.
            shm_token = uuid.uuid4().hex[:12]
            self._segments = create_cluster_rings(shm_token, pids, DEFAULT_RING_BYTES)
        try:
            for index, shard in enumerate(shards):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                spec = _ShardSpec(
                    config=self.config,
                    pids=tuple(shard),
                    host=self.host,
                    codec=self.codec,
                    clock_origin=origin,
                    lifetime=lifetime,
                    shm_token=shm_token,
                )
                process = ctx.Process(
                    target=_shard_worker, args=(spec, child_conn), daemon=True,
                    name=f"repro-shard-{index}",
                )
                process.start()
                child_conn.close()
                self._workers.append(
                    _Worker(index=index, pids=tuple(shard), process=process, conn=parent_conn)
                )
            addresses: dict[int, tuple[str, int]] = {}
            fingerprints = set()
            replies = await self._expect("addresses", "during bootstrap")
            for _, shard_addresses, fingerprint in replies:
                addresses.update(shard_addresses)
                fingerprints.add(fingerprint)
            if len(fingerprints) > 1:
                raise ConfigurationError(
                    "spawned workers derived different signing keys — the key "
                    "ceremony is no longer deterministic under a fresh "
                    "interpreter (did module import start minting keys?)"
                )
            for worker in self._workers:
                worker.conn.send(("peers", addresses))
            await self._expect("ready", "before start")
            for worker in self._workers:
                worker.conn.send(("go",))
        except Exception:
            self._terminate_all()
            self._release_segments()
            raise
        self._started = True

    async def run(
        self,
        duration: float,
        stop_when: Optional[Callable[["ProcessCluster"], bool]] = None,
        poll: float = 0.02,
    ) -> None:
        """Run for ``duration`` wall seconds (or until ``stop_when(cluster)``).

        The predicate is evaluated at the status-poll cadence against the
        freshest per-node ledger lengths the workers reported.
        """
        await self.start()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + duration
        while loop.time() < deadline:
            await asyncio.sleep(min(poll, max(deadline - loop.time(), 0.0)))
            await self._refresh_status()
            if stop_when is not None and stop_when(self):
                return
            if not any(worker.alive for worker in self._workers):
                return  # every worker died; nothing left to wait for

    async def stop(self) -> None:
        """Stop every worker, collect reports, and merge the cluster result.

        Never hangs on a crashed worker: reports are awaited under
        :data:`TEARDOWN_TIMEOUT` and stragglers are terminated, with the
        failure recorded in :attr:`teardown_errors` rather than raised —
        a dead node is data, not an excuse to lose the others' results.
        """
        if self._stopped:
            return
        self._stopped = True
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    worker.alive = False
        for worker in self._workers:
            worker.report = await self._await_report(worker)
        for worker in self._workers:
            worker.process.join(timeout=TEARDOWN_TIMEOUT)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
                self.teardown_errors.append(
                    f"worker {worker.index} (pids {worker.pids}): did not exit; terminated"
                )
            elif worker.report is None:
                self.teardown_errors.append(
                    f"worker {worker.index} (pids {worker.pids}): exited with code "
                    f"{worker.process.exitcode} without reporting results"
                )
            worker.conn.close()
        self._release_segments()
        self._merge([worker.report for worker in self._workers if worker.report is not None])

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def min_committed(self) -> int:
        """Shortest known ledger across the cluster (status-poll freshness).

        Nodes whose worker died report their last known length; a cluster
        that has not completed its first status round reports 0.
        """
        commits = {}
        for worker in self._workers:
            commits.update(worker.commits)
        if len(commits) < self.config.n:
            return 0
        return min(commits.values())

    @property
    def ledger_ids(self) -> dict[int, tuple[str, ...]]:
        """Committed block ids per pid, shipped back at :meth:`stop`."""
        self._require_stopped()
        return self._ledger_ids

    def _state_machines(self) -> dict[int, KVSnapshot]:
        self._require_stopped()
        return self._kv

    def _require_stopped(self) -> None:
        if not self._stopped:
            raise SimulationError(
                "the cluster views need the ledgers and KV state the workers "
                "ship at stop(); call stop() first (use min_committed() for "
                "live progress)"
            )

    def result(self) -> LiveRunResult:
        """The merged :class:`~repro.runner.live.LiveRunResult` (after :meth:`stop`)."""
        self._require_stopped()
        return LiveRunResult(
            config=self.config,
            protocol_config=self._stack.protocol_config,
            metrics=self.metrics,
            trace=TraceRecorder(enabled=False),
            replicas={},
            corruption=self._stack.corruption,
            runtime=None,
            transport=None,
            ledger_block_ids=dict(self._ledger_ids),
            events=self.events_processed,
            kv_snapshots=dict(self._kv),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _partition(pids: Sequence[int], processes: int) -> list[list[int]]:
        """Contiguous near-equal shards, every shard non-empty."""
        base, extra = divmod(len(pids), processes)
        shards, cursor = [], 0
        for index in range(processes):
            size = base + (1 if index < extra else 0)
            shards.append(list(pids[cursor:cursor + size]))
            cursor += size
        return shards

    async def _recv(self, worker: _Worker, timeout: float):
        """Next message from a worker, or ``None`` if it died/timed out."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            if not worker.alive:
                return None
            try:
                if worker.conn.poll():
                    return worker.conn.recv()
                if not worker.process.is_alive():
                    # Dead and the pipe is drained: nothing more will come.
                    worker.alive = False
                    return None
            except (EOFError, OSError):
                worker.alive = False
                return None
            if loop.time() >= deadline:
                return None
            await asyncio.sleep(WORKER_POLL)

    async def _expect(self, kind: str, stage: str) -> list[tuple]:
        """Every worker's next bootstrap message, each of which must be ``kind``."""
        messages = []
        for worker in self._workers:
            message = await self._recv(worker, timeout=BOOTSTRAP_TIMEOUT)
            if message is None or message[0] != kind:
                raise SimulationError(
                    f"worker {worker.index} (pids {worker.pids}) failed {stage}: "
                    f"{self._failure_reason(worker, message)}"
                )
            messages.append(message)
        return messages

    def _failure_reason(self, worker: _Worker, message) -> str:
        if message is not None and message[0] == "error":
            return f"worker raised:\n{message[1]}"
        if not worker.process.is_alive():
            return f"process died (exit code {worker.process.exitcode})"
        return "bootstrap timed out"

    async def _refresh_status(self) -> None:
        """One status round across the alive workers, rate-limited."""
        loop = asyncio.get_running_loop()
        if loop.time() < self._status_due:
            return
        self._status_due = loop.time() + STATUS_INTERVAL
        polled = []
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("status",))
                polled.append(worker)
            except (BrokenPipeError, OSError):
                worker.alive = False
                self.teardown_errors.append(
                    f"worker {worker.index} (pids {worker.pids}): control channel "
                    f"broke mid-run (exit code {worker.process.exitcode})"
                )
        for worker in polled:
            # Workers answer within one of their poll cycles; a short wait
            # keeps a wedged worker from stalling the coordinator's run loop.
            message = await self._recv(
                worker, timeout=max(1.0, 10 * STATUS_INTERVAL)
            )
            if message is None:
                if not worker.alive:
                    self.teardown_errors.append(
                        f"worker {worker.index} (pids {worker.pids}): died mid-run "
                        f"(exit code {worker.process.exitcode})"
                    )
                continue
            if message[0] == "status":
                worker.commits.update(message[1])
            elif message[0] == "error":
                worker.alive = False
                self.teardown_errors.append(
                    f"worker {worker.index} (pids {worker.pids}): {message[1]}"
                )

    async def _await_report(self, worker: _Worker) -> Optional[ShardReport]:
        """Wait for a worker's ``("result", ...)``, skipping stale replies."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + TEARDOWN_TIMEOUT
        while loop.time() < deadline:
            message = await self._recv(worker, timeout=max(deadline - loop.time(), 0.01))
            if message is None:
                break
            if message[0] == "result":
                return message[1]
            if message[0] == "error":
                self.teardown_errors.append(
                    f"worker {worker.index} (pids {worker.pids}): {message[1]}"
                )
                return None
            # stale status replies drain here
        return None

    def _terminate_all(self) -> None:
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()

    def _release_segments(self) -> None:
        """Unlink the parent-owned shm ring segments (idempotent).

        Safe while workers are still attached — unlinking removes the name,
        existing mappings stay valid until each worker closes its own.
        """
        if self._segments:
            destroy_cluster_rings(self._segments)
            self._segments = []

    def _merge(self, reports: list[ShardReport]) -> None:
        """Fold the shard reports into the cluster-wide result surface."""
        self.metrics = merge_metrics_states([r.metrics_state for r in reports])
        for report in reports:
            self._ledger_ids.update(report.ledger_ids)
            self._kv.update(report.kv)
            self.events_processed += report.events_processed
            self.messages_sent += report.messages_sent
            self.messages_delivered += report.messages_delivered
            self.frames_dropped += report.frames_dropped
            self.teardown_errors.extend(report.teardown_errors)
        # merge_metrics_states already folded each shard's fault_counts
        # snapshot (which includes its frames_dropped) into the merged
        # collector, so RunMetrics carries them without further wiring.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopped else ("running" if self._started else "new")
        return (
            f"ProcessCluster(n={self.config.n}, processes={self.processes}, "
            f"{state}, min_committed={self.min_committed()}, "
            f"frames_dropped={self.frames_dropped}, "
            f"teardown_errors={len(self.teardown_errors)})"
        )
