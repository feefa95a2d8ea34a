"""Declarative scenario construction and execution.

A :class:`ScenarioConfig` says *what* to run (protocol, system size, timing
parameters, faults, network adversary, duration); :func:`run_scenario` builds
the full simulated system, runs it to the requested virtual time, and
returns a :class:`ScenarioResult` wrapping the metrics, traces and replicas.

The engine-independent half of that build (named-scenario resolution, crypto
backend, keys, metrics, corruption plan, and each node's replica and client
workload) is written once here and shared with every live lane in
:mod:`repro.runner.live`, as are the result base :class:`RunResult` and the
safety/KV views of :class:`ClusterView`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from repro.adversary.attacks import spread_corruption
from repro.adversary.behaviours import SilentLeaderBehaviour
from repro.adversary.corruption import CorruptionPlan
from repro.config import ProtocolConfig
from repro.consensus.ledger import sequences_consistent
from repro.consensus.replica import Replica
from repro.crypto.backend import CryptoBackend, make_backend, set_default_backend
from repro.crypto.signatures import PKI
from repro.crypto.threshold import ThresholdScheme
from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import (
    ComplexitySummary,
    RunMetrics,
    extract_run_metrics,
    summarize_run,
)
from repro.pacemakers.registry import make_pacemaker_factory
from repro.sim.events import Simulator
from repro.sim.network import DelayModel, FixedDelay, Network, NetworkConfig
from repro.sim.process import SimContext
from repro.sim.tracing import TraceRecorder
from repro.statemachine.kvstore import apply_chains_consistent


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one simulation run."""

    #: Number of processors (n = 3f + 1 recommended).
    n: int = 4
    #: Pacemaker name (see :func:`repro.pacemakers.registry.available_pacemakers`).
    pacemaker: str = "lumiere"
    #: Protocol-specific pacemaker configuration object (optional).
    pacemaker_config: Any = None
    #: Known post-GST delay bound Delta.
    delta: float = 1.0
    #: Actual message delay delta (<= Delta) used by the default delay model.
    actual_delay: float = 0.1
    #: Global stabilisation time chosen by the adversary.
    gst: float = 0.0
    #: Virtual time to run for (must comfortably exceed GST).
    duration: float = 300.0
    #: View-completion constant x of assumption (⋄1).
    x: int = 4
    #: RNG seed (delay models, leader schedules default to it too).
    seed: int = 0
    #: Explicit corruption plan; ``None`` means no faults.
    corruption: Optional[CorruptionPlan] = None
    #: Network delay model; ``None`` means FixedDelay(actual_delay).
    delay_model: Optional[DelayModel] = None
    #: Whether to record a full protocol trace (costs memory on long runs).
    record_trace: bool = True
    #: Upper bound on pre-GST delays used when a chaotic pre-GST model is built.
    pre_gst_max_delay: float = 50.0
    #: Floor on every proposed message delay (see
    #: :attr:`repro.sim.network.NetworkConfig.min_delay`); guards zero-delay
    #: models against the same-timestamp event budget.
    min_delay: float = 0.0
    #: Named fault scenario from :mod:`repro.faults.library`.  When set, the
    #: scenario determines the delay model and corruption plan (so
    #: ``delay_model`` and ``corruption`` must stay ``None``); campaigns can
    #: sweep this field directly.
    scenario: Optional[str] = None
    #: Parameter overrides for the named scenario (JSON-serializable values).
    scenario_params: dict[str, Any] = field(default_factory=dict)
    #: Crypto backend name (see :func:`repro.crypto.backend.available_backends`):
    #: ``"hashing"`` (stable digests, the default), ``"counting"`` (O(1)
    #: structural tokens, the large-n fast path) or ``"interned"`` (memoised
    #: hashing).  Semantically identical for modelled runs, so campaigns can
    #: sweep this field directly — ``benchmarks/bench_scaling.py`` does.
    crypto_backend: str = "hashing"
    #: Client workload (a :class:`repro.runner.workload.WorkloadConfig`);
    #: ``None`` runs pure consensus with synthetic payloads.  When set,
    #: every replica applies committed blocks to a replicated KV store and
    #: the selected replicas run load generators — in this simulated lane
    #: and in every live lane, since the field rides the config into
    #: ``_make_replica`` and the spawned workers of a process cluster.
    workload: Optional[Any] = None

    def protocol_config(self) -> ProtocolConfig:
        """The shared :class:`ProtocolConfig` implied by this scenario."""
        return ProtocolConfig(
            n=self.n, delta=self.delta, x=self.x, crypto_backend=self.crypto_backend
        )

    def network_config(self) -> NetworkConfig:
        """The :class:`NetworkConfig` implied by this scenario."""
        return NetworkConfig(
            delta=self.delta,
            gst=self.gst,
            actual_delay=self.actual_delay,
            pre_gst_max_delay=self.pre_gst_max_delay,
            min_delay=self.min_delay,
        )


class ClusterView:
    """The cross-node safety and KV views of every run result and live cluster.

    The views read two accessors, :attr:`ledger_ids` (pid → committed block
    ids, over the pids the safety check covers) and :meth:`_state_machines`
    (pid → the node's replicated KV, or the
    :class:`~repro.runner.live.KVSnapshot` a node process shipped).  By
    default both read every replica of ``self.replicas``; a class whose
    ledgers live in other processes, or whose check covers fewer pids,
    overrides them.
    """

    replicas: Mapping[int, Replica]

    @property
    def ledger_ids(self) -> Mapping[int, Sequence[str]]:
        """Committed block ids by pid."""
        return {pid: replica.ledger.block_ids for pid, replica in self.replicas.items()}

    def _state_machines(self) -> Mapping[int, Any]:
        return {
            pid: replica.state_machine
            for pid, replica in self.replicas.items()
            if replica.state_machine is not None
        }

    def ledgers_are_consistent(self) -> bool:
        """Safety: the covered ledgers are pairwise prefix-consistent."""
        return sequences_consistent(self.ledger_ids.values())

    def kv_digests(self) -> dict[int, str]:
        """Per-node KV state digests (empty without a client workload)."""
        return {pid: kv.digest() for pid, kv in self._state_machines().items()}

    def kv_chains(self) -> dict[int, tuple[str, ...]]:
        """Per-node KV apply chains (empty without a client workload)."""
        return {pid: kv.apply_chain for pid, kv in self._state_machines().items()}

    def kv_consistent(self) -> bool:
        """State-machine safety: the apply chains are prefix-consistent.

        Trivially true without a workload (no chains to disagree).
        """
        return apply_chains_consistent(self.kv_chains().values())


@dataclass
class RunResult(ClusterView):
    """The outcome of one run on any lane.

    :class:`ScenarioResult` (the simulator) and
    :class:`~repro.runner.live.LiveRunResult` (every live lane) add their
    execution engine and an ``events_processed`` count; the summaries and
    checks here are shared, so a campaign reduces either to the same
    :class:`~repro.runner.record.RunRecord`.  The ledger check covers the
    honest replicas; the KV views cover every replica.
    """

    config: ScenarioConfig
    protocol_config: ProtocolConfig
    metrics: MetricsCollector
    trace: TraceRecorder
    replicas: dict[int, Replica]
    corruption: CorruptionPlan

    def summary(self, warmup_decisions: int = 5) -> ComplexitySummary:
        """The Table-1 measures for this run."""
        return summarize_run(
            self.metrics,
            protocol=self.config.pacemaker,
            n=self.config.n,
            f_actual=self.corruption.f_actual,
            gst=self.config.gst,
            delta=self.config.delta,
            warmup_decisions=warmup_decisions,
        )

    def run_metrics(self) -> RunMetrics:
        """The picklable derived-metrics residue of this run.

        This is the "lightweight half" of a result: what the campaign runner
        ships between processes and stores in its cache.  The live half
        (replicas, traces, the simulator or runtime) stays in this object
        and never crosses a process boundary.
        """
        return extract_run_metrics(self.metrics)

    @property
    def honest_replicas(self) -> list[Replica]:
        """Replicas that were never corrupted."""
        return [r for pid, r in sorted(self.replicas.items()) if pid in self.corruption.honest_ids]

    @property
    def ledger_ids(self) -> dict[int, Sequence[str]]:
        """Committed block ids per honest pid."""
        return {replica.pid: replica.ledger.block_ids for replica in self.honest_replicas}

    def honest_decisions(self) -> int:
        """Number of QCs produced by honest leaders during the run."""
        return len(self.metrics.honest_decisions())

    def committed_blocks(self) -> int:
        """Length of the longest honest ledger."""
        return max((len(ids) for ids in self.ledger_ids.values()), default=0)

    def max_honest_view(self) -> int:
        """The highest view any honest replica entered.

        Read from the metrics, which multi-process results merge from every
        node process.
        """
        views = [self.metrics.max_view_entered(pid) for pid in self.corruption.honest_ids]
        return max(views, default=-1)


@dataclass
class ScenarioResult(RunResult):
    """The outcome of one simulated run."""

    simulator: Simulator
    #: The run's crypto backend instance (its counters expose how much digest
    #: work the run performed); ``None`` only for hand-built results.
    crypto_backend: Optional[CryptoBackend] = None
    #: The run's network (exposes delivery counters and the
    #: ``batch_deliveries`` toggle); ``None`` only for hand-built results.
    network: Optional[Network] = None

    @property
    def events_processed(self) -> int:
        """Simulator events executed during the run."""
        return self.simulator.events_processed

    def describe(self) -> str:
        """One-line run description for reports."""
        summary = self.summary()
        return (
            f"{self.config.pacemaker} n={self.config.n} f_a={self.corruption.f_actual} "
            f"decisions={summary.decisions} msgs={summary.total_messages} "
            f"worst_latency={summary.worst_case_latency}"
        )


def build_spread_fault_config(params: dict[str, Any]) -> ScenarioConfig:
    """Module-level campaign builder for the steady-state cell shape shared
    by the responsiveness, heavy-sync and Table-1 eventual sweeps (and the
    examples): GST = 0, no trace, and ``f_actual`` silent leaders spread
    evenly over the id space.

    ``params`` must carry ``n``, ``protocol``, ``delta``, ``actual_delay``,
    ``duration``, ``seed`` and ``f_actual``; an optional ``crypto_backend``
    name selects the digest backend (so campaigns can sweep it).
    """
    config = ScenarioConfig(
        n=params["n"],
        pacemaker=params["protocol"],
        delta=params["delta"],
        actual_delay=params["actual_delay"],
        gst=0.0,
        duration=params["duration"],
        seed=params["seed"],
        record_trace=False,
        crypto_backend=params.get("crypto_backend", "hashing"),
    )
    config.corruption = spread_corruption(
        config.protocol_config(), params["f_actual"], SilentLeaderBehaviour
    )
    return config


class _ProtocolStack(NamedTuple):
    """The engine-independent objects every node of a run shares."""

    protocol_config: ProtocolConfig
    crypto_backend: CryptoBackend
    corruption: CorruptionPlan
    metrics: MetricsCollector
    pki: PKI
    signing_keys: dict
    scheme: ThresholdScheme
    trace: TraceRecorder
    delay_model: Optional[DelayModel]


def _build_protocol_stack(config: ScenarioConfig) -> _ProtocolStack:
    """The engine-independent half of scenario construction, shared by the
    simulator (:func:`build_scenario`) and every live lane.

    Resolves a named scenario to its ``(delay_model, corruption)`` effect,
    installs the crypto backend, builds keys, scheme, metrics and the
    corruption plan.  The returned delay model is ``None`` for fault-free
    and corruption-only configs; the simulator then uses
    ``FixedDelay(actual_delay)``, and a live lane imposes no schedule.
    """
    delay_model = config.delay_model
    explicit_corruption = config.corruption
    if config.scenario is not None:
        # Local import: the library builds on the experiments package's config
        # type, so importing it at module level would create a cycle.
        from repro.faults.library import get_scenario

        if delay_model is not None or explicit_corruption is not None:
            raise ConfigurationError(
                f"scenario {config.scenario!r} fully determines the adversary; "
                "leave delay_model and corruption unset (override via "
                "scenario_params instead)"
            )
        delay_model, explicit_corruption = get_scenario(config.scenario).build(
            config, config.scenario_params
        )
    protocol_config = config.protocol_config()
    corruption = explicit_corruption or CorruptionPlan.none(protocol_config)
    if corruption.config.n != protocol_config.n:
        raise ConfigurationError("corruption plan was built for a different system size")
    # One fresh backend per run (counting tokens / memo tables must never
    # cross runs), shared by the PKI, the threshold scheme and the network,
    # and installed as the process default so lazily derived block ids use
    # it too.  Runs are single-threaded per process; building two scenarios
    # with *different* backends and interleaving their runs in one process
    # is the one unsupported pattern (the campaign executors never do it).
    crypto_backend = make_backend(protocol_config.crypto_backend)
    set_default_backend(crypto_backend)
    metrics = MetricsCollector()
    metrics.set_honest(corruption.honest_ids)
    pki, signing_keys = PKI.setup(protocol_config.processor_ids, backend=crypto_backend)
    scheme = ThresholdScheme(pki)
    trace = TraceRecorder(enabled=config.record_trace)
    return _ProtocolStack(
        protocol_config, crypto_backend, corruption, metrics, pki, signing_keys,
        scheme, trace, delay_model,
    )


def _make_replica(pid: int, ctx: Any, config: ScenarioConfig, stack: _ProtocolStack) -> Replica:
    """Build node ``pid`` on ``ctx`` (a :class:`~repro.sim.process.SimContext`
    or a :class:`~repro.runtime.base.RuntimeContext`)."""
    factory = make_pacemaker_factory(
        config.pacemaker, stack.protocol_config, config.pacemaker_config
    )
    replica = Replica(
        pid=pid,
        ctx=ctx,
        config=stack.protocol_config,
        pki=stack.pki,
        signing_key=stack.signing_keys[pid],
        scheme=stack.scheme,
        pacemaker_factory=factory,
        metrics=stack.metrics,
        behaviour=stack.corruption.behaviour_for(pid),
    )
    if config.workload is not None:
        # Every lane builds replicas here — the simulator, inline clusters,
        # TCP nodes and the spawned workers of a ProcessCluster — so
        # attaching the client workload at this single point covers them
        # all.  Local import: repro.runner layers above this package.
        from repro.runner.workload import attach_workload

        attach_workload(replica, config.workload)
    return replica


def build_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Construct the simulated system for ``config`` without running it.

    Returned with virtual time still at zero; callers that need to perturb
    initial state (e.g. desynchronise local clocks) can do so before calling
    ``result.simulator.run(...)`` themselves.  Most callers should use
    :func:`run_scenario`.
    """
    stack = _build_protocol_stack(config)
    simulator = Simulator(seed=config.seed)
    network = Network(
        simulator,
        config.network_config(),
        delay_model=stack.delay_model or FixedDelay(config.actual_delay),
        crypto_backend=stack.crypto_backend,
    )
    stack.metrics.attach_network(network)
    ctx = SimContext(sim=simulator, network=network, trace=stack.trace)
    replicas = {
        pid: _make_replica(pid, ctx, config, stack)
        for pid in stack.protocol_config.processor_ids
    }
    return ScenarioResult(
        config=config,
        protocol_config=stack.protocol_config,
        metrics=stack.metrics,
        trace=stack.trace,
        replicas=replicas,
        corruption=stack.corruption,
        simulator=simulator,
        crypto_backend=stack.crypto_backend,
        network=network,
    )


def run_scenario(config: ScenarioConfig, max_events: Optional[int] = None) -> ScenarioResult:
    """Build and run a scenario to ``config.duration`` of virtual time."""
    result = build_scenario(config)
    for replica in result.replicas.values():
        replica.start()
    result.simulator.run(until=config.duration, max_events=max_events)
    return result
