"""Which program functions a traced run wraps, and the per-layer report.

:func:`install` puts a span around the public entry points of each layer
of ``repro`` plus every callback the simulator or the asyncio runtime
dispatches; :func:`layer_metrics` turns the recorded spans and counters
into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from tracer import LAYERS, Tracer, percentile

#: Message kinds whose replica dispatch is reported one by one (every
#: payload class a Lumiere run with a client workload puts on the wire).
MESSAGE_KINDS = (
    "Proposal",
    "Vote",
    "QCAnnounce",
    "ViewMessage",
    "ViewCertificate",
    "EpochViewMessage",
    "CommandForward",
)

#: How often the loop-lag probe asks to be woken.
LAG_PROBE_INTERVAL = 0.005


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries.  Call before building anything."""
    from repro.consensus.mempool import Mempool
    from repro.consensus.replica import Replica
    from repro.core.certificates import CertificateCollector, EpochMessageCollector
    from repro.core.lumiere import LumierePacemaker
    from repro.crypto.backend import CryptoBackend
    from repro.crypto.signatures import SigningKey, VerifyingKey
    from repro.crypto.threshold import ThresholdScheme
    from repro.metrics.collector import MetricsCollector
    from repro.runner.workload import RequestGateway
    from repro.runtime.asyncio_runtime import AsyncioRuntime
    from repro.runtime.codec import BinaryWireCodec, WireCodec
    from repro.runtime.tcp import TcpTransport
    from repro.sim.events import Simulator
    from repro.sim.network import Network
    from repro.statemachine.kvstore import ReplicatedKV

    wrap = tracer.wrap
    call = tracer.call

    # sim: the kernel loop, its sends, and every event it dispatches.
    wrap(Simulator, "run", "sim.run")
    wrap(Network, "broadcast", "sim.broadcast")
    wrap(Network, "multicast", "sim.broadcast")
    wrap(Network, "send", "sim.send")
    for attr in ("schedule_at", "schedule_fired", "schedule_fired_at"):
        _wrap_scheduler(tracer, Simulator, attr, "event")

    # crypto
    wrap(CryptoBackend, "digest", "crypto.digest")
    verify_batch = CryptoBackend.verify_batch
    verify_batch_id = tracer.name_id("crypto.verify_batch")

    def traced_verify_batch(self, items):
        tracer.count("crypto.verify_batch.shares", len(items))
        ok = call(verify_batch_id, verify_batch, (self, items), {})
        if not ok:
            tracer.count("crypto.verify_batch.failed")
        return ok

    tracer.patch(CryptoBackend, "verify_batch", traced_verify_batch)
    wrap(ThresholdScheme, "combine", "crypto.combine")
    wrap(ThresholdScheme, "verify", "crypto.verify")
    wrap(ThresholdScheme, "verify_partial", "crypto.verify")
    wrap(VerifyingKey, "verify_digest", "crypto.verify")
    wrap(SigningKey, "sign_digest", "crypto.sign")

    # core: the Lumiere pacemaker and its certificate collectors.
    wrap(LumierePacemaker, "on_message", "core.pacemaker.on_message")
    wrap(LumierePacemaker, "on_qc", "core.pacemaker.on_qc")
    wrap(LumierePacemaker, "on_local_qc", "core.pacemaker.on_qc")
    add_id = tracer.name_id("core.certificates.add")
    for cls in (CertificateCollector, EpochMessageCollector):
        _wrap_certificate_add(tracer, cls, add_id)

    # consensus: replica dispatch per message kind, view entry, QCs, commits.
    on_message = Replica.on_message
    kind_ids: dict[type, int] = {}

    def traced_on_message(self, payload, sender):
        kind = payload.__class__
        name_id = kind_ids.get(kind)
        if name_id is None:
            name_id = kind_ids[kind] = tracer.name_id(
                f"consensus.on_message.{kind.__name__}"
            )
        return call(name_id, on_message, (self, payload, sender), {})

    tracer.patch(Replica, "on_message", traced_on_message)
    wrap(Replica, "on_view_entered", "consensus.on_view_entered")
    wrap(Replica, "on_qc_produced", "consensus.on_qc")
    wrap(Replica, "on_qc_observed", "consensus.on_qc")
    wrap(Replica, "commit_block", "consensus.commit")

    # mempool
    _wrap_mempool(tracer, Mempool)

    # statemachine
    tracer.wrap_function("repro.statemachine.commands", "encode_commands", "statemachine.encode")
    tracer.wrap_function("repro.statemachine.commands", "decode_commands", "statemachine.decode")
    wrap(ReplicatedKV, "catch_up", "statemachine.catch_up")

    # gateway
    _wrap_gateway(tracer, RequestGateway)

    # codec
    for cls in (BinaryWireCodec, WireCodec):
        _wrap_codec(tracer, cls)

    # transport: TCP sends, and every callback the asyncio runtime fires.
    wrap(TcpTransport, "send", "transport.send")
    wrap(TcpTransport, "broadcast", "transport.broadcast")
    for attr in ("set_timer", "call_after"):
        _wrap_scheduler(tracer, AsyncioRuntime, attr, "timer")

    # metrics
    wrap(MetricsCollector, "on_send", "metrics.on_send")
    wrap(MetricsCollector, "record_request_applied", "metrics.record_request_applied")


def _wrap_scheduler(tracer: Tracer, cls: type, attr: str, suffix: str) -> None:
    """Wrap the callback argument of a scheduling method (``(self, when,
    callback, *args)``) so the dispatched call records a span."""
    schedule = getattr(cls, attr)
    traced_callback = tracer.traced_callback

    def traced(self, when, callback, *args, **kwargs):
        return schedule(self, when, traced_callback(callback, suffix), *args, **kwargs)

    tracer.patch(cls, attr, traced)


def _wrap_certificate_add(tracer: Tracer, cls: type, name_id: int) -> None:
    add = cls.add
    call = tracer.call

    def traced_add(self, view, sender, partial):
        result = call(name_id, add, (self, view, sender, partial), {})
        # A CertificateCollector returns the aggregate the share completed;
        # an EpochMessageCollector returns (tc_now, ec_now).
        if any(result) if isinstance(result, tuple) else result is not None:
            tracer.count("core.certificates.completed")
        return result

    tracer.patch(cls, "add", traced_add)


def _wrap_mempool(tracer: Tracer, cls: type) -> None:
    from repro.statemachine.messages import CommandBatch

    ingest, next_batch = cls.ingest, cls.next_batch
    ingest_id = tracer.name_id("mempool.ingest")
    next_id = tracer.name_id("mempool.next_batch")
    call = tracer.call
    # (mempool, batch bytes) -> when the batch was queued.
    queued_at: dict[tuple[int, bytes], float] = {}

    def traced_ingest(self, batch):
        accepted = call(ingest_id, ingest, (self, batch), {})
        if not accepted:
            tracer.count("mempool.refused")
        else:
            queued_at.setdefault((id(self), batch.data), time.perf_counter())
        return accepted

    def traced_next_batch(self):
        payload = call(next_id, next_batch, (self,), {})
        now = time.perf_counter()
        commands = 0
        for item in payload:
            if isinstance(item, CommandBatch):
                commands += item.count
                since = queued_at.pop((id(self), item.data), None)
                if since is not None:
                    tracer.sample("mempool.wait_ms", (now - since) * 1e3)
        if commands:
            tracer.count("mempool.commands", commands)
        else:
            tracer.count("mempool.filler_blocks")
        return payload

    tracer.patch(cls, "ingest", traced_ingest)
    tracer.patch(cls, "next_batch", traced_next_batch)


def _wrap_gateway(tracer: Tracer, cls: type) -> None:
    flush, retry = cls.flush, cls.retry_outstanding
    flush_id = tracer.name_id("gateway.flush")
    retry_id = tracer.name_id("gateway.retry")
    call = tracer.call

    def traced_flush(self):
        buffered = len(self._buffer)
        if buffered:
            tracer.count("gateway.flushed_cmds", buffered)
            tracer.count("gateway.nonempty_flushes")
        return call(flush_id, flush, (self,), {})

    def traced_retry(self):
        # retry_outstanding flushes the buffer first, then re-offers every
        # other outstanding command.
        tracer.count("gateway.retried_cmds", self.outstanding - len(self._buffer))
        return call(retry_id, retry, (self,), {})

    tracer.wrap(cls, "submit", "gateway.submit")
    tracer.patch(cls, "flush", traced_flush)
    tracer.patch(cls, "retry_outstanding", traced_retry)
    tracer.wrap(cls, "on_applied", "gateway.on_applied")


def _wrap_codec(tracer: Tracer, cls: type) -> None:
    encode_into, decode_body = cls.encode_into, cls.decode_body
    encode_id = tracer.name_id("codec.encode")
    decode_id = tracer.name_id("codec.decode")
    call = tracer.call

    def traced_encode_into(self, sender, payload, out):
        written = call(encode_id, encode_into, (self, sender, payload, out), {})
        tracer.count("codec.encode.bytes", written)
        return written

    def traced_decode_body(self, body):
        tracer.count("codec.decode.bytes", len(body) + 4)
        return call(decode_id, decode_body, (self, body), {})

    tracer.patch(cls, "encode_into", traced_encode_into)
    tracer.patch(cls, "decode_body", traced_decode_body)


async def probe_loop_lag(tracer: Tracer, stop: asyncio.Event) -> None:
    """Sample how late a sleeping task wakes: the time ready work waits for
    the one event loop."""
    while not stop.is_set():
        asked = time.perf_counter()
        await asyncio.sleep(LAG_PROBE_INTERVAL)
        tracer.sample(
            "transport.loop_lag_ms",
            (time.perf_counter() - asked - LAG_PROBE_INTERVAL) * 1e3,
        )


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pct(samples: Optional[list], q: float) -> float:
    return percentile(samples, q) if samples else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, counters: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``counters`` carries the program's own numbers the report needs:
    ``decisions``, ``views``, ``epoch_syncs``, ``requests_applied``,
    ``first_applies``, ``duplicate_applies`` and ``frames_dropped``.
    """
    selfs = tracer.self_times()
    calls = tracer.span_counts()
    counts = tracer.counts

    def self_s(name: str) -> float:
        return selfs.get(name, 0.0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in selfs.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += value
    events = sum(count for name, count in calls.items() if name.endswith(".event"))
    adds = calls.get("core.certificates.add", 0)
    next_batches = calls.get("mempool.next_batch", 0)
    requests = counters["requests_applied"]
    applies = counters["first_applies"] + counters["duplicate_applies"]

    metrics: dict[str, float] = {
        "trace.wall_s": wall_s,
        "trace.remainder_s": wall_s - sum(layer_self.values()),
        "trace.spans": len(tracer.starts),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics.update({
        "sim.events": events,
        "sim.run.self_s": self_s("sim.run"),
        "sim.broadcast.calls": calls.get("sim.broadcast", 0),
        "sim.broadcast.self_s": self_s("sim.broadcast"),
        "crypto.digest.calls": calls.get("crypto.digest", 0),
        "crypto.digest.self_s": self_s("crypto.digest"),
        "crypto.verify_batch.calls": calls.get("crypto.verify_batch", 0),
        "crypto.verify_batch.shares": counts.get("crypto.verify_batch.shares", 0),
        "crypto.verify_batch.fallback_ratio": _ratio(
            counts.get("crypto.verify_batch.failed", 0), calls.get("crypto.verify_batch", 0)
        ),
        "crypto.combine.self_s": self_s("crypto.combine"),
        "crypto.verify.self_s": self_s("crypto.verify"),
        "crypto.sign.self_s": self_s("crypto.sign"),
        "core.pacemaker.on_message.calls": calls.get("core.pacemaker.on_message", 0),
        "core.pacemaker.on_message.self_s": self_s("core.pacemaker.on_message"),
        "core.certificates.add.calls": adds,
        "core.certificates.add.self_s": self_s("core.certificates.add"),
        "core.certificates.useful_ratio": _ratio(
            counts.get("core.certificates.completed", 0), adds
        ),
        "core.epoch_syncs": counters["epoch_syncs"],
        "core.views_per_decision": _ratio(counters["views"], counters["decisions"]),
    })
    for kind in MESSAGE_KINDS:
        name = f"consensus.on_message.{kind}"
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s(name)
    metrics.update({
        "consensus.commits": calls.get("consensus.commit", 0),
        "mempool.ingest.calls": calls.get("mempool.ingest", 0),
        "mempool.refused": counts.get("mempool.refused", 0),
        "mempool.wait_ms.p50": _pct(tracer.samples.get("mempool.wait_ms"), 0.50),
        "mempool.wait_ms.p99": _pct(tracer.samples.get("mempool.wait_ms"), 0.99),
        "mempool.cmds_per_block": _ratio(counts.get("mempool.commands", 0), next_batches),
        "mempool.filler_share": _ratio(counts.get("mempool.filler_blocks", 0), next_batches),
        "statemachine.encode.self_s": self_s("statemachine.encode"),
        "statemachine.decode.calls": calls.get("statemachine.decode", 0),
        "statemachine.decode.self_s": self_s("statemachine.decode"),
        "statemachine.catch_up.self_s": self_s("statemachine.catch_up"),
        "statemachine.first_apply_ratio": _ratio(counters["first_applies"], applies),
        "gateway.submit.calls": calls.get("gateway.submit", 0),
        "gateway.flush.calls": calls.get("gateway.flush", 0),
        "gateway.cmds_per_flush": _ratio(
            counts.get("gateway.flushed_cmds", 0), counts.get("gateway.nonempty_flushes", 0)
        ),
        "gateway.retried_cmds": counts.get("gateway.retried_cmds", 0),
        "codec.encode.calls": calls.get("codec.encode", 0),
        "codec.encode.self_s": self_s("codec.encode"),
        "codec.encode.bytes": counts.get("codec.encode.bytes", 0),
        "codec.decode.calls": calls.get("codec.decode", 0),
        "codec.decode.self_s": self_s("codec.decode"),
        "codec.decode.bytes": counts.get("codec.decode.bytes", 0),
        "codec.bytes_per_req": _ratio(counts.get("codec.encode.bytes", 0), requests),
        "transport.send.calls": calls.get("transport.send", 0),
        "transport.broadcast.calls": calls.get("transport.broadcast", 0),
        "transport.broadcast.self_s": self_s("transport.broadcast"),
        "transport.frames_dropped": counters["frames_dropped"],
        "transport.loop_lag_ms.p50": _pct(tracer.samples.get("transport.loop_lag_ms"), 0.50),
        "transport.loop_lag_ms.p99": _pct(tracer.samples.get("transport.loop_lag_ms"), 0.99),
        "metrics.on_send.calls": calls.get("metrics.on_send", 0),
        "metrics.on_send.self_s": self_s("metrics.on_send"),
    })
    return metrics
