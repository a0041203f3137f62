"""The per-shard engine loop, shared by the serial and parallel runners.

A :class:`ShardProcessor` owns one engine and turns a stream of routed
batches into a :class:`ShardReport`.  Keeping this logic in one class is
what makes the two runners bit-for-bit comparable: the serial runner
calls :meth:`ShardProcessor.feed` inline, the parallel runner runs the
identical code behind a queue, and both see the same batch boundaries
(the router splits each input batch per shard *before* feeding), so
state sampling and eviction ticks land at the same packet positions.

Worker wire protocol (every message on the results queue is a 4-tuple
``(kind, shard, generation, payload)``; a worker is started with the
fleet's latest control per op and applies them before reading its queue):

- ``("hb", s, g, None)``       -- liveness: once when the engine is built
  (the supervisor's hang clock for a generation starts at its first
  message, so construction time is never mistaken for a hang), then once
  per heartbeat interval while the queue is empty;
- ``("delta", s, g, ShardDelta)`` -- periodic result flush: cumulative
  counters plus the alerts raised since the previous flush;
- ``("ok", s, g, ShardReport)``   -- final report at drain, carrying only
  the unflushed alert tail (the parent reassembles the full list from
  delta chunks);
- ``("error", s, g, traceback)``  -- the engine raised (at build or on a
  batch).  The worker reports *immediately* and exits; the supervisor
  restarts it or fails the run.

Every worker exit path must put a status message first -- enforced
statically by splitcheck rule SD106.  The one exception is an injected
``crash`` (``os._exit`` in :mod:`repro.runtime.faults`), which simulates
the silent death SD106 exists to prevent in our own code.
"""

from __future__ import annotations

import queue as queue_mod
import traceback
from dataclasses import replace
from time import monotonic, process_time_ns
from typing import Any

from ..core import Alert
from ..packet.batch import PacketBatch
from ..packet.errors import PacketError
from ..telemetry import FlowTracer, TelemetryRegistry
from .config import RunnerConfig
from .control import ControlMessage
from .faults import FaultInjector
from .quarantine import Quarantine
from .report import ShardDelta, ShardReport
from .spec import EngineSpec

__all__ = ["ShardProcessor", "shard_worker_main"]

#: Queue sentinel telling a worker to drain and report.
DRAIN = None


class ShardProcessor:
    """One shard: an engine, its alert log, and its housekeeping clock."""

    def __init__(
        self,
        shard: int,
        spec: EngineSpec,
        config: RunnerConfig,
        *,
        generation: int = 0,
        allow_process_faults: bool = False,
    ) -> None:
        self.shard = shard
        self.generation = generation
        self.config = config
        self.telemetry = TelemetryRegistry() if config.telemetry else None
        # Shard + generation stamp every span, so salvaged traces from a
        # crashed generation stay attributable after the merge.
        self.tracer: FlowTracer | None = (
            FlowTracer(
                capacity=config.trace_capacity,
                sample=config.trace_sample,
                shard=shard,
                generation=generation,
            )
            if config.trace
            else None
        )
        self._trace_enabled = self.tracer is not None
        self.engine = spec.build(telemetry=self.telemetry, tracer=self.tracer)
        self.alerts: list[Alert] = []
        self.quarantine = Quarantine()
        self.injector: FaultInjector | None = None
        if config.faults is not None:
            self.injector = FaultInjector(
                config.faults, shard, allow_process_faults=allow_process_faults
            )
        self.peak_state_bytes = 0
        self.peak_flows = 0
        self.evictions = 0
        self.batches = 0
        self.busy_ns = 0
        self.packets_seen = 0
        """Every packet fed to this shard, quarantined ones included --
        the index fault-injection points trigger on."""

        self.last_ts: float | None = None
        """Packet time of the last packet disposed of (examined or
        quarantined); the supervisor's degraded-interval start mark."""

        self.alerts_flushed = 0
        """How many leading entries of :attr:`alerts` have already been
        shipped in a :class:`ShardDelta` chunk."""

        self._flush_seq = 0
        self._evict_anchor: float | None = None

    def feed(self, batch: PacketBatch) -> None:
        """Process one routed batch (engine work + periodic housekeeping).

        Every source reaches a shard as
        :class:`~repro.packet.batch.PacketBatch` columns, so eviction
        cadence, state sampling, busy-time accounting and the fault
        injection points see the same batch boundaries whatever fed the
        run.  A :class:`PacketError` raised at this boundary -- by an
        injected decode fault or by the engine itself -- quarantines
        the affected packets and returns normally: malformed input
        degrades coverage (visibly, via the ledger), never the
        pipeline.
        """
        if not batch:
            return
        count = len(batch)
        first_ts = batch.first_ts
        last_ts = batch.last_ts
        self.packets_seen += count
        self.last_ts = last_ts
        if self.injector is not None:
            try:
                self.injector.before_batch(self.packets_seen - count, batch)
            except PacketError as exc:
                self.quarantine.add(exc, packets=count)
                if self._trace_enabled and self.tracer is not None:
                    self.tracer.record_system(
                        "runtime",
                        "quarantine",
                        ts=last_ts,
                        cause=type(exc).__name__,
                        packets=count,
                    )
                return
        # CPU time, not wall time: on a host with fewer cores than
        # workers the wall clock counts time spent scheduled out, which
        # would make per-shard rates look like contention instead of
        # capacity.
        t0 = process_time_ns()
        examined_before = self.engine.stats.packets_total
        try:
            self.alerts.extend(self.engine.process_column_batch(batch))
        except PacketError as exc:
            # The engine raised mid-batch.  The packets it already
            # counted stay counted (their alerts are lost with the
            # exception -- part of the quarantine's cost); the rest of
            # the batch is not replayed, because re-feeding the prefix
            # would double-process flow state.
            examined = self.engine.stats.packets_total - examined_before
            self.quarantine.add(exc, packets=count - examined)
            if self._trace_enabled and self.tracer is not None:
                self.tracer.record_system(
                    "runtime",
                    "quarantine",
                    ts=last_ts,
                    cause=type(exc).__name__,
                    packets=count - examined,
                )
        self.batches += 1
        interval = self.config.evict_interval
        if interval is not None:
            # Packet time, not wall time: replayed traces must evict at
            # the same points no matter how fast the box replays them.
            # Injected clock skew lands here -- on the housekeeping
            # clock only, never on alert timestamps -- so a skewed run
            # stays alert-equivalent while its eviction behaviour is
            # stressed.
            skew = self.injector.clock_skew if self.injector is not None else 0.0
            now = last_ts + skew
            if self._evict_anchor is None:
                self._evict_anchor = first_ts + skew
            if now - self._evict_anchor >= interval:
                self.evictions += self.engine.evict_idle(now)
                self._evict_anchor = now
        engine = self.engine
        self.peak_state_bytes = max(self.peak_state_bytes, engine.state_bytes())
        flows = engine.fast_path.tracked_flows + engine.slow_path.active_flows
        self.peak_flows = max(self.peak_flows, flows)
        if self.telemetry is not None:
            engine.refresh_telemetry()
        self.busy_ns += process_time_ns() - t0

    def control(self, message: ControlMessage) -> None:
        """Apply one out-of-band command between batches.

        Called by the worker loop (and directly by in-process drivers
        like the service pipeline) strictly *between* :meth:`feed`
        calls, which is what makes a ``reload`` atomic per shard: no
        batch ever sees two rule generations.  Unknown ops are counted
        and skipped -- a newer driver must not crash an older worker.
        """
        if message.op == "reload":
            payload = message.payload or {}
            self.engine.swap_rules(
                payload["rules"],
                split_policy=payload.get("split_policy"),
                model=payload.get("model"),
                timestamp=self.last_ts or 0.0,
            )
        elif self.telemetry is not None:
            self.telemetry.counter(
                "repro_runtime_unknown_control_total",
                "Control messages with an op this worker does not understand",
                ("op",),
            ).labels(op=message.op).inc()
            return
        else:
            return
        if self.telemetry is not None:
            self.telemetry.journal.record(
                "runtime",
                "control",
                op=message.op,
                seq=message.seq,
                shard=self.shard,
                **message.fields,
            )

    def tracked_flows(self) -> int:
        """Live flow records across both paths (what a restart resets)."""
        engine = self.engine
        return engine.fast_path.tracked_flows + engine.slow_path.active_flows

    def _report(self, alerts: list[Alert]) -> ShardReport:
        engine = self.engine
        return ShardReport(
            shard=self.shard,
            generation=self.generation,
            alerts=alerts,
            # A copy, not the live object: deltas cross the process
            # boundary while the engine keeps mutating its stats.
            stats=replace(engine.stats),
            divert_reasons={
                reason.value: count for reason, count in engine.divert_reasons.items()
            },
            diverted_flows=len(engine.diversions),
            reinstated_flows=engine.reinstated_flows,
            overload_refusals=engine.overload_refusals,
            peak_state_bytes=self.peak_state_bytes,
            peak_flows=self.peak_flows,
            evictions=self.evictions,
            batches=self.batches,
            busy_ns=self.busy_ns,
            quarantined=dict(self.quarantine.counts),
            # The span ring is bounded, so shipping a snapshot with every
            # delta stays cheap -- and it is exactly what lets a crashed
            # generation's traces be salvaged from its last flush.
            trace=self.tracer.snapshot() if self.tracer is not None else None,
        )

    def flush_delta(self) -> ShardDelta:
        """Snapshot cumulative counters + the unshipped alert chunk."""
        self._flush_seq += 1
        chunk = self.alerts[self.alerts_flushed :]
        self.alerts_flushed = len(self.alerts)
        return ShardDelta(
            seq=self._flush_seq,
            report=self._report(list(chunk)),
            last_ts=self.last_ts,
            tracked_flows=self.tracked_flows(),
        )

    def finish(self) -> ShardReport:
        """Final state sample + report assembly (call exactly once)."""
        engine = self.engine
        self.peak_state_bytes = max(self.peak_state_bytes, engine.state_bytes())
        if self.telemetry is not None:
            engine.refresh_telemetry()
        report = self._report(self.alerts)
        report.telemetry = self.telemetry
        # Like telemetry, the anomaly sketch ships only with the final
        # report -- a per-flush copy would dominate delta traffic.  The
        # merge layer folds shard sketches bucket-wise.
        report.sketch = engine.fast_path.sketch_snapshot()
        return report


def shard_worker_main(
    shard: int,
    generation: int,
    spec: EngineSpec,
    config: RunnerConfig,
    in_queue: Any,
    out_queue: Any,
    controls: tuple[ControlMessage, ...],
) -> None:
    """Process entry point: drain batches until the sentinel, then report.

    ``controls`` is the fleet's latest control per op at spawn time; a
    replacement applies them to its fresh engine before its first
    ``get``, so it rejoins at the current rule generation whatever is
    still queued ahead of it.  The worker's last act before any exit is
    a status message on ``out_queue`` (SD106) -- the supervisor treats
    silence as death.
    """
    interval = config.heartbeat_interval

    def flush_status() -> None:
        """Everything already put is in the pipe when this returns."""
        out_queue.close()
        out_queue.join_thread()

    try:
        processor = ShardProcessor(
            shard, spec, config, generation=generation, allow_process_faults=True
        )
        if processor.injector is not None:
            processor.injector.before_crash = flush_status
        for message in controls:
            processor.control(message)
        # Built: the supervisor's hang clock starts at this message.
        out_queue.put(("hb", shard, generation, None))
        last_flush = monotonic()
        while True:
            try:
                batch = in_queue.get(timeout=interval)
            except queue_mod.Empty:
                # Idle but alive.  A worker busy inside feed() proves
                # liveness through its delta flushes instead; one stalled
                # longer than the heartbeat timeout is indistinguishable
                # from hung, and failing it is the correct response.
                out_queue.put(("hb", shard, generation, None))
                continue
            if batch is DRAIN:
                break
            if isinstance(batch, ControlMessage):
                processor.control(batch)
                continue
            processor.feed(batch)
            now = monotonic()
            if now - last_flush >= interval:
                out_queue.put(("delta", shard, generation, processor.flush_delta()))
                last_flush = now
        report = processor.finish()
        # The parent already holds every flushed chunk; ship only the tail.
        report.alerts = processor.alerts[processor.alerts_flushed :]
        out_queue.put(("ok", shard, generation, report))
    except Exception:
        out_queue.put(("error", shard, generation, traceback.format_exc()))
        return
