"""The long-lived service loop: ingest, tenant routing, shed, reload, drain.

:class:`SplitDetectService` turns the batch pipeline into a daemon with
an explicit lifecycle contract:

- **ingest**: poll the source for undecoded records and encode each
  poll to one :class:`~repro.packet.batch.PacketBatch` through the
  runners' intake (:func:`~repro.runtime.batching.iter_feed`);
  malformed frames go to the decode quarantine (never raised),
  source-side overflow is the ``lost`` term;
- **route**: the tenant keyer assigns each row to a tenant pipeline
  (shared-nothing :class:`~repro.runtime.worker.ShardProcessor`, see
  :mod:`repro.service.tenancy`); with one tenant and nothing to shed
  the poll goes through whole;
- **shed**: under overload the :class:`~repro.service.shedding.LoadShedder`
  drops benign-profile flows before the ingest buffer overflows --
  never a diverted or force-traced flow;
- **reload**: ``request_reload()`` (SIGHUP / authenticated POST) marks
  a pending swap; the loop applies it *between polls* through the
  worker control protocol, so every tenant's swap lands at a batch
  boundary and no flow state, in-flight diverted work, or counter is
  dropped;
- **drain**: ``request_stop()`` (SIGTERM/SIGINT) finishes every
  pipeline through the normal drain path and returns a final
  :class:`ServiceReport` whose loss accounting closes:
  ``examined + shed + quarantined + lost == input``.

``request_stop`` and ``request_reload`` are thread-safe (signal
handlers and HTTP handler threads call them); the loop itself is
single-threaded, so engines are only ever touched from one thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Any

from ..packet.batch import PacketBatch, forget_interned_flows
from ..runtime import Quarantine, RuntimeReport, merge_shard_reports
from ..runtime.batching import iter_feed
from ..signatures import RuleSet
from ..telemetry import stage_profile
from .shedding import LoadShedder, ShedPolicy
from .tenancy import DEFAULT_TENANT, TenantTable

__all__ = ["ServiceConfig", "ServiceReport", "SplitDetectService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Loop knobs; engine/tenant knobs live in the :class:`TenantTable`."""

    batch_size: int = 256
    """Records per poll and per tenant feed call."""

    poll_timeout: float = 0.25
    """Seconds one poll waits for the first record; also the latency
    bound on noticing a stop/reload request while idle."""

    duration: float | None = None
    """Stop after this many wall seconds (None: run until stopped)."""

    max_packets: int | None = None
    """Stop after ingesting this many records (None: unbounded)."""

    shed_policy: ShedPolicy = field(default_factory=ShedPolicy)
    shed_enabled: bool = True
    profile_every: int = 8
    """Polls between shed-signal updates that consult the stage
    profiler (the backlog signal is sampled every poll; the histogram
    walk is the expensive part)."""


@dataclass
class ServiceReport:
    """The final word of one service run: merged results + accounting."""

    runtime: RuntimeReport
    stop_reason: str
    input_records: int
    examined_packets: int
    shed_packets: int
    quarantined_packets: int
    lost_packets: int
    reloads: int
    wall_seconds: float
    source: dict[str, Any] = field(default_factory=dict)
    shed: dict[str, Any] = field(default_factory=dict)
    tenants: dict[str, Any] = field(default_factory=dict)

    @property
    def accounting_closed(self) -> bool:
        """The lossless-or-counted identity the service promises."""
        return (
            self.examined_packets
            + self.shed_packets
            + self.quarantined_packets
            + self.lost_packets
            == self.input_records
        )


class SplitDetectService:
    """One running ``splitdetect serve`` instance."""

    def __init__(
        self,
        source: Any,
        table: TenantTable,
        *,
        config: ServiceConfig | None = None,
        reload_loader: Any = None,
    ) -> None:
        self.source = source
        self.table = table
        self.config = config or ServiceConfig()
        self.reload_loader = reload_loader
        """Zero-argument callable returning ``{tenant_name: RuleSet}``
        for the tenants whose rules should swap; wired by the CLI to
        re-read every tenant's rules file."""

        self.shedder = LoadShedder(self.config.shed_policy)
        self.shedder.enabled = self.config.shed_enabled
        self._stop = threading.Event()
        self._reload = threading.Event()
        self._stop_reason = "exhausted"
        self.input_records = 0
        self.reloads = 0
        self._reload_seq = 0
        self._quarantine = Quarantine()
        registry = table.processor(DEFAULT_TENANT).telemetry
        self._shed_counter = None
        self._shed_level_gauge = None
        self._reload_counter = None
        if registry is not None:
            self._shed_counter = registry.counter(
                "repro_service_shed_packets_total",
                "Packets the service shed under overload, by shed level",
                ("level",),
            )
            self._shed_level_gauge = registry.gauge(
                "repro_service_shed_level",
                "Current load-shedding level (0 = none)",
                merge="max",
            )
            self._reload_counter = registry.counter(
                "repro_service_reloads_total",
                "Hot signature-set reloads applied across all tenants",
            )

    # -- thread-safe control surface -----------------------------------

    def request_stop(self, reason: str = "signal") -> dict[str, Any]:
        """Begin a clean drain; callable from signal/HTTP threads."""
        if not self._stop.is_set():
            self._stop_reason = reason
            self._stop.set()
        return {"stopping": True, "reason": self._stop_reason}

    def request_reload(self) -> dict[str, Any]:
        """Mark a reload pending; the loop applies it between polls."""
        if self.reload_loader is None:
            raise RuntimeError("no reload loader configured")
        self._reload.set()
        return {"reload_requested": True, "reloads_applied": self.reloads}

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # -- the loop -------------------------------------------------------

    def _apply_reload(self) -> None:
        self._reload.clear()
        try:
            rules_by_tenant: dict[str, RuleSet] = self.reload_loader()
        except Exception as exc:
            # A bad rules file must not take down a running service:
            # keep the current generation and say so.
            print(f"reload failed, keeping current rules: {exc}")
            return
        self._reload_seq += 1
        generations = self.table.reload(rules_by_tenant, seq=self._reload_seq)
        self.reloads += 1
        if self._reload_counter is not None:
            self._reload_counter.inc()
        summary = ", ".join(
            f"{name}->gen{gen}" for name, gen in sorted(generations.items())
        )
        print(f"reloaded rules for {len(generations)} tenant(s): {summary}")

    def _shed_signals(self, polls: int) -> None:
        backlog = float(self.source.state().get("backlog_fraction", 0.0))
        p99_ns = 0.0
        if (
            self.shedder.policy.p99_budget_ns > 0
            and polls % self.config.profile_every == 0
        ):
            registry = self.table.processor(DEFAULT_TENANT).telemetry
            if registry is not None:
                profile = stage_profile(registry)
                stage = (profile or {}).get("stages", {}).get("fast_path", {})
                p99_ns = float(stage.get("p99_ns", 0.0))
        before = self.shedder.level
        level = self.shedder.update(backlog=backlog, p99_ns=p99_ns)
        if level != before:
            if self._shed_level_gauge is not None:
                self._shed_level_gauge.set(level)
            tracer = self.table.processor(DEFAULT_TENANT).tracer
            if tracer is not None:
                tracer.record_system(
                    "service", "shed_level", backlog=round(backlog, 3),
                    level=level,
                )

    def _feed(self, tenant: str, batch: PacketBatch) -> None:
        self.table.processor(tenant).feed(batch)
        self.table.count(tenant, len(batch))

    def _dispose(self, batch: PacketBatch) -> int:
        """Route one encoded poll on its columns: per tenant, shed or feed.

        Returns the number of batches fed."""
        table = self.table
        level = self.shedder.level
        if level == 0 and not table.specs:
            # One tenant, nothing to shed: no row selection, no copies.
            self._feed(DEFAULT_TENANT, batch)
            return 1
        fed = 0
        for tenant, rows in table.tenant_rows(batch).items():
            if level > 0:
                rows = self._shed(batch, rows, tenant)
            if rows:
                self._feed(tenant, batch.select(rows))
                fed += 1
        return fed

    def _shed(self, batch: PacketBatch, rows: list[int], tenant: str) -> list[int]:
        """The rows of one tenant's share that survive the shedder."""
        processor = self.table.processor(tenant)
        kept, shed = self.shedder.shed_rows(
            batch, rows, engine=processor.engine, tracer=processor.tracer
        )
        if shed and self._shed_counter is not None:
            self._shed_counter.labels(level=str(self.shedder.level)).inc(len(shed))
        if processor.tracer is not None:
            for row, flow in shed:
                processor.tracer.record(
                    flow, "service", "shed", batch.ts[row],
                    level=self.shedder.level,
                )
        return kept

    def run(self) -> ServiceReport:
        """Ingest until stopped/exhausted, then drain and account."""
        config = self.config
        started = monotonic()
        wall_start = perf_counter()
        polls = 0
        batches_routed = 0
        while not self._stop.is_set():
            if config.duration is not None and monotonic() - started >= config.duration:
                self._stop_reason = "duration"
                break
            if (
                config.max_packets is not None
                and self.input_records >= config.max_packets
            ):
                self._stop_reason = "max_packets"
                break
            if self.source.exhausted:
                self._stop_reason = "exhausted"
                break
            if self._reload.is_set():
                self._apply_reload()
            records = self.source.poll(config.batch_size, config.poll_timeout)
            polls += 1
            self._shed_signals(polls)
            if not records:
                continue
            self.input_records += len(records)
            for batch in iter_feed(records, config.batch_size, self._quarantine):
                batches_routed += self._dispose(batch)
            # A daemon's resident set is one poll plus live flow state.
            # The engines key flows by their numeric five-tuples and hold
            # nothing per dead flow; the packet module's address-string
            # and shard/shed hash caches would still grow by every
            # address pair ever seen, so they are released between polls
            # (the cost: a string or hash re-derived once per poll).
            forget_interned_flows()
        interrupted = self._stop_reason not in ("exhausted", "max_packets")
        # Drain: the same finish path the runners use, one report per
        # tenant pipeline; nothing already fed is dropped.
        reports = [
            processor.finish() for processor in self.table.processors.values()
        ]
        source_state = self.source.state()
        self.source.close()
        runtime = merge_shard_reports(
            reports,
            mode="serve",
            workers=len(reports),
            wall_seconds=perf_counter() - wall_start,
            batches_routed=batches_routed,
            shed_packets=self.shedder.shed_packets,
            quarantined=dict(self._quarantine.counts),
            interrupted=interrupted,
        )
        lost = int(source_state.get("overflow_dropped", 0))
        return ServiceReport(
            runtime=runtime,
            stop_reason=self._stop_reason,
            # Overflowed records never reached poll(); fold them into
            # the input so the identity covers everything *offered*.
            input_records=self.input_records + lost,
            examined_packets=runtime.stats.packets_total,
            shed_packets=self.shedder.shed_packets,
            quarantined_packets=runtime.quarantined_packets,
            lost_packets=lost,
            reloads=self.reloads,
            wall_seconds=runtime.wall_seconds,
            source=source_state,
            shed=self.shedder.state(),
            tenants=self.table.state(),
        )
