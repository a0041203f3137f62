"""Run harness: drive an IPS over a trace and collect evaluation numbers.

This is the shared machinery under every benchmark: it feeds packets,
samples state periodically (state comparisons use the *peak*, since that
is what a box must provision), and assembles the per-run summary the
tables and figures report.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..core import Alert, ConventionalIPS, SplitDetectIPS
from ..core.conventional import PROVISIONED_BUFFER_PER_FLOW
from ..core.fastpath import FAST_FLOW_STATE_BYTES
from ..packet import TimedPacket
from ..packet.batch import PacketBatch
from ..pcap.columnar import encode_batches
from ..runtime.batching import rebatch_columns
from ..runtime.quarantine import PacketSource
from ..streams import FLOW_OVERHEAD_BYTES
from ..telemetry import stage_profile
from .cost import CostReport, HardwareModel, conventional_cost, split_detect_cost

__all__ = [
    "PROVISIONED_BUFFER_PER_FLOW",  # re-exported; defined in core.conventional
    "RunReport",
    "extrapolate_state",
    "provisioned_conventional_state",
    "provisioned_fastpath_state",
    "run_conventional",
    "run_split_detect",
    "state_bytes_ratio",
    "state_per_flow",
    "throughput_comparison",
]


@dataclass
class RunReport:
    """Everything one trace run produced."""

    label: str
    packets: int = 0
    payload_bytes: int = 0
    alerts: list[Alert] = field(default_factory=list)
    peak_state_bytes: int = 0
    peak_flows: int = 0
    # Split-Detect specific:
    diverted_flows: int = 0
    divert_reasons: dict[str, int] = field(default_factory=dict)
    fast_bytes: int = 0
    slow_bytes: int = 0
    fast_packets: int = 0
    slow_packets: int = 0
    evictions: int = 0
    """Idle per-flow entries reclaimed by automatic ``evict_idle`` sweeps
    (0 unless the run was driven with an ``evict_interval``)."""

    telemetry: dict | None = None
    """Registry snapshot taken at the end of the run (None when the
    engine ran with the no-op registry)."""

    profile: dict | None = None
    """Stage self-profile (p50/p90/p99/max per stage + top-N slowest
    flows), derived from the stage latency histogram; None when the
    engine ran with the no-op registry."""

    trace: dict | None = None
    """Flight-recorder snapshot (spans + ring accounting); None when the
    engine ran with the no-op tracer."""

    @property
    def diversion_byte_fraction(self) -> float:
        total = self.fast_bytes + self.slow_bytes
        return self.slow_bytes / total if total else 0.0


def run_split_detect(
    ips: SplitDetectIPS,
    trace: "PacketSource | Iterable[PacketBatch]",
    *,
    label: str = "split-detect",
    sample_every: int = 200,
    batch_size: int | None = None,
    evict_interval: float | None = None,
) -> RunReport:
    """Feed a trace through a Split-Detect engine, sampling peak state.

    ``trace`` may be any iterable of packets, ``(timestamp, bytes)``
    records or encoded :class:`~repro.packet.batch.PacketBatch` columns
    (:func:`repro.pcap.read_column_batches`).  Everything is encoded at
    the door and driven through
    :meth:`SplitDetectIPS.process_column_batch` in batches of at most
    ``batch_size`` rows (default: ``sample_every``), with state sampled
    between batches.  This harness has no quarantine ledger: a frame
    the decode rejects is raised, not dropped silently.

    ``evict_interval`` (seconds of *packet time*) arms automatic
    :meth:`SplitDetectIPS.evict_idle` sweeps -- the same housekeeping
    the sharded runtime's workers run -- so long traces shed dead flows
    without the caller remembering to.  ``None`` (default) preserves
    the no-eviction behaviour."""
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    report = RunReport(label=label)
    step = batch_size or sample_every
    evict_anchor: float | None = None
    for batch in rebatch_columns(encode_batches(trace, step), step):
        if batch.quarantined:
            raise batch.quarantined[0]
        if not batch:
            continue
        report.alerts.extend(ips.process_column_batch(batch))
        if evict_interval is not None:
            now = batch.last_ts
            if evict_anchor is None:
                evict_anchor = batch.first_ts
            if now - evict_anchor >= evict_interval:
                report.evictions += ips.evict_idle(now)
                evict_anchor = now
        report.peak_state_bytes = max(report.peak_state_bytes, ips.state_bytes())
        flows = ips.fast_path.tracked_flows + ips.slow_path.active_flows
        report.peak_flows = max(report.peak_flows, flows)
        ips.refresh_telemetry()
    report.peak_state_bytes = max(report.peak_state_bytes, ips.state_bytes())
    report.packets = ips.stats.packets_total
    report.fast_packets = ips.stats.fast_packets
    report.slow_packets = ips.stats.slow_packets
    report.fast_bytes = ips.stats.fast_bytes_scanned
    report.slow_bytes = ips.stats.slow_bytes_normalized
    report.payload_bytes = report.fast_bytes + report.slow_bytes
    report.diverted_flows = len(ips.diversions)
    report.divert_reasons = {
        reason.value: count for reason, count in ips.divert_reasons.items()
    }
    if ips.telemetry.enabled:
        tel = ips.telemetry
        tel.gauge(
            "repro_engine_peak_state_bytes",
            "Peak sampled per-flow state",
            merge="sum",
        ).set(report.peak_state_bytes)
        tel.gauge(
            "repro_engine_peak_flows",
            "Peak sampled concurrent flow count",
            merge="sum",
        ).set(report.peak_flows)
        report.telemetry = ips.telemetry_snapshot()
        report.profile = stage_profile(tel)
    if ips.tracer.enabled:
        report.trace = ips.tracer.snapshot()
    return report


def run_conventional(
    ips: ConventionalIPS,
    trace: Iterable[TimedPacket],
    *,
    label: str = "conventional",
    sample_every: int = 200,
) -> RunReport:
    """Feed a trace through the conventional baseline, sampling peak state.

    Accepts any iterable (the packet loop is already streaming)."""
    report = RunReport(label=label)
    for index, packet in enumerate(trace):
        report.alerts.extend(ips.process(packet))
        if index % sample_every == 0:
            report.peak_state_bytes = max(report.peak_state_bytes, ips.state_bytes())
            report.peak_flows = max(report.peak_flows, ips.active_flows)
            ips.refresh_telemetry()
    report.peak_state_bytes = max(report.peak_state_bytes, ips.state_bytes())
    report.packets = ips.packets_processed
    report.payload_bytes = ips.bytes_normalized
    if ips.telemetry.enabled:
        report.telemetry = ips.telemetry_snapshot()
    return report


def state_bytes_ratio(report: RunReport) -> float:
    """Measured peak Split-Detect state over the conventional equivalent.

    The denominator is what a conventional IPS must hold for the same
    peak flow population (flow record + provisioned reassembly buffer
    per flow) -- the regime of the abstract's ~10%-state claim.
    """
    if not report.peak_flows:
        return 0.0
    conventional = report.peak_flows * (
        FLOW_OVERHEAD_BYTES + PROVISIONED_BUFFER_PER_FLOW
    )
    return report.peak_state_bytes / conventional


def state_per_flow(report: RunReport) -> float:
    """Average peak state per concurrently tracked flow."""
    return report.peak_state_bytes / report.peak_flows if report.peak_flows else 0.0


def extrapolate_state(per_flow_bytes: float, connections: int = 1_000_000) -> int:
    """Scale a per-flow footprint to the paper's 1M-connection standard."""
    return int(per_flow_bytes * connections)


def provisioned_conventional_state(connections: int = 1_000_000) -> int:
    """What a conventional IPS must *provision* per the 1M-connection
    requirement: flow record plus reassembly buffer per connection."""
    return connections * (FLOW_OVERHEAD_BYTES + PROVISIONED_BUFFER_PER_FLOW)


def provisioned_fastpath_state(connections: int = 1_000_000) -> int:
    """What the Split-Detect fast path provisions: two direction records."""
    return connections * 2 * FAST_FLOW_STATE_BYTES


def throughput_comparison(
    split_report: RunReport,
    conventional_report: RunReport,
    *,
    hardware: HardwareModel | None = None,
    connections: int = 1_000_000,
) -> list[CostReport]:
    """Figure 6's rows: conventional vs fast/slow/blended Split-Detect.

    State footprints use the provisioned 1M-connection figures (that is
    the regime the paper argues about); measured diversion fractions from
    the runs split the byte volume between the two paths.
    """
    hardware = hardware or HardwareModel()
    conv = conventional_cost(
        conventional_report.payload_bytes,
        max(conventional_report.packets, 1),
        provisioned_conventional_state(connections),
        hardware,
    )
    diverted_fraction = split_report.diverted_flows / max(split_report.peak_flows, 1)
    slow_connections = max(1, int(connections * min(1.0, diverted_fraction)))
    fast, slow, blended = split_detect_cost(
        split_report.fast_bytes,
        split_report.fast_packets,
        split_report.slow_bytes,
        split_report.slow_packets,
        provisioned_fastpath_state(connections),
        slow_connections * (FLOW_OVERHEAD_BYTES + PROVISIONED_BUFFER_PER_FLOW),
        hardware,
    )
    return [conv, fast, slow, blended]
