"""Baselines: the conventional IPS and the naive per-packet matcher.

``ConventionalIPS`` is the paradigm the paper breaks with: defragment,
reassemble, and normalize *every* flow, then stream-match every signature
over the canonical byte stream.  It detects all the evasions Split-Detect
does; the point of the comparison is its state and processing bill.

``NaivePacketIPS`` is the strawman Ptacek-Newsham attacks were aimed at:
per-packet matching with no reassembly at all.  It exists so the evasion
matrix (Table 3) can show exactly which attack classes defeat it.
"""

from __future__ import annotations

from time import perf_counter_ns

from ..match import DualStreamMatcher
from ..packet import (
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    FlowKey,
    TimedPacket,
    decode_tcp,
    decode_udp,
    flow_key_of,
)
from ..signatures import RuleSet
from ..streams import OverlapPolicy, StreamNormalizer
from ..telemetry import LATENCY_NS_BUCKETS, NULL_REGISTRY
from .alerts import Alert, AlertKind
from .matching import SignatureMatcher, StreamMatchState
from .slowpath import AMBIGUITY_EVENTS

#: Reassembly buffering a conventional IPS must provision per connection
#: (the paper's standards point: 1M connections, each able to buffer an
#: out-of-order window).  Used for extrapolation and for the live
#: state-ratio gauge, not for measurement.
PROVISIONED_BUFFER_PER_FLOW = 4096


def _signature_alert(hit, flow: FlowKey, timestamp: float, path: str = "slow") -> Alert:
    signature = hit.signature
    return Alert(AlertKind.SIGNATURE, flow, signature.sid, signature.msg, hit.end_offset, timestamp, path)


class ConventionalIPS:
    """Reassemble-and-normalize-everything signature detection."""

    def __init__(
        self,
        rules: RuleSet,
        *,
        policy: OverlapPolicy = OverlapPolicy.BSD,
        telemetry=None,
    ) -> None:
        self.normalizer = StreamNormalizer(policy=policy)
        self._matcher = SignatureMatcher(sorted(rules, key=lambda s: s.sid))
        self._streams: dict[FlowKey, StreamMatchState] = {}
        self.packets_processed = 0
        self.bytes_normalized = 0
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        tel = self.telemetry
        self._tel_on = tel.enabled
        self._c_packets = tel.counter(
            "repro_conventional_packets_total",
            "Packets through the conventional reassemble-everything pipeline",
        )
        self._c_bytes = tel.counter(
            "repro_conventional_normalized_bytes_total",
            "Reassembled-and-normalized stream bytes matched",
        )
        self._c_alerts = tel.counter(
            "repro_conventional_alerts_total", "Alerts raised"
        )
        self._c_evictions = tel.counter(
            "repro_conventional_evictions_total", "Idle flows reclaimed"
        )
        self._h_latency = tel.histogram(
            "repro_conventional_packet_latency_ns",
            "Full normalize+match pipeline latency per packet",
            buckets=LATENCY_NS_BUCKETS,
        )
        self._g_flows = tel.gauge(
            "repro_conventional_active_flows",
            "Flows holding reassembly state",
            merge="sum",
        )
        self._g_state = tel.gauge(
            "repro_conventional_state_bytes",
            "Reassembly buffers + flow table + matcher state "
            "(the numerator every-flow cost Split-Detect avoids)",
            merge="sum",
        )

    # -- accounting ------------------------------------------------------

    def state_bytes(self) -> int:
        """Reassembly buffers + flow table + per-direction matcher state."""
        return (
            self.normalizer.state_bytes()
            + len(self._streams) * DualStreamMatcher.STATE_BYTES
        )

    @property
    def active_flows(self) -> int:
        """Flows currently holding reassembly state."""
        return self.normalizer.active_flows

    def refresh_telemetry(self) -> None:
        """Sample the O(flows) gauges (called before snapshots, not inline)."""
        if not self._tel_on:
            return
        self._g_flows.set(self.active_flows)
        self._g_state.set(self.state_bytes())

    def telemetry_snapshot(self) -> dict:
        """Refresh the gauges, then return the registry snapshot."""
        self.refresh_telemetry()
        return self.telemetry.snapshot()

    # -- packet intake ------------------------------------------------------

    def process(self, packet: TimedPacket) -> list[Alert]:
        """Normalize one packet and match signatures over new stream bytes."""
        if not self._tel_on:
            return self._process(packet)
        t0 = perf_counter_ns()
        alerts = self._process(packet)
        self._h_latency.observe(perf_counter_ns() - t0)
        self._c_packets.inc()
        if alerts:
            self._c_alerts.inc(len(alerts))
        return alerts

    def _process(self, packet: TimedPacket) -> list[Alert]:
        self.packets_processed += 1
        output = self.normalizer.process(packet)
        alerts: list[Alert] = []
        flow = output.flow
        if flow is None:
            return alerts
        for record in output.events:
            if record.event in AMBIGUITY_EVENTS:
                alerts.append(
                    Alert(AlertKind.AMBIGUITY, flow, None, str(record), record.offset, packet.timestamp)
                )
        if not self._matcher.empty:
            for chunk in output.chunks:
                self.bytes_normalized += len(chunk)
                if self._tel_on:
                    self._c_bytes.inc(len(chunk))
                state = self._streams.get(flow)
                if state is None:
                    state = self._matcher.new_stream_state()
                    self._streams[flow] = state
                alerts.extend(
                    _signature_alert(hit, flow, packet.timestamp)
                    for hit in self._matcher.match_chunk(state, chunk, flow)
                )
            payload = output.datagram
            if payload:
                self.bytes_normalized += len(payload)
                if self._tel_on:
                    self._c_bytes.inc(len(payload))
                alerts.extend(
                    _signature_alert(hit, flow, packet.timestamp)
                    for hit in self._matcher.match_buffer(payload, flow)
                )
        if output.flow_closed:
            self._streams.pop(flow, None)
            self._streams.pop(flow.reversed(), None)
        return alerts

    def process_batch(self, packets: list[TimedPacket]) -> list[Alert]:
        """Batch driver for the conventional pipeline.

        Reassembly is order-dependent per flow, so this is a plain
        sequential sweep -- it exists so every engine exposes the same
        batched intake surface as :class:`SplitDetectIPS.process_batch`.
        """
        return [alert for packet in packets for alert in self.process(packet)]

    def evict_idle(self, now: float) -> int:
        """Expire idle flows and their matcher state."""
        evicted = self.normalizer.evict_idle(now)
        if evicted:
            live = self.normalizer.live_flows()
            for key in list(self._streams):
                if key.canonical() not in live:
                    del self._streams[key]
            if self._tel_on:
                self._c_evictions.inc(evicted)
        return evicted


class NaivePacketIPS:
    """Per-packet matching with no reassembly: the evadable strawman."""

    def __init__(self, rules: RuleSet, *, telemetry=None) -> None:
        self._matcher = SignatureMatcher(sorted(rules, key=lambda s: s.sid))
        self.packets_processed = 0
        self.bytes_scanned = 0
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        tel = self.telemetry
        self._tel_on = tel.enabled
        self._c_packets = tel.counter(
            "repro_naive_packets_total", "Packets scanned per-packet (no reassembly)"
        )
        self._c_bytes = tel.counter(
            "repro_naive_scanned_bytes_total", "Payload bytes scanned"
        )
        self._c_alerts = tel.counter("repro_naive_alerts_total", "Alerts raised")

    def state_bytes(self) -> int:
        """The whole point: nothing per flow."""
        return 0

    def refresh_telemetry(self) -> None:
        """No gauges to sample (the naive matcher keeps no state)."""

    def telemetry_snapshot(self) -> dict:
        return self.telemetry.snapshot()

    def process(self, packet: TimedPacket) -> list[Alert]:
        """Scan one packet's transport payload in isolation (a batch of one)."""
        return self.process_batch([packet])

    def process_batch(self, packets: list[TimedPacket]) -> list[Alert]:
        """Batched per-packet matching: one automaton sweep for the whole
        batch (each payload is stateless, so the sweep is exact)."""
        scannable: list[tuple[TimedPacket, FlowKey, bytes]] = []
        for packet in packets:
            self.packets_processed += 1
            ip = packet.ip
            if ip.is_fragment or self._matcher.empty:
                continue
            try:
                if ip.protocol == IP_PROTO_TCP:
                    payload = decode_tcp(ip).payload
                elif ip.protocol == IP_PROTO_UDP:
                    payload = decode_udp(ip).payload
                else:
                    continue
            except Exception:
                continue
            if not payload:
                continue
            self.bytes_scanned += len(payload)
            scannable.append((packet, flow_key_of(ip), payload))
        alerts: list[Alert] = []
        hit_lists = self._matcher.match_buffer_many(
            [payload for _, _, payload in scannable],
            [flow for _, flow, _ in scannable],
        )
        for (packet, flow, _), hits in zip(scannable, hit_lists):
            alerts += [_signature_alert(hit, flow, packet.timestamp, "fast") for hit in hits]
        if self._tel_on:
            self._c_packets.inc(len(packets))
            self._c_bytes.inc(sum(len(p) for _, _, p in scannable))
            if alerts:
                self._c_alerts.inc(len(alerts))
        return alerts
