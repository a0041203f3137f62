"""Flow-table normalizer: defragment, reassemble, and canonicalize traffic.

This is the substrate a conventional IPS is built on (Handley-Paxson
style): every packet is defragmented at the IP layer, every TCP flow is
reassembled per direction, and downstream consumers (the signature
matcher) see only the canonical in-order byte stream -- exactly one
interpretation of every ambiguity, resolved by the configured policy.

The normalizer also owns flow lifecycle: flows are created on first
packet, torn down on RST or on FIN in both directions, and evicted after
an idle timeout, so its state footprint is measurable and realistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

from ..packet import FlowKey, TimedPacket, flow_key_of, packet_fields, transport_fields
from ..packet.ip import IP_PROTO_TCP
from ..packet.tcp import TCP_FIN, TCP_RST, TCP_SYN
from .defrag import IpDefragmenter
from .events import StreamEvent, StreamEventRecord
from .policies import OverlapPolicy
from .reassembly import TcpReassembler

DEFAULT_IDLE_TIMEOUT = 300.0

#: Fixed bookkeeping bytes a real implementation spends per flow entry
#: (hash-table entry, two reassembler control blocks, timers).  Used by the
#: state accounting; the paper's comparison counts control state as well as
#: buffered payload.
FLOW_OVERHEAD_BYTES = 240

#: A segment with any of these flags is handled alone, never joined.
ALONE_FLAGS = TCP_SYN | TCP_FIN | TCP_RST

_timestamp = itemgetter(1)  # of a ``feed`` row


@dataclass
class NormalizedOutput:
    """Everything the normalizer derived from one run of packets."""

    flow: FlowKey | None = None  # the last decoded row's (a fragment: its datagram's)
    rows: list[tuple] = field(default_factory=list)  # a fragment: its datagram's row
    chunks: list[bytes] = field(default_factory=list)
    """Newly in-order payload bytes, per direction in delivery order."""

    # Per chunk: the positions in ``rows`` of its bytes' rows, and their ends in it.
    marks: list[tuple[list[int], list[int]]] = field(default_factory=list)

    events: list[StreamEventRecord] = field(default_factory=list)
    event_rows: list[int] = field(default_factory=list)  # per event: its row's position

    flow_closed: bool = False
    datagram: bytes | None = None
    """A complete (defragmented) UDP datagram's payload, passed through
    for the caller to inspect -- UDP signature matching is downstream."""


@dataclass
class _FlowState:
    """Both directions of one TCP conversation."""

    directions: dict[FlowKey, TcpReassembler] = field(default_factory=dict)
    last_seen: float = 0.0
    finished: set[FlowKey] = field(default_factory=set)
    ttl_seen: int | None = None
    fin_seen: bool = False


class StreamNormalizer:
    """Defragments and reassembles a packet stream into canonical bytes."""

    def __init__(
        self,
        *,
        policy: OverlapPolicy = OverlapPolicy.BSD,
        tiny_segment_threshold: int = 0,
        tiny_fragment_threshold: int = 0,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        ttl_check: bool = True,
        reassembler_kwargs: dict | None = None,
    ) -> None:
        self.policy = policy
        self.tiny_segment_threshold = tiny_segment_threshold
        self.idle_timeout = idle_timeout
        self.ttl_check = ttl_check
        self._reassembler_kwargs = dict(reassembler_kwargs or {})
        self.defragmenter = IpDefragmenter(
            policy=policy, tiny_threshold=tiny_fragment_threshold
        )
        self._flows: dict[FlowKey, _FlowState] = {}
        self._start_hints: dict[FlowKey, int] = {}
        self._buffered = 0  # running sum of every reassembler's buffered_bytes
        self.flows_created = 0
        self.flows_closed = 0

    def hint_stream_start(self, direction: FlowKey, first_byte_seq: int) -> None:
        """Pin where ``direction``'s stream begins, for midstream pickup.

        Split-Detect uses this at diversion time: the fast path knows how
        far in-order delivery progressed (its expected sequence number),
        and the slow path must anchor its reassembled stream there so
        out-of-order data below the diverting packet is not mistaken for
        retransmission.  Must be called before the direction's first
        segment is processed; later hints are ignored.  A flow's hints
        die with it (close, release, idle eviction), so a later
        connection on the same five-tuple is anchored afresh.
        """
        self._start_hints.setdefault(direction, first_byte_seq)

    # -- accounting ------------------------------------------------------

    @property
    def active_flows(self) -> int:
        """Flows currently tracked (both directions count as one)."""
        return len(self._flows)

    @property
    def buffered_bytes(self) -> int:
        """Payload bytes currently parked in reassembly buffers (running
        counters at both layers: O(1), whatever the flow count)."""
        return self.defragmenter.buffered_bytes + self._buffered

    def state_bytes(self) -> int:
        """Total state footprint: fixed per-flow overhead plus buffers."""
        return len(self._flows) * FLOW_OVERHEAD_BYTES + self.buffered_bytes

    # -- packet intake ------------------------------------------------------

    def process(self, packet: TimedPacket) -> NormalizedOutput:
        """Feed one packet object (decoded here, then :meth:`feed`)."""
        canonical, row, fragment = packet_fields(packet)
        return self.feed(canonical, [row], fragment)

    def open_ended(self, canonical: FlowKey) -> bool:
        """Tracked, with no FIN seen: no segment without SYN / FIN / RST
        can close it, so a run of those cannot close it partway."""
        state = self._flows.get(canonical)
        return state is not None and not state.fin_seen

    def feed(self, canonical, rows, fragment=None) -> NormalizedOutput:
        """Feed one run of one flow's packets; returns canonical bytes and
        anomaly events, each marked with its rows.  ``rows`` are ``(flow,
        ts, ttl, seq, flags, payload)`` in arrival order (``payload`` None:
        the header did not decode; no view is retained).  A fragment is a
        run of one with no flow, its IP payload and ``fragment_header``.

        Data segments that continue their direction's stream exactly (same
        TTL class, no SYN / FIN / RST, ``TcpReassembler.in_order_seq``) are
        joined and added as one segment; a pure ACK after delivered bytes is
        a no-op; any other row is handled alone once the joins are added.  A
        run must not close its flow before its last row (:meth:`open_ended`)."""
        output = NormalizedOutput(rows=rows)
        if fragment is not None:
            ((_, ts, ttl, _, _, payload),) = rows
            defrag = self.defragmenter.add_fragment(fragment, payload, ts, ttl)
            output.events.extend(defrag.events)
            output.event_rows.extend([0] * len(defrag.events))
            ip = defrag.packet
            if ip is None:
                return output
            flow = flow_key_of(ip)
            canonical = flow.canonical()
            output.rows = rows = [(flow, ts, ip.ttl, *transport_fields(ip))]
        state = self._flows.get(canonical) if len(rows) > 1 else None  # one row: alone
        joins: dict[FlowKey, list] = {}  # direction -> [reassembler, next seq, bytes, payloads, rows]
        tiny = self.tiny_segment_threshold
        for pos, (flow, ts, ttl, seq, flags, payload) in enumerate(rows):
            if (
                state is not None
                and payload is not None
                and not flags & ALONE_FLAGS
                and (reassembler := state.directions.get(flow)) is not None
                and (state.ttl_seen is None or -5 <= ttl - state.ttl_seen <= 5)
            ):
                size = len(payload)
                join = joins.get(flow) or [reassembler, reassembler.in_order_seq(), 0, [], []]
                # A pure ACK is a no-op once its direction delivered bytes
                # (before, it may still move the stream's origin down).
                if (size == 0 and reassembler.delivered_total) or (
                    size and seq == join[1] and tiny <= size <= reassembler.max_buffered - join[2]
                ):
                    if size:
                        joins[flow] = join
                        join[1] = (seq + size) & 0xFFFFFFFF
                        join[2] += size
                        join[3].append(payload)
                        join[4].append(pos)
                    state.last_seen = ts
                    output.flow = flow
                    continue
            if joins:
                self._add_joined(output, joins)
            self._feed_row(output, pos, flow, canonical, ts, ttl, seq, flags, payload)
            state = self._flows.get(canonical)
        if joins:
            self._add_joined(output, joins)
        if fragment is None:
            # Expiry reads only the clock and no run row defragments.
            self.defragmenter.expire(max(map(_timestamp, rows)))
        return output

    @staticmethod
    def _add_joined(output: NormalizedOutput, joins: dict[FlowKey, list]) -> None:
        for reassembler, _, _, payloads, positions in joins.values():
            first = output.rows[positions[0]][3]  # the first joined segment's seq
            output.chunks.append(reassembler.add(first, b"".join(payloads)).delivered)
            output.marks.append((positions, list(accumulate(map(len, payloads)))))
        joins.clear()

    def _feed_row(self, output, pos, flow, canonical, ts, ttl, seq, flags, payload) -> None:
        """Handle one row alone (see :meth:`feed`)."""
        if flow.protocol != IP_PROTO_TCP:
            output.flow = flow
            output.datagram = None if payload is None else bytes(payload)
            return
        if payload is None:
            # Undecodable transport headers are not this layer's problem;
            # the IPS treats them as anomalies elsewhere.
            return
        output.flow = flow
        state = self._flows.get(canonical)
        if state is None:
            state = _FlowState(last_seen=ts)
            self._flows[canonical] = state
            self.flows_created += 1
        state.last_seen = ts
        if self.ttl_check:
            if state.ttl_seen is None:
                state.ttl_seen = ttl
            elif abs(ttl - state.ttl_seen) > 5:
                output.events.append(
                    StreamEventRecord(
                        StreamEvent.TTL_ANOMALY, 0, detail=f"{state.ttl_seen}->{ttl}"
                    )
                )
                output.event_rows.append(pos)
        if flags & TCP_RST:
            self._close(canonical)
            output.flow_closed = True
            return
        state.fin_seen |= bool(flags & TCP_FIN)
        reassembler = state.directions.get(flow)
        if reassembler is None:
            reassembler = TcpReassembler(
                policy=self.policy,
                tiny_threshold=self.tiny_segment_threshold,
                first_byte_seq=self._start_hints.pop(flow, None),
                **self._reassembler_kwargs,
            )
            state.directions[flow] = reassembler
        parked = reassembler.buffered_bytes
        result = reassembler.add(
            seq, payload, syn=bool(flags & TCP_SYN), fin=bool(flags & TCP_FIN)
        )
        self._buffered += reassembler.buffered_bytes - parked
        output.events.extend(result.events)
        output.event_rows.extend([pos] * len(result.events))
        if result.delivered:
            output.chunks.append(result.delivered)
            output.marks.append(([pos], [len(result.delivered)]))
        if result.finished:
            state.finished.add(flow)
            if len(state.finished) == 2:
                self._close(canonical)
                output.flow_closed = True

    def live_flows(self) -> set[FlowKey]:
        """Canonical keys of every currently tracked flow (a fresh set)."""
        return set(self._flows)

    def is_live(self, canonical: FlowKey) -> bool:
        """Whether one canonical flow key is tracked; O(1), per packet."""
        return canonical in self._flows

    def buffered_bytes_for(self, key: FlowKey) -> int:
        """Out-of-order bytes currently parked for one flow (canonical key)."""
        state = self._flows.get(key.canonical())
        if state is None:
            return 0
        return sum(r.buffered_bytes for r in state.directions.values())

    def stream_positions(self, key: FlowKey) -> dict[FlowKey, int]:
        """Next expected absolute sequence number per direction of a flow."""
        state = self._flows.get(key.canonical())
        if state is None:
            return {}
        out: dict[FlowKey, int] = {}
        for direction, reassembler in state.directions.items():
            expected = reassembler.expected_seq
            if expected is not None:
                out[direction] = expected
        return out

    def release(self, key: FlowKey) -> None:
        """Drop all state for one flow (canonical key) without closing it."""
        self._close(key.canonical())

    def evict_idle(self, now: float) -> int:
        """Drop flows idle past the timeout; returns how many were evicted."""
        stale = [
            key
            for key, state in self._flows.items()
            if now - state.last_seen > self.idle_timeout
        ]
        for key in stale:
            self._close(key)
        # A hint whose flow never sent (or is gone) must not anchor a
        # later connection on the same five-tuple.
        for direction in [d for d in self._start_hints if d.canonical() not in self._flows]:
            del self._start_hints[direction]
        return len(stale)

    def _close(self, key: FlowKey) -> None:
        self._start_hints.pop(key, None)
        self._start_hints.pop(key.reversed(), None)
        state = self._flows.pop(key, None)
        if state is not None:
            self._buffered -= sum(r.buffered_bytes for r in state.directions.values())
            self.flows_closed += 1
