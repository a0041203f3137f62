"""The Split-Detect fast path: per-packet piece matching + anomaly monitor.

The fast path never reassembles and never buffers payload.  Per flow
direction it keeps only an expected sequence number and a flag byte --
:data:`FAST_FLOW_STATE_BYTES` bytes in a hardware implementation -- and
per packet it does exactly one automaton scan over the payload.  Every
transport behaviour that could hide a signature from per-packet matching
(small segments, reordering, retransmission/overlap, IP fragments) causes
the flow to be *diverted*; the detection theorem guarantees this covers
all byte-string evasions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..match import DualAutomaton
from ..telemetry import NULL_REGISTRY, NULL_TRACER, SIZE_BYTES_BUCKETS
from ..packet import (
    IP_PROTO_TCP,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    FlowKey,
    FlowTuple,
    flow_of_tuple,
    ip_u32_to_str,
    seq_add,
    seq_diff,
    tuple_of_flow,
)
from ..signatures import Piece, Signature, SplitRuleSet
from .alerts import Alert, AlertKind, DivertReason
from .sketch import SketchBackend
from .state import (
    FAST_FLOW_STATE_BYTES,
    DictBackend,
    FlowState,
    StateBackend,
    TableBackend,
)

__all__ = [
    "FAST_FLOW_STATE_BYTES",
    "FASTPATH_IDLE_TIMEOUT",
    "FastPath",
    "FastPathConfig",
    "FastPathResult",
]


@dataclass(frozen=True)
class FastPathConfig:
    """Fast-path behaviour knobs (the ablation surface of Table 8)."""

    check_tiny: bool = True
    """Divert flows sending non-final data segments below the threshold."""

    check_order: bool = True
    """Divert flows sending data out of order or re-sending delivered data."""

    divert_fragments: bool = True
    """Divert flows that use IP fragmentation at all."""

    min_ttl: int = 8
    """Divert data packets whose TTL is below this floor (Handley-Paxson):
    such a packet may expire between the IPS and the protected host, the
    delivery trick insertion attacks rely on.  The deployment assumption
    is that every protected host is fewer than ``min_ttl`` hops behind
    the IPS.  0 disables the check."""

    scan_whole_signatures: bool = True
    """Also match complete split signatures per packet, so an occurrence
    wholly inside one packet is confirmed immediately (no slow-path round
    trip) even when the packet is about to be dropped from slow-path view
    as pre-diversion retransmitted data."""

    threshold_override: int | None = None
    """Replace the ruleset-derived small-packet threshold B (testing only)."""

    table_buckets: int | None = None
    """Table backend: bucket count (power of two; 1024 when unset) of
    the fixed set-associative :class:`~repro.core.flowtable.FlowTable`
    -- the hardware-faithful configuration.  Evicted flows restart in
    midstream-pickup mode."""

    table_ways: int = 4
    """Associativity of the fixed flow table."""

    state_backend: str = "dict"
    """Where per-flow monitor records live: ``dict`` (unbounded exact
    map), ``table`` (the fixed set-associative flow table), or
    ``sketch`` (cold slots + count-min anomaly sketch + exact hot set --
    the 1M-flow configuration).  This is the only selector: a
    ``table_buckets`` given with any backend but ``table`` is an error."""

    sketch_slots: int = 1 << 17
    """Sketch backend: cold-slot count (power of two)."""

    sketch_hot_capacity: int = 4096
    """Sketch backend: exact hot-set capacity (entries)."""

    sketch_width: int = 1 << 14
    """Sketch backend: count-min width (counters per row, power of two)."""

    sketch_depth: int = 4
    """Sketch backend: count-min rows."""

    sketch_promote_threshold: int = 1
    """Sketch backend: anomaly-count estimate at which a flow earns an
    exact hot-set entry (1 == promoted on first anomaly)."""


def _flow_key_bytes(key: FlowTuple) -> bytes:
    """Serialize a five-tuple for the hardware hash unit: the rendered
    ``src|dst|sport|dport|proto`` of the :class:`FlowKey` it names, so
    table buckets and sketch slots are those a FlowKey would hash to."""
    src, dst, sport, dport, proto = key
    return f"{ip_u32_to_str(src)}|{ip_u32_to_str(dst)}|{sport}|{dport}|{proto}".encode()


#: A ruleset's read-only fast-path tables: threshold B, the entry table
#: (what each automaton pattern id stands for) and the piece automaton.
PieceTables = tuple[int, tuple[Piece | Signature, ...], DualAutomaton | None]


def compile_pieces(split_rules: SplitRuleSet, config: FastPathConfig) -> PieceTables:
    """One automaton over every piece and unsplittable signature (matched whole per packet),
    whole split signatures if configured, and the UDP signatures (no stream to split)."""
    entries: list[Piece | Signature] = list(split_rules.all_pieces())
    entries.extend(split_rules.unsplittable)
    if config.scan_whole_signatures:
        entries.extend(split_rules.splits[sid].signature for sid in sorted(split_rules.splits))
    entries.extend(split_rules.udp_whole)
    patterns = [
        (entry.signature.fold(entry.data), entry.signature.nocase)
        if isinstance(entry, Piece)
        else (entry.pattern, entry.nocase)
        for entry in entries
    ]
    override = config.threshold_override
    threshold = split_rules.small_packet_threshold if override is None else override
    return threshold, tuple(entries), DualAutomaton(patterns) if patterns else None


#: How long a monitor entry may sit idle before :meth:`FastPath.evict_idle`
#: reclaims it (matches the slow path's normalizer default).
FASTPATH_IDLE_TIMEOUT = 300.0


@dataclass
class FastPathResult:
    """Outcome of one packet through the fast path (built only for a
    packet that alerts or diverts; a piece hit in context diverts)."""

    divert: DivertReason | None = None
    alerts: list[Alert] = field(default_factory=list)
    piece_hits: list[Piece] = field(default_factory=list)
    detail: str = ""
    flow_expected_seq: int | None = None
    """The monitor's expected sequence number for this packet's direction,
    snapshotted *before* this packet advanced it -- i.e. where in-order
    delivery stood when the divert decision was made.  The engine anchors
    the slow path's stream here."""


class FastPath:
    """Stateless-per-packet matcher with a minimal per-flow monitor.

    One fast path: :meth:`process_columns` decides every rule, on
    scalars, for every row of the engine's one batch route.
    """

    def __init__(
        self,
        split_rules: SplitRuleSet,
        config: FastPathConfig | None = None,
        *,
        telemetry=None,
        tracer=None,
        tables: PieceTables | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_enabled = self.tracer.enabled
        self.config = config or FastPathConfig()
        self.rules_generation = 0
        """How many :meth:`swap_rules` reloads this path has absorbed."""
        self._install(split_rules, tables or compile_pieces(split_rules, self.config))
        backend = self.config.state_backend
        if self.config.table_buckets is not None and backend != "table":
            raise ValueError(
                f"table_buckets is set but state_backend is {backend!r}, not 'table'"
            )
        if backend == "dict":
            self._flows: StateBackend = DictBackend()
        elif backend == "table":
            self._flows = TableBackend(
                self.config.table_buckets or 1024,
                self.config.table_ways,
                key_bytes=_flow_key_bytes,
            )
        elif backend == "sketch":
            self._flows = SketchBackend(
                self.config.sketch_slots,
                self.config.sketch_hot_capacity,
                width=self.config.sketch_width,
                depth=self.config.sketch_depth,
                promote_threshold=self.config.sketch_promote_threshold,
                key_bytes=_flow_key_bytes,
            )
        else:
            raise ValueError(f"unknown state backend: {backend!r}")
        # Counters the evaluation reads; the engine publishes them (and
        # the monitor occupancy) to the registry (SplitDetectIPS._publish).
        self.packets_processed = 0
        self.bytes_scanned = 0
        # Telemetry with no plain home (anomaly causes, payload sizes,
        # evictions): bound once here, observed behind ``_tel_on`` so a
        # disabled run never pays more than the boolean check.
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        tel = self.telemetry
        self._tel_on = tel.enabled
        anomaly = tel.counter(
            "repro_fastpath_anomaly_total",
            "Fast-path anomaly triggers by cause (per triggering packet)",
            ("cause",),
        )
        self._c_anomaly = {
            reason: anomaly.labels(cause=reason.value) for reason in DivertReason
        }
        piece_hits = tel.counter(
            "repro_fastpath_piece_hits_total",
            "Fast-path piece hits on applicable signatures, by R5 verdict",
            ("verdict",),
        )
        self._c_piece_divert = piece_hits.labels(verdict="divert")
        self._c_piece_out = piece_hits.labels(verdict="out_of_context")
        self._h_payload = tel.histogram(
            "repro_fastpath_payload_bytes",
            "Scanned payload size distribution",
            buckets=SIZE_BYTES_BUCKETS,
        )
        self._c_evictions = tel.counter(
            "repro_fastpath_monitor_evictions_total",
            "Monitor entries reclaimed, by mechanism",
            ("kind",),
        )
        self._c_evict_idle = self._c_evictions.labels(kind="idle")
        self._g_state = tel.gauge(
            "repro_fastpath_state_bytes",
            "Fast-path per-flow state footprint (provisioned when fixed-table)",
            merge="sum",
        )
        self._g_table_evictions = tel.gauge(
            "repro_fastpath_table_evictions",
            "Fixed flow-table evictions so far (0 when unbounded)",
            merge="sum",
        )

    def _install(self, split_rules: SplitRuleSet, tables: PieceTables) -> None:
        """Take a ruleset's tables, whose automaton counts for this path alone
        (at construction and :meth:`swap_rules`; never touches the monitor)."""
        self.split_rules = split_rules
        self.threshold, self._entries, self.automaton = tables

    def swap_rules(self, split_rules: SplitRuleSet, tables: PieceTables) -> None:
        """Hot-swap the compiled piece set (``tables``, compiled for
        ``split_rules``), keeping the flow monitor.

        Every per-flow monitor entry (expected sequence numbers, idle
        clocks, sketch counters) survives untouched -- the monitor's
        anomaly checks are ruleset-independent except for the small-packet
        threshold B, which is recompiled here.  Must be called between
        batches: the engine's per-batch prescan hit lists index into the
        entry table they were produced against, so callers (the shard
        processors) apply swaps only at batch boundaries.
        """
        self._install(split_rules, tables)
        self.rules_generation += 1

    # -- accounting ------------------------------------------------------

    @property
    def tracked_flows(self) -> int:
        """Flow directions currently occupying monitor entries."""
        return len(self._flows)

    def state_bytes(self) -> int:
        """Fast-path per-flow state footprint (excludes the shared automaton).

        Occupied entries for the unbounded dict; full *provisioned*
        capacity for the fixed-size backends (table, sketch), as a
        hardware design would count it.
        """
        return self._flows.provisioned_bytes()

    @property
    def table_evictions(self) -> int:
        """Records lost to capacity: bucket-LRU evictions for the fixed
        table, cold-slot recycles for the sketch, 0 when unbounded."""
        return self._flows.table_evictions

    def sketch_snapshot(self):
        """Copy of the anomaly count-min sketch (None for exact backends).

        The sharded runtime attaches this to each worker's final report
        and folds the copies bucket-wise into one merged sketch."""
        return self._flows.sketch_snapshot()

    def refresh_telemetry(self) -> None:
        """Sample the point-in-time gauges (state, AC stats).

        Gauges that would cost O(flows) per packet are sampled here
        instead of inline; callers (the run harness, the CLI exporter)
        invoke this right before taking a snapshot.
        """
        if not self._tel_on:
            return
        self._g_state.set(self.state_bytes())
        self._g_table_evictions.set(self.table_evictions)
        if isinstance(self._flows, SketchBackend):
            tel = self.telemetry
            tel.gauge(
                "repro_fastpath_sketch_hot_entries",
                "Exact hot-set entries in the sketch backend",
                merge="sum",
            ).set(self._flows.hot_entries)
            tel.gauge(
                "repro_fastpath_sketch_cold_entries",
                "Occupied cold slots in the sketch backend",
                merge="sum",
            ).set(self._flows.cold_entries)
            tel.gauge(
                "repro_fastpath_sketch_promotions",
                "Cold-to-hot promotions (sketch crossed the anomaly threshold)",
                merge="sum",
            ).set(self._flows.promotions)
            tel.gauge(
                "repro_fastpath_sketch_demotions",
                "Hot-to-cold demotions (idle sweep or hot-set overflow)",
                merge="sum",
            ).set(self._flows.demotions)
        if self.automaton is not None:
            stats = self.automaton.scan_stats()
            tel = self.telemetry
            tel.gauge(
                "repro_match_scans",
                "Automaton scan calls (fast-path piece automaton)",
                merge="sum",
            ).set(stats["scans"])
            tel.gauge(
                "repro_match_scanned_bytes",
                "Bytes the piece automaton actually stepped or prefiltered",
                merge="sum",
            ).set(stats["scanned_bytes"])
            tel.gauge(
                "repro_match_matches_emitted",
                "Raw automaton match tuples emitted",
                merge="sum",
            ).set(stats["matches_emitted"])
            tel.gauge(
                "repro_match_prefilter_skip_rate",
                "Fraction of scans the first-byte prefilter proved match-free",
                merge="max",
            ).set(stats["prefilter_skip_rate"])

    # -- packet intake ------------------------------------------------------

    def process_columns(
        self,
        key: FlowTuple,
        hits: list[tuple[int, int]] | None,
        proto: int,
        plen: int,
        flags: int,
        ttl: int,
        seq: int,
        ts: float,
        payload: bytes | memoryview | None = None,
    ) -> FastPathResult | None:
        """The fast path for one decoded, unfragmented TCP/UDP packet.

        Scalars in, verdict out: the batch loop passes a row's column
        values (it already holds the column arrays as locals).  ``key``
        is the packet's numeric five-tuple, the monitor's state key (a
        :class:`FlowKey` is built from it only to resolve a hit;
        the tracer names its spans from its own cache).  This is the one
        function where THEORY.md's rules R4 (TTL floor), R1 (size), R2
        (order) and R5 (piece) are decided and the only one that
        advances or retires a monitor record: TTL floor, one ``get``,
        size/order check, advance in place (a ``put`` for a new record,
        or where the backend needs the write-back), hit resolution,
        anomaly bookkeeping, RST/FIN teardown.  ``hits`` are the
        automaton's matches for this payload (``None`` or empty:
        none); ``payload`` is read only when ``hits`` is non-empty, to
        confirm whole signatures and to check each piece hit against
        its own signature's bytes around it (R5 diverts only on a piece
        in context).

        Returns ``None`` for the clean majority -- nothing is allocated
        for a packet that neither alerts nor diverts -- and a
        :class:`FastPathResult` for the rest.
        """
        self.packets_processed += 1
        result: FastPathResult | None = None
        expected: int | None = None
        tcp = proto == IP_PROTO_TCP
        if tcp:
            config = self.config
            syn = flags & TCP_SYN
            fin = 1 if flags & TCP_FIN else 0
            if config.min_ttl and plen and ttl < config.min_ttl:
                result = FastPathResult(
                    divert=DivertReason.TTL_FLOOR,
                    detail=f"ttl={ttl} < floor={config.min_ttl}",
                )
            flows = self._flows
            state = flows.get(key)
            found = state is not None
            if not found and (syn or plen):
                # (A pure ACK carries no stream evidence worth monitoring;
                # an entry for it would let the final ACK of a FIN
                # handshake resurrect an already-closed direction.)
                state = FlowState()
            if state is not None:
                state.last_seen = ts
                expected = state.expected_seq
                if syn:
                    state.expected_seq = seq_add(seq, plen + 1 + fin)
                elif plen:
                    if (
                        result is None
                        and config.check_tiny
                        and not fin
                        and plen < self.threshold
                    ):
                        result = FastPathResult(
                            divert=DivertReason.TINY_SEGMENT,
                            detail=f"{plen} < B={self.threshold}",
                        )
                    if expected is not None and config.check_order and seq != expected:
                        # Not delivered in order: the record stays where
                        # in-order delivery stopped.
                        if result is None:
                            ahead = seq_diff(seq, expected) > 0
                            result = FastPathResult(
                                divert=DivertReason.OUT_OF_ORDER
                                if ahead
                                else DivertReason.RETRANSMISSION,
                                detail=f"seq={seq} expected={expected}",
                            )
                    else:
                        # In order, midstream pickup, or order check off.
                        state.expected_seq = seq_add(seq, plen + fin)
                # Write-back: inserts a new record; for a found one, the
                # LRU position ``get`` already granted for the table and
                # the only persistence point for the sketch's cold slots.
                # The dict's ``get`` returned the stored record: done.
                if not (found and flows.updates_in_place):
                    flows.put(key, state)
        if plen and self.automaton is not None:
            self.bytes_scanned += plen
            if self._tel_on:
                self._h_payload.observe(plen)
            if hits:
                result = self._resolve_hits(key, hits, payload, ts, result)
        if result is not None:
            # Snapshotted before this packet advanced it: where in-order
            # delivery stood when the decision was made.
            result.flow_expected_seq = expected
            if self._tel_on and result.divert is not None:
                self._c_anomaly[result.divert].inc()
        if tcp:
            if result is not None:
                if result.divert is not None:
                    # Feed the per-flow anomaly counters: the sketch backend's
                    # promotion signal (exact backends ignore this).
                    self._flows.record_anomaly(key)
                if self._trace_enabled:
                    if result.divert is not None:
                        # The detail string carries the expected/observed
                        # seq pair (or the ttl/size bound).
                        self.tracer.record(
                            key,
                            "fast",
                            "anomaly",
                            ts,
                            force=True,
                            cause=result.divert.value,
                            detail=result.detail,
                        )
                    if result.piece_hits:
                        self.tracer.record(
                            key,
                            "fast",
                            "piece_hit",
                            ts,
                            force=True,
                            pieces=len(result.piece_hits),
                            sids=sorted({p.signature.sid for p in result.piece_hits}),
                        )
            if flags & TCP_RST:
                # A reset tears down the whole connection: retire the monitor
                # entries for *both* directions, or the reverse one lives on
                # forever in the unbounded-table configuration.
                self._flows.pop(key, None)
                self._flows.pop((key[1], key[0], key[3], key[2], key[4]), None)
            elif fin:
                # A FIN only half-closes: the sender is done sending, so only
                # the sender's direction entry is retired; the reverse
                # direction keeps its monitor until its own FIN or RST.
                self._flows.pop(key, None)
        return result

    # benchmarks/pipeline/spans.py wraps this name; ROADMAP item 12(c) drops it.
    process = process_columns

    def expected_seq(self, flow: FlowKey) -> int | None:
        """The monitor's next expected sequence number for one direction.

        Handed to the slow path at diversion time so its reassembled
        stream starts exactly where in-order fast-path delivery stopped.
        This is a passive probe -- the flow did not just send a packet --
        so it reads via :meth:`~repro.core.state.StateBackend.peek` and
        leaves LRU order and hit/miss accounting untouched.
        """
        state = self._flows.peek(tuple_of_flow(flow))
        return state.expected_seq if state else None

    def seed_flow(self, flow: FlowKey, expected_seq: int, now: float = 0.0) -> None:
        """Prime the monitor with a known stream position (used when a
        probationed flow returns from the slow path).

        ``now`` stamps the entry's ``last_seen``; without it a re-seeded
        flow looks 300+ seconds idle and the very next
        :meth:`evict_idle` sweep reclaims it before the flow sends
        another packet."""
        self._flows.put(tuple_of_flow(flow), FlowState(expected_seq, now))

    def forget_flow(self, flow: FlowKey) -> None:
        """Drop monitor state for both directions (called after diversion)."""
        key = tuple_of_flow(flow)
        self._flows.pop(key, None)
        self._flows.pop((key[1], key[0], key[3], key[2], key[4]), None)

    def evict_idle(
        self, now: float, idle_timeout: float = FASTPATH_IDLE_TIMEOUT
    ) -> int:
        """Reclaim monitor entries idle past the timeout; returns the count.

        Dead flows that never said goodbye (no FIN/RST seen, half-open
        scans, one-sided traffic) otherwise pin entries forever in the
        unbounded-dict configuration.  The sketch backend *demotes* idle
        hot flows to cold slots instead of dropping them."""
        count = self._flows.evict_idle(now, idle_timeout)
        if count and self._tel_on:
            self._c_evict_idle.inc(count)
        return count

    def live_flows(self) -> set[FlowKey]:
        """Canonical keys of flows currently holding monitor entries
        (O(entries), and builds each one's strings: a sweep-time call)."""
        return {flow_of_tuple(key).canonical() for key, _ in self._flows.items()}

    # -- internals --------------------------------------------------------

    def _resolve_hits(
        self,
        key: FlowTuple,
        hits: list[tuple[int, int]],
        payload: bytes | memoryview,
        timestamp: float,
        result: FastPathResult | None,
    ) -> FastPathResult | None:
        """Turn one payload's automaton matches into piece hits, alerts
        and (rule R5) a divert; a hit whose signature does not apply to
        this flow, or whose packet disagrees with its signature around
        it, leaves ``result`` as it came -- ``None`` included."""
        flow = flow_of_tuple(key)
        for entry_id, end in hits:
            entry = self._entries[entry_id]
            if isinstance(entry, Piece):
                signature = entry.signature
                if not signature.applies_to_flow(flow):
                    continue
                # R5 in context: the occurrence this hit would belong to
                # starts at ``start``; the packet must carry the
                # signature's own bytes wherever the two overlap.
                start = end - len(entry.data) - entry.offset
                lo = start if start > 0 else 0
                hi = min(start + len(signature.pattern), len(payload))
                if signature.fold(bytes(payload[lo:hi])) != signature.match_pattern[
                    lo - start : hi - start
                ]:
                    if self._tel_on:
                        self._c_piece_out.inc()
                    continue
                if self._tel_on:
                    self._c_piece_divert.inc()
                result = result or FastPathResult()
                result.piece_hits.append(entry)
                if result.divert is None:
                    result.divert = DivertReason.PIECE_MATCH
                    result.detail = (
                        f"sid={entry.signature.sid} piece={entry.index}"
                    )
            else:  # whole signature occurrence within one packet
                if not entry.applies_to_flow(flow):
                    continue
                folded = entry.fold(bytes(payload))
                if all(extra in folded for extra in entry.match_extras):
                    # Fully confirmed inside one packet: the alert IS the
                    # verdict, for TCP and UDP alike -- no slow-path round
                    # trip, which is scan_whole_signatures' contract.  A
                    # *split* occurrence of the same signature elsewhere
                    # in the stream still diverts through its own piece
                    # hits.
                    result = result or FastPathResult()
                    result.alerts.append(
                        Alert(
                            kind=AlertKind.SIGNATURE,
                            flow=flow,
                            sid=entry.sid,
                            msg=entry.msg,
                            timestamp=timestamp,
                            path="fast",
                        )
                    )
                elif flow.protocol == IP_PROTO_TCP and (
                    result is None or result.divert is None
                ):
                    # The extra contents may arrive elsewhere in the
                    # stream; let the slow path track completion.
                    result = result or FastPathResult()
                    result.divert = DivertReason.PIECE_MATCH
                    result.detail = f"sid={entry.sid} awaiting extra contents"
        return result
