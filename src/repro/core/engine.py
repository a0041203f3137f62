"""The Split-Detect IPS: fast path by default, slow path after diversion.

Routing rules:

- IP fragments always go to the slow path (the fast path never
  defragments); the first fragment additionally diverts its flow so the
  rest of the connection follows.
- A flow, once diverted, stays on the slow path until the connection
  closes there (RST, FIN in both directions, or idle eviction).
- A diversion feeds the *diverting packet itself* into the slow path, so
  the slow path's reassembled view starts with the packet that carried
  the anomaly or piece.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns

from ..packet import (
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    FlowKey,
    FlowTuple,
    TimedPacket,
    decode_tcp,
    decode_udp,
    flow_of_tuple,
    tuple_of_flow,
)
from ..packet.batch import PacketBatch
from ..packet.errors import PacketError
from ..pcap.columnar import encode_batches
from ..signatures import ByteFrequencyModel, RuleSet, SplitPolicy, SplitRuleSet, split_ruleset
from ..streams import FLOW_OVERHEAD_BYTES, OverlapPolicy
from ..streams.normalizer import ALONE_FLAGS
from ..telemetry import NULL_REGISTRY, NULL_TRACER, StageProfiler
from .alerts import Alert, AlertKind, Diversion, DivertReason
from .conventional import PROVISIONED_BUFFER_PER_FLOW
from .fastpath import FastPath, FastPathConfig, PieceTables, compile_pieces
from .slowpath import SlowPath, by_row

#: Diversion reasons eligible for probation (return to the fast path after
#: a clean interval).  Fragmented flows stay diverted -- fragments keep
#: arriving and the fast path cannot handle them; tiny-segment flows are
#: typically interactive and would bounce straight back.  (A whole-signature
#: hit confirmed in one packet no longer diverts at all: the fast-path
#: alert is already the final verdict.  A piece match is R5 in context --
#: the packet agreed with the signature around the piece -- so benign text
#: that merely contains a piece never diverts and never needs probation.)
PROBATION_REASONS = frozenset(
    {
        DivertReason.PIECE_MATCH,
        DivertReason.OUT_OF_ORDER,
        DivertReason.RETRANSMISSION,
    }
)


@dataclass
class EngineStats:
    """Counters the evaluation harness reads after a run."""

    packets_total: int = 0
    fast_packets: int = 0
    slow_packets: int = 0
    fast_bytes_scanned: int = 0
    slow_bytes_normalized: int = 0
    diversions: int = 0
    alerts: int = 0
    decode_errors: int = 0
    """Packets whose transport header failed to decode: counted and
    passed unexamined on the fast path rather than crashing the engine
    (the engine-level face of the malformed-input quarantine)."""


#: One ruleset compiled, read-only, for engines built alike (DESIGN.md "The
#: compiled set"): the split rules and the piece tables both paths scan.
CompiledRules = tuple[SplitRuleSet, PieceTables]


def compile_rules(rules, split_policy=None, model=None, fast_config=None) -> CompiledRules:
    """Split ``rules`` once and build the piece tables from the split."""
    split_rules = split_ruleset(rules, split_policy, model)
    return split_rules, compile_pieces(split_rules, fast_config or FastPathConfig())


def view_rules(compiled: CompiledRules) -> CompiledRules:
    """These tables behind scan counters of their own: each engine's after the first."""
    split_rules, (threshold, entries, automaton) = compiled
    return split_rules, (threshold, entries, automaton and automaton.view())


class SplitDetectIPS:
    """The paper's system: split signatures, divert anomalies, confirm slowly."""

    def __init__(
        self,
        rules: RuleSet,
        *,
        split_policy: SplitPolicy | None = None,
        fast_config: FastPathConfig | None = None,
        overlap_policy: OverlapPolicy = OverlapPolicy.BSD,
        model: ByteFrequencyModel | None = None,
        probation_packets: int = 8,
        slow_capacity_flows: int | None = None,
        ensemble_policies: tuple[OverlapPolicy, ...] = (),
        telemetry=None,
        tracer=None,
        compiled: CompiledRules | None = None,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_enabled = self.tracer.enabled
        self.rules = rules
        self._split_policy = split_policy
        self._model = model
        self.rules_generation = 0
        """Completed :meth:`swap_rules` reloads (0 = the construction set)."""
        compiled = compiled or compile_rules(rules, split_policy, model, fast_config)
        self.split_rules, tables = compiled
        self.fast_path = FastPath(
            self.split_rules, fast_config, telemetry=self.telemetry, tracer=self.tracer, tables=tables
        )
        self.slow_path = SlowPath(
            self.split_rules,
            policy=overlap_policy,
            telemetry=self.telemetry,
            tracer=self.tracer,
            tables=tables,
        )
        self.ensemble_paths: list[SlowPath] = [
            SlowPath(self.split_rules, policy=policy, tables=tables)
            for policy in ensemble_policies
            if policy is not overlap_policy
        ]
        """Target-based ensemble: extra slow paths reassembling each diverted
        flow under additional overlap policies, so a signature is confirmed
        at SIGNATURE level no matter which policy the victim runs (a lone
        slow path would still flag the overlap as AMBIGUITY, but could not
        name the signature when its own policy reconstructs the decoy).
        Costs one reassembly state set per extra policy -- the trade
        Shankar-Paxson active mapping avoids by learning host policies."""
        self.probation_packets = probation_packets
        """After a probation-eligible diversion, how many clean slow-path
        packets before the flow is handed back to the fast path.  The
        hand-off only happens when ``SlowPath.safe_to_release`` certifies
        that no signature occurrence can straddle it.  0 disables
        probation (every diversion is then permanent, as in the ablation)."""

        self.slow_capacity_flows = slow_capacity_flows
        """Provisioned slow-path flow capacity.  When full, further
        diversions run *fail-open*: the flow stays on the fast path
        (pieces and whole patterns still scanned per packet) and a
        RESOURCE alert records the degraded coverage.  None = unbounded
        (the evaluation default)."""

        self._diverted: dict[FlowTuple, tuple[FlowKey, FlowKey]] = {}
        """Both directions' numeric five-tuples of each diverted flow ->
        that direction's ``(flow, canonical)``: one lookup routes a row."""
        self._diverted_flows = 0  # flows, not entries (self-connections: 1)
        self._probation: dict[FlowKey, int] = {}
        self.diversions: list[Diversion] = []
        self.divert_reasons: Counter[DivertReason] = Counter()
        self.reinstated_flows = 0
        self.overload_refusals = 0
        self.fragment_anomalies = 0
        """First fragments of a flow on the fast path's routing: R3's
        triggers, decided here because the fast path never sees a fragment."""
        self._refused: set[FlowKey] = set()
        self.stats = EngineStats()
        # Telemetry.  What has no plain home -- stage timings, alerts,
        # decode causes, ingest rows, evictions -- is observed where it
        # happens, behind ``_tel_on`` so the disabled engine never reads
        # the clock.  No routing site touches a family that mirrors a
        # plain count: ``_publish`` adds what each count gained, once per
        # call (``_mirrors`` is in the order of its ``counts`` tuple).
        tel = self.telemetry
        self._tel_on = tel.enabled
        # Self-profiler: top-N slowest flows per stage, fed from the same
        # timing deltas the stage histogram consumes (so it costs nothing
        # extra when telemetry is off, and one heap comparison when on).
        self.profiler: StageProfiler | None = StageProfiler() if tel.enabled else None
        stages = tel.histogram(
            "repro_engine_stage_latency_ns",
            "Per-stage wall-clock latency (monotonic ns): decode = routing up "
            "to the path decision; fast_path = monitor + per-packet scan; "
            "ac_prescan = the per-batch automaton sweep; slow_path = one "
            "diverted packet's call (a flow run's last carries its matching)",
            ("stage",),
        )
        self._stage_decode = stages.labels(stage="decode")
        self._stage_fast = stages.labels(stage="fast_path")
        self._stage_prescan = stages.labels(stage="ac_prescan")
        self._stage_slow = stages.labels(stage="slow_path")
        packets = tel.counter(
            "repro_engine_packets_total", "Packets routed, by path", ("path",)
        )
        bytes_total = tel.counter(
            "repro_engine_bytes_total",
            "Payload bytes examined, by path (fast = scanned per packet, "
            "slow = normalized stream bytes)",
            ("path",),
        )
        diversions = tel.counter(
            "repro_engine_diversions_total",
            "Flows handed to the slow path, by reason",
            ("reason",),
        )
        self._mirrors = (
            packets.labels(path="fast"),
            packets.labels(path="slow"),
            bytes_total.labels(path="fast"),
            bytes_total.labels(path="slow"),
            tel.counter(
                "repro_engine_reinstated_flows_total",
                "Diverted flows returned to the fast path after clean probation",
            ),
            tel.counter(
                "repro_engine_overload_refusals_total",
                "Diversions refused because the slow path was at capacity",
            ),
            tel.counter("repro_fastpath_packets_total", "Packets through the fast path"),
            tel.counter(
                "repro_fastpath_scanned_bytes_total",
                "Payload bytes scanned by the fast-path automaton",
            ),
            tel.counter("repro_slowpath_packets_total", "Packets through the slow path"),
            tel.counter(
                "repro_slowpath_normalized_bytes_total",
                "Reassembled-and-normalized stream bytes matched on the slow path",
            ),
            *(diversions.labels(reason=reason.value) for reason in DivertReason),
            tel.counter("repro_fastpath_anomaly_total", label_names=("cause",)).labels(
                cause=DivertReason.IP_FRAGMENT.value
            ),
        )
        self._published = (0,) * len(self._mirrors)
        alerts_total = tel.counter(
            "repro_engine_alerts_total", "Alerts raised, by emitting path", ("path",)
        )
        self._c_alerts_fast = alerts_total.labels(path="fast")
        self._c_alerts_slow = alerts_total.labels(path="slow")
        self._c_decode_errors = tel.counter(
            "repro_engine_decode_errors_total",
            "Packets whose transport decode failed (passed unexamined), "
            "by exception class",
            ("cause",),
        )
        self._c_ingest_rows = tel.counter(
            "repro_ingest_rows_total",
            "Rows consumed from columnar packet batches",
        )
        self._c_ingest_batches = tel.counter(
            "repro_ingest_batches_total",
            "Columnar packet batches processed",
        )
        self._c_materialized = tel.counter(
            "repro_ingest_materialized_total",
            "Columnar rows that built a packet object, by what needed it "
            "(decode_error: only the object parser names the error)",
            ("cause",),
        )
        evictions = tel.counter(
            "repro_engine_evictions_total",
            "Idle per-flow records reclaimed by evict_idle, by path",
            ("path",),
        )
        self._c_evict_fast = evictions.labels(path="fast")
        self._c_evict_slow = evictions.labels(path="slow")
        self._g_diverted = tel.gauge(
            "repro_engine_diverted_flows",
            "Flows currently routed to the slow path",
            merge="sum",
        )
        self._g_monitor = tel.gauge(
            "repro_fastpath_monitor_entries",
            "Flow directions currently occupying monitor entries",
            merge="sum",
        )
        self._g_state = tel.gauge(
            "repro_engine_state_bytes",
            "Per-flow state held right now, by component",
            ("component",),
            merge="sum",
        )
        self._g_div_frac = tel.gauge(
            "repro_engine_diversion_byte_fraction",
            "Fraction of examined payload bytes that went to the slow path "
            "(the abstract's 'very little traffic is diverted' claim)",
            merge="max",
        )
        self._g_ratio = tel.gauge(
            "repro_engine_state_bytes_ratio",
            "Peak Split-Detect state over the conventional-IPS state for the "
            "same flows (the abstract's ~10%-state claim; lower is better)",
            merge="max",
        )
        self._tel_peak_state = 0
        self._tel_peak_conventional = 0

    # -- accounting ------------------------------------------------------

    def state_bytes(self) -> int:
        """Total per-flow state across both paths (and ensemble replicas)."""
        return (
            self.fast_path.state_bytes()
            + self.slow_path.state_bytes()
            + sum(path.state_bytes() for path in self.ensemble_paths)
        )

    @property
    def diverted_flow_count(self) -> int:
        """Flows currently routed to the slow path."""
        return self._diverted_flows

    def is_diverted(self, flow: FlowKey) -> bool:
        """True when the flow is currently on the slow path."""
        return tuple_of_flow(flow) in self._diverted

    # -- hot reload --------------------------------------------------------

    def swap_rules(
        self,
        rules: RuleSet,
        *,
        split_policy: SplitPolicy | None = None,
        model: ByteFrequencyModel | None = None,
        timestamp: float = 0.0,
    ) -> None:
        """Atomically swap the compiled signature set, keeping all flow state.

        The contract the service layer's hot reload depends on:

        - the fast path's per-flow monitor entries (expected seq, idle
          clocks, sketch counters) survive; only its piece automaton and
          the small-packet threshold are recompiled;
        - the slow path's reassembly state survives, and every in-flight
          diverted flow keeps matching under the matcher set its stream
          state was created with (automaton state ids are not
          transferable between compilations) -- new diversions and
          stateless datagram matching use the new set immediately;
        - diversion bookkeeping (``_diverted``, probation, refusals) is
          untouched, so no diverted flow is dropped by a reload.

        Atomic with respect to packets: the engine is driven from one
        thread (one shard), and callers apply swaps between batches --
        never mid-:meth:`process_column_batch`, whose prescan hit lists index
        the pre-swap entry table.  ``split_policy`` / ``model`` default
        to the values the engine was constructed with.
        """
        if split_policy is not None:
            self._split_policy = split_policy
        if model is not None:
            self._model = model
        self.rules = rules
        self.split_rules = split_ruleset(rules, self._split_policy, self._model)
        tables = compile_pieces(self.split_rules, self.fast_path.config)
        self.fast_path.swap_rules(self.split_rules, tables)
        for path in (self.slow_path, *self.ensemble_paths):
            path.swap_rules(self.split_rules, tables)
        self.rules_generation += 1
        if self._tel_on:
            self.telemetry.counter(
                "repro_engine_rule_reloads_total",
                "Hot signature-set swaps absorbed without dropping flow state",
            ).inc()
            self.telemetry.journal.record(
                "engine",
                "rules_swapped",
                ts=timestamp,
                generation=self.rules_generation,
                signatures=len(rules),
                diverted_flows=self._diverted_flows,
            )
        if self._trace_enabled:
            self.tracer.record_system(
                "engine",
                "rules_swapped",
                ts=timestamp,
                generation=self.rules_generation,
                signatures=len(rules),
            )

    # -- packet intake ------------------------------------------------------

    def process(self, packet: TimedPacket) -> list[Alert]:
        """Route one packet object: a batch of one (:meth:`process_batch`)."""
        return self.process_batch([packet])

    def _settle_fast(self, flow, canonical, result, ts, ttl, seq, flags, payload) -> list[Alert]:
        """Act on one fast-path result of the row loop: book its alerts
        and, when it diverts, move the flow and feed this row's fields (as
        :meth:`SlowPath.process` takes them) to the slow path.
        """
        alerts = result.alerts
        if alerts:
            self.stats.alerts += len(alerts)
            if self._tel_on:
                self._c_alerts_fast.inc(len(alerts))
            if self._trace_enabled:
                for alert in alerts:
                    self.tracer.record(
                        flow,
                        "fast",
                        "alert",
                        ts,
                        force=True,
                        kind=alert.kind.value,
                        sid=alert.sid,
                    )
        if result.divert is None:
            return alerts
        if not self._divert(flow, result.divert, ts, result.detail):
            alerts.extend(self._refusal_alert(flow, ts))
            return alerts
        self._hand_over(flow, result.flow_expected_seq)
        alerts += [alert for _, alert in self._to_slow(canonical, [(flow, ts, ttl, seq, flags, payload)])]
        return alerts

    def _fragment(self, fragment, payload, ts, ttl, first, t0) -> list[Alert]:
        """Route one TCP/UDP fragment (``IPv4Packet.fragment_header``, IP
        payload) to the slow path: the fast path never defragments.  The
        first (``first`` is its flow; None for the rest, whose port bytes
        are payload) diverts its flow, so the connection follows."""
        self.stats.packets_total += 1
        if not self.fast_path.config.divert_fragments:
            # Ablation variant: an IPS that ignores fragmentation lets
            # fragments through unexamined (and is evadable by them).
            self.stats.fast_packets += 1
            return []
        if first is not None:
            if self._trace_enabled:
                self.tracer.record(first, "decode", "fragment", ts, force=True)
            if tuple_of_flow(first) not in self._diverted:
                self.fragment_anomalies += 1
            if not self._divert(first, DivertReason.IP_FRAGMENT, ts):
                # Overloaded: fail open, fragment passes unexamined.
                self.stats.fast_packets += 1
                return self._refusal_alert(first, ts)
            # The SYN (or any in-order data) already passed through the
            # fast path.
            self._hand_over(first, self.fast_path.expected_seq(first))
        if self._tel_on:
            self._stage_decode.observe(perf_counter_ns() - t0)
        return [alert for _, alert in self._to_slow(None, [(None, ts, ttl, 0, 0, payload)], fragment)]

    def process_batch(self, packets: list[TimedPacket]) -> list[Alert]:
        """Route a batch of packet objects; returns all alerts in packet order.

        The objects are encoded at the door and go the one batch route,
        :meth:`process_column_batch`.  The engine has no quarantine
        ledger, so a packet that cannot be serialized raises here (the
        runners quarantine it instead).
        """
        packets = list(packets)
        alerts: list[Alert] = []
        for batch in encode_batches(packets, len(packets) or 1):
            if batch.quarantined:
                raise batch.quarantined[0]
            alerts.extend(self.process_column_batch(batch))
        return alerts

    def process_column_batch(self, batch: PacketBatch) -> list[Alert]:
        """Route one columnar batch; returns all alerts in row order.

        Row-for-row identical at every batch size (the tested oracle is
        batch size 1, :meth:`process`: equal equivalence digests).  A
        decoded, unfragmented TCP/UDP row on a non-diverted flow gets the
        :meth:`FastPath.process_columns` call and the :meth:`_settle_fast`
        tail, fed from the columns and the batch sweep's hits (a one-row
        batch scans with ``find_all``); most rows return ``None`` there
        and cost no allocation.  A fragment row goes to :meth:`_fragment`;
        a diverted flow's rows are column scalars plus payload views, fed
        to the slow path one flow run at a time (:meth:`_feed_runs`).
        Only a row whose transport header did not decode (``tok == 0``)
        builds a packet object (:meth:`_decode_error`), because only the
        object parser can name its decode error.

        Rows are routed by their numeric five-tuples, zipped from the
        columns in one C-level pass; a :class:`FlowKey` is built only
        for a row that returns a fast-path result or a first fragment
        (a trace span's flow string comes from the tracer's id cache),
        and a diverted row's keys come from ``_diverted``.

        Telemetry deltas: the ``fast_path`` stage times only rows that
        return a result (the sweep has its own stage), and the mirrored
        counters and occupancy gauges publish once per batch
        (:meth:`_publish`).  Both are outside the equivalence digest.
        """
        fast = self.fast_path
        stats = self.stats
        tel_on = self._tel_on
        trace_enabled = self._trace_enabled
        tracer = self.tracer
        diverted = self._diverted
        n = len(batch)
        proto_col = batch.proto
        frag_col = batch.fragflags
        paylen_col = batch.pay_len
        payoff_col = batch.pay_off
        tok_col = batch.tok
        ts_col = batch.ts
        flags_col = batch.tcpflags
        ttl_col = batch.ttl
        seq_col = batch.seq
        view = batch.view
        automaton = fast.automaton
        process_columns = fast.process_columns
        hits_by_row: list[list[tuple[int, int]] | None] = [None] * n
        keys: list[FlowTuple] = list(
            zip(batch.src, batch.dst, batch.sport, batch.dport, proto_col)
        )
        if automaton is not None and n > 1:
            t0 = perf_counter_ns() if tel_on else 0
            off_col = batch.off
            caplen_col = batch.caplen
            # Candidate rows: every payload the fast path would scan.
            slots: list[int] = []
            nbytes = 0
            for row in range(n):
                p = proto_col[row]
                if (
                    (p == IP_PROTO_TCP or p == IP_PROTO_UDP)
                    and not (frag_col[row] & 0x3FFF)
                    and tok_col[row]
                    and (plen := paylen_col[row])
                    and keys[row] not in diverted
                ):
                    slots.append(row)
                    nbytes += plen
            # Batch sweep: one C-speed substring search per pattern over
            # the batch's record range.  Rows are in capture order, so
            # the range encloses every payload view, and a clear range
            # proves every candidate scan below would find nothing (see
            # ``DualAutomaton.range_clear``).  The common benign batch
            # then skips the per-payload prescan entirely; only the
            # scan-counter accounting is replayed, keeping matcher
            # counters identical to scanning each payload.
            if automaton.range_clear(
                batch.buffer, off_col[0], off_col[n - 1] + caplen_col[n - 1]
            ):
                for row in slots:
                    hits_by_row[row] = []
                automaton.account_prefilter_skips(len(slots), nbytes)
            elif slots:
                # One stateless sweep over every candidate payload, as
                # views over the shared capture buffer (no per-packet
                # bytes copies).
                payloads = [
                    view[payoff_col[row] : payoff_col[row] + paylen_col[row]]
                    for row in slots
                ]
                for row, hits in zip(slots, automaton.prescan_batch(payloads)):
                    hits_by_row[row] = hits
            if tel_on:
                self._stage_prescan.observe(perf_counter_ns() - t0)
        # (row, its alerts): a run's alerts are tagged when it is fed.
        tagged: list[tuple[int, list[Alert]]] = []
        # Each diverted flow's pending run (rows, fields); where a run ends
        # is in DESIGN.md "Flow runs".
        runs: dict[FlowKey, tuple[list, list]] = {}
        open_ended = self.slow_path.normalizer.open_ended
        # Per-batch stats accumulators: the slow-path and decode-error helpers
        # mutate the same fields directly, so these locals are folded in
        # once, after the loop or when a row raises (pure counters --
        # nothing reads them mid-batch).
        fast_add = 0
        fast_bytes_add = 0
        try:
            for row in range(n):
                p = proto_col[row]
                if p != IP_PROTO_TCP and p != IP_PROTO_UDP:
                    # Non-TCP/UDP packets pass through untouched.
                    fast_add += 1
                    fast.packets_processed += 1
                    continue
                if frag_col[row] & 0x3FFF:
                    if runs:  # its datagram may be any flow's
                        self._feed_runs(runs, tagged)
                    fragment, ip_payload = batch.fragment(row)
                    first = None if fragment[4] else flow_of_tuple(keys[row])
                    t0 = perf_counter_ns() if tel_on else 0
                    ttl = ttl_col[row]
                    got = self._fragment(fragment, ip_payload, ts_col[row], ttl, first, t0)
                    tagged.append((row, got))
                    continue
                key = keys[row]
                if key in diverted:
                    flow, canonical = diverted[key]
                    t0 = perf_counter_ns() if tel_on else 0
                    start = payoff_col[row]
                    flags = flags_col[row]
                    payload = view[start : start + paylen_col[row]] if tok_col[row] else None
                    run = runs.get(canonical)
                    if run is None:
                        run = runs[canonical] = ([], [])
                    run[0].append(row)
                    run[1].append((flow, ts_col[row], ttl_col[row], seq_col[row], flags, payload))
                    if tel_on:
                        self._stage_decode.observe(perf_counter_ns() - t0)
                    # A possible close or probation end ends the run.
                    if (
                        flags & ALONE_FLAGS
                        or (len(run[0]) == 1 and not open_ended(canonical))
                        or len(run[0]) >= self._probation.get(canonical, n + 1)
                    ):
                        self._feed_runs({canonical: runs.pop(canonical)}, tagged)
                    continue
                if not tok_col[row]:
                    self._decode_error(batch, row, key)
                    continue
                hits = hits_by_row[row]
                plen = paylen_col[row]
                start = payoff_col[row]
                if plen and automaton is not None:
                    if hits is None:
                        # Row not covered by the sweep (single-row batch, or
                        # its flow was diverted then reinstated mid-batch):
                        # scan here.
                        hits = automaton.find_all(bytes(view[start : start + plen]))
                    fast_bytes_add += plen
                fast_add += 1
                ts = ts_col[row]
                if trace_enabled:
                    tracer.record(key, "decode", "fast_route", ts)
                if tel_on:
                    t1 = perf_counter_ns()
                result = process_columns(
                    key,
                    hits,
                    p,
                    plen,
                    flags_col[row],
                    ttl_col[row],
                    seq_col[row],
                    ts,
                    view[start : start + plen] if hits else None,
                )
                if result is not None:
                    flow = flow_of_tuple(key)
                    canonical = flow.canonical()
                    if tel_on:
                        fast_ns = perf_counter_ns() - t1
                        self._stage_fast.observe(fast_ns)
                        if self.profiler is not None:
                            self.profiler.note("fast_path", str(canonical), fast_ns)
                    ttl = ttl_col[row]
                    seq = seq_col[row]
                    flags = flags_col[row]
                    payload = view[start : start + plen]
                    got = self._settle_fast(flow, canonical, result, ts, ttl, seq, flags, payload)
                    tagged.append((row, got))
        finally:
            # Also when a row or a pending run raises: what came before counts.
            try:
                if runs:
                    self._feed_runs(runs, tagged)
            finally:
                stats.packets_total += fast_add
                stats.fast_packets += fast_add
                stats.fast_bytes_scanned += fast_bytes_add
                self._publish()
        if tel_on:
            self._c_ingest_rows.inc(n)
            self._c_ingest_batches.inc()
        tagged.sort(key=by_row)
        return [alert for _, got in tagged for alert in got]

    def _decode_error(self, batch: PacketBatch, row: int, key: FlowTuple) -> None:
        """Book a row whose transport header the columns only flag as bad
        (``tok == 0``): it passes the fast path unexamined.  The one row
        kind that builds a packet object, parsed only so the transport
        decoder names the error."""
        packet = batch.materialize(row)
        ip = packet.ip
        cause = "DecodeError"
        try:
            (decode_tcp if ip.protocol == IP_PROTO_TCP else decode_udp)(ip)
        except PacketError as exc:
            cause = type(exc).__name__
        except Exception:  # counted as a decode error all the same
            pass
        self.stats.packets_total += 1
        self.stats.fast_packets += 1
        self.stats.decode_errors += 1
        self.fast_path.packets_processed += 1
        if self._trace_enabled:
            self.tracer.record(key, "decode", "fast_route", packet.timestamp)
        if self._tel_on:
            self._c_decode_errors.labels(cause=cause).inc()
            self._c_materialized.labels(cause="decode_error").inc()

    def _feed_runs(self, runs, tagged) -> None:
        """Feed each pending run (batch rows, their fields) to the slow
        path and tag its alerts with their batch rows; a run leaves
        ``runs`` first, so none is fed twice when one raises."""
        for canonical in list(runs):
            rows, fields = runs.pop(canonical)
            self.stats.packets_total += len(rows)
            if self._trace_enabled:
                for flow, ts, *_ in fields:
                    self.tracer.record(flow, "decode", "slow_route", ts)
            tagged += [(rows[pos], [alert]) for pos, alert in self._to_slow(canonical, fields)]

    def _hand_over(self, flow: FlowKey, expected: int | None) -> None:
        """Give a just-diverted flow's stream positions to the slow path
        and drop its monitor records.

        Anchoring the slow path's streams where in-order delivery
        stopped (``expected`` for ``flow``'s direction, the monitor's
        record for the reverse) keeps reordered data below the diverting
        packet from being mistaken for retransmission.
        """
        for direction, position in (
            (flow, expected),
            (flow.reversed(), self.fast_path.expected_seq(flow.reversed())),
        ):
            if position is not None:
                self.slow_path.hint_stream_start(direction, position)
                for path in self.ensemble_paths:
                    path.hint_stream_start(direction, position)
        self.fast_path.forget_flow(flow)

    def _refusal_alert(self, flow: FlowKey, timestamp: float) -> list[Alert]:
        """One RESOURCE alert per refused flow, so overload is visible."""
        canonical = flow.canonical()
        if canonical in self._refused:
            return []
        self._refused.add(canonical)
        return [
            Alert(
                kind=AlertKind.RESOURCE,
                flow=flow,
                msg=f"slow path at capacity ({self.slow_capacity_flows} flows); fail-open",
                timestamp=timestamp,
                path="fast",
            )
        ]

    def _divert(
        self, flow: FlowKey, reason: DivertReason, timestamp: float, detail: str = ""
    ) -> bool:
        """Move a flow to the slow path; False when refused for capacity."""
        key = tuple_of_flow(flow)
        if key in self._diverted:
            return True
        if (
            self.slow_capacity_flows is not None
            and self.slow_path.active_flows >= self.slow_capacity_flows
        ):
            self.overload_refusals += 1
            if self._tel_on:
                self.telemetry.journal.record(
                    "engine",
                    "overload_refusal",
                    ts=timestamp,
                    flow=str(flow),
                    capacity=self.slow_capacity_flows,
                )
            if self._trace_enabled:
                self.tracer.record(
                    flow,
                    "engine",
                    "divert_refused",
                    timestamp,
                    force=True,
                    reason=reason.value,
                    capacity=self.slow_capacity_flows,
                )
            return False
        canonical = flow.canonical()
        self._diverted[key] = (flow, canonical)
        self._diverted[(key[1], key[0], key[3], key[2], key[4])] = (flow.reversed(), canonical)
        self._diverted_flows += 1
        if self.probation_packets and reason in PROBATION_REASONS:
            self._probation[canonical] = self.probation_packets
        self.diversions.append(
            Diversion(flow=flow, reason=reason, timestamp=timestamp, detail=detail)
        )
        self.divert_reasons[reason] += 1
        self.stats.diversions += 1
        if self._tel_on:
            self.telemetry.journal.record(
                "engine",
                "divert",
                ts=timestamp,
                flow=str(flow),
                reason=reason.value,
                detail=detail,
            )
        if self._trace_enabled:
            # force=True pins the trace id: every subsequent slow-path
            # span of this flow is recorded regardless of --trace-sample.
            self.tracer.record(
                flow,
                "engine",
                "divert",
                timestamp,
                force=True,
                reason=reason.value,
                detail=detail,
            )
        return True

    def _to_slow(self, canonical, rows, fragment=None) -> list[tuple[int, Alert]]:
        """Feed one run of a flow's rows (a packet is a run of one) to the
        slow path and the ensemble: one ``SlowPath.process`` call per row,
        all but the last with ``more``.  Returns ``(run position, alert)``
        pairs in row order."""
        tel_on = self._tel_on
        t0 = perf_counter_ns() if tel_on else 0
        self.stats.slow_packets += len(rows)
        before = self.slow_path.bytes_normalized
        *held, last = rows
        process = self.slow_path.process
        for row in held:
            process(canonical, row, None, True)
            if tel_on:  # one sample per packet: a held row costs its call
                t1 = perf_counter_ns()
                self._stage_slow.observe(t1 - t0)
                t0 = t1
        resolved, alerts = process(canonical, last, fragment)
        self.stats.slow_bytes_normalized += self.slow_path.bytes_normalized - before
        if self.ensemble_paths:
            # An ensemble alert is new unless its row already raised it.
            seen = {(pos, a.kind, a.sid, a.flow, a.stream_offset) for pos, a in alerts}
            for path in self.ensemble_paths:
                for row in held:
                    path.process(canonical, row, None, True)
                for pos, alert in path.process(canonical, last, fragment)[1]:
                    key = (pos, alert.kind, alert.sid, alert.flow, alert.stream_offset)
                    if key not in seen:
                        seen.add(key)
                        alerts.append((pos, alert))
            alerts.sort(key=by_row)
        self.stats.alerts += len(alerts)
        if tel_on:
            slow_ns = perf_counter_ns() - t0  # the last row's: it carries the run
            self._stage_slow.observe(slow_ns)
            if self.profiler is not None and fragment is None:
                self.profiler.note("slow_path", str(canonical), slow_ns)
            if alerts:
                self._c_alerts_slow.inc(len(alerts))
        if alerts and self._trace_enabled:
            for pos, alert in alerts:
                self.tracer.record(
                    alert.flow,
                    "slow",
                    "confirm",
                    rows[pos][1],
                    force=True,
                    kind=alert.kind.value,
                    sid=alert.sid,
                )
        if resolved is None:
            return alerts
        if not self.slow_path.normalizer.is_live(resolved):
            # The connection ended on the slow path (a fragment's TCP flow:
            # once its datagram completed); a future flow with the same
            # five-tuple starts fresh on the fast path.
            ended = fragment is None or resolved.protocol == IP_PROTO_TCP
            if ended and self._undivert(resolved) and self._trace_enabled:
                self.tracer.record(resolved, "engine", "flow_closed", last[1])
        elif fragment is None and resolved in self._probation:
            self._tick_probation(resolved, alerts, last[1], len(rows))
        return alerts

    def _undivert(self, canonical: FlowKey) -> bool:
        """Return a flow to the fast path's routing (both directions,
        and its probation); False when it was not diverted."""
        key = tuple_of_flow(canonical)
        if self._diverted.pop(key, None) is None:
            return False
        self._diverted.pop((key[1], key[0], key[3], key[2], key[4]), None)
        self._diverted_flows -= 1
        self._probation.pop(canonical, None)
        return True

    def _tick_probation(
        self, canonical: FlowKey, alerts: list[tuple[int, Alert]], timestamp: float, rows: int
    ) -> None:
        """Count down a diverted flow's probation by a run's ``rows`` (a
        run ends at the row that reaches zero); reinstate when clean.

        Any alert makes the diversion permanent.  Reinstatement waits for
        the slow path to certify that no pattern occurrence straddles the
        hand-off (open automaton prefixes, buffered out-of-order bytes).
        """
        if any(a.flow is not None and a.flow.canonical() == canonical for _, a in alerts):
            del self._probation[canonical]
            return
        self._probation[canonical] -= rows
        if self._probation[canonical] > 0:
            return
        if not self.slow_path.safe_to_release(canonical):
            return  # re-check on the next packet
        self._undivert(canonical)
        for direction, expected in self.slow_path.release_flow(canonical).items():
            # Stamp the seed with the releasing packet's clock: a seeded
            # entry with last_seen=0 would look ancient and be reclaimed
            # by the very next idle sweep.
            self.fast_path.seed_flow(direction, expected, now=timestamp)
        for path in self.ensemble_paths:
            path.release_flow(canonical)
        self.reinstated_flows += 1
        if self._tel_on:
            self.telemetry.journal.record(
                "engine", "reinstate", flow=str(canonical)
            )
        if self._trace_enabled:
            self.tracer.record(canonical, "engine", "reinstate", timestamp)

    def evict_idle(self, now: float) -> int:
        """Expire idle state everywhere (long-run housekeeping).

        Besides the slow-path reassembly state this must prune every
        engine-side per-flow record -- ``_diverted``, ``_probation``,
        ``_refused`` -- and the fast path's monitor entries, all of which
        otherwise grow without bound across long runs as flows die
        without a clean close.

        Returns the number of evicted per-flow entries (slow-path flows
        plus fast-path monitor directions; ensemble replicas track the
        same flows as the primary slow path and are not double-counted),
        so callers -- and the occupancy gauges -- can reconcile
        evictions against population.
        """
        slow_evicted = self.slow_path.evict_idle(now)
        for path in self.ensemble_paths:
            path.evict_idle(now)
        fast_evicted = self.fast_path.evict_idle(
            now, self.slow_path.normalizer.idle_timeout
        )
        slow_live = self.slow_path.normalizer.live_flows()
        for canonical in {pair[1] for pair in self._diverted.values()} - slow_live:
            self._undivert(canonical)
        # A refused (fail-open) flow lives on the fast path; it is dead
        # once neither path tracks it, and forgetting it re-arms the
        # once-per-flow RESOURCE alert for any future five-tuple reuse.
        # (The fast path's live set is O(monitor entries): built only
        # when there is a refusal to check against it.)
        if self._refused:
            self._refused &= slow_live | self.fast_path.live_flows()
        if self._tel_on:
            if fast_evicted:
                self._c_evict_fast.inc(fast_evicted)
            if slow_evicted:
                self._c_evict_slow.inc(slow_evicted)
            if fast_evicted or slow_evicted:
                self.telemetry.journal.record(
                    "engine",
                    "evict_sweep",
                    ts=now,
                    fast_evicted=fast_evicted,
                    slow_evicted=slow_evicted,
                )
        if self._trace_enabled and (fast_evicted or slow_evicted):
            self.tracer.record_system(
                "engine",
                "evict_sweep",
                ts=now,
                fast_evicted=fast_evicted,
                slow_evicted=slow_evicted,
            )
        self._publish()
        return fast_evicted + slow_evicted

    # -- telemetry -------------------------------------------------------

    def _publish(self) -> None:
        """Add to each mirroring family what its plain count gained since
        this engine last published (engines sharing a registry still sum),
        and set the two occupancy gauges.  Runs at the end of
        :meth:`process_column_batch` (in a ``finally``: a row that raises
        leaves no lag) and of :meth:`evict_idle`; never
        from :meth:`refresh_telemetry`, which the live-scrape thread calls.
        """
        if not self._tel_on:
            return
        stats = self.stats
        fast = self.fast_path
        slow = self.slow_path
        counts = (
            stats.fast_packets,
            stats.slow_packets,
            stats.fast_bytes_scanned,
            stats.slow_bytes_normalized,
            self.reinstated_flows,
            self.overload_refusals,
            fast.packets_processed,
            fast.bytes_scanned,
            slow.packets_processed,
            slow.bytes_normalized,
            *map(self.divert_reasons.__getitem__, DivertReason),
            self.fragment_anomalies,
        )
        for counter, count, published in zip(self._mirrors, counts, self._published):
            if count != published:
                counter.inc(count - published)
        self._published = counts
        self._g_diverted.set(self._diverted_flows)
        self._g_monitor.set(fast.tracked_flows)

    def refresh_telemetry(self) -> None:
        """Sample the point-in-time gauges across both paths (the two
        occupancy gauges publish with the counters, :meth:`_publish`).

        The O(flows) gauges (state bytes, slow-path flows) are sampled here
        rather than per packet; the run harness calls this at its state
        sampling points and once more before exporting.  The state-ratio
        gauge compares *peak-so-far* Split-Detect state against what a
        conventional IPS would hold for the same flow population
        (flow record + provisioned reassembly buffer per flow) -- peaks,
        because provisioning is what the paper's 10%-state claim is
        about.
        """
        if not self._tel_on:
            return
        if self.profiler is not None:
            self.profiler.publish(self.telemetry)
        self.fast_path.refresh_telemetry()
        self.slow_path.refresh_telemetry()
        fast_state = self.fast_path.state_bytes()
        slow_state = self.slow_path.state_bytes()
        ensemble_state = sum(path.state_bytes() for path in self.ensemble_paths)
        self._g_state.labels(component="fast").set(fast_state)
        self._g_state.labels(component="slow").set(slow_state)
        self._g_state.labels(component="ensemble").set(ensemble_state)
        total_bytes = self.stats.fast_bytes_scanned + self.stats.slow_bytes_normalized
        self._g_div_frac.set(
            self.stats.slow_bytes_normalized / total_bytes if total_bytes else 0.0
        )
        # Conventional equivalent: the fast path tracks per-direction
        # entries, a conventional flow record covers both directions.
        flow_equiv = (self.fast_path.tracked_flows + 1) // 2 + self.slow_path.active_flows
        conventional = flow_equiv * (FLOW_OVERHEAD_BYTES + PROVISIONED_BUFFER_PER_FLOW)
        state = fast_state + slow_state + ensemble_state
        self._tel_peak_state = max(self._tel_peak_state, state)
        self._tel_peak_conventional = max(self._tel_peak_conventional, conventional)
        if self._tel_peak_conventional:
            self._g_ratio.set(self._tel_peak_state / self._tel_peak_conventional)

    def telemetry_snapshot(self) -> dict:
        """Refresh the gauges, then return the registry snapshot."""
        self.refresh_telemetry()
        return self.telemetry.snapshot()
