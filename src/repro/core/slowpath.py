"""The Split-Detect slow path: conventional processing for diverted flows.

A diverted flow gets the full treatment a conventional IPS gives every
flow -- IP defragmentation, TCP reassembly with normalization, streaming
signature matching -- plus one extra matcher the paper's architecture
needs: a *suffix* matcher.  Because the bytes a flow sent before
diversion are gone, a signature whose prefix predates the diversion can
only be recognized by its remaining pieces; the suffix matcher watches
for any signature tail that begins at a piece boundary, and an occurrence
is accepted only if it starts close enough to the diversion point that
the missing prefix plausibly fits before it (``start < prefix_len``).
Suffixes belonging to fully-visible occurrences fail that test, so they
are reported by the full matcher alone.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import itemgetter

from ..match import DualAutomaton, DualStreamMatcher, build_stream_sweep
from ..match.aho_corasick import fresh_copy
from ..match.sweep import GramSweep
from ..packet import FlowKey
from ..signatures import SplitRuleSet
from ..streams import OverlapPolicy, StreamEvent, StreamNormalizer
from ..telemetry import NULL_REGISTRY, NULL_TRACER
from .alerts import Alert, AlertKind
from .matching import SignatureMatcher, StreamMatchState

#: Sort key of ``(row position, ...)`` pairs: a run's alerts go in row order.
by_row = itemgetter(0)

#: Stream events that make an AMBIGUITY alert (here and in the baseline).
AMBIGUITY_EVENTS = frozenset(
    {
        StreamEvent.INCONSISTENT_OVERLAP,
        StreamEvent.INCONSISTENT_FRAGMENT_OVERLAP,
        StreamEvent.TTL_ANOMALY,
    }
)


@dataclass(frozen=True)
class _SuffixEntry:
    """One signature tail starting at a piece boundary."""

    sid: int
    msg: str
    prefix_len: int
    pattern: bytes
    dst_port: int | None
    protocol_number: int = 6

    def applies_to_flow(self, flow: FlowKey) -> bool:
        return flow.protocol == self.protocol_number and (
            self.dst_port is None or self.dst_port == flow.dst_port
        )


@dataclass(frozen=True)
class _MatcherSet:
    """One compiled generation of the slow path's matchers.

    Hot reload (:meth:`SlowPath.swap_rules`) replaces the *current* set
    in one assignment, but every flow whose streaming state was created
    under an older set keeps a reference to that set: a
    :class:`~repro.core.matching.StreamMatchState` embeds automaton
    state ids (or, under a sweep, a carry sized to this set's longest
    pattern) that only mean something against the automaton that built
    them, so swapping the matcher under a live stream would corrupt its
    open prefixes.  In-flight diverted flows therefore finish under the
    rules they started with; flows diverted after the swap compile-in
    the new set.  The old set is garbage-collected when its last flow
    closes.

    ``sweep`` is the one q-gram sweep over the union of the full and
    suffix pattern sets (``None`` when no side has more than 64 patterns
    or a pattern is shorter than a gram): each delivered chunk is swept
    once, and only the automaton sides it could not prove match-free
    walk it (DESIGN.md, "Slow path").
    """

    matcher: SignatureMatcher
    suffixes: tuple[_SuffixEntry, ...]
    suffix_automaton: DualAutomaton | None
    max_prefix_len: int
    generation: int = 0
    sweep: GramSweep | None = None

    def view(self) -> _MatcherSet:
        """This set behind one slow path's own scan counters."""
        matcher, suffix, sweep = self.matcher, self.suffix_automaton, self.sweep
        return replace(
            self,
            matcher=fresh_copy(matcher, automaton=matcher.automaton and matcher.automaton.view()),
            suffix_automaton=suffix and suffix.view(),
            sweep=sweep and sweep.view(),
        )


def compile_matcher_set(split_rules: SplitRuleSet, generation: int = 0) -> _MatcherSet:
    """Build the full + suffix matchers for one signature-set generation."""
    signatures = (
        [split.signature for split in split_rules.splits.values()]
        + list(split_rules.unsplittable)
        + list(split_rules.udp_whole)
    )
    signatures.sort(key=lambda s: s.sid)
    suffixes: list[_SuffixEntry] = []
    for sid in sorted(split_rules.splits):
        split = split_rules.splits[sid]
        for piece in split.pieces[1:]:  # j >= 1; j = 0 is the full pattern
            suffixes.append(
                _SuffixEntry(
                    sid=sid,
                    msg=split.signature.msg,
                    prefix_len=piece.offset,
                    pattern=split.signature.pattern[piece.offset :],
                    dst_port=split.signature.dst_port,
                    protocol_number=split.signature.protocol_number,
                )
            )
    suffix_sigs = {sid: split_rules.splits[sid].signature for sid in split_rules.splits}
    suffix_automaton = (
        DualAutomaton(
            [(e.pattern, suffix_sigs[e.sid].nocase) for e in suffixes]
        )
        if suffixes
        else None
    )
    matcher = SignatureMatcher(signatures)
    return _MatcherSet(
        matcher=matcher,
        suffixes=tuple(suffixes),
        suffix_automaton=suffix_automaton,
        max_prefix_len=max((e.prefix_len for e in suffixes), default=0),
        generation=generation,
        sweep=build_stream_sweep((matcher.automaton, suffix_automaton)),
    )


def _held(entry: tuple) -> int:
    """Matcher bytes one ``SlowPath._matchers`` entry holds (control + carry)."""
    _, full, suffix = entry
    return full.matcher.state_bytes + (suffix.state_bytes if suffix is not None else 0)


class SlowPath:
    """Conventional reassembly + matching, for diverted flows only."""

    def __init__(
        self,
        split_rules: SplitRuleSet,
        *,
        policy: OverlapPolicy = OverlapPolicy.BSD,
        telemetry=None,
        tracer=None,
        matchers: _MatcherSet | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_enabled = self.tracer.enabled
        self.split_rules = split_rules
        self.normalizer = StreamNormalizer(policy=policy)
        self._current = matchers or compile_matcher_set(split_rules)
        self._matchers: dict[
            FlowKey, tuple[_MatcherSet, StreamMatchState, DualStreamMatcher | None]
        ] = {}
        self._matcher_bytes = 0  # running sum of the entries' state_bytes
        self._run: list[tuple] = []  # rows held by ``process(..., more=True)``
        # Counters the engine publishes to the registry (SplitDetectIPS._publish).
        self.packets_processed = 0
        self.bytes_normalized = 0
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        tel = self.telemetry
        self._tel_on = tel.enabled
        self._c_evictions = tel.counter(
            "repro_slowpath_evictions_total", "Idle diverted flows reclaimed"
        )
        self._g_flows = tel.gauge(
            "repro_slowpath_active_flows",
            "Diverted flows holding reassembly state",
            merge="sum",
        )
        self._g_state = tel.gauge(
            "repro_slowpath_state_bytes",
            "Reassembly + matcher state bytes (the 10%-state claim's denominator "
            "is the conventional equivalent of this for every flow)",
            merge="sum",
        )
        self._g_buffered = tel.gauge(
            "repro_slowpath_buffered_bytes",
            "Out-of-order bytes currently buffered by reassembly",
            merge="sum",
        )
        self._g_match = tel.gauge(
            "repro_slowpath_match",
            "Stream automata of the current rule generation: states, chunks "
            "a sweep skipped, chunks walked, bytes stepped (engine=reference "
            "is the sparse fallback above the dense state limit)",
            ("matcher", "side", "engine", "stat"),
            merge="sum",
        )

    # -- accounting ------------------------------------------------------

    def state_bytes(self) -> int:
        """Reassembly state plus per-direction matcher state as held:
        control words and, under a sweep, the carried stream tail."""
        return self.normalizer.state_bytes() + self._matcher_bytes

    @property
    def rules_generation(self) -> int:
        """How many :meth:`swap_rules` reloads this path has absorbed."""
        return self._current.generation

    def swap_rules(self, split_rules: SplitRuleSet) -> None:
        """Hot-swap the compiled signature set without dropping flow state.

        The new :class:`_MatcherSet` becomes current in one assignment;
        reassembly state (the normalizer) and every in-flight flow's
        streaming matcher are untouched.  Flows whose matcher state was
        created under an older set keep matching under that set until
        they close -- their stream state is only meaningful against the
        automata that created it -- while flows arriving after the swap
        (and all whole-datagram UDP matching, which is stateless per
        datagram) use the new rules immediately.
        """
        self.split_rules = split_rules
        self._current = compile_matcher_set(
            split_rules, generation=self._current.generation + 1
        )

    @property
    def active_flows(self) -> int:
        """Diverted flows currently holding reassembly state."""
        return self.normalizer.active_flows

    def hint_stream_start(self, direction: FlowKey, first_byte_seq: int) -> None:
        """Anchor a diverted direction's stream at the fast path's expected
        sequence number (see ``StreamNormalizer.hint_stream_start``)."""
        self.normalizer.hint_stream_start(direction, first_byte_seq)

    def refresh_telemetry(self) -> None:
        """Sample the O(flows) gauges (called before a snapshot, not inline)."""
        if not self._tel_on:
            return
        self._g_flows.set(self.active_flows)
        self._g_state.set(self.state_bytes())
        self._g_buffered.set(self.normalizer.buffered_bytes)
        current = self._current
        for matcher, dual in (
            ("full", current.matcher.automaton),
            ("suffix", current.suffix_automaton),
        ):
            for side, stats in dual.side_stats() if dual is not None else ():
                for stat in ("states", "swept_chunks", "walked_chunks", "walked_bytes"):
                    self._g_match.labels(
                        matcher=matcher, side=side, engine=stats["engine"], stat=stat
                    ).set(stats[stat])

    # -- packet intake ------------------------------------------------------

    def process(self, canonical, row, fragment=None, more=False) -> tuple:
        """Run one diverted-flow packet, ``row`` = ``(flow, ts, ttl, seq,
        flags, payload)``, through the conventional pipeline (the rest as
        ``StreamNormalizer.feed`` takes them).  ``more``, as ``MSG_MORE``:
        the caller's next packet continues this flow's run, so the row is
        held (returns ``()``); the call that ends the run reassembles and
        matches it as one (DESIGN.md "Flow runs") and returns the canonical
        flow it resolved to (a fragment's: its datagram's, None until
        complete) and ``(position in the run, alert)`` pairs in row order."""
        self._run.append(row)
        if more:
            return ()
        rows, self._run = self._run, []
        self.packets_processed += len(rows)
        output = self.normalizer.feed(canonical, rows, fragment)
        rows = output.rows
        flow = output.flow
        alerts: list[tuple[int, Alert]] = []
        if fragment is not None and flow is not None:
            canonical = flow.canonical()
        if flow is None:
            return canonical, alerts
        if self._trace_enabled:
            # Diverted flows are always sampled (the divert span pinned
            # their trace id), so the reassembly record survives 1/N.
            self.tracer.record(
                flow,
                "slow",
                "reassemble",
                rows[-1][1],
                chunks=len(output.chunks),
                bytes=sum(len(chunk) for chunk in output.chunks),
                events=len(output.events),
                closed=bool(output.flow_closed),
            )
        for pos, record in zip(output.event_rows, output.events):
            if record.event in AMBIGUITY_EVENTS:
                flow_of, ts = rows[pos][:2]
                ambiguity = Alert(AlertKind.AMBIGUITY, flow_of, None, str(record), record.offset, ts)
                alerts.append((pos, ambiguity))
        for chunk, mark in zip(output.chunks, output.marks):
            alerts += self._match(rows[mark[0][0]][0], chunk, rows, *mark)
        if output.datagram:
            alerts += self._match_datagram(flow, output.datagram, len(rows) - 1, rows[-1][1])
        if output.flow_closed:
            self._forget(flow)
        if len(rows) > 1:
            alerts.sort(key=by_row)  # events first, then each direction's chunks
        return canonical, alerts

    def _match_datagram(self, flow: FlowKey, payload: bytes, pos: int, ts: float) -> list:
        """Whole-datagram matching for UDP payloads (the run's row ``pos``).

        Stateless per datagram, so it always uses the *current* matcher
        set -- a hot reload applies to the very next datagram."""
        matcher = self._current.matcher
        if matcher.empty:
            return []
        self.bytes_normalized += len(payload)
        return [
            (pos, Alert(AlertKind.SIGNATURE, flow, hit.signature.sid, hit.signature.msg, hit.end_offset, ts))
            for hit in matcher.match_buffer(payload, flow)
        ]

    def _match(self, flow: FlowKey, chunk: bytes, rows, positions, ends) -> list:
        """Match one delivered chunk of ``flow``'s stream; returns
        ``(position, alert)`` pairs.  ``positions`` are the rows whose
        bytes the chunk holds and ``ends`` their cumulative ends in it:
        an alert belongs to, and takes the timestamp of, the row holding
        its last byte."""
        self.bytes_normalized += len(chunk)
        entry = self._matchers.get(flow)
        if entry is None:
            # New stream state binds to the *current* matcher set; it
            # keeps that set for its whole life (see _MatcherSet).
            matchers = self._current
            if matchers.matcher.empty:
                return []
            carry = matchers.sweep.max_pattern_len if matchers.sweep is not None else 0
            full = matchers.matcher.new_stream_state(carry)
            suffix = (
                DualStreamMatcher(matchers.suffix_automaton, carry=carry)
                if matchers.suffix_automaton is not None
                else None
            )
            entry = self._matchers[flow] = (matchers, full, suffix)
            self._matcher_bytes += _held(entry)
        else:
            matchers, full, suffix = entry
        # One sweep of carry + chunk serves every automaton side: bits
        # 0-1 are the full matcher's verdict, bits 2-3 the suffix one's.
        sweep = matchers.sweep
        if sweep is None:
            dirty = -1  # no sweep, no carry: every side walks
        else:
            carried = full.matcher.carry
            dirty = sweep.dirty_sides(carried, chunk)
        base = full.matcher.stream_offset
        found = [
            (AlertKind.SIGNATURE, hit.signature.sid, hit.signature.msg, hit.end_offset)
            for hit in matchers.matcher.match_chunk(full, chunk, flow, dirty, ends)
        ]
        if suffix is not None:
            for match in suffix.feed(chunk, dirty >> 2):
                tail = matchers.suffixes[match.pattern_id]
                # A fully-visible occurrence is the full matcher's.
                if tail.applies_to_flow(flow) and (
                    match.end_offset - len(tail.pattern) < tail.prefix_len
                ):
                    found.append((AlertKind.PARTIAL_SIGNATURE, tail.sid, tail.msg, match.end_offset))
        if sweep is not None:  # both matchers' carries grew by the same bytes
            grown = len(full.matcher.carry) - len(carried)
            self._matcher_bytes += grown if suffix is None else 2 * grown
        alerts = []
        for kind, sid, msg, end in found:
            pos = positions[bisect_left(ends, end - base)]
            alerts.append((pos, Alert(kind, flow, sid, msg, end, rows[pos][1])))
        return alerts

    def safe_to_release(self, flow: FlowKey) -> bool:
        """True when handing this flow back to the fast path cannot hide a
        signature occurrence.

        Two conditions, both checked at the current stream position:

        1. No pattern prefix (full or suffix automaton) is open at either
           direction's stream tail -- otherwise an occurrence could
           straddle the release point, its head scanned here and its tail
           never stream-matched again.
        2. No out-of-order bytes are buffered -- buffered-but-undelivered
           bytes have not been matched, and releasing would drop them
           while the victim still eventually reads them.
        """
        if self.normalizer.buffered_bytes_for(flow) > 0:
            return False
        for direction in (flow, flow.reversed()):
            entry = self._matchers.get(direction)
            if entry is None:
                continue
            matchers, full, suffix = entry
            if full.open_prefix_len > 0:
                return False
            if suffix is not None and suffix.open_prefix_len > 0:
                # An open suffix prefix only matters while its would-be
                # occurrence could still start before the diversion origin
                # plus the longest missing prefix; far past that point the
                # anchoring filter would discard the match anyway.  The
                # bound is the *flow's own* matcher set's -- the set its
                # suffix automaton was compiled from.
                start = suffix.stream_offset - suffix.open_prefix_len
                if start < matchers.max_prefix_len:
                    return False
        return True

    def release_flow(self, flow: FlowKey) -> dict[FlowKey, int]:
        """Drop all slow-path state for a flow returning to the fast path.

        Returns each direction's next expected sequence number so the
        caller can seed the fast-path monitor -- the hand-off must
        preserve stream position in *both* directions of travel, or a
        later re-diversion anchors at the wrong place and discards
        legitimate out-of-order data as pre-stream retransmission.
        """
        positions = self.normalizer.stream_positions(flow)
        self.normalizer.release(flow)
        self._forget(flow)
        return positions

    def _forget(self, flow: FlowKey) -> None:
        for direction in (flow, flow.reversed()):
            entry = self._matchers.pop(direction, None)
            if entry is not None:
                self._matcher_bytes -= _held(entry)

    def evict_idle(self, now: float) -> int:
        """Expire idle flows in the underlying normalizer."""
        evicted = self.normalizer.evict_idle(now)
        if evicted:
            live = self.normalizer.live_flows()
            for key in list(self._matchers):
                if key.canonical() not in live:
                    self._matcher_bytes -= _held(self._matchers.pop(key))
            if self._tel_on:
                self._c_evictions.inc(evicted)
        return evicted
