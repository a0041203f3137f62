"""The Split-Detect slow path: conventional processing for diverted flows.

A diverted flow gets IP defragmentation, TCP reassembly with
normalization and stream matching, filter-then-verify: each chunk goes
through the fast path's *piece* automaton (and sweep), and only a hit of
a signature's last piece, ending at stream offset ``e``, is confirmed:
SIGNATURE when the stream's ``|s|`` bytes ending there are ``s``;
PARTIAL_SIGNATURE for each tail ``s[o_j:]`` (``j >= 1``) ending there and
starting before ``o_j`` -- that is ``e < |s|`` -- since a signature whose
prefix predates the diversion is gone but for its last pieces.
Unsplittable and UDP signatures are entries of their own; extra contents
are found with ``bytes.find``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from operator import itemgetter

from ..match import DualStreamMatcher
from ..packet import FlowKey
from ..signatures import Piece, SplitRuleSet
from ..streams import OverlapPolicy, StreamEvent, StreamNormalizer
from ..telemetry import NULL_REGISTRY, NULL_TRACER
from .alerts import Alert, AlertKind
from .fastpath import FastPathConfig, PieceTables, compile_pieces
from .matching import StreamMatchState, complete

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


def _prefixes(patterns) -> tuple[frozenset[bytes], frozenset[bytes]]:
    """Every nonempty prefix (whole patterns included) of ``(pattern,
    nocase)`` pairs, nocase ones folded: ``(case-sensitive, folded)``."""
    sets: tuple[set[bytes], set[bytes]] = (set(), set())
    for pattern, nocase in patterns:
        sets[nocase].update(pattern[:n] for n in range(1, len(pattern) + 1))
    return frozenset(sets[0]), frozenset(sets[1])


_NO_PREFIXES: tuple[frozenset[bytes], frozenset[bytes]] = (frozenset(), frozenset())


class _Generation:
    """One rule generation as the slow path confirms it.

    A hot reload (:meth:`SlowPath.swap_rules`) makes a new one current;
    a flow keeps the one its stream state was made under (automaton ids,
    a carry of its longest signature) until it closes.  ``automaton`` is
    a view of the fast path's piece automaton.  ``confirms[entry id]``:
    ``None`` (not a last piece; a whole split signature's last piece
    confirms it), or ``(signature index, folded pattern to verify or
    None for a whole entry, its tails s[o_j:] for j >= 1)``.  Signatures
    are in sid order, so ties break as one automaton over them would.
    """

    def __init__(self, split_rules: SplitRuleSet, tables: PieceTables, generation: int = 0):
        _, entries, automaton = tables
        self.generation = generation
        self.automaton = automaton and automaton.view()
        self.sweep = self.automaton and self.automaton.sweep
        splits = split_rules.splits
        signatures = sorted(
            [split.signature for split in splits.values()]
            + split_rules.unsplittable
            + split_rules.udp_whole,
            key=lambda signature: signature.sid,
        )
        self.signatures = tuple(signatures)
        index = {id(signature): i for i, signature in enumerate(signatures)}
        confirms: list[tuple | None] = []
        for entry in entries:
            if isinstance(entry, Piece):
                split = splits[entry.signature.sid]
                if entry.index < split.k - 1:
                    confirms.append(None)
                    continue
                pattern = split.signature.match_pattern
                tails = tuple(pattern[piece.offset :] for piece in split.pieces[1:])
                confirms.append((index[id(split.signature)], pattern, tails))
            elif entry.sid in splits and splits[entry.sid].signature is entry:
                confirms.append(None)
            else:
                confirms.append((index[id(entry)], None, ()))
        self.confirms = tuple(confirms)
        self.extras = tuple(
            (i, signature.match_extras) for i, signature in enumerate(signatures) if signature.extra_contents
        )
        self.fold = any(signature.nocase for signature in signatures)
        #: Stream tail each direction keeps: every verification and
        #: every open prefix lies within the longest signature.
        self.carry = max((len(signature.pattern) for signature in signatures), default=0)
        self.max_prefix_len = max(
            (piece.offset for split in splits.values() for piece in split.pieces[1:]), default=0
        )

    @cached_property
    def _content_prefixes(self) -> tuple[frozenset[bytes], frozenset[bytes]]:
        """Release safety's prefixes of every content (primary and extra),
        built on first use."""
        return _prefixes(
            (pattern, signature.nocase)
            for signature in self.signatures
            for pattern in (signature.match_pattern, *signature.match_extras)
        )

    @cached_property
    def _tail_prefixes(self) -> tuple[frozenset[bytes], frozenset[bytes]]:
        """... and of every tail: built only when a stream is certified
        within ``max_prefix_len + max |s|`` bytes of its start."""
        return _prefixes(
            (tail, self.signatures[confirm[0]].nocase)
            for confirm in self.confirms
            if confirm is not None
            for tail in confirm[2]
        )

    def open_at(self, tail: bytes, offset: int) -> bool:
        """Does a pattern prefix end at the stream's ``tail`` (its last
        bytes, ``offset`` bytes in)?  Any content's prefix counts; a
        tail's counts only if it started before ``max_prefix_len``, as
        only such an occurrence could be reported."""
        sensitive, folded = self._content_prefixes
        lowered = tail.lower()
        floor = offset - self.max_prefix_len  # a tail prefix must be longer
        size = len(tail)
        tail_sensitive, tail_folded = self._tail_prefixes if floor < size else _NO_PREFIXES
        for cut in range(size - 1, -1, -1):
            raw, low = tail[cut:], lowered[cut:]
            if raw in sensitive or low in folded:
                return True
            if size - cut > floor and (raw in tail_sensitive or low in tail_folded):
                return True
        return False

    def extras_for(self, flow) -> list[tuple[int, tuple[bytes, ...]]]:
        """The ``(signature index, folded extras)`` that apply to ``flow``."""
        return [entry for entry in self.extras if self.signatures[entry[0]].applies_to_flow(flow)]

    def confirm(self, flow, text: bytes, base: int, lead: int, hits, extras, seen, pending, ends) -> list:
        """``(kind, sid, msg, end)`` for what ``hits`` (``(entry id, end)``
        in stream offsets) and ``extras`` (those that apply to ``flow``;
        pruned once all seen) confirm.  ``text`` holds the stream from
        offset ``base``, its new bytes from ``lead``; ``seen`` /
        ``pending`` are the multi-content state.  ``ends``: the chunk's
        segment ends (rules complete in segment order), ``None`` for a
        self-contained buffer (in end order)."""
        signatures = self.signatures
        texts = (text, text.lower() if self.fold else text)
        events = []
        partials = []
        for entry_id, end in hits:
            confirm = self.confirms[entry_id]
            if confirm is None:
                continue
            sig_index, pattern, tails = confirm
            nocase = signatures[sig_index].nocase
            if pattern is None:
                events.append((end, nocase, -len(signatures[sig_index].pattern), sig_index, 0, end))
                continue
            haystack, at, size = texts[nocase], end - base, len(pattern)
            if at >= size and haystack.startswith(pattern, at - size):
                events.append((end, nocase, -size, sig_index, 0, end))
            elif end < size and signatures[sig_index].applies_to_flow(flow):
                for j, tail in enumerate(tails):
                    if at >= len(tail) and haystack.startswith(tail, at - len(tail)):
                        partials += [(nocase, end, -len(t), sig_index, k) for k, t in enumerate(tails[j:], j)]
                        break
        for sig_index, contents in extras:
            nocase = signatures[sig_index].nocase
            for x, extra in enumerate(contents):
                if x not in seen.get(sig_index, ()):
                    at = texts[nocase].find(extra, max(0, lead - len(extra) + 1))
                    if at >= 0:
                        end = base + at + len(extra)
                        events.append((end, nocase, -len(extra), sig_index, x + 1, end))
        found = []
        if events:
            if ends is not None:  # stream order: segment, side, end
                first = base + lead
                events = [(bisect_left(ends, e[0] - first), e[1], *e) for e in events]
            events.sort()
            ordered = [(e[-3], e[-2] - 1 if e[-2] else None, e[-1]) for e in events]
            found = [
                (AlertKind.SIGNATURE, hit.signature.sid, hit.signature.msg, hit.end_offset)
                for hit in complete(ordered, signatures, flow, seen, pending)
            ]
            extras[:] = [entry for entry in extras if len(seen.get(entry[0], ())) < len(entry[1])]
        for _, end, _, sig_index, _ in sorted(partials):
            signature = signatures[sig_index]
            found.append((AlertKind.PARTIAL_SIGNATURE, signature.sid, signature.msg, end))
        return found


def _held(entry: tuple) -> int:
    """Matcher bytes one ``SlowPath._matchers`` entry holds (control + carry)."""
    return entry[1].matcher.state_bytes


class SlowPath:
    """Conventional reassembly + matching, for diverted flows only."""

    def __init__(
        self,
        split_rules: SplitRuleSet,
        *,
        policy: OverlapPolicy = OverlapPolicy.BSD,
        telemetry=None,
        tracer=None,
        tables: PieceTables | None = None,
    ) -> None:
        """``tables``: the fast path's piece tables for ``split_rules``
        (compiled here when not given); the slow path scans a view."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_enabled = self.tracer.enabled
        self.split_rules = split_rules
        self.normalizer = StreamNormalizer(policy=policy)
        self._current = _Generation(
            split_rules, tables or compile_pieces(split_rules, FastPathConfig())
        )
        #: Per direction: its generation, matcher state and pending extras.
        self._matchers: dict[FlowKey, tuple[_Generation, StreamMatchState, list]] = {}
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
            "The stream piece automaton of the current rule generation: "
            "states, chunks a sweep skipped, chunks walked, bytes stepped",
            ("matcher", "side", "stat"),
            merge="sum",
        )

    # -- accounting ------------------------------------------------------

    def state_bytes(self) -> int:
        """Reassembly state plus per-direction matcher state as held:
        control words and the carried stream tail."""
        return self.normalizer.state_bytes() + self._matcher_bytes

    @property
    def rules_generation(self) -> int:
        """How many :meth:`swap_rules` reloads this path has absorbed."""
        return self._current.generation

    def swap_rules(self, split_rules: SplitRuleSet, tables: PieceTables) -> None:
        """Hot-swap the compiled signature set without dropping flow state.

        ``tables`` are the piece tables the fast path just compiled for
        ``split_rules``, so a reload compiles once.  The new :class:`_Generation` becomes current in
        one assignment;
        reassembly state (the normalizer) and every in-flight flow's
        streaming matcher are untouched.  Flows whose matcher state was
        created under an older set keep matching under that set until
        they close -- their stream state is only meaningful against the
        automata that created it -- while flows arriving after the swap
        (and all whole-datagram UDP matching, which is stateless per
        datagram) use the new rules immediately.
        """
        self.split_rules = split_rules
        self._current = _Generation(split_rules, tables, self._current.generation + 1)

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
        automaton = self._current.automaton
        for side, stats in automaton.side_stats() if automaton is not None else ():
            for stat in ("states", "swept_chunks", "walked_chunks", "walked_bytes"):
                self._g_match.labels(matcher="piece", side=side, stat=stat).set(stats[stat])

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

        Stateless per datagram, so it always uses the *current* rules --
        a hot reload applies to the very next datagram."""
        current = self._current
        if current.automaton is None:
            return []
        self.bytes_normalized += len(payload)
        hits = current.automaton.find_all(payload)
        extras = current.extras_for(flow)
        return [
            (pos, Alert(kind, flow, sid, msg, end, ts))
            for kind, sid, msg, end in current.confirm(flow, payload, 0, 0, hits, extras, {}, {}, None)
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
            # New stream state binds to the *current* generation; it
            # keeps that generation for its whole life (see _Generation).
            current = self._current
            if current.automaton is None:
                return []
            stream = DualStreamMatcher(current.automaton, carry=current.carry, sweep=current.sweep)
            state = StreamMatchState(stream)
            entry = self._matchers[flow] = (current, state, current.extras_for(flow))
            self._matcher_bytes += _held(entry)
        else:
            current, state = entry[:2]
        extras = entry[2]
        stream = state.matcher
        carried = stream.carry
        base = stream.stream_offset - len(carried)
        confirms = current.confirms
        hits = [
            (match.pattern_id, match.end_offset)
            for match in stream.feed(chunk)
            if confirms[match.pattern_id] is not None
        ]
        self._matcher_bytes += len(stream.carry) - len(carried)
        if not hits and not extras:
            return []
        found = current.confirm(
            flow,
            carried + chunk,
            base,
            len(carried),
            hits,
            extras,
            state.extras_seen,
            state.pending_primaries,
            ends,
        )
        base += len(carried)
        alerts = []
        for kind, sid, msg, end in found:
            pos = positions[bisect_left(ends, end - base)]
            alerts.append((pos, Alert(kind, flow, sid, msg, end, rows[pos][1])))
        return alerts

    def safe_to_release(self, flow: FlowKey) -> bool:
        """True when handing this flow back to the fast path cannot hide a
        signature occurrence.

        Two conditions, both checked at the current stream position:

        1. No pattern prefix is open at either direction's stream tail
           (:meth:`_Generation.open_at`, against the flow's own
           generation) -- otherwise an occurrence could straddle the
           release point, its head scanned here and its tail never
           stream-matched again.  A tail's prefix only matters while its
           would-be occurrence could still start before the longest
           missing prefix; past that point it could not be reported.
        2. No out-of-order bytes are buffered -- buffered-but-undelivered
           bytes have not been matched, and releasing would drop them
           while the victim still eventually reads them.
        """
        if self.normalizer.buffered_bytes_for(flow) > 0:
            return False
        for direction in (flow, flow.reversed()):
            entry = self._matchers.get(direction)
            if entry is not None:
                generation, state, _ = entry
                stream = state.matcher
                if generation.open_at(stream.carry, stream.stream_offset):
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
