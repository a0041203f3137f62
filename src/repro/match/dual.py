"""Case-aware matching: a case-sensitive and a case-folded automaton pair.

Mixing case-sensitive and ``nocase`` patterns in one Aho-Corasick
automaton is unsound (a shared trie state cannot represent both suffix
sets), so the standard implementation keeps two: case-sensitive patterns
are scanned over the raw bytes, ``nocase`` patterns (stored folded) over
a case-folded copy.  :class:`DualAutomaton` hides the split behind the
same ``find_all`` interface, with pattern ids stable in construction
order; :class:`DualStreamMatcher` is the streaming counterpart.

When no ``nocase`` pattern exists the folded side is absent and the cost
is identical to a single automaton.

Batched scans (``scan_many`` / ``prescan_batch``) sit behind one of two
batch prefilters, chosen by the pattern set: small sets (both sides
within ``PIECE_PREFILTER_MAX_PATTERNS``) keep the literal sweep
(``range_clear`` plus the per-payload alternation regex); larger sets
get the q-gram sweep of :mod:`repro.match.sweep`, which serves both
sides from one pass over the joined, case-folded batch.  Streams get the
same sweep one chunk at a time (:meth:`GramSweep.stream_occurrences`;
:class:`DualStreamMatcher` keeps the stream tail that makes skipping a
chunk sound).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import Any

from .aho_corasick import PIECE_PREFILTER_MAX_PATTERNS, AhoCorasick, fresh_copy
from .streaming import StreamMatch, StreamMatcher
from .sweep import GramSweep, Occurrence, build_sweep


class DualAutomaton:
    """Two automata behind one id space.

    ``patterns`` is a sequence of ``(pattern_bytes, nocase)``; nocase
    patterns are folded at construction.
    """

    def __init__(self, patterns: Sequence[tuple[bytes, bool]]) -> None:
        sensitive: list[bytes] = []
        self._sensitive_ids: list[int] = []
        folded: list[bytes] = []
        self._folded_ids: list[int] = []
        for index, (pattern, nocase) in enumerate(patterns):
            if nocase:
                folded.append(pattern.lower())
                self._folded_ids.append(index)
            else:
                sensitive.append(pattern)
                self._sensitive_ids.append(index)
        self.sensitive = AhoCorasick(sensitive) if sensitive else None
        self.folded = AhoCorasick(folded) if folded else None
        self.pattern_count = len(patterns)
        self._origin: DualAutomaton | None = None  # what a view was taken of
        #: Per side: (automaton, global pattern ids, fold before
        #: scanning?) -- what a stream matcher iterates.
        self.sides = tuple(
            (side, ids, fold)
            for side, ids, fold in (
                (self.sensitive, self._sensitive_ids, False),
                (self.folded, self._folded_ids, True),
            )
            if side is not None
        )

    def view(self) -> DualAutomaton:
        """Both sides' tables (and the origin's batch sweep) behind zeroed counters of its own."""
        sensitive, folded = (side and side.view() for side in (self.sensitive, self.folded))
        clone = fresh_copy(self, ("sweep",), sensitive=sensitive, folded=folded)
        clone._origin = self._origin or self
        clone.sides = tuple((folded if fold else sensitive, ids, fold) for _, ids, fold in self.sides)
        return clone

    def sweep_patterns(self) -> list[tuple[bytes, bool]]:
        """The ``(pattern, nocase)`` pairs a q-gram sweep is built from."""
        return [(p, fold) for side, _, fold in self.sides for p in side.patterns]

    @property
    def wants_sweep(self) -> bool:
        """The literal sweep is faster where it exists (a few finds per
        batch against ~0.4 ms of numpy), so a q-gram sweep is built only
        for sets it cannot serve."""
        return any(
            len(side.patterns) > PIECE_PREFILTER_MAX_PATTERNS for side, *_ in self.sides
        )

    @cached_property
    def sweep(self) -> GramSweep | None:
        """The q-gram sweep, built by the first :meth:`scan_many` or
        stream matcher that asks: an automaton nobody sweeps never pays
        for one.  A view counts through a view of its origin's sweep."""
        if self._origin is not None:
            sweep = self._origin.sweep and self._origin.sweep.view()
        else:
            sweep = build_sweep(self.sweep_patterns()) if self.wants_sweep else None
        if sweep is not None:
            # Booked on one side so per-side table sums see it once.
            (self.sensitive or self.folded).sweep_table_bytes = sweep.table_bytes()
        return sweep

    @cached_property
    def swept_ids(self) -> dict[tuple[bool, bytes], tuple[int, ...]]:
        """Global ids per swept ``(nocase, pattern)``, ascending: the
        tuples one verified occurrence stands for (a duplicate pattern
        reports every id, as its automaton state does)."""
        ids_of: dict[tuple[bool, bytes], tuple[int, ...]] = {}
        for side, ids, fold in self.sides:
            for pid, pattern in enumerate(side.patterns):
                ids_of[fold, pattern] = ids_of.get((fold, pattern), ()) + (ids[pid],)
        return ids_of

    def scan_stats(self) -> dict[str, int | float | bool]:
        """Summed scan accounting across both sides.

        When both a case-sensitive and a folded automaton exist, each
        payload is scanned twice (raw and case-folded), and the summed
        ``scanned_bytes`` reflects that honestly -- it is work done, not
        wire bytes.
        """
        sides = [stats for _, stats in self.side_stats()]
        scans = sum(s["scans"] for s in sides)
        skips = sum(s["prefilter_skips"] for s in sides)
        return {
            "scans": scans,
            "scanned_bytes": sum(s["scanned_bytes"] for s in sides),
            "matches_emitted": sum(s["matches_emitted"] for s in sides),
            "prefilter_skips": skips,
            "prefilter_skip_rate": skips / scans if scans else 0.0,
            "sweep_verifies": self.sweep.verifies if self.sweep is not None else 0,
        }

    def side_stats(self) -> list[tuple[str, dict[str, int | float | str]]]:
        """Each side's own ``scan_stats`` (states, stream
        counters), named ``"sensitive"`` / ``"folded"``."""
        return [
            ("folded" if fold else "sensitive", side.scan_stats())
            for side, _, fold in self.sides
        ]

    def find_all(self, data: bytes) -> list[tuple[int, int]]:
        """All matches as (global_pattern_id, end_offset)."""
        out: list[tuple[int, int]] = []
        if self.sensitive is not None:
            out.extend(
                (self._sensitive_ids[pid], end)
                for pid, end in self.sensitive.find_all(data)
            )
        if self.folded is not None:
            out.extend(
                (self._folded_ids[pid], end)
                for pid, end in self.folded.find_all(data.lower())
            )
        return out

    def scan_many(self, payloads: Sequence[Any]) -> list[list[tuple[int, int]]]:
        """Batched :meth:`find_all`: one result list per payload.

        Payloads may be ``bytes`` or shared-buffer views (the columnar
        prescan); the case-sensitive side scans views zero-copy, the
        folded side materializes a case-folded copy of what it scans.
        Match ordering within a payload is identical to ``find_all``
        (case-sensitive hits first, then folded hits).

        With a q-gram sweep, only the sweep's hot rows are walked; every
        other payload's tuples are built from the occurrences the sweep
        verified, and a payload with none on a side is counted as a
        prefilter skip there, so ``scans`` / ``scanned_bytes`` /
        ``matches_emitted`` equal the walk's accounting.
        """
        results: list[list[tuple[int, int]]] = [[] for _ in payloads]
        swept = self.sweep.dirty_rows(payloads) if self.sweep is not None else None
        walked: Sequence[int] = range(len(payloads))
        chosen = payloads
        if swept is not None:
            walked = swept[0]
            chosen = [payloads[row] for row in walked]
        if chosen:
            for side, ids, fold in self.sides:
                scanned = [bytes(payload).lower() for payload in chosen] if fold else chosen
                for row, hits in zip(walked, side.scan_many(scanned)):
                    results[row].extend((ids[pid], end) for pid, end in hits)
        if swept is not None:
            self._book_occurrences(payloads, chosen, swept[1], results)
        return results

    def _book_occurrences(
        self,
        payloads: Sequence[Any],
        walked: Sequence[Any],
        occurrences: Sequence[Occurrence],
        results: list[list[tuple[int, int]]],
    ) -> None:
        """Turn the sweep's occurrences into match tuples, and book each
        side's scan counters as the walk would have: a payload with an
        occurrence as one scan of its bytes emitting its tuples (the
        walk's prefilter cannot skip it), every other unwalked payload
        as a prefilter skip."""
        answered: tuple[set[int], set[int]] = (set(), set())
        emitted = [0, 0]
        ids_of = self.swept_ids
        for row, nocase, end, pattern in occurrences:
            pids = ids_of[nocase, pattern]
            results[row].extend([(pid, end) for pid in pids])
            answered[nocase].add(row)
            emitted[nocase] += len(pids)
        unwalked = len(payloads) - len(walked)
        unwalked_bytes = sum(map(len, payloads)) - sum(map(len, walked))
        for side, _, fold in self.sides:
            rows = answered[fold]
            nbytes = sum(len(payloads[row]) for row in rows)
            side.scans += len(rows)
            side.scanned_bytes += nbytes
            side.matches_emitted += emitted[fold]
            side.account_prefilter_skips(unwalked - len(rows), unwalked_bytes - nbytes)

    #: The columnar prescan entry point (payloads are memoryviews there).
    prescan_batch = scan_many

    def range_clear(self, buffer: bytes, lo: int, hi: int) -> bool:
        """True when no pattern from either side occurs in ``buffer[lo:hi]``.

        Exact for batched prescans: every payload view handed to
        :meth:`prescan_batch` is a sub-slice of its batch's record range,
        so a clear range proves each per-payload scan would find nothing
        (and that the per-payload prefilter would skip it).  The folded
        side checks a case-folded copy of the range, matching its
        per-payload ``bytes(view).lower()`` semantics.  False means
        "cannot prove clear" -- callers must then scan normally.
        """
        sensitive = self.sensitive
        if sensitive is not None and not sensitive.range_clear(buffer, lo, hi):
            return False
        folded = self.folded
        if folded is not None:
            lowered = buffer[lo:hi].lower()
            if not folded.range_clear(lowered, 0, len(lowered)):
                return False
        return True

    def account_prefilter_skips(self, count: int, nbytes: int) -> None:
        """Scan-counter accounting for payloads a batch sweep proved
        match-free; mirrors what :meth:`prescan_batch` would record."""
        if self.sensitive is not None:
            self.sensitive.account_prefilter_skips(count, nbytes)
        if self.folded is not None:
            self.folded.account_prefilter_skips(count, nbytes)


class DualStreamMatcher:
    """Streaming matcher over a :class:`DualAutomaton`.

    With ``carry=0`` the two sides carry their automaton state ids from
    chunk to chunk and every chunk is walked.  With ``carry=n`` the
    matcher also keeps the last ``n`` delivered bytes, and with a
    ``sweep`` (``n`` at least its longest pattern) a chunk the sweep
    examines is answered from its verified occurrences: every side skips
    it and goes stale, and is resynced from the carry before it next
    walks.  Match tuples and offsets are those of the ``carry=0``
    matcher.
    """

    #: Per-flow control state a hardware implementation spends: two
    #: automaton state ids + offset.  This is what the cost model
    #: (:mod:`repro.metrics.cost`) charges; the software additionally
    #: holds the carry bytes, which :attr:`state_bytes` counts.
    STATE_BYTES = 12

    __slots__ = ("automaton", "_sweep", "_sides", "_offset", "_carry_len", "_carry")

    def __init__(
        self, automaton: DualAutomaton, *, carry: int = 0, sweep: GramSweep | None = None
    ) -> None:
        self.automaton = automaton
        self._sweep = sweep
        self._sides = tuple(StreamMatcher(side) for side, _, _ in automaton.sides)
        self._offset = 0
        self._carry_len = carry
        self._carry = b""

    @property
    def stream_offset(self) -> int:
        return self._offset

    @property
    def carry(self) -> bytes:
        """The last ``carry`` delivered bytes (empty when ``carry=0``)."""
        return self._carry

    @property
    def state_bytes(self) -> int:
        """Bytes this object actually holds: control state plus carry."""
        return self.STATE_BYTES + len(self._carry)

    def feed(self, chunk: bytes) -> list[StreamMatch]:
        """Consume the next chunk; its matches in stream offsets."""
        carry = self._carry
        base = self._offset
        found = self._sweep and self._sweep.stream_occurrences(carry, chunk)
        if found is None:
            out: list[StreamMatch] = []
            for side, (_, ids, fold) in zip(self._sides, self.automaton.sides):
                if side.stale:
                    side.resync(carry.lower() if fold else carry)
                matches = side.feed(chunk.lower() if fold else chunk)
                if matches:
                    out.extend(StreamMatch(ids[m.pattern_id], m.end_offset) for m in matches)
        else:  # the sweep's verified occurrences are the match tuples
            for side in self._sides:
                side.skip(len(chunk))
            ids_of = self.automaton.swept_ids
            out = [
                StreamMatch(pid, base + end)
                for nocase, end, pattern in found
                for pid in ids_of[nocase, pattern]
            ]
        keep = self._carry_len
        if keep:
            self._carry = chunk[-keep:] if len(chunk) >= keep else (carry + chunk)[-keep:]
        self._offset += len(chunk)
        return out
