"""Aho-Corasick multi-pattern matcher with resumable (streaming) state.

This is the matching engine both IPS variants use: the conventional IPS
runs it over reassembled streams (state carried across segments), and the
Split-Detect fast path runs it over raw packet payloads (state reset per
packet, since pieces must appear wholly inside one packet).

The automaton is built once from a list of byte patterns and is immutable
afterwards but for its scan counters; scanning never allocates per byte.
``scan`` returns match tuples ``(pattern_id, end_offset)`` where
``end_offset`` is the offset just past the last matched byte in the buffer.

Every automaton, at every size, compiles to one form: one linked row
per state, so the hot loop is two subscripts per byte with no integer
boxing.  ``row[byte]`` is the next row, ``row[256]`` the state's
outputs, ``row[257]`` its id.  A state at most ``SHALLOW_DEPTH`` deep --
where benign bytes walk -- gets a list of all 256 next rows; a deeper
one gets a :class:`_DeepRow`, a dict of its own goto edges that resolves
any other byte through its failure state's row.  The trie itself is
dropped once the rows are built.  A first-byte prefilter (a one-char
regex class over the root's out-edges, i.e. every pattern's first byte)
lets payloads containing no pattern-start byte skip the state machine
entirely at C speed; when the start-byte set is small the scanner stays
in that C-speed search between root visits (anchored mode).
"""

from __future__ import annotations

import re
import sys
from collections import deque
from collections.abc import Sequence
from typing import Any

ROOT_STATE = 0

#: States at most this deep get a full 256-pointer row (~2.1 KiB); deeper
#: ones a default-to-failure dict (~0.2 KiB).  On one benign corpus pass
#: 93 % of the walk's steps end at depth <= 2, and the ~2 % of steps that
#: leave a deeper state by a byte off its edges cost one Python call each.
SHALLOW_DEPTH = 2

#: Use the anchored (skip-to-next-start-byte) scan loop only when the
#: pattern set has at most this many distinct first bytes.  Larger start
#: sets are dense in real payloads, where repeated regex re-anchoring
#: costs more than stepping the table byte by byte.
ANCHORED_MAX_START_BYTES = 8

#: Build the whole-pattern prefilter (one literal-alternation regex over
#: all patterns) only up to this many patterns.  Every alternative is
#: tried at each inspected position, so a huge pattern set would make
#: the C-speed pre-pass cost more than the table walk it short-circuits.
PIECE_PREFILTER_MAX_PATTERNS = 64


def fresh_copy(obj: Any, without: tuple[str, ...] = (), **changes: Any) -> Any:
    """A shallow copy of *obj*, less *without*, with *changes*, set attribute
    by attribute: CPython 3.11 reads a ``copy.copy``'s attributes ~2x slower."""
    clone = object.__new__(type(obj))
    for name, value in vars(obj).items():
        if name not in without:
            setattr(clone, name, changes.get(name, value))
    return clone


class _Rows(list):
    """Linked rows, unlinked when the last holder goes, so they are freed
    without a collection.  The rows are cyclic garbage once dropped, and a
    build can straddle a young collection that promotes what it has built
    so far (a row is one tracked container; at CPython's default
    thresholds ~40 % of 3,000-row builds and nearly all past ~7,500 rows
    leave rows in the oldest generation), so only a full collection could
    free them."""

    __slots__ = ()

    def __del__(self) -> None:
        for row in self:
            row.clear()


class _DeepRow(dict):
    """A deep state's row: its own goto edges, outputs (256) and id
    (257); any other byte is whatever its failure state's row says."""

    __slots__ = ("fail",)
    fail: Any

    def __missing__(self, byte: int, _get: Any = dict.get) -> Any:
        # A loop down the deep failure rows, not a call per row: a
        # periodic pattern (a NOP sled) chains as many as it is long.
        row = self.fail
        while type(row) is _DeepRow:
            nxt = _get(row, byte)
            if nxt is not None:
                return nxt
            row = row.fail
        return row[byte]


def build_trie(
    patterns: Sequence[bytes],
) -> tuple[list[dict[int, int]], list[int], list[tuple[int, ...]]]:
    """The goto trie, failure links and outputs (a state's include its
    failure state's) of ``patterns``; state ids in insertion order, the
    root 0."""
    goto: list[dict[int, int]] = [{}]
    output: list[tuple[int, ...]] = [()]
    for pattern_id, pattern in enumerate(patterns):
        state = ROOT_STATE
        for byte in pattern:
            nxt = goto[state].get(byte)
            if nxt is None:
                nxt = goto[state][byte] = len(goto)
                goto.append({})
                output.append(())
            state = nxt
        output[state] += (pattern_id,)
    fail = [ROOT_STATE] * len(goto)
    queue: deque[int] = deque(goto[ROOT_STATE].values())
    while queue:
        state = queue.popleft()
        for byte, nxt in goto[state].items():
            queue.append(nxt)
            fallback = fail[state]
            while fallback != ROOT_STATE and byte not in goto[fallback]:
                fallback = fail[fallback]
            fail[nxt] = goto[fallback].get(byte, ROOT_STATE)
            output[nxt] += output[fail[nxt]]
    return goto, fail, output


class AhoCorasick:
    """Immutable Aho-Corasick automaton over byte patterns.

    ``patterns`` are the byte strings to search for; pattern ids are their
    indices.  Empty patterns are rejected; duplicate patterns share
    matches (each id is reported).
    """

    def __init__(self, patterns: Sequence[bytes]) -> None:
        self.patterns: tuple[bytes, ...] = tuple(bytes(p) for p in patterns)
        for i, pattern in enumerate(self.patterns):
            if not pattern:
                raise ValueError(f"pattern {i} is empty")
        goto, fail, output = build_trie(self.patterns)
        self._rows = self._compile(goto, fail, output)
        self._root_row: list = self._rows[ROOT_STATE]
        self._start_bytes: bytes = bytes(sorted(goto[ROOT_STATE]))
        self._start_re: re.Pattern[bytes] | None = None
        self._piece_re: re.Pattern[bytes] | None = None
        self._piece_patterns: tuple[bytes, ...] = ()
        if self._start_bytes:
            self._start_re = re.compile(b"[" + re.escape(self._start_bytes) + b"]")
            if len(self.patterns) <= PIECE_PREFILTER_MAX_PATTERNS:
                # Second-stage prefilter: a root-anchored buffer can only
                # match where a whole pattern occurs verbatim, so one
                # C-speed search over the literal alternation proves most
                # real payloads match-free without stepping the table.
                # (The start-byte class is too weak on text payloads --
                # letters anchor constantly; full pieces almost never.)
                unique = sorted(set(self.patterns))
                self._piece_re = re.compile(b"|".join(map(re.escape, unique)))
                self._piece_patterns = tuple(unique)
        self._anchored = 0 < len(self._start_bytes) <= ANCHORED_MAX_START_BYTES
        self._zero_counters()

    def _zero_counters(self) -> None:
        # Scan accounting (plain ints: a few adds per *buffer*, not per
        # byte, so they stay on even when telemetry is disabled).  A
        # "prefilter skip" is a root-anchored scan the first-byte regex
        # proved match-free without stepping the state machine.
        self.scans = 0
        self.scanned_bytes = 0
        self.matches_emitted = 0
        self.prefilter_skips = 0
        # Streaming accounting, booked by ``StreamMatcher``: chunks a
        # sweep let it skip, chunks it walked, and bytes it stepped
        # through this automaton (walked chunks plus resync tails).
        self.stream_swept_chunks = 0
        self.stream_walked_chunks = 0
        self.stream_walked_bytes = 0
        #: Footprint of a batch sweep an owning ``DualAutomaton`` built
        #: over these patterns; reported by :meth:`compiled_table_bytes`.
        self.sweep_table_bytes = 0

    def view(self) -> AhoCorasick:
        """These tables behind zeroed counters of its own: one per engine."""
        clone = fresh_copy(self)
        clone._zero_counters()
        return clone

    @staticmethod
    def _compile(
        goto: list[dict[int, int]], fail: list[int], output: list[tuple[int, ...]]
    ) -> list:
        """Resolve goto+fail into linked rows, one BFS pass.

        ``row[byte]`` is the *next row object*, so the scan loop never
        touches an integer state id (no boxing, no shifts).  A shallow
        state's row starts as a copy of its failure state's row --
        already final, since BFS reaches every failure state first, and
        shallow too -- and its own goto edges overwrite that copy.  A
        deep state's row holds only its edges and defers every other
        byte to its failure state's row.  Each transition is thus the
        exact state the failure walk would land on.
        """
        rows: list = [None] * len(goto)
        root: list = []
        rows[ROOT_STATE] = root
        root[:] = [root] * 256
        root += (output[ROOT_STATE], ROOT_STATE)
        queue: deque[tuple[int, int]] = deque([(ROOT_STATE, 0)])
        while queue:
            state, depth = queue.popleft()
            row = rows[state]
            if state != ROOT_STATE:
                if depth > SHALLOW_DEPTH:
                    row.fail = rows[fail[state]]
                else:
                    row[:] = rows[fail[state]]
                row[256] = output[state]
                row[257] = state
            for byte, nxt in goto[state].items():
                row[byte] = rows[nxt] = [] if depth < SHALLOW_DEPTH else _DeepRow()
                queue.append((nxt, depth + 1))
        return _Rows(rows)

    # -- public API ---------------------------------------------------------

    @property
    def state_count(self) -> int:
        """Number of automaton states (trie nodes)."""
        return len(self._rows)

    @property
    def start_bytes(self) -> bytes:
        """Sorted distinct first bytes across all patterns (prefilter set)."""
        return self._start_bytes

    def compiled_table_bytes(self) -> int:
        """Bytes the compiled form holds: every row container and the
        list of them, plus any batch-sweep tables booked on this
        automaton."""
        rows = self._rows
        return sys.getsizeof(rows) + sum(map(sys.getsizeof, rows)) + self.sweep_table_bytes

    def scan_stats(self) -> dict[str, int | float | bool]:
        """Cumulative scan accounting (``scan``/``find_all``/``scan_many``)."""
        return {
            "states": self.state_count,
            "swept_chunks": self.stream_swept_chunks,
            "walked_chunks": self.stream_walked_chunks,
            "walked_bytes": self.stream_walked_bytes,
            "scans": self.scans,
            "scanned_bytes": self.scanned_bytes,
            "matches_emitted": self.matches_emitted,
            "prefilter_skips": self.prefilter_skips,
            "prefilter_skip_rate": self.prefilter_skips / self.scans
            if self.scans
            else 0.0,
        }

    def scan(
        self, data: bytes, state: int = ROOT_STATE
    ) -> tuple[int, list[tuple[int, int]]]:
        """Scan ``data`` starting from ``state``.

        Returns ``(final_state, matches)``; feed the final state back in to
        continue matching across buffer boundaries (streaming mode), or
        discard it for per-packet matching.
        """
        rows = self._rows
        self.scans += 1
        self.scanned_bytes += len(data)
        matches: list[tuple[int, int]] = []
        base = 0
        if state == ROOT_STATE:
            # Prefilter: bytes outside the start set cannot leave the
            # root, so a payload with none of them needs no scan at all.
            if self._start_re is None:
                self.prefilter_skips += 1
                return ROOT_STATE, matches
            anchor = self._start_re.search(data)
            if anchor is None:
                self.prefilter_skips += 1
                return ROOT_STATE, matches
            if self._anchored:
                final, matches = self._scan_anchored(
                    data, anchor.start(), self._root_row, matches
                )
                self.matches_emitted += len(matches)
                return final, matches
            base = anchor.start()
            if base:
                data = data[base:]
        elif self._anchored:
            final, matches = self._scan_anchored(data, 0, rows[state], matches)
            self.matches_emitted += len(matches)
            return final, matches
        row = rows[state]
        for offset, byte in enumerate(data, base):
            row = row[byte]
            out = row[256]
            if out:
                end = offset + 1
                matches.extend((pid, end) for pid in out)
        self.matches_emitted += len(matches)
        return row[257], matches

    def _scan_anchored(
        self,
        data: bytes,
        index: int,
        row: list,
        matches: list[tuple[int, int]],
    ) -> tuple[int, list[tuple[int, int]]]:
        """Skip-scan: between root visits, jump straight to the next
        start byte with one C-speed regex search instead of stepping the
        table through match-free filler."""
        root = self._root_row
        search = self._start_re.search  # type: ignore[union-attr]
        length = len(data)
        while index < length:
            if row is root:
                anchor = search(data, index)
                if anchor is None:
                    return ROOT_STATE, matches
                index = anchor.start()
            row = row[data[index]]
            index += 1
            out = row[256]
            if out:
                matches.extend((pid, index) for pid in out)
        return row[257], matches

    def find_all(self, data: bytes) -> list[tuple[int, int]]:
        """All matches in a self-contained buffer as (pattern_id, end_offset)."""
        if self._piece_re is not None and self._piece_re.search(data) is None:
            # Self-contained buffer: the final state is discarded, so the
            # whole-pattern prefilter may skip the walk outright.  (scan()
            # itself cannot -- a match-free chunk can still end mid-prefix,
            # and streaming callers need that state.)
            self.scans += 1
            self.scanned_bytes += len(data)
            self.prefilter_skips += 1
            return []
        _, matches = self.scan(data)
        return matches

    def range_clear(self, buffer: bytes, lo: int, hi: int) -> bool:
        """True when no whole pattern occurs in ``buffer[lo:hi]``.

        One ``bytes.find`` (C fastsearch) per distinct pattern over the
        range -- far cheaper than per-payload searches when the range
        holds many payloads.  Exact for existence: any occurrence inside
        a sub-slice of the range is an occurrence in the range.  Returns
        False (meaning "cannot prove clear, scan normally") when the
        piece prefilter is not built, so callers never lose soundness.
        """
        if self._piece_re is None:
            return False
        find = buffer.find
        for pattern in self._piece_patterns:
            if find(pattern, lo, hi) != -1:
                return False
        return True

    def account_prefilter_skips(self, count: int, nbytes: int) -> None:
        """Record *count* payloads (*nbytes* total) proven match-free
        externally (:meth:`range_clear` over their containing buffer).

        Byte-for-byte the accounting :meth:`scan_many` performs when the
        prefilter skips every payload, so batch sweeps keep the scan
        counters identical to having scanned each payload individually.
        """
        self.scans += count
        self.scanned_bytes += nbytes
        self.prefilter_skips += count

    def scan_many(
        self, payloads: Sequence[bytes]
    ) -> list[list[tuple[int, int]]]:
        """Batched :meth:`find_all`: one independent root-anchored scan
        per payload (state resets between payloads).

        The batched form hoists the prefilter and table locals out of the
        per-payload dispatch, so payloads that contain no pattern-start
        byte cost one C-speed regex search and nothing else.  This is the
        entry point the fast path uses to scan a whole batch of packets.
        """
        results: list[list[tuple[int, int]]] = []
        self.scans += len(payloads)
        start_re = self._start_re
        if start_re is None:
            self.scanned_bytes += sum(len(payload) for payload in payloads)
            self.prefilter_skips += len(payloads)
            return [[] for _ in payloads]
        # The whole-pattern alternation subsumes the start-byte class: no
        # occurrence can begin before its leftmost match, so it serves as
        # both the prefilter and the scan anchor in one C-speed search.
        search = (self._piece_re or start_re).search
        anchored = self._anchored
        scan_anchored = self._scan_anchored
        root = self._root_row
        bytes_seen = 0
        skips = 0
        emitted = 0
        for data in payloads:
            bytes_seen += len(data)
            matches: list[tuple[int, int]] = []
            results.append(matches)
            anchor = search(data)
            if anchor is None:
                skips += 1
                continue
            if anchored:
                scan_anchored(data, anchor.start(), root, matches)
                emitted += len(matches)
                continue
            base = anchor.start()
            row = root
            for offset, byte in enumerate(data[base:] if base else data, base):
                row = row[byte]
                out = row[256]
                if out:
                    end = offset + 1
                    matches.extend((pid, end) for pid in out)
            emitted += len(matches)
        self.scanned_bytes += bytes_seen
        self.prefilter_skips += skips
        self.matches_emitted += emitted
        return results
