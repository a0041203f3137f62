"""Aho-Corasick multi-pattern matcher with resumable (streaming) state.

This is the matching engine both IPS variants use: the conventional IPS
runs it over reassembled streams (state carried across segments), and the
Split-Detect fast path runs it over raw packet payloads (state reset per
packet, since pieces must appear wholly inside one packet).

The automaton is built once from a list of byte patterns and is immutable
afterwards but for its scan counters; scanning never allocates per byte.
``scan`` returns match tuples ``(pattern_id, end_offset)`` where
``end_offset`` is the offset just past the last matched byte in the buffer.

Two execution engines share one construction:

- The **reference** engine walks the per-state goto dicts with explicit
  failure links (``scan_reference``).  It is kept as the correctness
  oracle and as the sparse fallback for very large pattern sets.
- The **compiled** engine (built automatically when the state count is at
  most ``dense_state_limit``) resolves goto+fail into one linked row per
  state, 256 next-row pointers wide, so the hot loop is two list
  subscripts per byte with no integer boxing.  A first-byte prefilter (a one-char
  regex class over the root's out-edges, i.e. every pattern's first byte)
  lets payloads containing no pattern-start byte skip the state machine
  entirely at C speed; when the start-byte set is small the scanner stays
  in that C-speed search between root visits (anchored mode).

Both engines visit the same state ids and report identical match tuples,
so streaming state can be carried across either.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Sequence
from typing import Any

ROOT_STATE = 0

#: Default ceiling on dense compilation.  The compiled form costs one
#: linked row per state, 258 64-bit pointers (~2.1 KiB), so the default
#: caps the footprint around 34 MB; above it the automaton
#: transparently falls back to the sparse dict representation.
DENSE_STATE_LIMIT = 16384

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


#: A set with more rows is promoted to the oldest generation while it is
#: built (a row is about two tracked objects; gen0 x gen1 hold ~7,000), so
#: only a full collection could free its cycles: :class:`_Rows` unlinks them.
YOUNG_ROWS = 3000


class _Rows(list):
    """Linked rows, unlinked when the last holder goes, so they are freed without a collection."""

    def __del__(self) -> None:
        for row in self:
            row.clear()


class AhoCorasick:
    """Immutable Aho-Corasick automaton over byte patterns.

    Parameters
    ----------
    patterns:
        The byte strings to search for.  Pattern ids are their indices.
        Empty patterns are rejected; duplicate patterns share matches
        (each id is reported).
    dense_state_limit:
        Compile to the dense linked-row form when the automaton has at most
        this many states (0 or None disables compilation, leaving the
        sparse reference engine -- the correctness oracle benchmarks and
        differential tests compare against).
    """

    def __init__(
        self,
        patterns: Sequence[bytes],
        *,
        dense_state_limit: int | None = DENSE_STATE_LIMIT,
    ) -> None:
        self.patterns: tuple[bytes, ...] = tuple(bytes(p) for p in patterns)
        for i, pattern in enumerate(self.patterns):
            if not pattern:
                raise ValueError(f"pattern {i} is empty")
        # Trie construction: transitions as per-state dicts.
        self._goto: list[dict[int, int]] = [{}]
        self._fail: list[int] = [ROOT_STATE]
        self._output: list[tuple[int, ...]] = [()]
        for pattern_id, pattern in enumerate(self.patterns):
            state = ROOT_STATE
            for byte in pattern:
                nxt = self._goto[state].get(byte)
                if nxt is None:
                    nxt = len(self._goto)
                    self._goto[state][byte] = nxt
                    self._goto.append({})
                    self._fail.append(ROOT_STATE)
                    self._output.append(())
                state = nxt
            self._output[state] = self._output[state] + (pattern_id,)
        self._build_failure_links()
        # Compiled (dense) form; absent above the state-count threshold.
        self._rows: list[list] | None = None
        self._root_row: list | None = None
        self._start_bytes: bytes = bytes(sorted(self._goto[ROOT_STATE]))
        self._start_re: re.Pattern[bytes] | None = None
        self._piece_re: re.Pattern[bytes] | None = None
        self._piece_patterns: tuple[bytes, ...] = ()
        self._anchored = False
        if dense_state_limit and len(self._goto) <= dense_state_limit:
            self._compile()
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

    def _build_failure_links(self) -> None:
        queue: deque[int] = deque()
        for state in self._goto[ROOT_STATE].values():
            self._fail[state] = ROOT_STATE
            queue.append(state)
        while queue:
            state = queue.popleft()
            for byte, nxt in self._goto[state].items():
                queue.append(nxt)
                fallback = self._fail[state]
                while fallback != ROOT_STATE and byte not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[nxt] = self._goto[fallback].get(byte, ROOT_STATE)
                if self._fail[nxt] == nxt:  # root self-loop guard
                    self._fail[nxt] = ROOT_STATE
                self._output[nxt] = self._output[nxt] + self._output[self._fail[nxt]]

    def _compile(self) -> None:
        """Resolve goto+fail into linked rows, one BFS pass.

        ``row[byte]`` is the *next row object*, so the scan loop never
        touches an integer state id (no boxing, no shifts); ``row[256]``
        is the output tuple, ``row[257]`` the state id.  A state's row
        starts as a copy of its failure state's row -- already final,
        since BFS reaches every failure state first -- and its own goto
        edges overwrite that copy.  Each transition is thus the exact
        state the reference engine's failure walk would land on, so the
        two engines are interchangeable mid-stream.
        """
        goto = self._goto
        fail = self._fail
        output = self._output
        rows: list[list] = [[] for _ in goto]
        root = rows[ROOT_STATE]
        root[:] = [root] * 256
        root += (output[ROOT_STATE], ROOT_STATE)
        queue: deque[int] = deque([ROOT_STATE])
        while queue:
            state = queue.popleft()
            row = rows[state]
            if state != ROOT_STATE:
                row[:] = rows[fail[state]]
                row[256] = output[state]
                row[257] = state
            for byte, nxt in goto[state].items():
                row[byte] = rows[nxt]
                queue.append(nxt)
        self._rows = _Rows(rows) if len(rows) > YOUNG_ROWS else rows
        self._root_row = rows[ROOT_STATE]
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

    # -- public API ---------------------------------------------------------

    @property
    def state_count(self) -> int:
        """Number of automaton states (trie nodes)."""
        return len(self._goto)

    @property
    def compiled(self) -> bool:
        """True when the compiled linked-row engine is active."""
        return self._rows is not None

    @property
    def start_bytes(self) -> bytes:
        """Sorted distinct first bytes across all patterns (prefilter set)."""
        return self._start_bytes

    def compiled_table_bytes(self) -> int:
        """Approximate memory the compiled form spends beyond the trie:
        the linked-row pointer lattice, plus any batch-sweep tables
        booked on this automaton."""
        if self._rows is None:
            return self.sweep_table_bytes
        return len(self._rows) * 258 * 8 + self.sweep_table_bytes

    def scan_stats(self) -> dict[str, int | float | bool]:
        """Cumulative scan accounting (``scan``/``find_all``/``scan_many``)."""
        return {
            "engine": "compiled" if self.compiled else "reference",
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
        if rows is None:
            return self.scan_reference(data, state)
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

    def scan_reference(
        self, data: bytes, state: int = ROOT_STATE
    ) -> tuple[int, list[tuple[int, int]]]:
        """The sparse dict-walking scan -- the correctness oracle.

        Byte-identical output to :meth:`scan`, including the final state
        id, but without the compiled rows (used above ``dense_state_limit``
        and by the differential tests and benchmarks).
        """
        self.scans += 1
        self.scanned_bytes += len(data)
        goto = self._goto
        fail = self._fail
        output = self._output
        matches: list[tuple[int, int]] = []
        for offset, byte in enumerate(data):
            nxt = goto[state].get(byte)
            while nxt is None and state != ROOT_STATE:
                state = fail[state]
                nxt = goto[state].get(byte)
            state = nxt if nxt is not None else ROOT_STATE
            if output[state]:
                end = offset + 1
                matches.extend((pid, end) for pid in output[state])
        self.matches_emitted += len(matches)
        return state, matches

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
        rows = self._rows
        if rows is None:
            scan_reference = self.scan_reference
            return [scan_reference(payload)[1] for payload in payloads]
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
