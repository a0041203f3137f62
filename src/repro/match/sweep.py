"""Batch q-gram sweep: prove most payloads of a batch match-free at C speed.

The compiled automaton steps an interpreter loop per payload byte.  For
pattern sets too large for the literal sweep (``range_clear``: one
``bytes.find`` per pattern), :class:`GramSweep` is the batch prefilter
in front of it -- the hashed q-gram filter the DPI survey (arXiv
0803.0037, PAPERS.md) catalogues for software matchers, with the
two-stage shape of arXiv 1904.10786: an over-approximating first stage
may only *add* candidates, an exact second stage decides.

Compile time: every distinct pattern's first four bytes (its *gram*)
are hashed into a fixed bit table; a gram -> patterns map and the sorted
set of eight-byte prefixes back the later stages.  Scan time, per batch:

1. join the payloads into one buffer (case-folded once when any pattern
   is ``nocase``; case-sensitive patterns are then *keyed* by their
   folded gram but still verified against the raw bytes);
2. hash the gram at every byte position with numpy -- four unaligned
   ``<u4`` views, one multiply-shift, one table gather, ``flatnonzero``;
3. keep a candidate only if its first eight bytes are some pattern's
   first eight bytes (exact ``searchsorted`` membership; patterns
   shorter than eight bytes pass on the gram alone);
4. verify the survivors with ``startswith`` bounded by the end of the
   candidate's own payload, so nothing matches across a join.

Soundness: an occurrence of pattern ``P`` at position ``p`` puts ``P``'s
gram at ``p`` (``len(P) >= 4`` is a build precondition), so ``p`` is a
stage-2 candidate; hash collisions only add candidates; stages 3-4 are
exact.  A payload with no verified occurrence therefore has none, and
the caller may count it as a prefilter skip.  The sweep only *selects*
payloads: the table walk stays the authority for match tuples.

Worst case: a row (payload) whose candidate count makes filtering or
verifying it cost a sizeable fraction of simply walking it is handed to
the walk unverified (see the two ``*_BYTES_PER_CANDIDATE`` constants).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

GRAM = 4

#: log2 of the stage-1 table size (one byte per slot: 256 KiB, L2-sized;
#: a 1 MiB table gathered slower and pruned no better once stage 3 is
#: exact).
TABLE_BITS = 18

#: Below this many joined bytes the ~15 numpy calls of a sweep (~40 us
#: fixed) cost more than walking the payloads (~35 ns/byte).  Never
#: below ``GRAM``: the lane views need one whole gram.
MIN_SWEEP_BYTES = 2048

#: The same break-even for one stream chunk (:meth:`GramSweep.dirty_sides`).
#: Measured on the bundled slow-path set (four automaton sides, one of
#: them the sparse reference engine; CPython 3.11, numpy 2.4): walking a
#: chunk costs ~10 us + 330 ns/byte, the one-text sweep ~20 us + 9
#: ns/byte -- break-even near 30 bytes.  But a chunk swept clean leaves
#: its sides stale, and the next chunk that must be walked then pays a
#: resync walk of the carry first: 64 us for four sides of 175 bytes.
#: A chunk is swept only when sweep + that resync still undercut its own
#: walk (22 + 64 <= 92 us at 256 bytes), so even a stream alternating
#: swept and walked chunks never costs more than the unswept matcher.
MIN_STREAM_SWEEP_BYTES = 256

# Worst-case bound.  Measured on the bundled piece set (CPython 3.11,
# numpy 2.4): the table walk costs ~35 ns per payload byte, the stage-3
# prefix filter ~40 ns per stage-2 candidate, a stage-4 verify ~400 ns
# per surviving candidate.  A row is handed straight to the walk when a
# stage would cost more than about a sixth of walking it:
#   40 ns * candidates > 35 ns * bytes / 7  <=>  candidates * 8 > bytes
#   400 ns * candidates > 35 ns * bytes / 5.6  <=>  candidates * 64 > bytes
# so a hostile row costs at most sweep + ~5 + ~6 ns/byte over today's
# walk (an all-candidate batch measures 1.15-1.3x the unswept walk).
# Benign text sits far below both lines (0.2 % of bundled-corpus
# rows cross either; those mostly hold real occurrences anyway).
FILTER_BYTES_PER_CANDIDATE = 8
VERIFY_BYTES_PER_CANDIDATE = 64

_MULTIPLIER = 0x9E3779B1  # 2**32 / golden ratio: Knuth's multiplicative hash
_PAD = bytes(GRAM)  # keeps stage 3's read of the second gram inside the buffer


def build_sweep(
    patterns: Sequence[tuple[bytes, bool]], groups: Sequence[int] | None = None
) -> GramSweep | None:
    """A sweep over ``(pattern, nocase)`` pairs (nocase ones already
    folded), or ``None`` when it cannot be sound: no patterns, or a
    pattern shorter than one gram.

    ``groups`` (parallel to ``patterns``, default all 0) says which
    automaton of a union each pattern belongs to; see
    :meth:`GramSweep.dirty_sides`."""
    if not patterns:
        return None
    if min(len(pattern) for pattern, _ in patterns) < GRAM:
        return None
    return GramSweep(patterns, groups)


class GramSweep:
    """Selects the payloads of a batch that can hold a pattern occurrence.

    Built through :func:`build_sweep`, which checks the preconditions.
    """

    def __init__(
        self,
        patterns: Sequence[tuple[bytes, bool]],
        groups: Sequence[int] | None = None,
    ) -> None:
        self._fold = any(nocase for _, nocase in patterns)
        #: Longest pattern: the stream carry that makes a state (and a
        #: straddling occurrence) a function of ``carry + chunk``.
        self.max_pattern_len = max(len(pattern) for pattern, _ in patterns)
        #: Every side bit of :meth:`dirty_sides` ("walk everything").
        self.all_sides = 0
        by_gram: dict[int, list[tuple[bytes, bool, int]]] = {}
        short: set[int] = set()
        prefixes: set[int] = set()
        sided = zip(patterns, groups if groups is not None else [0] * len(patterns))
        for (pattern, nocase), group in dict.fromkeys(sided):
            side = 1 << (2 * group + nocase)
            self.all_sides |= side
            key = pattern.lower() if self._fold else pattern
            gram = int.from_bytes(key[:GRAM], "little")
            by_gram.setdefault(gram, []).append((pattern, nocase, side))
            if len(key) < 2 * GRAM:
                short.add(gram)
            else:
                prefixes.add(gram << 32 | int.from_bytes(key[GRAM : 2 * GRAM], "little"))
        self._by_gram = {gram: tuple(entries) for gram, entries in by_gram.items()}
        self._shift = np.uint32(32 - TABLE_BITS)
        self._multiplier = np.uint32(_MULTIPLIER)
        self._table = np.zeros(1 << TABLE_BITS, dtype=np.bool_)
        grams = np.array(sorted(by_gram), dtype=np.uint32)
        self._table[(grams * self._multiplier) >> self._shift] = True
        self._short = np.array(sorted(short), dtype=np.uint32)
        self._prefixes = np.array(sorted(prefixes), dtype=np.uint64)
        #: Stage-4 verify attempts so far (the worst-case bound's witness).
        self.verifies = 0

    def table_bytes(self) -> int:
        """Memory the sweep holds beyond the patterns themselves: the
        bit table, the prefix arrays and the gram map's slots."""
        return (
            self._table.nbytes
            + self._short.nbytes
            + self._prefixes.nbytes
            + sum(64 + 8 * len(entries) for entries in self._by_gram.values())
        )

    def dirty_rows(self, payloads: Sequence[Any]) -> tuple[list[int], list[int]] | None:
        """Indices of the payloads that may hold a case-sensitive /
        a ``nocase`` occurrence (two ascending lists), every other
        payload being proven match-free on that side.  ``None`` when the
        batch is too small for a sweep to pay."""
        lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if len(payloads) else 0
        if total < MIN_SWEEP_BYTES:
            return None
        raw = b"".join((*payloads, _PAD))
        text = raw.lower() if self._fold else raw
        table, multiplier, shift = self._table, self._multiplier, self._shift
        found = []
        for lane in range(GRAM):
            grams = np.frombuffer(text, "<u4", (total - lane) // GRAM, lane)
            index = np.flatnonzero(table[(grams * multiplier) >> shift])
            index *= GRAM
            index += lane
            found.append(index)
        positions = np.concatenate(found)
        rows = np.searchsorted(ends, positions, "right")
        hot = _hot_rows(np, rows, lengths, FILTER_BYTES_PER_CANDIDATE)
        keep = ~hot[rows]
        positions, rows = positions[keep], rows[keep]
        # Stage 3: exact eight-byte prefix membership.
        every_gram = np.ndarray((total + 1,), "<u4", text, 0, (1,))
        first, keep = self._prefix_cut(every_gram, positions)
        positions, rows, first = positions[keep], rows[keep], first[keep]
        hotter = _hot_rows(np, rows, lengths, VERIFY_BYTES_PER_CANDIDATE)
        keep = ~hotter[rows]
        positions, rows, first = positions[keep], rows[keep], first[keep]
        # Stage 4: exact verification inside the candidate's own payload.
        # Hot rows skip it: they are walked on both sides regardless.
        sensitive = set(np.flatnonzero(hot | hotter).tolist())
        folded = set(sensitive)
        raw_startswith, text_startswith = raw.startswith, text.startswith
        by_gram = self._by_gram
        self.verifies += len(positions)
        for position, gram, row, end in zip(
            positions.tolist(), first.tolist(), rows.tolist(), ends[rows].tolist()
        ):
            for pattern, nocase, _ in by_gram[gram]:
                if nocase:
                    if text_startswith(pattern, position, end):
                        folded.add(row)
                elif raw_startswith(pattern, position, end):
                    sensitive.add(row)
        return sorted(sensitive), sorted(folded)

    def _prefix_cut(self, every_gram: Any, positions: Any) -> tuple[Any, Any]:
        """Stage 3 for both entry points: each candidate's gram, and
        whether its first eight bytes are some pattern's (or its gram a
        short pattern's) -- exact membership."""
        first = every_gram[positions]
        prefix = first.astype(np.uint64) << np.uint64(32) | every_gram[positions + GRAM]
        return first, _member(np, self._prefixes, prefix) | _member(np, self._short, first)

    def dirty_sides(self, carry: bytes, chunk: bytes) -> int:
        """Which sides may hold an occurrence *ending inside* ``chunk``,
        given the ``carry`` (stream tail, at least ``max_pattern_len - 1``
        bytes or the whole stream so far) before it: the OR of
        ``1 << (2 * group + nocase)`` over the patterns found.  A clear
        bit proves that side's automaton would report nothing on this
        chunk.  Too-small and candidate-dense chunks answer
        :attr:`all_sides` unexamined, as hot rows do in
        :meth:`dirty_rows`.

        The one-text form of :meth:`dirty_rows`: one strided gram view
        instead of four lanes, no row bookkeeping.
        """
        if len(chunk) < MIN_STREAM_SWEEP_BYTES:
            return self.all_sides
        start = len(carry)
        total = start + len(chunk)
        raw = b"".join((carry, chunk, _PAD))
        text = raw.lower() if self._fold else raw
        every_gram = np.ndarray((total + 1,), "<u4", text, 0, (1,))
        hashed = (every_gram[: total - GRAM + 1] * self._multiplier) >> self._shift
        positions = np.flatnonzero(self._table[hashed])
        if len(positions) * FILTER_BYTES_PER_CANDIDATE > total:
            return self.all_sides
        first, keep = self._prefix_cut(every_gram, positions)
        positions, first = positions[keep], first[keep]
        if len(positions) * VERIFY_BYTES_PER_CANDIDATE > total:
            return self.all_sides
        self.verifies += len(positions)
        dirty = 0
        by_gram = self._by_gram
        for position, gram in zip(positions.tolist(), first.tolist()):
            for pattern, nocase, side in by_gram[gram]:
                if (
                    not dirty & side
                    and position + len(pattern) > start
                    and (text if nocase else raw).startswith(pattern, position, total)
                ):
                    dirty |= side
        return dirty


def _hot_rows(np: Any, rows: Any, lengths: Any, bytes_per_candidate: int) -> Any:
    """Per row: does it hold more candidates than its length can pay for?"""
    return np.bincount(rows, minlength=len(lengths)) * bytes_per_candidate > lengths


def _member(np: Any, sorted_keys: Any, values: Any) -> Any:
    """Element-wise ``values in sorted_keys`` (exact)."""
    if not len(sorted_keys):
        return np.zeros(len(values), dtype=np.bool_)
    slot = np.searchsorted(sorted_keys, values)
    np.minimum(slot, len(sorted_keys) - 1, out=slot)
    return sorted_keys[slot] == values
