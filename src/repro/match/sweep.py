"""Batch q-gram sweep: find every pattern occurrence of a batch at C speed.

The compiled automaton steps an interpreter loop per payload byte.  For
pattern sets too large for the literal sweep (``range_clear``: one
``bytes.find`` per pattern), :class:`GramSweep` replaces that walk for
almost every payload -- the hashed q-gram filter the DPI survey (arXiv
0803.0037, PAPERS.md) catalogues for software matchers, with the
two-stage shape of arXiv 1904.10786: over-approximating stages may only
*add* candidates, an exact last stage decides.

Compile time: every distinct pattern's first four bytes (its *gram*)
are hashed into a fixed bool table; its first eight bytes -- or, for a
pattern shorter than eight, its gram alone -- into one of two smaller
tables; a gram -> patterns map backs the exact last stage.  Scan time,
per batch:

1. join the payloads into one buffer (case-folded once when any pattern
   is ``nocase``; case-sensitive patterns are then *keyed* by their
   folded gram but still verified against the raw bytes);
2. hash the gram at every byte position with numpy -- four unaligned
   ``<u4`` views, one multiply-shift, one table gather, ``flatnonzero``;
3. keep a candidate only if its first eight bytes hash into the prefix
   table or its gram into the short-pattern table (one multiply-shift
   and one gather each; a collision only adds a candidate);
4. verify the survivors with ``startswith`` bounded by the end of the
   candidate's own payload, so nothing matches across a join, and report
   every occurrence found.

Soundness: an occurrence of pattern ``P`` at position ``p`` puts ``P``'s
gram at ``p`` (``len(P) >= 4`` is a build precondition) and ``P``'s
prefix key at ``p``, so ``p`` survives stages 2-3; hash collisions only
add candidates (one whose gram is no pattern's is verified against
nothing); stage 4 is exact and tries every pattern of the candidate's
gram.  So :meth:`GramSweep.dirty_rows` reports *every* occurrence in
every row it examines, and only real ones: for those rows its
occurrences are the automaton's match tuples (``DualAutomaton`` builds
them from it), and the table walk is left only the hot rows below.

Worst case: a row (payload) whose candidate count makes filtering or
verifying it cost a sizeable fraction of simply walking it is handed to
the walk unverified (see the two ``*_BYTES_PER_CANDIDATE`` constants).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from .aho_corasick import fresh_copy

GRAM = 4

#: log2 of the stage-2 table size (one byte per slot: 256 KiB, L2-sized;
#: a 1 MiB table gathered slower and pruned no better, since stage 3
#: removes what it lets through).
TABLE_BITS = 18

#: log2 of the stage-3 tables' sizes: the eight-byte prefixes' and the
#: short patterns' grams (one byte per slot).  Measured on the bundled
#: piece set over benign text: 64 + 16 KiB let ~13 % more candidates
#: reach stage 4 than exact membership did; 4x larger tables, ~3 %.
PREFIX_BITS = 16
SHORT_BITS = 14

#: Below this many joined bytes a swept ``DualAutomaton.scan_many``
#: costs more than walking the payloads.  Measured on the bundled
#: fast-path set over ``repro.traffic`` benign batches (CPython 3.11,
#: numpy 2.4, 2-CPU host): swept ~130 us + 32 ns/byte, walked (both
#: sides) ~20 us + 124 ns/byte -- break-even near 1.2 KiB; at 1.5 KiB the
#: sweep is 17 % cheaper.  Never below ``GRAM``: the lane views need one
#: whole gram.
MIN_SWEEP_BYTES = 1536

#: The same break-even for one stream chunk (:meth:`GramSweep.stream_occurrences`),
#: measured on the bundled piece set (two dense sides; CPython 3.11,
#: numpy 2.4, min of 9): a walk costs ~7 us + 210 ns/byte, the sweep
#: ~38 us + 20 ns/byte -- break-even near 160 bytes.  A swept chunk
#: leaves the sides stale, and the next walked chunk first resyncs them
#: from the carry (~44 us), so a stream alternating swept and walked
#: chunks pays that too; benign streams rarely do (one ``benign_bulk``
#: pass: 3,982 sweeps, 922 walked side-chunks, 0.27 MB walked).
MIN_STREAM_SWEEP_BYTES = 256

# Worst-case bound.  Measured on the bundled fast-path set (same host):
# the table walk costs ~70 ns per payload byte (~77 on the rows that
# hold occurrences), the stage-3 probe ~35 ns per stage-2 candidate, a
# stage-4 verify ~1.5 us per surviving candidate (a gram stands for up to
# 78 patterns).  A row is *hot* -- walked on both sides, unverified --
# when a stage would cost a sizeable share of walking it:
#   35 ns * candidates > 70 ns * bytes / 16  <=>  candidates * 8 > bytes
#   1.5 us * candidates > 70 ns * bytes / 3  <=>  candidates * 64 > bytes
# A row that is not hot is never walked: it costs the sweep plus at
# most ~4 + ~23 ns/byte, well under its walk.  A hot row costs its walk
# plus the stages it passed (an all-candidate batch measures 1.05-1.1x
# the unswept walk).  Benign text sits far below both lines (0.2 % of
# bundled-corpus rows cross either).  The bound counts candidates, not
# patterns: rows holding the 78-pattern gram's eight-byte prefix once
# per 65 bytes verify at ~3.5x their walk.
FILTER_BYTES_PER_CANDIDATE = 8
VERIFY_BYTES_PER_CANDIDATE = 64

_MULTIPLIER = 0x9E3779B1  # 2**32 / golden ratio: Knuth's multiplicative hash
# Stage 3's own odd multipliers (MurmurHash3's finaliser constants), so
# its collisions are independent of stage 2's.  Each gram of a prefix is
# mixed before the two are combined: XOR-ing the raw second gram in let
# frequent English eight-grams collide, and sent six times as many
# candidates to stage 4.
_MIX_FIRST = 0x85EBCA6B
_MIX_SECOND = 0xC2B2AE35
_PAD = bytes(GRAM)  # keeps stage 3's read of the second gram inside the buffer

#: One verified occurrence: ``(row, nocase, end offset inside the row,
#: pattern)``.
Occurrence = tuple[int, bool, int, bytes]


def build_sweep(patterns: Sequence[tuple[bytes, bool]]) -> GramSweep | None:
    """A sweep over ``(pattern, nocase)`` pairs (nocase ones already
    folded), or ``None`` when it cannot be sound: no patterns, or a
    pattern shorter than one gram."""
    if not patterns:
        return None
    if min(len(pattern) for pattern, _ in patterns) < GRAM:
        return None
    return GramSweep(patterns)


class GramSweep:
    """Finds the pattern occurrences of a batch (or of a stream chunk).

    Built through :func:`build_sweep`, which checks the preconditions.
    """

    def __init__(self, patterns: Sequence[tuple[bytes, bool]]) -> None:
        self._fold = any(nocase for _, nocase in patterns)
        #: Longest pattern: the stream carry that makes a state (and a
        #: straddling occurrence) a function of ``carry + chunk``.
        self.max_pattern_len = max(len(pattern) for pattern, _ in patterns)
        by_gram: dict[int, list[tuple[bytes, bool]]] = {}
        short: list[int] = []
        first: list[int] = []
        second: list[int] = []
        for pattern, nocase in dict.fromkeys(patterns):
            key = pattern.lower() if self._fold else pattern
            gram = int.from_bytes(key[:GRAM], "little")
            by_gram.setdefault(gram, []).append((pattern, nocase))
            if len(key) < 2 * GRAM:
                short.append(gram)
            else:
                first.append(gram)
                second.append(int.from_bytes(key[GRAM : 2 * GRAM], "little"))
        self._by_gram = {gram: tuple(entries) for gram, entries in by_gram.items()}
        self._table = np.zeros(1 << TABLE_BITS, dtype=np.bool_)
        self._table[self._gram_slots(np.array(list(by_gram), dtype=np.uint32))] = True
        self._prefix_table = np.zeros(1 << PREFIX_BITS, dtype=np.bool_)
        self._prefix_table[
            self._prefix_slots(
                np.array(first, dtype=np.uint32), np.array(second, dtype=np.uint32)
            )
        ] = True
        self._short_table = np.zeros(1 << SHORT_BITS, dtype=np.bool_)
        self._short_table[self._short_slots(np.array(short, dtype=np.uint32))] = True
        #: Stage-4 verify attempts so far (the worst-case bound's witness).
        self.verifies = 0

    def view(self) -> GramSweep:
        """The same tables with a verify count of its own, from zero."""
        return fresh_copy(self, verifies=0)

    @staticmethod
    def _gram_slots(grams: Any) -> Any:
        """Stage-2 table slots of ``<u4`` grams."""
        return (grams * np.uint32(_MULTIPLIER)) >> np.uint32(32 - TABLE_BITS)

    @staticmethod
    def _prefix_slots(first: Any, second: Any) -> Any:
        """Prefix-table slots of eight-byte keys, given as their two grams."""
        mixed = first * np.uint32(_MIX_FIRST)
        mixed ^= second * np.uint32(_MIX_SECOND)
        return (mixed * np.uint32(_MULTIPLIER)) >> np.uint32(32 - PREFIX_BITS)

    @staticmethod
    def _short_slots(grams: Any) -> Any:
        """Short-pattern table slots of ``<u4`` grams."""
        return (grams * np.uint32(_MIX_SECOND)) >> np.uint32(32 - SHORT_BITS)

    def table_bytes(self) -> int:
        """Memory the sweep holds beyond the patterns themselves: the
        three hash tables and the gram map's slots."""
        return (
            self._table.nbytes
            + self._prefix_table.nbytes
            + self._short_table.nbytes
            + sum(64 + 8 * len(entries) for entries in self._by_gram.values())
        )

    def dirty_rows(
        self, payloads: Sequence[Any]
    ) -> tuple[list[int], list[Occurrence]] | None:
        """The batch's hot rows and every occurrence in the others.

        Hot rows (ascending) were too candidate-dense to verify and must
        be walked on both sides.  Every other payload's occurrences are
        listed, each once per distinct ``(pattern, nocase)``, in the
        order the automata report them: by row, case-sensitive before
        ``nocase``, then by end offset, longer pattern first.  A row
        that is not hot and has no occurrence on a side is proven
        match-free there.  ``None`` when the batch is too small for a
        sweep to pay."""
        lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if len(payloads) else 0
        if total < MIN_SWEEP_BYTES:
            return None
        raw = b"".join((*payloads, _PAD))
        text = raw.lower() if self._fold else raw
        found = []
        for lane in range(GRAM):
            grams = np.frombuffer(text, "<u4", (total - lane) // GRAM, lane)
            index = np.flatnonzero(self._table[self._gram_slots(grams)])
            index *= GRAM
            index += lane
            found.append(index)
        positions = np.concatenate(found)
        rows = np.searchsorted(ends, positions, "right")
        hot = _hot_rows(np, rows, lengths, FILTER_BYTES_PER_CANDIDATE)
        keep = ~hot[rows]
        positions, rows = positions[keep], rows[keep]
        # Stage 3: one hashed probe of the eight-byte prefix.
        every_gram = np.ndarray((total + 1,), "<u4", text, 0, (1,))
        first, keep = self._prefix_cut(every_gram, positions)
        positions, rows, first = positions[keep], rows[keep], first[keep]
        hotter = _hot_rows(np, rows, lengths, VERIFY_BYTES_PER_CANDIDATE)
        keep = ~hotter[rows]
        positions, rows, first = positions[keep], rows[keep], first[keep]
        # Stage 4: exact verification inside the candidate's own payload.
        # Hot rows skip it: they are walked on both sides regardless.
        occurrences: list[Occurrence] = []
        by_gram = self._by_gram
        self.verifies += len(positions)
        starts = ends - lengths
        for position, gram, row, start, end in zip(
            positions.tolist(),
            first.tolist(),
            rows.tolist(),
            starts[rows].tolist(),
            ends[rows].tolist(),
        ):
            for pattern, nocase in by_gram.get(gram, ()):
                if (text if nocase else raw).startswith(pattern, position, end):
                    occurrences.append((row, nocase, position + len(pattern) - start, pattern))
        occurrences.sort(key=_automaton_order)
        return np.flatnonzero(hot | hotter).tolist(), occurrences

    def _prefix_cut(self, every_gram: Any, positions: Any) -> tuple[Any, Any]:
        """Stage 3 for both entry points: each candidate's gram, and
        whether its first eight bytes hash into the prefix table or its
        gram into the short-pattern table (may over-approximate)."""
        first = every_gram[positions]
        keep = self._prefix_table[self._prefix_slots(first, every_gram[positions + GRAM])]
        keep |= self._short_table[self._short_slots(first)]
        return first, keep

    def stream_occurrences(self, carry: bytes, chunk: bytes) -> list[tuple[bool, int, bytes]] | None:
        """Every occurrence *ending inside* ``chunk``, given the ``carry``
        (stream tail, at least ``max_pattern_len - 1`` bytes or the whole
        stream so far) before it: ``(nocase, end offset in the chunk,
        pattern)``, in the automata's output order.  ``None`` for a chunk
        too small or too candidate-dense to examine, as hot rows are in
        :meth:`dirty_rows`: walk it.

        The one-text form of :meth:`dirty_rows`: one strided gram view
        instead of four lanes, no row bookkeeping.
        """
        if len(chunk) < MIN_STREAM_SWEEP_BYTES:
            return None
        start = len(carry)
        total = start + len(chunk)
        raw = b"".join((carry, chunk, _PAD))
        text = raw.lower() if self._fold else raw
        every_gram = np.ndarray((total + 1,), "<u4", text, 0, (1,))
        positions = np.flatnonzero(self._table[self._gram_slots(every_gram[: total - GRAM + 1])])
        if len(positions) * FILTER_BYTES_PER_CANDIDATE > total:
            return None
        first, keep = self._prefix_cut(every_gram, positions)
        positions, first = positions[keep], first[keep]
        if len(positions) * VERIFY_BYTES_PER_CANDIDATE > total:
            return None
        self.verifies += len(positions)
        found = []
        by_gram = self._by_gram
        for position, gram in zip(positions.tolist(), first.tolist()):
            for pattern, nocase in by_gram.get(gram, ()):
                end = position + len(pattern)
                if end > start and (text if nocase else raw).startswith(pattern, position, total):
                    found.append((nocase, end - start, pattern))
        found.sort(key=lambda occurrence: (occurrence[0], occurrence[1], -len(occurrence[2])))
        return found


def _automaton_order(occurrence: Occurrence) -> tuple[int, bool, int, int]:
    """Sort key giving an automaton's output order within a row: the
    case-sensitive side's tuples first, each side by end offset, and at
    one end the longest pattern first (its state's own output precedes
    its failure chain's)."""
    row, nocase, end, pattern = occurrence
    return row, nocase, end, -len(pattern)


def _hot_rows(np: Any, rows: Any, lengths: Any, bytes_per_candidate: int) -> Any:
    """Per row: does it hold more candidates than its length can pay for?"""
    return np.bincount(rows, minlength=len(lengths)) * bytes_per_candidate > lengths
