"""Streaming wrapper: carry Aho-Corasick state across stream chunks.

A conventional IPS matches signatures over the *reassembled* stream, so a
signature may straddle arbitrarily many segments.  ``StreamMatcher`` holds
the automaton state plus the running stream offset for one direction of
one flow, and reports matches in absolute stream coordinates.  The state
is either carried as an id or, when the owner keeps the stream's tail,
recomputed from it on demand (see :class:`StreamMatcher`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .aho_corasick import ROOT_STATE, AhoCorasick


@dataclass(frozen=True)
class StreamMatch:
    """One pattern occurrence located in stream coordinates."""

    pattern_id: int
    end_offset: int
    """Stream offset just past the last byte of the occurrence."""


class StreamMatcher:
    """Resumable matcher over one byte stream.

    The state an Aho-Corasick automaton is in after a stream is the
    longest stream suffix that is a pattern prefix -- never longer than
    the longest pattern, so it is a function of the stream's last
    ``max_pattern_len`` bytes.  A matcher whose owner keeps that tail
    (:class:`~repro.match.dual.DualStreamMatcher`'s carry) may therefore
    :meth:`skip` a chunk whose matches a sweep reported without walking
    it -- the state id goes *stale* -- and :meth:`resync` from the tail
    when the state is next needed.  Without a carry nothing ever calls ``skip``
    and the state id is simply carried from chunk to chunk.
    """

    #: Bytes of per-flow control state a hardware implementation would
    #: spend on this object (state id + offset): what the cost model
    #: (:mod:`repro.metrics.cost`) charges.  The software object holds
    #: the same two integers; a carry, when there is one, belongs to the
    #: owning :class:`~repro.match.dual.DualStreamMatcher`.
    STATE_BYTES = 8

    __slots__ = ("automaton", "_state", "_offset", "stale")

    def __init__(self, automaton: AhoCorasick) -> None:
        self.automaton = automaton
        self._state = ROOT_STATE
        self._offset = 0
        #: True after :meth:`skip`, until :meth:`resync`: the state id
        #: is out of date and must not be read.
        self.stale = False

    @property
    def stream_offset(self) -> int:
        """How many stream bytes have been scanned so far."""
        return self._offset

    def feed(self, chunk: bytes) -> list[StreamMatch]:
        """Scan the next contiguous chunk of the stream (state not stale)."""
        automaton = self.automaton
        state, matches = automaton.scan(chunk, self._state)
        automaton.stream_walked_chunks += 1
        automaton.stream_walked_bytes += len(chunk)
        base = self._offset
        self._state = state
        self._offset += len(chunk)
        return [StreamMatch(pid, base + end) for pid, end in matches]

    def skip(self, nbytes: int) -> None:
        """Advance past a chunk a sweep answered (not walked): booked as
        a prefilter skip; the state goes stale."""
        automaton = self.automaton
        automaton.account_prefilter_skips(1, nbytes)
        automaton.stream_swept_chunks += 1
        self.stale = True
        self._offset += nbytes

    def resync(self, tail: bytes) -> None:
        """Recompute the state from the stream's last bytes (at least the
        longest pattern's length of them, or the whole stream): a
        root-anchored walk of ``tail`` ends in the state the skipped
        walks would have reached.  Its matches were reported when those
        bytes were first delivered, so they are dropped uncounted."""
        automaton = self.automaton
        self._state, seen = automaton.scan(tail)
        self.stale = False
        automaton.matches_emitted -= len(seen)
        automaton.stream_walked_bytes += len(tail)
