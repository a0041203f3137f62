"""Unit and property tests for the TCP reassembler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import (
    OverlapPolicy,
    StreamEvent,
    StreamEventRecord,
    TcpReassembler,
    resolve_overlap,
)


def events_of(result):
    return [record.event for record in result.events]


def reasm(**kw):
    """Reassembler whose stream offset 0 is pinned at absolute seq 1000."""
    kw.setdefault("first_byte_seq", 1000)
    return TcpReassembler(**kw)


def feed_all(reassembler, pieces, base_seq=1000):
    """Feed (offset, data) pieces at absolute seq base_seq+offset; collect stream."""
    out = bytearray()
    events = []
    for offset, data in pieces:
        result = reassembler.add(base_seq + offset, data)
        out += result.delivered
        events.extend(events_of(result))
    return bytes(out), events


class TestInOrderDelivery:
    def test_single_segment(self):
        r = reasm()
        result = r.add(1000, b"hello")
        assert result.delivered == b"hello"
        assert result.events == []

    def test_consecutive_segments(self):
        r = reasm()
        stream, events = feed_all(r, [(0, b"abc"), (3, b"def"), (6, b"ghi")])
        assert stream == b"abcdefghi"
        assert events == []

    def test_syn_consumes_one_sequence_number(self):
        r = reasm()
        r.add(999, b"", syn=True)
        result = r.add(1000, b"abc")
        assert result.delivered == b"abc"

    def test_syn_with_data(self):
        r = reasm()
        result = r.add(999, b"ab", syn=True)
        assert result.delivered == b"ab"
        assert r.add(1002, b"cd").delivered == b"cd"

    def test_empty_ack_is_noop(self):
        r = reasm()
        r.add(1000, b"abc")
        result = r.add(1003, b"")
        assert result.delivered == b"" and result.events == []

    def test_sequence_wraparound(self):
        start = 2**32 - 3
        r = reasm(first_byte_seq=start)
        r.add(start, b"abc")
        result = r.add(0, b"def")
        assert result.delivered == b"def"
        assert r.delivered_total == 6


class TestFin:
    def test_fin_in_order_finishes(self):
        r = reasm()
        r.add(1000, b"abc")
        result = r.add(1003, b"de", fin=True)
        assert result.finished and r.finished

    def test_fin_waits_for_hole(self):
        r = reasm()
        r.add(1000, b"abc")
        result = r.add(1006, b"fg", fin=True)
        assert not result.finished
        result = r.add(1003, b"def")
        assert result.finished
        assert result.delivered == b"deffg"  # "def" then the buffered "fg"

    def test_fin_waits_for_hole_exact(self):
        r = reasm()
        r.add(1000, b"abc")
        r.add(1005, b"fg", fin=True)
        result = r.add(1003, b"de")
        assert result.finished
        assert result.delivered == b"defg"

    def test_moved_fin_is_inconsistent(self):
        r = reasm()
        r.add(1003, b"x", fin=True)
        result = r.add(1005, b"y", fin=True)
        assert StreamEvent.INCONSISTENT_OVERLAP in events_of(result)


class TestOutOfOrder:
    def test_gap_then_fill(self):
        r = reasm()
        result = r.add(1003, b"def")
        assert StreamEvent.OUT_OF_ORDER in events_of(result)
        assert result.delivered == b""
        result = r.add(1000, b"abc")
        assert result.delivered == b"abcdef"

    def test_multiple_holes(self):
        r = reasm()
        r.add(1006, b"g")
        r.add(1002, b"cd")
        assert r.pending_holes() == [(0, 2), (4, 6)]
        result = r.add(1000, b"ab")
        assert result.delivered == b"abcd"
        result = r.add(1004, b"ef")
        assert result.delivered == b"efg"

    def test_buffered_accounting(self):
        r = reasm()
        r.add(1010, b"x" * 5)
        assert r.buffered_bytes == 5
        assert r.buffered_chunks == 1
        r.add(1000, b"y" * 10)
        assert r.buffered_bytes == 0

    def test_out_of_window_dropped(self):
        r = reasm(horizon=100)
        r.add(1000, b"a")
        result = r.add(1000 + 500, b"far")
        assert StreamEvent.OUT_OF_WINDOW in events_of(result)
        assert r.buffered_bytes == 0

    def test_buffer_overflow(self):
        r = reasm(max_buffered=10)
        result = r.add(1100, b"x" * 20)
        assert StreamEvent.BUFFER_OVERFLOW in events_of(result)
        assert r.buffered_bytes == 10


class TestRetransmission:
    def test_exact_retransmission_is_consistent(self):
        r = reasm()
        r.add(1000, b"abcdef")
        result = r.add(1000, b"abcdef")
        assert events_of(result) == [StreamEvent.RETRANSMISSION]
        assert result.delivered == b""

    def test_inconsistent_retransmission_detected(self):
        r = reasm()
        r.add(1000, b"abcdef")
        result = r.add(1000, b"abCdef")
        assert StreamEvent.INCONSISTENT_OVERLAP in events_of(result)

    def test_partial_retransmission_delivers_tail(self):
        r = reasm()
        r.add(1000, b"abc")
        result = r.add(1001, b"bcdef")
        assert result.delivered == b"def"

    def test_history_limit_disables_consistency_check(self):
        r = reasm(history=4)
        r.add(1000, b"abcdefgh")
        # Bytes 0..3 are out of history; a differing copy is unverifiable.
        result = r.add(1000, b"XXcd")
        assert StreamEvent.RETRANSMISSION in events_of(result)
        assert StreamEvent.INCONSISTENT_OVERLAP not in events_of(result)


class TestOverlapPolicies:
    def make_overlap(self, policy):
        """Buffer [5,10) then send [2,8) with different bytes; fill hole last."""
        r = reasm(policy=policy)
        r.add(1005, b"OLDxx")  # offsets 5..10
        r.add(1002, b"newNEW")  # offsets 2..8, contested 5..8
        result = r.add(1000, b"ab")  # fills 0..2, releases everything
        return result.delivered

    def test_first_keeps_old(self):
        assert self.make_overlap(OverlapPolicy.FIRST) == b"abnewOLDxx"

    def test_last_takes_new(self):
        assert self.make_overlap(OverlapPolicy.LAST) == b"abnewNEWxx"

    def test_bsd_new_starting_earlier_wins(self):
        assert self.make_overlap(OverlapPolicy.BSD) == b"abnewNEWxx"

    def test_linux_keeps_old(self):
        assert self.make_overlap(OverlapPolicy.LINUX) == b"abnewOLDxx"

    def test_overlap_event_reported(self):
        r = reasm()
        r.add(1005, b"OLDxx")
        result = r.add(1002, b"newNEW")
        assert StreamEvent.INCONSISTENT_OVERLAP in events_of(result)

    def test_consistent_overlap_reported_as_overlap(self):
        r = reasm()
        r.add(1005, b"WXYZQ")
        result = r.add(1002, b"abcWXY")
        assert StreamEvent.OVERLAP in events_of(result)
        assert StreamEvent.INCONSISTENT_OVERLAP not in events_of(result)

    def test_engulfing_segment(self):
        r = reasm(policy=OverlapPolicy.WINDOWS)
        r.add(1005, b"OLD")
        r.add(1000, b"NEWNEWNEWNEW")  # engulfs [5,8) entirely
        result = r.add(1000, b"")  # no-op; stream already delivered
        assert r.delivered_total == 12

    def test_delivered_bytes_never_retracted(self):
        # Once bytes reach the application they are final, whatever the policy.
        r = reasm(policy=OverlapPolicy.LAST)
        r.add(1000, b"abcdef")
        r.add(1000, b"XXXXXX")
        assert r.delivered_total == 6
        result = r.add(1006, b"tail")
        assert result.delivered == b"tail"


class TestTinySegments:
    def test_threshold_flags_small_data(self):
        r = reasm(tiny_threshold=8)
        result = r.add(1000, b"abc")
        assert StreamEvent.TINY_SEGMENT in events_of(result)

    def test_fin_segment_exempt(self):
        r = reasm(tiny_threshold=8)
        result = r.add(1000, b"abc", fin=True)
        assert StreamEvent.TINY_SEGMENT not in events_of(result)

    def test_threshold_zero_disables(self):
        r = reasm()
        result = r.add(1000, b"a")
        assert StreamEvent.TINY_SEGMENT not in events_of(result)


@st.composite
def segmentation(draw):
    """A stream plus a partition of it into contiguous segments."""
    data = draw(st.binary(min_size=1, max_size=300))
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=len(data)), max_size=10).map(sorted)
    )
    bounds = [0] + sorted(set(c for c in cuts if c < len(data))) + [len(data)]
    pieces = [
        (bounds[i], data[bounds[i] : bounds[i + 1]]) for i in range(len(bounds) - 1)
    ]
    return data, pieces


@given(segmentation())
def test_in_order_segmentation_reassembles_exactly(case):
    data, pieces = case
    r = reasm()
    stream, events = feed_all(r, pieces)
    assert stream == data
    assert events == []


@given(segmentation(), st.randoms(use_true_random=False))
def test_any_permutation_reassembles_exactly(case, rng):
    data, pieces = case
    shuffled = list(pieces)
    rng.shuffle(shuffled)
    r = reasm()
    stream, events = feed_all(r, shuffled)
    assert stream == data
    # Disjoint pieces can never produce overlap events, only reordering.
    assert set(events) <= {StreamEvent.OUT_OF_ORDER}


@given(
    segmentation(),
    st.randoms(use_true_random=False),
    st.sampled_from(list(OverlapPolicy)),
)
@settings(max_examples=50)
def test_consistent_duplicates_never_corrupt_stream(case, rng, policy):
    # Send every piece twice in random order with *identical* content: the
    # application must still see exactly the original stream under every
    # policy, because consistent overlaps are resolution-invariant.
    data, pieces = case
    doubled = list(pieces) + list(pieces)
    rng.shuffle(doubled)
    r = reasm(policy=policy)
    stream, events = feed_all(r, doubled)
    assert stream == data
    assert StreamEvent.INCONSISTENT_OVERLAP not in events


@given(segmentation(), st.randoms(use_true_random=False))
@settings(max_examples=50)
def test_buffered_bytes_drain_to_zero(case, rng):
    data, pieces = case
    shuffled = list(pieces)
    rng.shuffle(shuffled)
    r = reasm()
    feed_all(r, shuffled)
    assert r.buffered_bytes == 0
    assert r.pending_holes() == []
    assert r.delivered_total == len(data)


class ByteLevelReassembler(TcpReassembler):
    """Reference merge: occupancy and placement one byte at a time, the
    way the merge was first written (the model the slice merge must
    equal on every layout)."""

    def _insert(self, rel, data, result):
        end = rel + len(data)
        lo = 0
        while lo < len(self._starts) and self._starts[lo] + len(self._chunks[lo]) <= rel:
            lo += 1
        hi = lo
        while hi < len(self._starts) and self._starts[hi] < end:
            hi += 1
        if lo == hi:
            self._starts.insert(lo, rel)
            self._chunks.insert(lo, data)
            self._buffered += len(data)
            return
        merged_start = min(rel, self._starts[lo])
        merged_end = max(end, self._starts[hi - 1] + len(self._chunks[hi - 1]))
        merged = bytearray(merged_end - merged_start)
        have = bytearray(merged_end - merged_start)
        for start, chunk in zip(self._starts[lo:hi], self._chunks[lo:hi]):
            for i, byte in enumerate(chunk):
                merged[start - merged_start + i] = byte
                have[start - merged_start + i] = 1
        for start, chunk in zip(self._starts[lo:hi], self._chunks[lo:hi]):
            ov_start, ov_end = max(start, rel), min(start + len(chunk), end)
            if ov_start >= ov_end:
                continue
            old = bytes(chunk[ov_start - start : ov_end - start])
            new = bytes(data[ov_start - rel : ov_end - rel])
            result.events.append(
                StreamEventRecord(
                    StreamEvent.OVERLAP if old == new else StreamEvent.INCONSISTENT_OVERLAP,
                    ov_start,
                    ov_end - ov_start,
                    detail=f"policy={self.policy.value}",
                )
            )
            if resolve_overlap(self.policy, start, start + len(chunk), rel, end):
                for i in range(ov_start, ov_end):
                    merged[i - merged_start] = data[i - rel]
        for i, byte in enumerate(data):
            if not have[rel - merged_start + i]:
                merged[rel - merged_start + i] = byte
        self._buffered += len(merged) - sum(len(c) for c in self._chunks[lo:hi])
        del self._starts[lo:hi]
        del self._chunks[lo:hi]
        self._starts.insert(lo, merged_start)
        self._chunks.insert(lo, merged)


@st.composite
def overlap_layout(draw):
    """Segments at random offsets and lengths over a short window (so
    they overlap, abut, nest and straddle), each with its own fill, and
    an origin that is sent last or never (keeping data parked)."""
    segments = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        offset = draw(st.integers(min_value=1, max_value=60))
        length = draw(st.integers(min_value=1, max_value=30))
        fill = draw(st.sampled_from(b"abc"))
        pattern = draw(st.booleans())
        data = bytes((fill + i) % 256 for i in range(length)) if pattern else bytes([fill]) * length
        segments.append((offset, data))
    return segments, draw(st.booleans())


@given(case=overlap_layout(), policy=st.sampled_from(list(OverlapPolicy)))
@settings(max_examples=300, deadline=None)
def test_slice_merge_equals_the_byte_level_model(case, policy):
    segments, close_hole = case
    fast = TcpReassembler(policy=policy, first_byte_seq=1000)
    model = ByteLevelReassembler(policy=policy, first_byte_seq=1000)
    if close_hole:
        segments = segments + [(0, b"z")]
    for offset, data in segments:
        got = fast.add(1000 + offset, data)
        want = model.add(1000 + offset, data)
        assert got.events == want.events
        assert got.delivered == want.delivered
        assert fast._starts == model._starts
        assert fast._chunks == model._chunks
        assert fast.buffered_bytes == model.buffered_bytes
