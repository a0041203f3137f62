"""Unit tests for the shared SignatureMatcher (multi-content completion)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import SignatureMatcher
from repro.packet import FlowKey
from repro.signatures import Signature

FLOW = FlowKey("1.1.1.1", "2.2.2.2", 1000, 80)


def matcher(*sigs):
    return SignatureMatcher(list(sigs))


class TestBufferMatching:
    def test_single_content(self):
        m = matcher(Signature(sid=1, pattern=b"needle"))
        hits = m.match_buffer(b"hay needle hay", FLOW)
        assert [h.signature.sid for h in hits] == [1]

    def test_multi_content_all_present(self):
        m = matcher(Signature(sid=1, pattern=b"primary!", extra_contents=(b"aa", b"bb")))
        assert m.match_buffer(b"aa..primary!..bb", FLOW)
        assert m.match_buffer(b"primary!aabb", FLOW)

    def test_multi_content_missing_extra(self):
        m = matcher(Signature(sid=1, pattern=b"primary!", extra_contents=(b"aa", b"bb")))
        assert not m.match_buffer(b"aa..primary!..", FLOW)
        assert not m.match_buffer(b"..primary!..", FLOW)

    def test_port_and_protocol_filters(self):
        m = matcher(Signature(sid=1, pattern=b"needle", dst_port=443))
        assert not m.match_buffer(b"needle", FLOW)
        https = FlowKey("1.1.1.1", "2.2.2.2", 1000, 443)
        assert m.match_buffer(b"needle", https)

    def test_empty_matcher(self):
        m = SignatureMatcher([])
        assert m.empty
        assert m.match_buffer(b"anything", FLOW) == []

    def test_repeated_primary_alerts_each_time(self):
        m = matcher(Signature(sid=1, pattern=b"dup"))
        assert len(m.match_buffer(b"dup dup dup", FLOW)) == 3


class TestStreamMatching:
    def test_completion_across_chunks(self):
        m = matcher(Signature(sid=1, pattern=b"primary!", extra_contents=(b"xtra1",)))
        state = m.new_stream_state()
        assert m.match_chunk(state, b"...prim", FLOW) == []
        assert m.match_chunk(state, b"ary!...", FLOW) == []  # extra still missing
        hits = m.match_chunk(state, b"..xtra1..", FLOW)
        assert [h.signature.sid for h in hits] == [1]

    def test_extras_first_then_primary(self):
        m = matcher(Signature(sid=1, pattern=b"primary!", extra_contents=(b"xtra1",)))
        state = m.new_stream_state()
        m.match_chunk(state, b"xtra1....", FLOW)
        hits = m.match_chunk(state, b"primary!", FLOW)
        assert len(hits) == 1

    def test_two_pending_primaries_both_fire_on_completion(self):
        m = matcher(Signature(sid=1, pattern=b"primary!", extra_contents=(b"xtra1",)))
        state = m.new_stream_state()
        m.match_chunk(state, b"primary!..primary!..", FLOW)
        hits = m.match_chunk(state, b"xtra1", FLOW)
        assert len(hits) == 2

    def test_per_flow_state_is_independent(self):
        m = matcher(Signature(sid=1, pattern=b"primary!", extra_contents=(b"xtra1",)))
        a, b = m.new_stream_state(), m.new_stream_state()
        m.match_chunk(a, b"xtra1", FLOW)
        assert m.match_chunk(b, b"primary!", FLOW) == []  # b never saw the extra
        assert m.match_chunk(a, b"primary!", FLOW)

    def test_nocase_signature_in_stream(self):
        m = matcher(Signature(sid=1, pattern=b"Needle", nocase=True))
        state = m.new_stream_state()
        hits = m.match_chunk(state, b"...nEeDlE...", FLOW)
        assert len(hits) == 1


@given(
    data=st.binary(max_size=300),
    chunk_size=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60)
def test_stream_and_buffer_agree_for_single_content(data, chunk_size):
    sig = Signature(sid=1, pattern=b"\x01\x02\x03")
    m_buffer = matcher(sig)
    m_stream = matcher(sig)
    buffer_hits = len(m_buffer.match_buffer(data, FLOW))
    state = m_stream.new_stream_state()
    stream_hits = 0
    for i in range(0, len(data), chunk_size):
        stream_hits += len(m_stream.match_chunk(state, data[i : i + chunk_size], FLOW))
    assert stream_hits == buffer_hits
