"""Tests for flow keys, TCP-in-IP construction, and decode helpers."""

import json
import pickle

import pytest

from repro.packet import (
    IP_PROTO_TCP,
    FlowKey,
    IPv4Packet,
    TcpSegment,
    build_tcp_packet,
    decode_tcp,
    flow_key_of,
    fragment,
)


class TestFlowKey:
    def test_reversed(self):
        key = FlowKey("1.1.1.1", "2.2.2.2", 1000, 80)
        rev = key.reversed()
        assert rev.src == "2.2.2.2" and rev.src_port == 80
        assert rev.reversed() == key

    def test_canonical_is_direction_insensitive(self):
        key = FlowKey("9.9.9.9", "2.2.2.2", 1000, 80)
        assert key.canonical() == key.reversed().canonical()

    def test_canonical_of_canonical_is_identity(self):
        key = FlowKey("2.2.2.2", "9.9.9.9", 80, 1000)
        assert key.canonical().canonical() == key.canonical()

    def test_hashable_and_str(self):
        key = FlowKey("1.1.1.1", "2.2.2.2", 1000, 80)
        assert key in {key}
        assert "1.1.1.1:1000" in str(key)

    @pytest.mark.parametrize(
        "protocol", sorted({pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL})
    )
    def test_pickle_round_trip(self, protocol):
        """Alerts and diversions cross the worker queues, which pickle at
        the default protocol."""
        key = FlowKey("10.0.0.9", "10.0.0.1", 40000, 80, 17)
        back = pickle.loads(pickle.dumps(key, protocol=protocol))
        assert type(back) is FlowKey
        assert back == key and hash(back) == hash(key)
        assert str(back) == str(key)

    def test_keyword_construction_and_tcp_default(self):
        key = FlowKey(src="1.1.1.1", dst="2.2.2.2", src_port=1000, dst_port=80)
        assert key.protocol == IP_PROTO_TCP
        assert key == FlowKey("1.1.1.1", "2.2.2.2", 1000, 80, 6)
        assert FlowKey("1.1.1.1", "2.2.2.2", 1000, 80, protocol=17).protocol == 17

    def test_rendered_forms_are_unchanged(self):
        key = FlowKey("9.9.9.9", "2.2.2.2", 1000, 80, 17)
        assert str(key) == "9.9.9.9:1000 -> 2.2.2.2:80/17"
        assert str(key.reversed()) == "2.2.2.2:80 -> 9.9.9.9:1000/17"
        assert key.canonical() == FlowKey("2.2.2.2", "9.9.9.9", 80, 1000, 17)
        assert repr(key) == (
            "FlowKey(src='9.9.9.9', dst='2.2.2.2', src_port=1000, dst_port=80, protocol=17)"
        )
        # Equal addresses: the ports decide the canonical direction.
        same = FlowKey("5.5.5.5", "5.5.5.5", 9000, 22)
        assert same.canonical() == FlowKey("5.5.5.5", "5.5.5.5", 22, 9000)

    def test_hash_and_equality_are_the_field_tuples(self):
        """A key hashes and compares as the plain tuple of its fields (so
        set and dict iteration orders match the former dataclass's, whose
        generated ``__hash__`` hashed that same tuple).  The flip side:
        a container must never mix keys with raw tuples, and an export
        writes ``str(flow)`` -- ``json.dumps`` would write a list."""
        fields = ("1.1.1.1", "2.2.2.2", 1000, 80, 6)
        key = FlowKey(*fields)
        assert hash(key) == hash(fields) and key == fields
        assert json.dumps(str(key)) == '"1.1.1.1:1000 -> 2.2.2.2:80/6"'


class TestBuildDecode:
    def test_round_trip(self):
        seg = TcpSegment(src_port=40000, dst_port=443, seq=7, payload=b"hello")
        pkt = build_tcp_packet("10.0.0.1", "10.0.0.9", seg)
        wire = IPv4Packet.parse(pkt.serialize())
        decoded = decode_tcp(wire, strict=True)
        assert decoded == seg

    def test_flow_key_of_tcp(self):
        seg = TcpSegment(src_port=40000, dst_port=443)
        pkt = build_tcp_packet("10.0.0.1", "10.0.0.9", seg)
        key = flow_key_of(pkt)
        assert key == FlowKey("10.0.0.1", "10.0.0.9", 40000, 443)

    def test_decode_rejects_non_tcp(self):
        pkt = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", protocol=17, payload=b"x" * 8)
        with pytest.raises(ValueError):
            decode_tcp(pkt)

    def test_decode_rejects_fragment(self):
        seg = TcpSegment(src_port=40000, dst_port=443, payload=b"x" * 100)
        pkt = build_tcp_packet("10.0.0.1", "10.0.0.9", seg, dont_fragment=False)
        frags = fragment(pkt, 68)
        with pytest.raises(ValueError):
            decode_tcp(frags[0])

    def test_flow_key_of_nonfirst_fragment_raises(self):
        seg = TcpSegment(src_port=40000, dst_port=443, payload=b"x" * 200)
        pkt = build_tcp_packet("10.0.0.1", "10.0.0.9", seg, dont_fragment=False)
        frags = fragment(pkt, 68)
        assert len(frags) > 1
        with pytest.raises(ValueError):
            flow_key_of(frags[1])

    def test_first_fragment_still_yields_ports(self):
        seg = TcpSegment(src_port=40000, dst_port=443, payload=b"x" * 200)
        pkt = build_tcp_packet("10.0.0.1", "10.0.0.9", seg, dont_fragment=False)
        first = fragment(pkt, 68)[0]
        key = flow_key_of(first)
        assert key.src_port == 40000 and key.dst_port == 443
