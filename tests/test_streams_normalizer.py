"""Integration tests for the flow-table normalizer."""

import pytest

from repro.packet import (
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    FlowKey,
    TcpSegment,
    TimedPacket,
    build_tcp_packet,
    fragment,
)
from repro.streams import StreamEvent, StreamNormalizer


def tcp_packet(payload, seq=1000, ts=0.0, flags=TCP_ACK, src="10.0.0.1", dst="10.0.0.2",
               sport=40000, dport=80, ttl=64, frag_mtu=None, ident=0):
    seg = TcpSegment(src_port=sport, dst_port=dport, seq=seq, flags=flags, payload=payload)
    pkt = build_tcp_packet(src, dst, seg, ttl=ttl, identification=ident,
                           dont_fragment=frag_mtu is None)
    if frag_mtu:
        return [TimedPacket(ts, f) for f in fragment(pkt, frag_mtu)]
    return TimedPacket(ts, pkt)


class TestBasicFlow:
    def test_in_order_stream_normalizes(self):
        n = StreamNormalizer()
        out1 = n.process(tcp_packet(b"GET / HT", seq=1000))
        out2 = n.process(tcp_packet(b"TP/1.0\r\n", seq=1008))
        assert out1.chunks == [b"GET / HT"]
        assert out2.chunks == [b"TP/1.0\r\n"]
        assert n.active_flows == 1

    def test_two_directions_share_one_flow(self):
        n = StreamNormalizer()
        n.process(tcp_packet(b"request", src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=80))
        n.process(tcp_packet(b"response", src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000))
        assert n.active_flows == 1

    def test_distinct_flows_counted(self):
        n = StreamNormalizer()
        n.process(tcp_packet(b"a", sport=40000))
        n.process(tcp_packet(b"b", sport=40001))
        assert n.active_flows == 2

    def test_out_of_order_reported_and_repaired(self):
        n = StreamNormalizer()
        n.process(tcp_packet(b"", seq=999, flags=TCP_SYN))  # pins stream offset 0
        out1 = n.process(tcp_packet(b"world", seq=1005))
        assert StreamEvent.OUT_OF_ORDER in [e.event for e in out1.events]
        out2 = n.process(tcp_packet(b"hello", seq=1000))
        assert out2.chunks == [b"helloworld"]

    def test_non_tcp_packets_passed_through_as_datagrams(self):
        from repro.packet import IPv4Packet, UdpDatagram, build_udp_packet

        n = StreamNormalizer()
        pkt = build_udp_packet("1.1.1.1", "2.2.2.2", UdpDatagram(5353, 53, b"x" * 12))
        out = n.process(TimedPacket(0.0, pkt))
        assert out.chunks == []
        assert out.flow == FlowKey("1.1.1.1", "2.2.2.2", 5353, 53, 17)
        assert out.datagram == b"x" * 12  # handed to the caller for UDP matching
        assert n.active_flows == 0  # and no reassembly state was created
        # A UDP header that does not decode names its flow, hands over nothing.
        bad = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", protocol=17, payload=b"x" * 12)
        out = n.process(TimedPacket(0.0, bad))
        assert out.flow is not None and out.datagram is None


class TestFragmentsIntoStreams:
    def test_fragmented_tcp_packet_normalizes(self):
        n = StreamNormalizer()
        pieces = tcp_packet(b"A" * 600, frag_mtu=300)
        outputs = [n.process(p) for p in pieces]
        delivered = b"".join(c for o in outputs for c in o.chunks)
        assert delivered == b"A" * 600

    def test_tiny_fragment_flagged(self):
        n = StreamNormalizer(tiny_fragment_threshold=64)
        pieces = tcp_packet(b"B" * 600, frag_mtu=68)
        events = [e.event for p in pieces for e in n.process(p).events]
        assert StreamEvent.TINY_FRAGMENT in events


class TestLifecycle:
    def test_rst_closes_flow(self):
        n = StreamNormalizer()
        n.process(tcp_packet(b"data"))
        out = n.process(tcp_packet(b"", flags=TCP_RST))
        assert out.flow_closed
        assert n.active_flows == 0
        assert n.flows_closed == 1

    def test_fin_both_directions_closes_flow(self):
        n = StreamNormalizer()
        n.process(tcp_packet(b"req", seq=1000))
        n.process(tcp_packet(b"resp", seq=5000, src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000))
        n.process(tcp_packet(b"", seq=1003, flags=TCP_FIN | TCP_ACK))
        assert n.active_flows == 1
        out = n.process(tcp_packet(b"", seq=5004, flags=TCP_FIN | TCP_ACK,
                                   src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000))
        assert out.flow_closed
        assert n.active_flows == 0

    def test_idle_eviction(self):
        n = StreamNormalizer(idle_timeout=60)
        n.process(tcp_packet(b"a", ts=0.0))
        n.process(tcp_packet(b"b", ts=10.0, sport=40001))
        assert n.evict_idle(now=65.0) == 1
        assert n.active_flows == 1

    def test_state_bytes_reflect_buffers(self):
        n = StreamNormalizer()
        empty_state = n.state_bytes()
        n.process(tcp_packet(b"x" * 100, seq=2000))  # out-of-order hole at 1000? no: first packet defines base
        base = n.state_bytes()
        assert base > empty_state
        n.process(tcp_packet(b"y" * 500, seq=5000, sport=40003))
        n.process(tcp_packet(b"z" * 100, seq=6000, sport=40003))  # buffered OOO
        assert n.state_bytes() > base


class TestTtlAnomaly:
    def test_ttl_swing_flagged(self):
        n = StreamNormalizer()
        n.process(tcp_packet(b"a", seq=1000, ttl=64))
        out = n.process(tcp_packet(b"b", seq=1001, ttl=3))
        assert StreamEvent.TTL_ANOMALY in [e.event for e in out.events]

    def test_small_ttl_jitter_tolerated(self):
        n = StreamNormalizer()
        n.process(tcp_packet(b"a", seq=1000, ttl=64))
        out = n.process(tcp_packet(b"b", seq=1001, ttl=62))
        assert StreamEvent.TTL_ANOMALY not in [e.event for e in out.events]

    def test_check_can_be_disabled(self):
        n = StreamNormalizer(ttl_check=False)
        n.process(tcp_packet(b"a", seq=1000, ttl=64))
        out = n.process(tcp_packet(b"b", seq=1001, ttl=1))
        assert StreamEvent.TTL_ANOMALY not in [e.event for e in out.events]


class TestAmbiguityDetection:
    def test_inconsistent_tcp_overlap_surfaces(self):
        n = StreamNormalizer()
        n.process(tcp_packet(b"attack!!", seq=1000))
        out = n.process(tcp_packet(b"ATTACK!!", seq=1000))
        assert StreamEvent.INCONSISTENT_OVERLAP in [e.event for e in out.events]

    def test_tiny_segment_threshold(self):
        n = StreamNormalizer(tiny_segment_threshold=16)
        out = n.process(tcp_packet(b"abc", seq=1000))
        assert StreamEvent.TINY_SEGMENT in [e.event for e in out.events]


class TestStreamHints:
    CLIENT = FlowKey("10.0.0.1", "10.0.0.2", 40000, 80)

    def test_a_closed_flows_hint_does_not_anchor_a_reused_five_tuple(self):
        """Hint the server direction, RST before it sends, reuse the
        five-tuple with a new hint: the server's first bytes are the
        stream start, not an out-of-order segment 114,456 bytes ahead."""
        n = StreamNormalizer()
        server = self.CLIENT.reversed()
        n.hint_stream_start(server, 9000)
        n.process(tcp_packet(b"hello", seq=500))
        n.process(tcp_packet(b"", seq=505, flags=TCP_RST | TCP_ACK))
        assert n.active_flows == 0
        n.hint_stream_start(server, 123456)
        n.process(tcp_packet(b"again", seq=700))
        out = n.process(
            tcp_packet(b"fourteen bytes", seq=123456, src="10.0.0.2", dst="10.0.0.1",
                       sport=80, dport=40000)
        )
        assert out.chunks == [b"fourteen bytes"]
        assert StreamEvent.OUT_OF_ORDER not in [record.event for record in out.events]

    def test_hints_die_with_release_and_idle_eviction(self):
        n = StreamNormalizer(idle_timeout=10.0)
        n.hint_stream_start(self.CLIENT.reversed(), 9000)
        n.process(tcp_packet(b"hello", seq=500))
        n.release(self.CLIENT)
        assert not n._start_hints
        # A hint whose flow never sent anything goes at the next sweep.
        n.hint_stream_start(self.CLIENT, 1)
        n.hint_stream_start(self.CLIENT.reversed(), 2)
        n.evict_idle(100.0)
        assert not n._start_hints
        # A live flow keeps its unused hint.
        n.hint_stream_start(self.CLIENT.reversed(), 9000)
        n.process(tcp_packet(b"hello", seq=500, ts=100.0))
        n.evict_idle(101.0)
        assert n._start_hints == {self.CLIENT.reversed(): 9000}


class TestRuns:
    """``feed`` with several rows of one flow decides as row-at-a-time feeding."""

    @staticmethod
    def outcome(normalizer, packets, as_run):
        from repro.packet import packet_fields

        rows = [packet_fields(packet)[1] for packet in packets]
        canonical = rows[0][0].canonical()
        feeds = [rows] if as_run else [[row] for row in rows]
        outputs = [normalizer.feed(canonical, run) for run in feeds]
        chunks = [chunk for output in outputs for chunk in output.chunks]
        events = [record.event for output in outputs for record in output.events]
        return chunks, events, normalizer.buffered_bytes, normalizer.stream_positions(canonical)

    def test_a_pure_ack_below_an_unpinned_origin_still_moves_it(self):
        """Before its direction delivered a byte, a pure ACK below the
        origin a SYN set moves the origin down, so the data after it
        lands beyond a hole: a run must handle that ACK alone."""
        syn = tcp_packet(b"", seq=1000, flags=TCP_SYN)  # no hint: origin 1001, unpinned
        ack = tcp_packet(b"", seq=900, ts=0.1)
        data = tcp_packet(b"0123456789", seq=950, ts=0.2)
        results = []
        for as_run in (False, True):
            normalizer = StreamNormalizer()
            normalizer.process(syn)
            results.append(self.outcome(normalizer, [ack, data], as_run))
        alone, run = results
        assert run == alone
        assert alone[0] == [] and alone[2] == 10  # parked behind the 900..950 hole
