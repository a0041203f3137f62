"""Unit tests for the Split-Detect fast path."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ATTACK_SIGNATURE, attack_ruleset, fast_process
from repro.core import (
    FAST_FLOW_STATE_BYTES,
    DivertReason,
    FastPath,
    FastPathConfig,
    SplitDetectIPS,
)
from repro.core.state import DictBackend
from repro.evasion import build_attack, even_segments, plan_to_packets
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
    tuple_of_flow,
)
from repro.signatures import RuleSet, Signature, SplitPolicy, split_ruleset


def make_fastpath(config=None, piece_length=8):
    rules = attack_ruleset()
    split = split_ruleset(rules, SplitPolicy(piece_length=piece_length))
    return FastPath(split, config)


def packets_for(payload, size=512, **conn):
    return plan_to_packets(even_segments(payload, size), **conn)


def run(fastpath, packets):
    results = [fast_process(fastpath, p) for p in packets]
    diverts = [r.divert for r in results if r.divert]
    return results, diverts


class TestCleanTraffic:
    def test_benign_in_order_flow_passes(self):
        fp = make_fastpath()
        payload = b"Nothing suspicious here at all, plain web browsing. " * 40
        _, diverts = run(fp, packets_for(payload))
        assert diverts == []

    def test_flow_state_created_and_freed(self):
        fp = make_fastpath()
        packets = packets_for(b"benign data benign data benign data " * 30)
        for packet in packets[:-1]:
            fast_process(fp, packet)
        assert fp.tracked_flows == 1
        fast_process(fp, packets[-1])  # FIN frees the entry
        assert fp.tracked_flows == 0

    def test_rst_frees_state(self):
        fp = make_fastpath()
        fast_process(fp, packets_for(b"x" * 600)[0])  # SYN
        rst = TcpSegment(src_port=44000, dst_port=80, seq=9, flags=TCP_RST)
        fast_process(fp, TimedPacket(1.0, build_tcp_packet("10.9.9.9", "10.0.0.2", rst)))
        assert fp.tracked_flows == 0

    def test_state_bytes_accounting(self):
        fp = make_fastpath()
        packets = packets_for(b"a" * 600, src_port=1001) + packets_for(b"b" * 600, src_port=1002)
        for packet in packets:
            if not packet.ip.payload:
                continue
            fast_process(fp, packet)
        assert fp.state_bytes() == fp.tracked_flows * FAST_FLOW_STATE_BYTES


def tcp_at(timestamp, src, dst, segment, **kw):
    return TimedPacket(timestamp, build_tcp_packet(src, dst, segment, **kw))


class TestStateLeakRegression:
    """Monitor entries must never outlive their flow (leak regressions)."""

    CLIENT = "10.9.9.9"
    SERVER = "10.0.0.2"

    def _client_seg(self, **kw):
        return TcpSegment(src_port=44000, dst_port=80, **kw)

    def _server_seg(self, **kw):
        return TcpSegment(src_port=80, dst_port=44000, **kw)

    def _bidirectional(self, fp):
        """Data in both directions: one monitor entry per direction."""
        fast_process(fp, tcp_at(0.0, self.CLIENT, self.SERVER,
                                self._client_seg(seq=1, flags=TCP_ACK, payload=b"c" * 600)))
        fast_process(fp, tcp_at(0.1, self.SERVER, self.CLIENT,
                                self._server_seg(seq=1, flags=TCP_ACK, payload=b"s" * 600)))
        assert fp.tracked_flows == 2

    def test_rst_clears_both_directions(self):
        fp = make_fastpath()
        self._bidirectional(fp)
        fast_process(fp, tcp_at(0.2, self.CLIENT, self.SERVER,
                                self._client_seg(seq=601, flags=TCP_RST)))
        assert fp.tracked_flows == 0

    def test_fin_closes_only_the_sender_direction(self):
        fp = make_fastpath()
        self._bidirectional(fp)
        fast_process(fp, tcp_at(0.2, self.CLIENT, self.SERVER,
                                self._client_seg(seq=601, flags=TCP_FIN | TCP_ACK)))
        # The server may still be sending; its monitor entry survives.
        assert fp.tracked_flows == 1

    def test_final_ack_does_not_resurrect_closed_flow(self):
        fp = make_fastpath()
        self._bidirectional(fp)
        fast_process(fp, tcp_at(0.2, self.CLIENT, self.SERVER,
                                self._client_seg(seq=601, flags=TCP_FIN | TCP_ACK)))
        fast_process(fp, tcp_at(0.3, self.SERVER, self.CLIENT,
                                self._server_seg(seq=601, flags=TCP_FIN | TCP_ACK)))
        assert fp.tracked_flows == 0
        # The handshake's final pure ACK must not recreate an entry.
        fast_process(fp, tcp_at(0.4, self.CLIENT, self.SERVER,
                                self._client_seg(seq=602, flags=TCP_ACK)))
        assert fp.tracked_flows == 0

    def test_pure_ack_creates_no_state(self):
        fp = make_fastpath()
        fast_process(fp, tcp_at(0.0, self.CLIENT, self.SERVER,
                                self._client_seg(seq=1, flags=TCP_ACK)))
        assert fp.tracked_flows == 0

    def test_evict_idle_reclaims_only_stale_entries(self):
        fp = make_fastpath()
        fast_process(fp, tcp_at(0.0, self.CLIENT, self.SERVER,
                                TcpSegment(src_port=1001, dst_port=80, seq=1,
                                           flags=TCP_ACK, payload=b"a" * 600)))
        fast_process(fp, tcp_at(200.0, self.CLIENT, self.SERVER,
                                TcpSegment(src_port=1002, dst_port=80, seq=1,
                                           flags=TCP_ACK, payload=b"b" * 600)))
        assert fp.tracked_flows == 2
        assert fp.evict_idle(now=350.0) == 1  # default timeout 300s
        assert fp.tracked_flows == 1
        (survivor,) = fp.live_flows()
        assert 1002 in (survivor.src_port, survivor.dst_port)


class TestAnomalyMonitor:
    def test_tiny_segment_diverts(self):
        fp = make_fastpath()
        _, diverts = run(fp, packets_for(b"x" * 100, size=4))
        assert DivertReason.TINY_SEGMENT in diverts

    def test_final_fin_segment_exempt_from_tiny(self):
        fp = make_fastpath()
        # 600 bytes at size 512: final segment is 88 bytes with FIN; 88 < B
        # never happens with B=16, so use a 3-byte FIN tail explicitly.
        packets = packets_for(b"x" * 515, size=512)
        results, diverts = run(fp, packets)
        assert diverts == []

    def test_out_of_order_diverts(self):
        fp = make_fastpath()
        packets = packets_for(b"x" * 2000, size=500)
        reordered = [packets[0], packets[2], packets[1]] + packets[3:]
        _, diverts = run(fp, reordered)
        assert DivertReason.OUT_OF_ORDER in diverts

    def test_retransmission_diverts(self):
        fp = make_fastpath()
        packets = packets_for(b"x" * 2000, size=500)
        replayed = packets[:3] + [packets[2]] + packets[3:]
        _, diverts = run(fp, replayed)
        assert DivertReason.RETRANSMISSION in diverts

    def test_fragment_diverts(self):
        # R3 is the engine's (a fragment never reaches the fast path).
        ips = SplitDetectIPS(attack_ruleset(), split_policy=SplitPolicy(piece_length=8))
        seg = TcpSegment(src_port=44000, dst_port=80, seq=1, flags=TCP_ACK, payload=b"y" * 600)
        big = build_tcp_packet("10.9.9.9", "10.0.0.2", seg, dont_fragment=False)
        frags = fragment(big, 256)
        ips.process(TimedPacket(0.0, frags[0]))
        assert ips.divert_reasons == {DivertReason.IP_FRAGMENT: 1}
        assert ips.is_diverted(FlowKey("10.9.9.9", "10.0.0.2", 44000, 80))

    def test_monitor_checks_can_be_disabled(self):
        config = FastPathConfig(check_tiny=False, check_order=False, divert_fragments=False)
        fp = make_fastpath(config)
        packets = packets_for(b"x" * 2000, size=4)
        _, diverts = run(fp, packets)
        assert DivertReason.TINY_SEGMENT not in diverts

    def test_threshold_override(self):
        fp = make_fastpath(FastPathConfig(threshold_override=600))
        _, diverts = run(fp, packets_for(b"x" * 2000, size=512))
        assert DivertReason.TINY_SEGMENT in diverts

    def test_threshold_comes_from_ruleset(self):
        fp = make_fastpath(piece_length=10)
        assert fp.threshold == 20

    def test_low_ttl_data_packet_diverts(self):
        fp = make_fastpath()
        seg = TcpSegment(src_port=44000, dst_port=80, seq=1, flags=TCP_ACK, payload=b"y" * 600)
        low = build_tcp_packet("10.9.9.9", "10.0.0.2", seg, ttl=2)
        result = fast_process(fp, TimedPacket(0.0, low))
        assert result.divert == DivertReason.TTL_FLOOR

    def test_low_ttl_pure_ack_tolerated(self):
        fp = make_fastpath()
        seg = TcpSegment(src_port=44000, dst_port=80, seq=1, flags=TCP_ACK)
        low = build_tcp_packet("10.9.9.9", "10.0.0.2", seg, ttl=2)
        result = fast_process(fp, TimedPacket(0.0, low))
        assert result.divert is None

    def test_ttl_floor_configurable(self):
        fp = make_fastpath(FastPathConfig(min_ttl=0))
        seg = TcpSegment(src_port=44000, dst_port=80, seq=1, flags=TCP_ACK, payload=b"y" * 600)
        low = build_tcp_packet("10.9.9.9", "10.0.0.2", seg, ttl=1)
        result = fast_process(fp, TimedPacket(0.0, low))
        assert result.divert is None

    def test_seed_flow_presets_expected_seq(self):
        from repro.packet import FlowKey

        fp = make_fastpath()
        flow = FlowKey("10.9.9.9", "10.0.0.2", 44000, 80)
        fp.seed_flow(flow, 5000)
        assert fp.expected_seq(flow) == 5000
        seg = TcpSegment(src_port=44000, dst_port=80, seq=6000, flags=TCP_ACK, payload=b"z" * 600)
        result = fast_process(fp, TimedPacket(0.0, build_tcp_packet("10.9.9.9", "10.0.0.2", seg)))
        assert result.divert == DivertReason.OUT_OF_ORDER
        assert result.flow_expected_seq == 5000


class TestPieceScanning:
    def test_whole_signature_in_one_packet_diverts(self):
        fp = make_fastpath()
        payload = b"A" * 100 + ATTACK_SIGNATURE + b"B" * 100
        results, diverts = run(fp, packets_for(payload, size=1460))
        assert DivertReason.PIECE_MATCH in diverts
        hits = [h for r in results for h in r.piece_hits]
        assert {h.signature.sid for h in hits} == {5001}

    def test_wrong_port_piece_does_not_divert(self):
        fp = make_fastpath()
        payload = b"A" * 50 + ATTACK_SIGNATURE + b"B" * 50
        packets = packets_for(payload, dst_port=8081)  # sid 5001 is port-80 only
        _, diverts = run(fp, packets)
        assert DivertReason.PIECE_MATCH not in diverts

    def test_bytes_scanned_counts_payload(self):
        fp = make_fastpath()
        payload = b"q" * 700
        run(fp, packets_for(payload, size=512))
        assert fp.bytes_scanned == 700

    def test_short_signature_whole_match_alerts(self):
        from repro.signatures import Signature

        rules = attack_ruleset(extra=[Signature(sid=9001, pattern=b"tiny!", msg="short")])
        split = split_ruleset(rules, SplitPolicy(piece_length=8))
        assert any(s.sid == 9001 for s in split.unsplittable)
        fp = FastPath(split)
        payload = b"aaaa tiny! bbbb" + b"c" * 100
        results, diverts = run(fp, packets_for(payload))
        alerts = [a for r in results for a in r.alerts]
        assert any(a.sid == 9001 and a.path == "fast" for a in alerts)


def piece_hits_of(fastpath, payload):
    """The in-context piece hits of one data packet, as (sid, index)."""
    return [(h.signature.sid, h.index) for r in run(fastpath, packets_for(payload))[0] for h in r.piece_hits]


class TestPieceInContext:
    """R5 diverts on a piece hit only when the packet agrees with the
    hit's own signature wherever that occurrence and the packet overlap
    (sid 5001 at p = 8: pieces at offsets 0 / 10 / 19)."""

    PIECE = split_ruleset(attack_ruleset(), SplitPolicy(piece_length=8)).splits[5001].pieces[1]

    def test_piece_inside_its_signature_diverts(self):
        # Whole-signature entries off: only the three pieces can hit.
        fp = make_fastpath(FastPathConfig(scan_whole_signatures=False))
        payload = b"x" * 50 + ATTACK_SIGNATURE + b"y" * 50
        assert run(fp, packets_for(payload))[1] == [DivertReason.PIECE_MATCH]
        assert piece_hits_of(make_fastpath(), payload) == [(5001, 0), (5001, 1), (5001, 2)]

    @pytest.mark.parametrize(
        "payload",
        [
            b"x" * 50 + PIECE.data + b"y" * 50,  # a bare piece among filler
            b"x" * 50 + ATTACK_SIGNATURE[: PIECE.offset + len(PIECE.data)] + b"y" * 50,
            b"x" * 50 + ATTACK_SIGNATURE[PIECE.offset :] + b"y" * 50,
        ],
        ids=["both-sides", "after", "before"],
    )
    def test_contradicting_bytes_beside_the_piece_do_not_divert(self, payload):
        fp = make_fastpath()
        _, diverts = run(fp, packets_for(payload))
        assert diverts == []
        assert piece_hits_of(make_fastpath(), payload) == []

    @pytest.mark.parametrize("flipped", [0, PIECE.offset - 1, PIECE.offset + len(PIECE.data), 27])
    def test_one_flipped_signature_byte_leaves_no_piece_in_context(self, flipped):
        # Every piece that does not hold the flipped byte overlaps it.
        payload = bytearray(b"x" * 50 + ATTACK_SIGNATURE + b"y" * 50)
        payload[50 + flipped] ^= 0x20
        fp = make_fastpath(FastPathConfig(scan_whole_signatures=False))
        assert run(fp, packets_for(bytes(payload)))[1] == []

    @pytest.mark.parametrize(
        "payload, hits",
        [
            (b"x" * 50 + ATTACK_SIGNATURE[:19], [(5001, 0), (5001, 1)]),  # occurrence runs off the end
            (ATTACK_SIGNATURE[12:] + b"y" * 50, [(5001, 2)]),  # ... off the start
        ],
        ids=["end", "start"],
    )
    def test_a_piece_at_the_packet_edge_diverts(self, payload, hits):
        # The split-attack shape: the rest of the occurrence is in the
        # neighbouring packets, so the window is cut at the payload edge.
        assert piece_hits_of(make_fastpath(), payload) == hits
        assert run(make_fastpath(), packets_for(payload))[1] == [DivertReason.PIECE_MATCH]

    def test_nocase_signature_agrees_case_folded(self):
        signature = Signature(sid=6001, pattern=b"Nocase-Evil-Command-Line-X", nocase=True)
        fp = FastPath(split_ruleset(attack_ruleset(extra=[signature]), SplitPolicy(piece_length=8)))
        assert piece_hits_of(fp, b"x" * 50 + b"nOCASE-eVIL-cOMMAND") == [(6001, 0), (6001, 1)]
        assert piece_hits_of(fp, b"x" * 50 + b"nOCASE-eVIL-cOMMAND" + b"y" * 50) == []

    def _equal_pieces(self, *patterns):
        rules = RuleSet()
        for sid, pattern in enumerate(patterns, start=7001):
            rules.add(Signature(sid=sid, pattern=pattern))
        split = split_ruleset(rules, SplitPolicy(piece_length=8, optimize_boundaries=False))
        return FastPath(split)

    def test_equal_pieces_of_one_signature_are_checked_each_at_its_offset(self):
        fp = self._equal_pieces(b"ABCDEFGH" + b"12345678" + b"ABCDEFGH")
        assert [p.data for p in fp.split_rules.splits[7001].pieces] == [b"ABCDEFGH", b"12345678", b"ABCDEFGH"]
        # DualAutomaton reports every id of a duplicate pattern.
        assert [hit[0] for hit in fp.automaton.find_all(b"xABCDEFGH")] == [0, 2]
        assert piece_hits_of(fp, b"x" * 50 + b"ABCDEFGH12") == [(7001, 0)]
        assert piece_hits_of(fp, b"345678ABCDEFGH" + b"y" * 50) == [(7001, 2)]
        assert piece_hits_of(fp, b"x" * 50 + b"ABCDEFGH" + b"y" * 50) == []

    def test_equal_pieces_of_two_signatures_are_checked_each_in_its_own(self):
        fp = self._equal_pieces(b"ABCDEFGH" + b"11111111" + b"22222222", b"33333333" + b"ABCDEFGH" + b"44444444")
        assert piece_hits_of(fp, b"x" * 50 + b"ABCDEFGH1111") == [(7001, 0)]
        assert piece_hits_of(fp, b"333333ABCDEFGH444444") == [(7002, 1)]
        assert piece_hits_of(fp, b"x" * 50 + b"ABCDEFGH" + b"y" * 50) == []

    def test_piece_hits_are_counted_by_verdict(self):
        from repro.telemetry import TelemetryRegistry

        tel = TelemetryRegistry()
        split = split_ruleset(attack_ruleset(), SplitPolicy(piece_length=8))
        fp = FastPath(split, telemetry=tel)
        run(fp, packets_for(ATTACK_SIGNATURE[12:] + b"y" * 50 + self.PIECE.data + b"y" * 50))
        counter = tel.get("repro_fastpath_piece_hits_total")
        assert counter.value_for(verdict="out_of_context") == 1
        assert counter.value_for(verdict="divert") == 1


def in_context_oracle(split_rules, payload: bytes) -> Counter:
    """Brute force R5: every occurrence of every piece in ``payload``
    whose signature agrees with the payload wherever the two overlap."""
    found = Counter()
    for split in split_rules.splits.values():
        signature = split.signature
        pattern, folded = signature.match_pattern, signature.fold(payload)
        for piece in split.pieces:
            data = signature.fold(piece.data)
            for at in range(len(payload) - len(data) + 1):
                start = at - piece.offset
                if folded[at : at + len(data)] == data and all(
                    folded[i] == pattern[i - start]
                    for i in range(max(start, 0), min(start + len(pattern), len(payload)))
                ):
                    found[signature.sid, piece.index] += 1
    return found


_CASE_ALPHABET = st.sampled_from([b"a", b"b", b"A", b"B", b"z"])


@st.composite
def piece_context_cases(draw):
    """1-3 signatures over a tiny alphabet (some nocase) and one payload
    of their slices and filler."""
    rules = RuleSet()
    patterns = []
    for sid in range(1, draw(st.integers(1, 3)) + 1):
        pattern = b"".join(draw(st.lists(_CASE_ALPHABET.filter(lambda c: c != b"z"), min_size=12, max_size=24)))
        patterns.append(pattern)
        rules.add(Signature(sid=sid, pattern=pattern, nocase=draw(st.booleans())))
    fragment = st.one_of(
        st.builds(lambda s, a, b: s[a:b], st.sampled_from(patterns), st.integers(0, 24), st.integers(0, 24)),
        st.lists(_CASE_ALPHABET, max_size=6).map(b"".join),
    )
    payload = b"".join(draw(st.lists(fragment, min_size=1, max_size=8)))
    return rules, payload


@given(piece_context_cases())
@settings(max_examples=200, deadline=None)
def test_piece_hits_equal_the_brute_force_context_oracle(case):
    rules, payload = case
    split = split_ruleset(rules, SplitPolicy(piece_length=4))
    fp = FastPath(split)
    segment = TcpSegment(src_port=44000, dst_port=80, seq=1, flags=TCP_ACK, payload=payload)
    result = fast_process(fp, TimedPacket(1.0, build_tcp_packet("10.9.9.9", "10.0.0.2", segment)))
    expected = in_context_oracle(split, payload)
    assert Counter((h.signature.sid, h.index) for h in result.piece_hits) == expected
    if expected:
        assert result.divert is not None


class TestSeedFlowLifecycle:
    """A re-seeded flow must survive the idle sweep that follows it."""

    def _flow(self):
        from repro.packet import FlowKey

        return FlowKey("10.9.9.9", "10.0.0.2", 44000, 80)

    def test_seeded_flow_survives_next_idle_sweep(self):
        # Regression: seed_flow used to leave last_seen=0.0, so a flow
        # released from slow-path probation at t=1000 looked 1000s idle
        # and the very next sweep reclaimed it.
        fp = make_fastpath()
        fp.seed_flow(self._flow(), 5000, now=1000.0)
        assert fp.evict_idle(1000.5) == 0
        assert fp.expected_seq(self._flow()) == 5000

    def test_seeded_flow_still_ages_out_when_genuinely_idle(self):
        fp = make_fastpath()
        fp.seed_flow(self._flow(), 5000, now=1000.0)
        assert fp.evict_idle(1000.0 + 301.0) == 1
        assert fp.expected_seq(self._flow()) is None

    def test_seed_then_traffic_resumes_in_order(self):
        fp = make_fastpath()
        fp.seed_flow(self._flow(), 5000, now=1000.0)
        fp.evict_idle(1000.5)  # the sweep that used to kill the seed
        seg = TcpSegment(src_port=44000, dst_port=80, seq=5000,
                         flags=TCP_ACK, payload=b"z" * 600)
        result = fast_process(fp, 
            TimedPacket(1001.0, build_tcp_packet("10.9.9.9", "10.0.0.2", seg))
        )
        assert result.divert is None  # in order from the seeded position

    def test_expected_seq_probe_is_passive_on_table_backend(self):
        # The diversion-time snapshot must not promote the probed entry
        # over genuinely active flows in the fixed table.
        fp = make_fastpath(FastPathConfig(state_backend="table", table_buckets=1, table_ways=2))
        table = fp._flows
        fp.seed_flow(self._flow(), 100, now=0.0)
        other = self._flow().reversed()
        fp.seed_flow(other, 200, now=0.0)
        hits_before, misses_before = table.hits, table.misses
        assert fp.expected_seq(self._flow()) == 100
        assert (table.hits, table.misses) == (hits_before, misses_before)
        # LRU order unchanged: the probed flow is still the victim.
        assert next(iter(table.items()))[0] == tuple_of_flow(self._flow())


class TestConfirmedWholeMatchSemantics:
    """A whole-signature occurrence confirmed in one packet is a final
    fast-path verdict: alert, no slow-path round trip."""

    def _tiny_ruleset(self):
        from repro.signatures import Signature

        return attack_ruleset(extra=[Signature(sid=9001, pattern=b"tiny!", msg="short")])

    def test_confirmed_short_signature_does_not_divert(self):
        split = split_ruleset(self._tiny_ruleset(), SplitPolicy(piece_length=8))
        fp = FastPath(split)
        payload = b"aaaa tiny! bbbb" + b"c" * 600
        results, diverts = run(fp, packets_for(payload, size=700))
        alerts = [a for r in results for a in r.alerts]
        assert any(a.sid == 9001 and a.path == "fast" for a in alerts)
        assert diverts == []

    def test_confirmed_match_emits_one_alert_not_short_signature_divert(self):
        split = split_ruleset(self._tiny_ruleset(), SplitPolicy(piece_length=8))
        fp = FastPath(split)
        payload = b"aaaa tiny! bbbb" + b"c" * 600
        results, _ = run(fp, packets_for(payload, size=700))
        assert all(r.divert is not DivertReason.SHORT_SIGNATURE for r in results)

    def test_split_signature_in_one_packet_still_diverts_via_pieces(self):
        # The whole-signature fast confirm must not swallow the piece
        # hits: a split signature's occurrence keeps diverting so the
        # slow path can catch other, split-across-packets occurrences.
        fp = make_fastpath()
        payload = b"A" * 100 + ATTACK_SIGNATURE + b"B" * 100
        results, diverts = run(fp, packets_for(payload, size=1460))
        assert DivertReason.PIECE_MATCH in diverts
        assert any(a.sid == 5001 and a.path == "fast" for r in results for a in r.alerts)


class TestSequenceWraparound:
    """32-bit sequence arithmetic through the monitor (RFC 793 wrap)."""

    CLIENT = "10.9.9.9"
    SERVER = "10.0.0.2"

    def _seg(self, seq, payload=b"", flags=TCP_ACK):
        return TcpSegment(src_port=44000, dst_port=80, seq=seq,
                          flags=flags, payload=payload)

    def test_in_order_advance_across_wrap(self):
        from repro.packet import TCP_SYN

        fp = make_fastpath()
        start = 2**32 - 300
        fast_process(fp, tcp_at(0.0, self.CLIENT, self.SERVER,
                                self._seg(start, flags=TCP_SYN)))
        r1 = fast_process(fp, tcp_at(0.1, self.CLIENT, self.SERVER,
                                     self._seg(start + 1, payload=b"a" * 600)))
        assert r1.divert is None
        from repro.packet import FlowKey

        # 600 bytes from 2**32-299 crosses the wrap: expected is now 301.
        flow = FlowKey(self.CLIENT, self.SERVER, 44000, 80)
        assert fp.expected_seq(flow) == 301
        r2 = fast_process(fp, tcp_at(0.2, self.CLIENT, self.SERVER,
                                     self._seg(301, payload=b"b" * 600)))
        assert r2.divert is None
        assert fp.expected_seq(flow) == 901

    def test_ahead_across_wrap_is_out_of_order(self):
        from repro.packet import TCP_SYN

        fp = make_fastpath()
        fast_process(fp, tcp_at(0.0, self.CLIENT, self.SERVER,
                                self._seg(2**32 - 1, flags=TCP_SYN)))
        # Expected is 0 (the SYN consumed the last pre-wrap number); a
        # segment at 700 is 700 bytes ahead across the boundary.
        result = fast_process(fp, tcp_at(0.1, self.CLIENT, self.SERVER,
                                         self._seg(700, payload=b"x" * 600)))
        assert result.divert == DivertReason.OUT_OF_ORDER

    def test_behind_across_wrap_is_retransmission(self):
        from repro.packet import TCP_SYN

        fp = make_fastpath()
        fast_process(fp, tcp_at(0.0, self.CLIENT, self.SERVER,
                                self._seg(2**32 - 1, flags=TCP_SYN)))
        # Expected is 0; a segment at 2**32-700 is 700 bytes *behind*
        # (seq_diff is negative), not ~4 billion ahead.
        result = fast_process(fp, tcp_at(0.1, self.CLIENT, self.SERVER,
                                         self._seg(2**32 - 700, payload=b"x" * 600)))
        assert result.divert == DivertReason.RETRANSMISSION


class CountingBackend(DictBackend):
    """A ``DictBackend`` that logs every state touch, in order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def get(self, flow, default=None):
        self.log.append(("get", flow))
        return super().get(flow, default)

    def peek(self, flow, default=None):
        self.log.append(("peek", flow))
        return super().get(flow, default)

    def put(self, flow, state):
        self.log.append(("put", flow))
        super().put(flow, state)

    def pop(self, flow, default=None):
        self.log.append(("pop", flow))
        return super().pop(flow, default)

    def record_anomaly(self, flow):
        self.log.append(("record_anomaly", flow))


class TestStateTouches:
    """What a packet costs the state backend is counted, not assumed, and
    the batch route touches it exactly as the per-packet loop does."""

    CLIENT, SERVER = "10.9.9.9", "10.0.0.2"
    FLOW = FlowKey(CLIENT, SERVER, 44000, 80)
    KEY = tuple_of_flow(FLOW)  # what the backend is keyed by

    def _engine(self, **kw):
        ips = SplitDetectIPS(
            attack_ruleset(), split_policy=SplitPolicy(piece_length=8), **kw
        )
        ips.fast_path._flows = CountingBackend()
        return ips

    def _seg(self, ts, seq, payload=b"", flags=TCP_ACK, *, src=CLIENT, ttl=64):
        segment = TcpSegment(
            src_port=44000, dst_port=80, seq=seq, flags=flags, payload=payload
        )
        return tcp_at(ts, src, self.SERVER, segment, ttl=ttl)

    def _opening(self, src=CLIENT):
        return [
            self._seg(0.0, 1000, flags=TCP_SYN, src=src),
            self._seg(0.1, 1001, b"a" * 600, src=src),
        ]

    def test_clean_data_segment_is_one_get_no_put_no_peek(self):
        # The dict's ``get`` hands back the stored record, which is
        # advanced in place: the write-back ``put`` is owed only by the
        # table (LRU) and the sketch (cold-slot persistence).
        ips = self._engine()
        ips.process_batch(self._opening())
        log = ips.fast_path._flows.log
        del log[:]
        ips.process_batch(
            [self._seg(0.2, 1601, b"b" * 600), self._seg(0.3, 2201, b"c" * 600)]
        )
        assert log == [("get", self.KEY)] * 2
        assert ips.stats.diversions == 0

    ANOMALIES = {
        "ttl": dict(seq=1601, payload=b"t" * 600, ttl=2),
        "tiny": dict(seq=1601, payload=b"tiny"),
        "out_of_order": dict(seq=5000, payload=b"o" * 600),
        "retransmission": dict(seq=1001, payload=b"a" * 600),
        "piece_hit": dict(seq=1601, payload=b"x" * 300 + ATTACK_SIGNATURE + b"y" * 300),
    }

    def _trace(self, kind):
        if kind == "refused_divert":
            # Another flow fills the one-flow slow path first.
            other = "10.9.9.8"
            head = self._opening(other) + [self._seg(0.15, 1601, b"tiny", src=other)]
            kind = "out_of_order"
        else:
            head = []
        return (
            head
            + self._opening()
            + [self._seg(0.2, **self.ANOMALIES[kind])]
            + [self._seg(0.3, 1601, b"n" * 600), self._seg(0.4, 0, flags=TCP_RST)]
        )

    @pytest.mark.parametrize("kind", [*ANOMALIES, "refused_divert"])
    def test_anomalous_rows_touch_state_as_the_per_packet_loop_does(self, kind):
        kw = {"slow_capacity_flows": 1} if kind == "refused_divert" else {}
        single, batched = self._engine(**kw), self._engine(**kw)
        trace = self._trace(kind)
        for packet in trace:
            single.process(packet)
        batched.process_batch(trace)
        log = single.fast_path._flows.log
        assert ("record_anomaly", self.KEY) in log
        assert batched.fast_path._flows.log == log
        assert single.overload_refusals == (kind == "refused_divert")
        assert batched.diversions == single.diversions
