"""Integration tests: the Split-Detect engine and the baselines, end to end.

The detection matrix here is the executable form of the paper's Table 3:
every catalog evasion is detected by Split-Detect and by the conventional
IPS, while the naive per-packet matcher misses exactly the strategies
that hide the signature from single-packet inspection.
"""

import sys

import pytest

from helpers import (
    ATTACK_SIGNATURE,
    attack_payload,
    attack_ruleset,
    signature_span,
)
from repro.core import (
    AlertKind,
    ConventionalIPS,
    DivertReason,
    FastPathConfig,
    NaivePacketIPS,
    SplitDetectIPS,
)
from repro.evasion import STRATEGIES, Victim, build_attack
from repro.packet import (
    TCP_ACK,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    FlowKey,
    TcpSegment,
    TimedPacket,
    build_tcp_packet,
    fragment,
)
from repro.pcap.columnar import encode_batches
from repro.signatures import SplitPolicy


def detected(alerts, sid=5001):
    """An attack counts as detected on a signature hit (full or partial)
    for the right sid, or on an ambiguity alert (evasion in progress)."""
    for alert in alerts:
        if alert.kind in (AlertKind.SIGNATURE, AlertKind.PARTIAL_SIGNATURE):
            if alert.sid == sid:
                return True
        elif alert.kind is AlertKind.AMBIGUITY:
            return True
    return False


def run_ips(ips, packets):
    alerts = []
    for packet in packets:
        alerts.extend(ips.process(packet))
    return alerts


def fresh_split_detect(**kw):
    return SplitDetectIPS(attack_ruleset(), split_policy=SplitPolicy(piece_length=8), **kw)


class TestBenignTraffic:
    def test_no_alerts_no_diversion(self):
        ips = fresh_split_detect()
        payload = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + b"<html>hi</html>" * 100)
        packets = build_attack("plain", payload)
        alerts = run_ips(ips, packets)
        assert alerts == []
        assert ips.stats.diversions == 0
        assert ips.stats.slow_packets == 0

    def test_benign_stays_entirely_on_fast_path(self):
        ips = fresh_split_detect()
        payload = b"innocuous content " * 200
        packets = build_attack("mss_segments", payload)
        run_ips(ips, packets)
        assert ips.stats.fast_packets == ips.stats.packets_total


class TestDetectionMatrix:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_split_detect_catches_every_strategy(self, name):
        ips = fresh_split_detect()
        packets = build_attack(name, attack_payload(), signature_span=signature_span())
        alerts = run_ips(ips, packets)
        assert detected(alerts), f"Split-Detect missed {name}"

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_conventional_catches_every_strategy(self, name):
        ips = ConventionalIPS(attack_ruleset())
        packets = build_attack(name, attack_payload(), signature_span=signature_span())
        alerts = run_ips(ips, packets)
        assert detected(alerts), f"conventional IPS missed {name}"

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_naive_is_evaded_exactly_as_cataloged(self, name):
        strategy = STRATEGIES[name]
        ips = NaivePacketIPS(attack_ruleset())
        packets = build_attack(name, attack_payload(), signature_span=signature_span())
        alerts = run_ips(ips, packets)
        saw = any(a.sid == 5001 for a in alerts)
        assert saw != strategy.evades_naive, (
            f"{name}: naive IPS {'caught' if saw else 'missed'} the attack, "
            f"catalog says evades_naive={strategy.evades_naive}"
        )

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_attack_validity_reconfirmed_with_ips_in_path(self, name):
        # Sanity: the same packet sequence the IPS judged really does reach
        # the victim (detection without delivery would prove nothing).
        strategy = STRATEGIES[name]
        packets = build_attack(name, attack_payload(), signature_span=signature_span())
        victim = Victim(policy=strategy.victim_policy, hops_behind_ips=strategy.victim_hops)
        victim.deliver_all(packets)
        assert victim.received(ATTACK_SIGNATURE)


class TestDiversionPlumbing:
    def test_piece_match_divert_confirms_on_slow_path(self):
        ips = fresh_split_detect()
        packets = build_attack("plain", attack_payload())
        alerts = run_ips(ips, packets)
        assert ips.divert_reasons[DivertReason.PIECE_MATCH] == 1
        assert any(a.kind is AlertKind.SIGNATURE and a.sid == 5001 for a in alerts)

    def test_diverted_flow_stays_diverted(self):
        ips = fresh_split_detect()
        packets = build_attack("tcp_seg_8", attack_payload())
        run_ips(ips, packets[: len(packets) // 2])
        mid_slow = ips.stats.slow_packets
        assert mid_slow > 0
        run_ips(ips, packets[len(packets) // 2 :])
        # Everything after the first divert went to the slow path.
        assert ips.stats.slow_packets > mid_slow

    def test_diversion_recorded_once_per_flow(self):
        ips = fresh_split_detect()
        packets = build_attack("tcp_seg_8", attack_payload())
        run_ips(ips, packets)
        assert ips.stats.diversions == 1
        assert len(ips.diversions) == 1

    def test_flow_leaves_diverted_set_on_close(self):
        ips = fresh_split_detect()
        packets = build_attack("tcp_seg_8", attack_payload())
        run_ips(ips, packets)  # plan ends with FIN; one direction only
        # The FIN only closes one direction; force idle eviction.
        ips.evict_idle(now=1e9)
        assert ips.diverted_flow_count == 0

    def test_self_connection_counts_as_one_diverted_flow(self):
        # Both directions of a self-connection are one five-tuple: one
        # ``_diverted`` entry, one flow, nothing left after the sweep.
        ips = fresh_split_detect()
        ends = dict(src="10.0.0.2", dst="10.0.0.2", src_port=80, dst_port=80)
        ips.process_batch(build_attack("tcp_seg_8", attack_payload(), **ends))
        assert ips.stats.diversions == 1
        assert ips.diverted_flow_count == len(ips._diverted) == 1
        ips.evict_idle(now=1e9)
        assert ips.diverted_flow_count == len(ips._diverted) == 0

    def test_slow_path_packets_do_not_copy_the_flow_set(self, monkeypatch):
        """``live_flows()`` builds a set of every slow-path flow: fine once
        per eviction sweep, an attacker-sized cost if paid per packet."""
        ips = fresh_split_detect()
        normalizer = ips.slow_path.normalizer
        copies = []
        original = normalizer.live_flows
        monkeypatch.setattr(
            normalizer, "live_flows", lambda: copies.append(1) or original()
        )
        packets = build_attack(
            "tcp_seg_8", attack_payload(8000), signature_span=signature_span()
        )
        run_ips(ips, packets)
        assert ips.stats.slow_packets >= 100
        assert copies == []
        # The sweep is where the copy belongs: once per eviction.
        ips.evict_idle(now=1e9)
        assert copies and ips.diverted_flow_count == 0

    def test_idle_sweep_builds_the_monitor_set_only_for_refusals(self, monkeypatch):
        """``FastPath.live_flows()`` is O(monitor entries) and names each
        one's flow in strings; the sweep needs it only to retire refused
        (fail-open) flows, so it is built only when there are some."""
        ips = fresh_split_detect(slow_capacity_flows=1, probation_packets=0)
        copies = []
        original = ips.fast_path.live_flows
        monkeypatch.setattr(
            ips.fast_path, "live_flows", lambda: copies.append(1) or original()
        )
        benign = build_attack("plain", b"nothing to see here " * 60, src="10.77.1.1")
        run_ips(ips, benign[:-1])  # no FIN: its monitor records stay
        run_ips(ips, build_attack("tcp_seg_8", attack_payload(), src="10.77.0.1"))
        assert ips.fast_path.tracked_flows and ips.diverted_flow_count == 1
        ips.evict_idle(now=0.0)
        assert copies == []
        # A second diverting flow finds the slow path full: refused.
        run_ips(ips, build_attack("tcp_seg_8", attack_payload(), src="10.77.0.2"))
        assert ips.overload_refusals > 0
        ips.evict_idle(now=0.0)
        assert copies == [1]

    def test_fragmented_flow_diverts_and_reassembles(self):
        ips = fresh_split_detect()
        packets = build_attack("ip_frag_8", attack_payload())
        alerts = run_ips(ips, packets)
        assert ips.divert_reasons[DivertReason.IP_FRAGMENT] >= 1
        assert detected(alerts)

    def test_state_bytes_sum_both_paths(self):
        ips = fresh_split_detect()
        packets = build_attack("tcp_seg_8", attack_payload())
        run_ips(ips, packets[:-1])
        assert ips.state_bytes() == ips.fast_path.state_bytes() + ips.slow_path.state_bytes()
        assert ips.slow_path.state_bytes() > 0


class TestHousekeepingRegression:
    """evict_idle must prune *every* per-flow record, not just _diverted
    (probation counters, fail-open refusals, and fast-path monitor
    entries all used to leak on flows that died without a clean close)."""

    def _stalled_diverted_flow(self, ips):
        """Divert a benign flow via reordering, then abandon it mid-probation."""
        from repro.evasion import even_segments, plan_to_packets

        payload = b"benign filler content, nothing to see " * 60
        packets = plan_to_packets(even_segments(payload, 500))
        # SYN, then two data segments swapped; no FIN/RST ever arrives.
        run_ips(ips, [packets[0], packets[2], packets[1], packets[3]])
        assert ips.divert_reasons[DivertReason.OUT_OF_ORDER] == 1

    def test_evict_idle_prunes_probation(self):
        ips = fresh_split_detect()
        self._stalled_diverted_flow(ips)
        assert ips._probation
        ips.evict_idle(now=1e9)
        assert not ips._probation
        assert ips.diverted_flow_count == 0

    def test_evict_idle_prunes_refused(self):
        ips = fresh_split_detect(slow_capacity_flows=0)
        alerts = run_ips(ips, build_attack("plain", attack_payload())[:-1])
        assert any(a.kind is AlertKind.RESOURCE for a in alerts)
        assert ips._refused
        ips.evict_idle(now=1e9)
        assert not ips._refused

    def test_evict_idle_reclaims_fastpath_monitor(self):
        ips = fresh_split_detect()
        payload = b"plain benign web traffic " * 40
        packets = build_attack("plain", payload)
        run_ips(ips, packets[:-1])  # no close
        assert ips.fast_path.tracked_flows > 0
        ips.evict_idle(now=1e9)
        assert ips.fast_path.tracked_flows == 0


class TestBatchProcessing:
    """process_batch must be packet-for-packet identical to process."""

    @staticmethod
    def interleaved_trace():
        import itertools

        streams = [
            build_attack("plain", b"ordinary web page content " * 100, src_port=51000),
            build_attack("tcp_seg_8", attack_payload(), src_port=51001),
            build_attack("plain", attack_payload(), src_port=51002),
        ]
        return [
            packet
            for group in itertools.zip_longest(*streams)
            for packet in group
            if packet is not None
        ]

    def test_split_detect_batch_equals_sequential(self):
        packets = self.interleaved_trace()
        sequential = fresh_split_detect()
        seq_alerts = run_ips(sequential, packets)
        batched = fresh_split_detect()
        batch_alerts = []
        for start in range(0, len(packets), 7):  # odd size: batches cut mid-flow
            batch_alerts.extend(batched.process_batch(packets[start : start + 7]))
        assert batch_alerts == seq_alerts
        assert batched.stats == sequential.stats
        assert batched.divert_reasons == sequential.divert_reasons
        assert batched.diverted_flow_count == sequential.diverted_flow_count

    def test_naive_batch_equals_sequential(self):
        packets = build_attack("plain", attack_payload())
        sequential = NaivePacketIPS(attack_ruleset())
        seq_alerts = run_ips(sequential, packets)
        batched = NaivePacketIPS(attack_ruleset())
        batch_alerts = batched.process_batch(packets)
        assert batch_alerts == seq_alerts
        assert batched.packets_processed == sequential.packets_processed
        assert batched.bytes_scanned == sequential.bytes_scanned

    def test_conventional_batch_equals_sequential(self):
        packets = self.interleaved_trace()
        sequential = ConventionalIPS(attack_ruleset())
        seq_alerts = run_ips(sequential, packets)
        batched = ConventionalIPS(attack_ruleset())
        batch_alerts = batched.process_batch(packets)
        assert batch_alerts == seq_alerts


class TestPartialSignatureRecovery:
    def test_attack_started_before_diversion_is_still_caught(self):
        """Prefix in-order, then tiny segments: the suffix matcher's case."""
        from repro.evasion import Seg, plan_to_packets

        payload = attack_payload()
        start, length = signature_span()
        # First packet: everything up to mid-signature (in order, large).
        cut = start + length // 2
        segs = [Seg(offset=0, data=payload[:cut])]
        # Rest in tiny segments (diverts on the first one).
        for offset in range(cut, len(payload), 4):
            segs.append(Seg(offset=offset, data=payload[offset : offset + 4]))
        packets = plan_to_packets(segs)
        ips = fresh_split_detect()
        alerts = run_ips(ips, packets)
        assert detected(alerts)

    def test_partial_alert_kind_used_when_prefix_unseen(self):
        from repro.evasion import Seg, plan_to_packets

        payload = attack_payload()
        start, length = signature_span()
        cut = start + 6  # cut inside the first piece: prefix truly unseen
        segs = [Seg(offset=0, data=payload[:cut])]
        for offset in range(cut, len(payload), 4):
            segs.append(Seg(offset=offset, data=payload[offset : offset + 4]))
        packets = plan_to_packets(segs)
        ips = fresh_split_detect()
        alerts = run_ips(ips, packets)
        kinds = {a.kind for a in alerts if a.sid == 5001}
        assert AlertKind.PARTIAL_SIGNATURE in kinds or AlertKind.SIGNATURE in kinds


class TestConventionalBaseline:
    def test_alerts_once_per_occurrence(self):
        ips = ConventionalIPS(attack_ruleset())
        payload = attack_payload()
        packets = build_attack("mss_segments", payload)
        alerts = run_ips(ips, packets)
        assert len([a for a in alerts if a.sid == 5001]) == 1

    def test_port_constraint_respected(self):
        ips = ConventionalIPS(attack_ruleset())
        packets = build_attack("mss_segments", attack_payload(), dst_port=9999)
        alerts = run_ips(ips, packets)
        assert not any(a.sid == 5001 for a in alerts)

    def test_state_grows_with_flows(self):
        ips = ConventionalIPS(attack_ruleset())
        benign = b"just text " * 100
        for port in (1001, 1002, 1003):
            run_ips(ips, build_attack("mss_segments", benign, src_port=port)[:-1])
        assert ips.active_flows == 3
        assert ips.state_bytes() > 0

    def test_ambiguity_alert_on_inconsistent_overlap(self):
        ips = ConventionalIPS(attack_ruleset())
        packets = build_attack("ttl_chaff", attack_payload())
        alerts = run_ips(ips, packets)
        assert any(a.kind is AlertKind.AMBIGUITY for a in alerts)

    def test_naive_has_no_state(self):
        ips = NaivePacketIPS(attack_ruleset())
        run_ips(ips, build_attack("mss_segments", attack_payload()))
        assert ips.state_bytes() == 0


class TestFlowIdentityCost:
    """Noise-free tripwires for the batch route's per-row flow naming: a
    clean row is routed by its numeric five-tuple and builds no
    ``FlowKey`` at all, and it costs a fixed handful of Python calls (the
    rest of the work runs in C)."""

    FLOWS = 24  # half send from the canonical endpoint, half towards it
    ROWS_PER_FLOW = 20
    BATCH = 128  # 480 rows -> 4 batches
    CALLS_PER_CLEAN_ROW = 3.0
    """Python ``call`` events per clean row under ``sys.setprofile``
    (``c_call`` ignored): 2.17 measured on this trace -- one
    ``FastPath.process_columns`` and its ``seq_add`` (the dict record is
    advanced in place, no ``put``), plus each flow's first record
    (``FlowState`` + ``put``) and the per-batch calls amortized.  With a
    ``FlowKey`` interned per flow and a ``put`` per row it read 3.59; a
    dataclass key interned row by row read 8.27."""

    GOLDEN_FLOWS = [
        FlowKey("10.0.0.1", "10.0.0.2", 1234, 80, 6),
        FlowKey("192.168.1.50", "8.8.8.8", 53211, 53, 17),
        FlowKey("172.16.0.9", "172.16.0.10", 40000, 443, 6),
        FlowKey("10.9.9.9", "10.0.0.2", 44000, 80, 6),
        FlowKey("10.250.0.1", "10.0.0.2", 44000, 80, 6),
        FlowKey("0.0.0.0", "255.255.255.255", 0, 65535, 6),
    ]

    @pytest.mark.parametrize(
        "backend, where",
        [
            ("table", [592, 910, 418, 372, 691, 513]),
            ("sketch", [78416, 100238, 61858, 45428, 70323, 16897]),
        ],
    )
    def test_golden_state_placement(self, backend, where):
        """A flow's table bucket and sketch slot are fixed by its key
        bytes, the rendered ``src|dst|sport|dport|proto``: pinned to the
        values they had when the state was keyed by ``FlowKey``, so
        moving the key to the numeric five-tuple moved no record (the
        default 1024 buckets and 2^17 slots)."""
        fast = fresh_split_detect(
            fast_config=FastPathConfig(state_backend=backend)
        ).fast_path
        placed = []
        for flow in self.GOLDEN_FLOWS:
            fast._flows.clear()
            fast.seed_flow(flow, 1, now=0.0)
            cells = fast._flows._buckets if backend == "table" else fast._flows._slots
            (index,) = [i for i, cell in enumerate(cells) if cell]
            placed.append(index)
            assert fast.expected_seq(flow) == 1
        assert placed == where

    @classmethod
    def clean_batches(cls):
        filler = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n"
        packets = []
        for m in range(cls.ROWS_PER_FLOW):
            for k in range(cls.FLOWS):
                # Even k: client 10.1.0.x -> 10.200.0.1 (its own canonical
                # key); odd k: 10.250.0.x -> 10.0.0.1 (canonical reversed).
                src, dst = (
                    (f"10.1.0.{k + 1}", "10.200.0.1")
                    if k % 2 == 0
                    else (f"10.250.0.{k + 1}", "10.0.0.1")
                )
                seg = TcpSegment(
                    src_port=30000 + k,
                    dst_port=80,
                    seq=1000 + m * len(filler),
                    flags=0x18,
                    payload=filler,
                )
                ts = 1.0 + (m * cls.FLOWS + k) * 1e-4
                packets.append(TimedPacket(ts, build_tcp_packet(src, dst, seg)))
        batches = list(encode_batches(packets, cls.BATCH))
        assert len(batches) >= 2
        return batches

    def test_one_flow_key_per_flow(self, monkeypatch):
        batches = self.clean_batches()
        built = {"new": 0, "reversed": 0}
        new, reversed_ = FlowKey.__new__, FlowKey.reversed

        def counting_new(cls, *args, **kwargs):
            built["new"] += 1
            return new(cls, *args, **kwargs)

        def counting_reversed(self):
            built["reversed"] += 1
            return reversed_(self)

        monkeypatch.setattr(FlowKey, "__new__", counting_new)
        monkeypatch.setattr(FlowKey, "reversed", counting_reversed)
        ips = fresh_split_detect()
        for batch in batches:
            assert ips.process_column_batch(batch) == []
        assert ips.stats.fast_packets == self.FLOWS * self.ROWS_PER_FLOW
        assert ips.stats.diversions == 0
        # Clean rows never read a string: routing, the diverted-set test
        # and the monitor all key on the numeric five-tuple.
        assert built == {"new": 0, "reversed": 0}

    def test_python_calls_per_clean_row(self):
        ips = fresh_split_detect()
        calls = 0
        rows = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        for batch in self.clean_batches():
            sys.setprofile(profile)
            try:
                alerts = ips.process_column_batch(batch)
            finally:
                sys.setprofile(None)
            assert alerts == []
            rows += len(batch)
        assert ips.stats.fast_packets == rows
        assert calls / rows <= self.CALLS_PER_CLEAN_ROW, calls / rows


class TestSlowRunCost:
    """Noise-free tripwire for the slow path's per-row cost: a diverted
    flow's rows up to one that ends its run are reassembled and matched
    as one, so a tiny-segment evasion pays per run, not per segment."""

    CALLS_PER_DIVERTED_ROW = 10.0
    """Python ``call`` events per diverted row under ``sys.setprofile``
    on the catalog ``tcp_seg_1`` attack at batch 256: 1.46 measured (one
    ``SlowPath.process`` call per row, the whole flow three runs); 30.4
    when every row walked normalizer, reassembler and both stream
    matchers alone."""

    def test_python_calls_per_diverted_row(self):
        packets = build_attack("tcp_seg_1", attack_payload(600), signature_span=signature_span())
        ips = SplitDetectIPS(attack_ruleset())
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        alerts = []
        for batch in encode_batches(packets, 256):
            sys.setprofile(profile)
            try:
                alerts += ips.process_column_batch(batch)
            finally:
                sys.setprofile(None)
        assert detected(alerts)
        rows = ips.stats.slow_packets
        assert rows == len(packets) - 1  # all but the SYN
        assert calls / rows <= self.CALLS_PER_DIVERTED_ROW, calls / rows


class TestFragmentedClose:
    """A connection closed by a defragmented RST leaves the engine's
    routing with its slow-path state: the completed datagram names the
    flow, on both routes (it used to stay diverted until the idle sweep,
    because a fragment carries no flow of its own)."""

    CLIENT, SERVER = "10.7.7.7", "10.0.0.2"
    FLOW = FlowKey(CLIENT, SERVER, 41000, 80)

    @classmethod
    def connection(cls) -> list[TimedPacket]:
        def tcp(src, dst, sport, dport, seq, flags, payload=b""):
            segment = TcpSegment(
                src_port=sport, dst_port=dport, seq=seq, flags=flags, payload=payload
            )
            return build_tcp_packet(src, dst, segment, dont_fragment=False)

        data = tcp(cls.CLIENT, cls.SERVER, 41000, 80, 1001, TCP_ACK | TCP_PSH, b"x" * 200)
        reset = tcp(cls.CLIENT, cls.SERVER, 41000, 80, 1201, TCP_RST | TCP_ACK, b"y" * 100)
        ips = [
            tcp(cls.CLIENT, cls.SERVER, 41000, 80, 1000, TCP_SYN),
            tcp(cls.SERVER, cls.CLIENT, 80, 41000, 5000, TCP_SYN | TCP_ACK),
            *fragment(data, 96),
            *fragment(reset, 96),
        ]
        return [TimedPacket(1.0 + i * 1e-3, ip) for i, ip in enumerate(ips)]

    def check(self, ips):
        assert ips.divert_reasons[DivertReason.IP_FRAGMENT] == 1
        assert ips.slow_path.normalizer.flows_closed == 1
        assert not ips.slow_path.normalizer.is_live(self.FLOW.canonical())
        assert not ips.is_diverted(self.FLOW)
        assert not ips.is_diverted(self.FLOW.reversed())
        assert ips.diverted_flow_count == 0

    def test_object_route(self):
        ips = fresh_split_detect()
        run_ips(ips, self.connection())
        self.check(ips)

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_batch_route(self, batch_size):
        ips = fresh_split_detect()
        for batch in encode_batches(self.connection(), batch_size):
            ips.process_column_batch(batch)
        self.check(ips)
