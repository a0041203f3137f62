"""Ingest: batch route vs per-packet reference, encoder differential, wiring.

The contract is byte-identical results: whatever feeds it -- the
savefile reader or the door encoder -- ``process_column_batch`` must
produce the same alerts, stats, flow state, and runtime digests as the
unsharded per-packet ``SplitDetectIPS.process()`` loop on the same
savefile, on both supported linktypes, through every runner.  The
reference shares no batching and no decode with the route under test,
so a single drifted field fails loudly; and the one decode itself is
held to ``IPv4Packet.parse`` record by record.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import struct
from unittest import mock

import pytest

from repro.cli import main
from repro.core import FastPathConfig, SplitDetectIPS
from repro.evasion import STRATEGIES, Seg, build_attack, plan_to_packets
from repro.metrics import run_split_detect
from repro.packet import (
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    IPv4Packet,
    TcpSegment,
    TimedPacket,
    UdpDatagram,
    build_tcp_packet,
    build_udp_packet,
    decode_tcp,
    decode_udp,
    flow_key_of,
    fragment,
    ip_u32_to_str,
)
from repro.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    ColumnarPcapReader,
    PcapFormatError,
    PcapWriter,
    read_column_batches,
    read_records,
    read_trace,
    write_trace,
)
from repro.pcap import columnar
from repro.pcap.columnar import encode_batches
from repro.runtime import (
    DECODE_ERRORS,
    EngineSpec,
    ParallelRunner,
    SerialRunner,
    equivalence_digest,
    rebatch_columns,
)
from repro.signatures import Signature, SplitPolicy, load_bundled_rules, split_ruleset
from repro.streams import OverlapPolicy
from repro.telemetry import TelemetryRegistry
from repro.traffic import TrafficProfile, generate_trace, inject_attacks

from helpers import (
    ATTACK_SIGNATURE,
    SIGNATURE_OFFSET,
    attack_payload,
    attack_ruleset,
    counter_state,
    per_packet_oracle,
)


def mixed_trace() -> list[TimedPacket]:
    trace = generate_trace(TrafficProfile(flows=60), seed=2006)
    attacks = [
        build_attack(
            name,
            attack_payload(),
            signature_span=(SIGNATURE_OFFSET, len(ATTACK_SIGNATURE)),
            src=f"10.66.0.{i + 1}",
            seed=i,
        )
        for i, name in enumerate(["tcp_seg_8", "ip_frag_8", "stealth_segments"])
    ]
    return inject_attacks(trace, attacks)


@pytest.fixture(scope="module")
def mixed_pcaps(tmp_path_factory):
    """The mixed trace written once per linktype (shared: read-only)."""
    root = tmp_path_factory.mktemp("columnar")
    trace = mixed_trace()
    paths = {}
    for linktype in (LINKTYPE_RAW_IP, LINKTYPE_ETHERNET):
        path = root / f"mixed-{linktype}.pcap"
        write_trace(path, trace, linktype=linktype)
        paths[linktype] = path
    return paths


def decode_windows(small: bool):
    """The default window (the whole capture fits in one) or a small one
    that cuts records across window edges; the engine must not tell."""
    if not small:
        return contextlib.nullcontext()
    return mock.patch.object(columnar, "_WINDOW_BYTES", 4093)


def run_object_engine(rules, path, **ips_kw):
    """The reference: parsed packet objects, one ``process()`` at a time."""
    ips = SplitDetectIPS(rules, **ips_kw)
    return ips, per_packet_oracle(ips, read_trace(path))


def run_columnar_engine(rules, path, batch_size=256, **ips_kw):
    ips = SplitDetectIPS(rules, **ips_kw)
    alerts = []
    for batch in read_column_batches(path, batch_size=batch_size):
        assert not batch.quarantined
        alerts.extend(ips.process_column_batch(batch))
    return ips, alerts


def backend_internals(fast_path) -> dict:
    """What a state backend ends a run holding, order included."""
    flows = fast_path._flows
    return {
        "items": [
            (key, state.expected_seq, state.last_seen) for key, state in flows.items()
        ],
        "entries": len(flows),
        "table_evictions": fast_path.table_evictions,
        "sketch": [
            getattr(flows, name, None)
            for name in ("hot_entries", "cold_entries", "promotions", "demotions")
        ],
        "table_hits_misses": [getattr(flows, name, None) for name in ("hits", "misses")],
    }


def slow_state(ips) -> dict:
    """What the slow path (and every ensemble replica) ends a run holding."""

    def held(path) -> dict:
        normalizer = path.normalizer
        live = normalizer.live_flows()
        return {
            "positions": {flow: normalizer.stream_positions(flow) for flow in live},
            "buffered": {flow: normalizer.buffered_bytes_for(flow) for flow in live},
            "state_bytes": path.state_bytes(),
            "flows": (normalizer.flows_created, normalizer.flows_closed),
            "defrag": (
                normalizer.defragmenter.reassembled_total,
                normalizer.defragmenter.evicted_total,
            ),
        }

    return {
        "slow": held(ips.slow_path),
        "ensemble": [held(path) for path in ips.ensemble_paths],
        "reinstated": ips.reinstated_flows,
    }


def assert_routes_agree(obj, obj_alerts, col, col_alerts) -> None:
    """The per-packet engine and the batch-route engine ended identical."""
    assert vars(obj.stats) == vars(col.stats)
    assert obj_alerts == col_alerts
    assert obj._diverted == col._diverted
    assert obj.divert_reasons == col.divert_reasons
    assert obj.fast_path.packets_processed == col.fast_path.packets_processed
    assert obj.fast_path.bytes_scanned == col.fast_path.bytes_scanned
    obj_flows = {
        key: (state.expected_seq, state.last_seen)
        for key, state in obj.fast_path._flows.items()
    }
    col_flows = {
        key: (state.expected_seq, state.last_seen)
        for key, state in col.fast_path._flows.items()
    }
    assert obj_flows == col_flows
    assert slow_state(obj) == slow_state(col)


def catalog_attack(name: str) -> list[TimedPacket]:
    return build_attack(
        name,
        attack_payload(600),
        signature_span=(SIGNATURE_OFFSET, len(ATTACK_SIGNATURE)),
        seed=3,
    )


class TestEngineParity:
    @pytest.mark.parametrize("linktype", [LINKTYPE_RAW_IP, LINKTYPE_ETHERNET])
    @pytest.mark.parametrize("small_windows", [False, True])
    def test_stats_alerts_and_state_identical(self, mixed_pcaps, linktype, small_windows):
        path = mixed_pcaps[linktype]
        rules = attack_ruleset()
        obj, obj_alerts = run_object_engine(rules, path)
        for batch_size in (1, 7, 256):
            with decode_windows(small_windows):
                col, col_alerts = run_columnar_engine(rules, path, batch_size)
            assert_routes_agree(obj, obj_alerts, col, col_alerts)
        assert col.stats.slow_packets and slow_state(col)["slow"]["defrag"][0]
        assert col.reinstated_flows and col.slow_path.normalizer.flows_closed

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_every_catalog_strategy_under_every_policy(self, name):
        """Slow-path parity where the slow path does the work: each
        evasion, under each overlap policy with the rest as an ensemble,
        at batch sizes 7 and 256 against the oracle, which is batch size 1
        (a short probation, so flows also return)."""
        packets = catalog_attack(name)
        rules = attack_ruleset()
        for policy in OverlapPolicy:
            kw = dict(
                overlap_policy=policy,
                ensemble_policies=tuple(OverlapPolicy),
                probation_packets=2,
            )
            obj = SplitDetectIPS(rules, **kw)
            obj_alerts = per_packet_oracle(obj, packets)
            for batch_size in (7, 256):
                col = SplitDetectIPS(rules, **kw)
                col_alerts = []
                for batch in encode_batches(packets, batch_size):
                    col_alerts.extend(col.process_column_batch(batch))
                assert_routes_agree(obj, obj_alerts, col, col_alerts)

    def test_slow_path_keeps_no_view_of_a_batch_buffer(self):
        """Held reassembly chunks, history, fragment pieces and matcher
        carries are copies: a view would pin the decode window."""
        rules = load_bundled_rules()
        rules.add(Signature(sid=5001, pattern=ATTACK_SIGNATURE, msg="test attack", dst_port=80))
        # Two attacks cut short, so a reordered segment and a fragment
        # are still parked when the state is inspected.
        packets = mixed_trace() + [
            packet
            for i, name in enumerate(["tcp_reorder", "ip_frag_reorder"])
            for packet in build_attack(
                name, attack_payload(), src=f"10.66.2.{i + 1}", seed=3
            )[:-1]
        ]
        ips = SplitDetectIPS(rules, ensemble_policies=(OverlapPolicy.FIRST,))
        for batch in encode_batches(packets, 7):
            ips.process_column_batch(batch)
        held: dict[str, list] = {"chunks": [], "history": [], "pieces": [], "carry": []}
        for path in [ips.slow_path, *ips.ensemble_paths]:
            for state in path.normalizer._flows.values():
                for reassembler in state.directions.values():
                    held["chunks"] += reassembler._chunks
                    held["history"].append(reassembler._history)
            for partial in path.normalizer.defragmenter._partials.values():
                held["pieces"] += [piece for _, piece in partial.pieces]
            for _, state, _ in path._matchers.values():
                held["carry"].append(state.matcher.carry)
        assert all(held.values())
        assert not [x for kind in held.values() for x in kind if isinstance(x, memoryview)]

    def test_no_packet_object_is_parsed_for_a_well_formed_row(self, monkeypatch):
        """The production route over the whole catalog: no IPv4 parse at
        all, at most one TCP parse per completed datagram (the defragmented
        one, decoded once), and no row materialized.  ``process(packet)``
        is that route with one row: one ``process_column_batch`` call per
        packet, and still no IPv4 parse."""
        packets = inject_attacks(
            [],
            [
                build_attack(
                    name,
                    attack_payload(),
                    signature_span=(SIGNATURE_OFFSET, len(ATTACK_SIGNATURE)),
                    src=f"10.66.1.{i + 1}",
                    seed=i,
                )
                for i, name in enumerate(sorted(STRATEGIES))
            ],
        )
        batches = list(encode_batches(packets, 7))
        assert all(batch.tok[row] for batch in batches for row in range(len(batch))
                   if not batch.fragflags[row] & 0x3FFF)
        calls = {"ip": 0, "tcp": 0}

        def counting(key, parse):
            def counted(cls, *args, **kwargs):
                calls[key] += 1
                return parse(*args, **kwargs)

            return classmethod(counted)

        monkeypatch.setattr(IPv4Packet, "parse", counting("ip", IPv4Packet.parse))
        monkeypatch.setattr(TcpSegment, "parse", counting("tcp", TcpSegment.parse))
        tel = TelemetryRegistry()
        ips = SplitDetectIPS(attack_ruleset(), telemetry=tel)
        alerts = [alert for batch in batches for alert in ips.process_column_batch(batch)]
        assert alerts and ips.stats.slow_packets > len(STRATEGIES)
        datagrams = ips.slow_path.normalizer.defragmenter.reassembled_total
        assert datagrams > 0
        assert calls == {"ip": 0, "tcp": calls["tcp"]} and calls["tcp"] <= datagrams
        assert not any(value for _, value in tel.get("repro_ingest_materialized_total").samples())

        one = SplitDetectIPS(attack_ruleset())
        batches_seen = []
        route = one.process_column_batch
        one.process_column_batch = lambda batch: batches_seen.append(len(batch)) or route(batch)
        assert [alert for packet in packets for alert in one.process(packet)] == alerts
        assert batches_seen == [1] * len(packets)
        assert calls["ip"] == 0

    @pytest.mark.parametrize("small_windows", [False, True])
    def test_table_backend_parity(self, mixed_pcaps, small_windows):
        """Every backend, down to its internals: the bounded ones are
        small enough here to evict, recycle and promote, so a route that
        touched state in another order would end elsewhere."""
        path = mixed_pcaps[LINKTYPE_RAW_IP]
        rules = attack_ruleset()
        packets = list(read_trace(path))
        for config in (
            FastPathConfig(state_backend="dict"),
            FastPathConfig(state_backend="table", table_buckets=8, table_ways=2),
            FastPathConfig(
                state_backend="sketch", sketch_slots=32, sketch_hot_capacity=1
            ),
        ):
            obj = SplitDetectIPS(rules, fast_config=config)
            col = SplitDetectIPS(rules, fast_config=config)
            obj_alerts, col_alerts, done = [], [], 0
            with decode_windows(small_windows):
                batches = list(read_column_batches(path, batch_size=256))
            for batch in batches:
                col_alerts.extend(col.process_column_batch(batch))
                obj_alerts.extend(
                    per_packet_oracle(obj, packets[done : done + len(batch)])
                )
                done += len(batch)
                # Mid-run, while flows are open: same records, same order.
                assert backend_internals(obj.fast_path) == backend_internals(
                    col.fast_path
                )
            assert done == len(packets)
            assert vars(obj.stats) == vars(col.stats)
            assert obj_alerts == col_alerts
            assert obj.divert_reasons == col.divert_reasons
            if config.state_backend != "dict":
                assert obj.fast_path.table_evictions > 0
        assert obj.fast_path._flows.promotions > 0  # a reinstated flow came back hot


class TestColumnsEqualObjectDecode:
    @pytest.mark.parametrize("linktype", [LINKTYPE_RAW_IP, LINKTYPE_ETHERNET])
    def test_every_row_equals_the_object_decode(self, mixed_pcaps, linktype):
        """Field by field against ``IPv4Packet.parse`` and the transport
        decoders -- the oracle the vectorized decode must restate."""
        path = mixed_pcaps[linktype]
        packets = list(read_trace(path))
        batches = list(read_column_batches(path))
        rows = [(batch, row) for batch in batches for row in range(len(batch))]
        assert len(rows) == len(packets)
        for (batch, row), packet in zip(rows, packets):
            assert batch.ts[row] == packet.timestamp
            assert_row_is(batch, row, packet.ip)
        assert not any(batch.quarantined for batch in batches)


class TestRunnerParity:
    @staticmethod
    def oracle_digest(path) -> str:
        ips, alerts = run_object_engine(attack_ruleset(), path)
        return equivalence_digest(alerts, ips.stats)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_digest_equal(self, mixed_pcaps, shards):
        path = mixed_pcaps[LINKTYPE_RAW_IP]
        spec = EngineSpec(rules=attack_ruleset())
        oracle = self.oracle_digest(path)
        obj = SerialRunner(spec, shards=shards).run(read_trace(path))
        rec = SerialRunner(spec, shards=shards).run(read_records(path))
        col = SerialRunner(spec, shards=shards).run_columnar(read_column_batches(path))
        assert obj.digest() == rec.digest() == col.digest() == oracle
        assert obj.packets == rec.packets == col.packets

    def test_parallel_digest_equal(self, mixed_pcaps):
        path = mixed_pcaps[LINKTYPE_RAW_IP]
        spec = EngineSpec(rules=attack_ruleset())
        obj = ParallelRunner(spec, workers=2).run(read_trace(path))
        col = ParallelRunner(spec, workers=2).run_columnar(read_column_batches(path))
        assert obj.digest() == col.digest() == self.oracle_digest(path)

    def test_harness_reports_match(self, mixed_pcaps):
        """Encoder-built and reader-built batches drive the harness alike
        (same boundaries, so same sampling and eviction points), and both
        alert exactly as the per-packet reference does."""
        path = mixed_pcaps[LINKTYPE_RAW_IP]
        rules = attack_ruleset()
        obj = run_split_detect(
            SplitDetectIPS(rules),
            read_trace(path),
            batch_size=256,
            evict_interval=5.0,
        )
        col = run_split_detect(
            SplitDetectIPS(rules),
            read_column_batches(path, batch_size=256, on_invalid="raise"),
            batch_size=256,
            evict_interval=5.0,
        )
        assert obj.alerts == col.alerts
        assert obj.packets == col.packets
        assert obj.evictions == col.evictions
        assert obj.divert_reasons == col.divert_reasons
        assert obj.peak_flows == col.peak_flows
        assert obj.peak_state_bytes == col.peak_state_bytes
        # Evictions only ever drop idle state here, so the reference
        # (which never evicts) sees the same alerts.
        _ips, reference = run_object_engine(rules, path)
        assert col.alerts == reference


class TestEdgeCases:
    def test_truncated_final_frame_raises_in_both_modes(self, mixed_pcaps):
        data = mixed_pcaps[LINKTYPE_RAW_IP].read_bytes()[:-7]
        with pytest.raises(PcapFormatError, match="truncated record"):
            list(read_trace(io.BytesIO(data)))
        with pytest.raises(PcapFormatError, match="truncated record"):
            list(read_column_batches(io.BytesIO(data)))

    def test_snaplen_clipped_payload_quarantines_identically(self):
        packet = build_tcp_packet(
            "10.0.0.1", "10.0.0.2", TcpSegment(1234, 80, seq=1, payload=b"x" * 400)
        )
        raw = packet.serialize()
        clipped = raw[:-50]
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = struct.pack("<IIII", 1, 0, len(clipped), len(raw)) + clipped
        data = header + record

        with pytest.raises(DECODE_ERRORS) as parse_error:
            IPv4Packet.parse(clipped)
        (encoded,) = encode_batches(read_records(io.BytesIO(data)), 256)
        assert len(encoded) == 0
        assert [type(exc) for exc in encoded.quarantined] == [parse_error.type]

        batches = list(read_column_batches(io.BytesIO(data)))
        assert len(batches) == 1
        batch = batches[0]
        assert len(batch) == 0
        assert len(batch.quarantined) == 1
        columnar_cause = type(batch.quarantined[0]).__name__
        assert columnar_cause == parse_error.type.__name__

        with pytest.raises(Exception) as exc_info:
            list(read_column_batches(io.BytesIO(data), on_invalid="raise"))
        assert type(exc_info.value).__name__ == columnar_cause

    def test_nanosecond_magic_decodes_identically(self):
        packet = build_tcp_packet(
            "10.0.0.1", "10.0.0.2", TcpSegment(1234, 80, seq=7, payload=b"hello")
        )
        raw = packet.serialize()
        header = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 101)
        record = struct.pack("<IIII", 10, 123_456_789, len(raw), len(raw)) + raw
        data = header + record

        (obj,) = read_trace(io.BytesIO(data))
        (batch,) = read_column_batches(io.BytesIO(data))
        assert len(batch) == 1
        assert batch.ts[0] == obj.timestamp == 10 + 123_456_789 / 1_000_000_000
        assert bytes(batch.payload_view(0)) == b"hello"

    def test_pure_acks_decode_and_process_identically(self, tmp_path):
        trace = []
        for i in range(8):
            flags = TCP_SYN if i == 0 else TCP_ACK
            packet = build_tcp_packet(
                "10.0.0.1", "10.0.0.2", TcpSegment(1234, 80, seq=100 + i, flags=flags)
            )
            trace.append(TimedPacket(float(i), packet))
        path = tmp_path / "acks.pcap"
        write_trace(path, trace)
        (batch,) = read_column_batches(path)
        assert len(batch) == 8
        assert all(tok == 1 for tok in batch.tok)
        assert all(length == 0 for length in batch.pay_len)
        rules = attack_ruleset()
        obj, obj_alerts = run_object_engine(rules, path)
        col, col_alerts = run_columnar_engine(rules, path)
        assert vars(obj.stats) == vars(col.stats)
        assert obj_alerts == col_alerts == []


def crafted_frames() -> dict[str, bytes]:
    """One frame per way a record can differ from a clean TCP segment."""
    src, dst = "10.0.0.1", "10.0.0.2"
    segment = TcpSegment(1234, 80, seq=7, payload=b"hello, world")
    tcp = build_tcp_packet(src, dst, segment, dont_fragment=False)
    raw = tcp.serialize()
    udp = build_udp_packet(src, dst, UdpDatagram(5353, 53, b"query-bytes")).serialize()
    fragments = fragment(tcp, 28)
    with_options = tcp.copy(options=b"\x01\x01\x01\x00").serialize()

    def patched(frame: bytes, offset: int, value: bytes) -> bytes:
        return frame[:offset] + value + frame[offset + len(value) :]

    return {
        "valid_tcp": raw,
        "valid_udp": udp,
        "empty": b"",
        "truncated_header": raw[:11],
        "bad_version": patched(raw, 0, b"\x65"),
        "ihl_below_minimum": patched(raw, 0, b"\x44"),
        "ihl_beyond_capture": patched(raw[:24], 0, b"\x4f"),
        "total_length_below_ihl": patched(raw, 2, b"\x00\x0a"),
        "snaplen_clipped": raw[:-5],
        "trailing_padding": raw + b"\x00" * 6,
        "ip_options": with_options,
        "first_fragment": fragments[0].serialize(),
        "non_first_fragment": fragments[1].serialize(),
        "lying_udp_length": patched(udp, 24, b"\xff\xff"),
        "udp_length_below_header": patched(udp, 24, b"\x00\x04"),
        "tcp_offset_below_20": patched(raw, 32, b"\x40"),
        "tcp_offset_beyond_segment": patched(raw, 32, b"\xf0"),
        "short_transport": IPv4Packet(src, dst, IP_PROTO_TCP, b"\x01").serialize(),
        "three_byte_udp": IPv4Packet(src, dst, IP_PROTO_UDP, b"\x00\x35\x00").serialize(),
        "icmp": IPv4Packet(src, dst, 1, b"\x08\x00\xf7\xff\x00\x00\x00\x00").serialize(),
    }


def parse_reference(frames) -> list[IPv4Packet | type]:
    """``IPv4Packet.parse`` record by record: the packet, or the error class."""
    out: list[IPv4Packet | type] = []
    for frame in frames:
        try:
            out.append(IPv4Packet.parse(frame))
        except DECODE_ERRORS as exc:
            out.append(type(exc))
    return out


def assert_row_is(batch, row: int, ip: IPv4Packet) -> None:
    """Every column of one row restates what the object parsers say."""
    assert batch.materialize(row).ip == ip
    assert batch.proto[row] == ip.protocol
    assert batch.ttl[row] == ip.ttl
    assert ip_u32_to_str(batch.src[row]) == ip.src
    assert ip_u32_to_str(batch.dst[row]) == ip.dst
    assert (batch.fragflags[row] & 0x1FFF) * 8 == ip.fragment_offset
    assert bool(batch.fragflags[row] & 0x2000) == ip.more_fragments
    if ip.protocol not in (IP_PROTO_TCP, IP_PROTO_UDP):
        assert batch.tok[row] == 0
        assert (batch.sport[row], batch.dport[row]) == (0, 0)
        return
    if not ip.fragment_offset:
        flow = flow_key_of(ip)
        assert (batch.sport[row], batch.dport[row]) == (flow.src_port, flow.dst_port)
    if ip.is_fragment:
        assert batch.tok[row] == 0
        return
    try:
        transport = decode_tcp(ip) if ip.protocol == IP_PROTO_TCP else decode_udp(ip)
    except DECODE_ERRORS:
        assert batch.tok[row] == 0
        return
    assert batch.tok[row] == 1
    assert bytes(batch.payload_view(row)) == transport.payload
    if ip.protocol == IP_PROTO_TCP:
        assert (batch.seq[row], batch.tcpflags[row]) == (transport.seq, transport.flags)


def assert_encoder_agrees(frames, batch_size: int) -> None:
    reference = parse_reference(frames)
    batches = list(encode_batches(frames, batch_size))
    rows = [(batch, row) for batch in batches for row in range(len(batch))]
    packets = [entry for entry in reference if isinstance(entry, IPv4Packet)]
    assert len(rows) == len(packets)
    for (batch, row), ip in zip(rows, packets):
        assert_row_is(batch, row, ip)
    quarantined = [type(exc) for batch in batches for exc in batch.quarantined]
    assert quarantined == [entry for entry in reference if isinstance(entry, type)]


class TestEncoderDifferential:
    """The door's decode is ``IPv4Packet.parse``, column by column."""

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_crafted_frames_decode_as_the_object_parser_does(self, batch_size):
        frames = crafted_frames()
        reference = dict(zip(frames, parse_reference(frames.values())))
        # The cases must actually land on both sides of the boundary.
        assert {name for name, entry in reference.items() if isinstance(entry, type)} == {
            "empty",
            "truncated_header",
            "bad_version",
            "ihl_below_minimum",
            "ihl_beyond_capture",
            "total_length_below_ihl",
            "snaplen_clipped",
        }
        assert_encoder_agrees(list(frames.values()), batch_size)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_every_source_shape_gives_the_same_rows(self, lazy):
        """Records and objects, as lists or as one-shot generators."""
        frames = [frame for frame in crafted_frames().values()]
        records = [(float(index), frame) for index, frame in enumerate(frames)]
        objects = [
            TimedPacket(ts, IPv4Packet.parse(frame))
            for ts, frame in records
            if isinstance(parse_reference([frame])[0], IPv4Packet)
        ]
        shape = (lambda items: (item for item in items)) if lazy else list
        (from_records,) = encode_batches(shape(records), len(records))
        (from_objects,) = encode_batches(shape(objects), len(objects))
        assert [
            from_records.materialize(row) for row in range(len(from_records))
        ] == objects
        assert [
            from_objects.materialize(row) for row in range(len(from_objects))
        ] == objects
        assert not from_objects.quarantined

    def test_unserializable_object_is_quarantined_not_raised(self):
        good = TimedPacket(1.0, IPv4Packet.parse(crafted_frames()["valid_tcp"]))
        oversized = TimedPacket(
            2.0, IPv4Packet("10.0.0.1", "10.0.0.2", IP_PROTO_UDP, b"z" * 70000)
        )
        with pytest.raises(DECODE_ERRORS) as serialize_error:
            oversized.ip.serialize()
        (batch,) = encode_batches([good, oversized, good], 3)
        assert [batch.materialize(row) for row in range(len(batch))] == [good, good]
        assert [type(exc) for exc in batch.quarantined] == [serialize_error.type]
        # ...and alone in its batch it still costs no row and no raise.
        (alone,) = encode_batches([oversized], 1)
        assert len(alone) == 0 and len(alone.quarantined) == 1

    def test_control_messages_and_batches_keep_their_stream_position(self):
        from repro.runtime import ControlMessage

        frame = crafted_frames()["valid_tcp"]
        control = ControlMessage(op="reload", seq=1)
        (ready,) = encode_batches([frame], 1)
        out = list(encode_batches([frame, frame, control, frame, ready, frame], 8))
        assert [len(item) if item is not control else "ctl" for item in out] == [
            2, "ctl", 1, 1, 1,
        ]
        assert out[3] is ready


class TestEncodeDoor:
    def test_every_batch_covers_batch_size_consecutive_items(self):
        """The door closes a batch on every ``batch_size``-th item, of any
        kind -- rows, rejected frames and unserializable objects alike --
        and starts the count over after a flush."""
        from repro.runtime import ControlMessage

        frames = crafted_frames()
        good = frames["valid_tcp"]
        oversized = TimedPacket(
            2.0, IPv4Packet("10.0.0.1", "10.0.0.2", IP_PROTO_UDP, b"z" * 70000)
        )
        items = [
            (1.0, good), good, (1.0, frames["bad_version"]), oversized,
            TimedPacket(3.0, IPv4Packet.parse(good)),
        ] * 6  # fmt: skip
        items[11:11] = [ControlMessage(op="reload", seq=1)]
        out = list(encode_batches(items, 4))
        covered = [
            "ctl" if isinstance(item, ControlMessage) else len(item) + len(item.quarantined)
            for item in out
        ]
        assert covered == [4, 4, 3, "ctl", 4, 4, 4, 4, 3]


class TestBatchMechanics:
    def test_select_compact_pickle_roundtrip(self, mixed_pcaps):
        (batch, *_rest) = read_column_batches(mixed_pcaps[LINKTYPE_RAW_IP])
        rows = [0, 3, 5, len(batch) - 1]
        compacted = batch.select(rows).compact()
        assert len(compacted.buffer) < len(batch.buffer)
        revived = pickle.loads(pickle.dumps(compacted))
        for new_row, old_row in enumerate(rows):
            assert revived.ts[new_row] == batch.ts[old_row]
            assert bytes(revived.payload_view(new_row)) == bytes(
                batch.payload_view(old_row)
            )
            original = batch.materialize(old_row)
            copied = revived.materialize(new_row)
            assert copied.ip.serialize() == original.ip.serialize()
            assert copied.timestamp == original.timestamp

    def test_rebatch_columns_splits_not_merges(self, mixed_pcaps):
        source = list(read_column_batches(mixed_pcaps[LINKTYPE_RAW_IP], batch_size=300))
        pieces = list(rebatch_columns(source, 100))
        assert all(len(piece) <= 100 for piece in pieces)
        assert sum(len(piece) for piece in pieces) == sum(len(b) for b in source)
        small = list(rebatch_columns(source, 4096))
        assert [len(b) for b in small] == [len(b) for b in source]

    def test_reader_rejects_bad_arguments(self, mixed_pcaps):
        path = mixed_pcaps[LINKTYPE_RAW_IP]
        with pytest.raises(ValueError, match="batch_size"):
            ColumnarPcapReader(path, batch_size=0)
        with pytest.raises(ValueError, match="on_invalid"):
            ColumnarPcapReader(path, on_invalid="explode")


class TestConfigAndCli:
    def test_cli_columnar_single_process(self, mixed_pcaps, capsys):
        path = str(mixed_pcaps[LINKTYPE_RAW_IP])
        assert main(["run", path, "--no-telemetry"]) == 0
        out = capsys.readouterr().out
        assert "processed" in out

    def test_cli_has_no_ingest_option(self, mixed_pcaps, capsys):
        path = str(mixed_pcaps[LINKTYPE_RAW_IP])
        with pytest.raises(SystemExit) as exit_info:
            main(["run", path, "--ingest", "columnar"])
        assert exit_info.value.code == 2
        assert "--ingest" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Property-based: the door never disagrees with the object parser
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_BASE_FRAMES = list(crafted_frames().values())


@st.composite
def mutated_frames(draw) -> bytes:
    """A crafted frame with a few bytes overwritten and its tail cut or padded."""
    frame = bytearray(draw(st.sampled_from(_BASE_FRAMES)))
    for _ in range(draw(st.integers(0, 3))):
        if frame:
            frame[draw(st.integers(0, min(len(frame), 44) - 1))] = draw(
                st.integers(0, 255)
            )
    cut = draw(st.integers(0, len(frame)))
    return bytes(frame[:cut]) if draw(st.booleans()) else bytes(frame) + b"\x00" * (cut % 9)


@given(frames=st.lists(mutated_frames(), max_size=24), batch_size=st.integers(1, 8))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_encoder_equals_object_parser_on_mutated_frames(frames, batch_size):
    assert_encoder_agrees(frames, batch_size)


@st.composite
def ipv4_headers(draw) -> bytes:
    """An IPv4 header with any version / IHL / total length, over an
    80-byte buffer cut anywhere from 0 to 80 bytes."""
    ver_ihl = draw(st.integers(0, 15)) << 4 | draw(st.integers(0, 15))
    header = struct.pack(
        "!BBHHHBBH4s4s",
        ver_ihl, 0, draw(st.integers(0, 100)), 0, 0, 64,
        draw(st.sampled_from([IP_PROTO_TCP, IP_PROTO_UDP, 1])), 0,
        bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]),
    )
    buffer = header + draw(st.binary(min_size=60, max_size=60))
    return buffer[: draw(st.integers(0, len(buffer)))]


@given(ip=ipv4_headers(), link=st.sampled_from(["raw", "ethernet", "short_ethernet"]))
@settings(max_examples=300, deadline=None)
def test_column_predicates_reject_exactly_what_the_parser_rejects(ip, link):
    """The vectorized validity checks are ``IPv4Packet.parse``'s own: a
    record is rejected exactly when the parser raises, and carries the
    parser's exception -- so no second field extractor is ever needed."""
    if link == "short_ethernet":  # below the link header: taken as raw IP
        ip = ip[:13]
    record = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00" + ip if link == "ethernet" else ip
    linktype = LINKTYPE_RAW_IP if link == "raw" else LINKTYPE_ETHERNET
    try:
        parsed, expected = IPv4Packet.parse(ip), None
    except DECODE_ERRORS as exc:
        parsed, expected = None, exc
    savefile = io.BytesIO()
    PcapWriter(savefile, linktype=linktype).write_record(1.0, record)
    (batch,) = read_column_batches(savefile.getvalue(), batch_size=1)
    (door,) = encode_batches([ip], 1)
    for decoded in (batch, door):
        if expected is None:
            assert len(decoded) == 1 and not decoded.quarantined
            assert_row_is(decoded, 0, parsed)
        else:
            assert len(decoded) == 0
            assert [repr(exc) for exc in decoded.quarantined] == [repr(expected)]


# ---------------------------------------------------------------------------
# Property-based: the batch route decides what the per-packet loop decides
# ---------------------------------------------------------------------------

_EDGE_RULES = attack_ruleset(
    extra=[
        Signature(sid=7001, pattern=b"UDP-EVIL-DATAGRAM-xx", msg="udp", protocol="udp"),
        Signature(sid=7002, pattern=b"tiny!", msg="unsplittable"),
        Signature(
            sid=7003,
            pattern=b"NEEDS-A-SECOND-CONTENT-x",
            msg="extras",
            extra_contents=(b"second",),
        ),
    ]
)
_EDGE_POLICY = SplitPolicy(piece_length=8)
_EDGE_SPLIT = split_ruleset(_EDGE_RULES, _EDGE_POLICY)
_B = _EDGE_SPLIT.small_packet_threshold
_FLOOR = FastPathConfig().min_ttl
_PIECE = _EDGE_SPLIT.splits[5001].pieces[1]
_CONTENTS = {
    "filler": b"",
    # Right-aligned, so the occurrence runs off the payload's end: in context.
    "piece": ATTACK_SIGNATURE[: _PIECE.offset + len(_PIECE.data)],
    "decoy": _PIECE.data + b"?",  # filler before, "?" after: out of context
    "whole": ATTACK_SIGNATURE,
    "unsplittable": b"a tiny! b",
    "extras_missing": b"NEEDS-A-SECOND-CONTENT-x",
    "extras_here": b"NEEDS-A-SECOND-CONTENT-x second",
    "udp_hit": b"UDP-EVIL-DATAGRAM-xx",
}

# One step of a flow's program: which flow, then a value at or next to
# the edge of each rule the fast path decides.
_STEP = st.tuples(
    st.integers(0, 2),  # flow
    st.sampled_from(["tcp", "tcp", "tcp", "udp"]),
    st.sampled_from([_B - 1, _B, _B + 1, 600, 0]),  # R1: payload size
    st.sampled_from([0, 0, 0, -1, 1, 5000]),  # R2: seq vs the in-order cursor
    st.sampled_from([_FLOOR - 1, _FLOOR, 64]),  # R4: TTL
    st.sampled_from([TCP_ACK, TCP_ACK, TCP_ACK, TCP_SYN, TCP_FIN | TCP_ACK, TCP_RST]),
    st.sampled_from(sorted(_CONTENTS)),  # R5: what the automaton finds
)


def edge_trace(steps) -> list[TimedPacket]:
    cursor = {}
    packets = []
    for index, (flow, proto, plen, delta, ttl, flags, content) in enumerate(steps):
        src = f"10.7.0.{flow + 1}"
        # Right-aligned: a payload view cut one byte short loses the match.
        payload = (b"z" * plen + _CONTENTS[content])[-plen:] if plen else b""
        if proto == "udp":
            ip = build_udp_packet(
                src, "10.0.0.2", UdpDatagram(src_port=5353, dst_port=53, payload=payload)
            )
        else:
            expected = cursor.get(flow, 1000)
            segment = TcpSegment(
                src_port=44000,
                dst_port=80,
                seq=(expected + delta) % 2**32,
                flags=flags,
                payload=payload,
            )
            if delta == 0:
                cursor[flow] = segment.end_seq
            ip = build_tcp_packet(src, "10.0.0.2", segment, ttl=ttl)
        packets.append(TimedPacket(0.01 * index, ip))
    return packets


def decisions(ips, alerts, tel) -> dict:
    """Everything a run decided, as comparable plain data."""
    return {
        "alerts": alerts,
        "stats": vars(ips.stats),
        "diversions": [
            (d.flow, d.reason, d.detail, d.timestamp) for d in ips.diversions
        ],
        "divert_reasons": dict(ips.divert_reasons),
        "diverted": ips._diverted,
        "refusals": ips.overload_refusals,
        "reinstated": ips.reinstated_flows,
        "monitor": backend_internals(ips.fast_path),
        "counters": counter_state(tel),
    }


def assert_batch_route_decides_as_per_packet(steps, capacity, probation):
    def engine():
        tel = TelemetryRegistry()
        return tel, SplitDetectIPS(
            _EDGE_RULES,
            split_policy=_EDGE_POLICY,
            slow_capacity_flows=capacity,
            probation_packets=probation,
            telemetry=tel,
        )

    packets = edge_trace(steps)
    tel, ips = engine()
    reference = decisions(ips, per_packet_oracle(ips, packets), tel)
    for batch_size in (7, 256):  # the reference is batch size 1
        tel, ips = engine()
        alerts = []
        for batch in encode_batches(packets, batch_size):
            assert not batch.quarantined
            alerts.extend(ips.process_column_batch(batch))
        assert decisions(ips, alerts, tel) == reference, batch_size
    return reference


@given(
    steps=st.lists(_STEP, max_size=40),
    capacity=st.sampled_from([None, 1]),
    probation=st.sampled_from([8, 1]),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batch_route_decides_as_per_packet_at_every_rule_edge(steps, capacity, probation):
    assert_batch_route_decides_as_per_packet(steps, capacity, probation)


def test_rule_edge_program_reaches_refusal_and_mid_batch_reinstatement():
    """The two engine states a random program reaches only by luck, pinned:
    a divert refused at capacity (the flow stays on the fast path), and a
    flow that enters a batch diverted -- so the sweep skipped its rows --
    and is reinstated by that batch's first row (batch size 7).  A piece
    in contradicting context on the reinstated flow leaves it fast."""
    data = lambda flow, delta, content="filler", plen=600: (  # noqa: E731
        flow, "tcp", plen, delta, 64, TCP_ACK, content,
    )
    steps = [
        data(0, 0),
        data(0, 0, "piece"),  # piece hit: flow 0 diverts, fills the slow path
        data(1, 0),
        data(1, 5000),  # out of order on flow 1: refused, stays fast
        data(1, 0, plen=_B - 1),  # tiny on flow 1: refused again, one alert
        data(1, 0),
        data(1, 0),
        data(0, 0),  # second clean slow-path packet: flow 0 is reinstated
        data(0, 0, "decoy"),  # piece out of context: no divert
        data(0, 0, "unsplittable"),  # back on the fast path, scanned there
        data(0, -1),  # retransmission: diverts again
        (2, "udp", 600, 0, 64, 0, "udp_hit"),
        (2, "udp", 600, 0, 64, 0, "filler"),
    ]
    reference = assert_batch_route_decides_as_per_packet(steps, 1, 2)
    assert reference["refusals"] == 2
    assert reference["reinstated"] == 1
    assert [a.sid for a in reference["alerts"]] == [None, 7002, 7001]
    assert [d[1].value for d in reference["diversions"]] == [
        "piece_match",
        "retransmission",
    ]


def test_a_parser_accepting_a_rejected_record_escapes_loudly(monkeypatch):
    """Agreement is the invariant, not a fallback: were the parser ever
    to accept a record the predicates rejected, the decode must not
    quarantine it or extract it a second way."""
    monkeypatch.setattr(IPv4Packet, "parse", classmethod(lambda cls, data: None))
    with pytest.raises(RuntimeError, match="accepted") as caught:
        list(encode_batches([b"\x45\x00"], 1))
    assert not isinstance(caught.value, DECODE_ERRORS)


# ---------------------------------------------------------------------------
# Property-based: a diverted flow's run changes no output
# ---------------------------------------------------------------------------


def run_outcome(packets, batch_size, **ips_kw):
    """Everything a run of the batch route decides: alert tuples in order,
    slow-path state, engine counters and every telemetry counter."""
    telemetry = TelemetryRegistry()
    ips = SplitDetectIPS(
        attack_ruleset(), split_policy=SplitPolicy(piece_length=4), telemetry=telemetry, **ips_kw
    )
    alerts = []
    for batch in encode_batches(packets, batch_size):
        alerts.extend(ips.process_column_batch(batch))
    return (
        [(a.kind, a.sid, a.flow, a.stream_offset, a.timestamp) for a in alerts],
        slow_state(ips),
        vars(ips.stats),
        dict(ips.divert_reasons),
        counter_state(telemetry),
    )


@st.composite
def interleaved_diverted_flows(draw) -> list[TimedPacket]:
    """2-4 connections carrying the attack signature in 1-16 byte segments
    (so pieces, tiny segments and in-order runs all occur), with low-TTL
    chaff, a swapped pair, a FIN or an RST partway, server ACKs and IP
    fragments, interleaved packet by packet."""
    streams = []
    for k in range(draw(st.integers(2, 4))):
        offset = draw(st.integers(0, 24))
        payload = attack_payload(offset + len(ATTACK_SIGNATURE) + draw(st.integers(0, 40)), offset)
        sizes = draw(st.lists(st.integers(1, 16), min_size=1, max_size=6))
        segs, at = [], 0
        while at < len(payload):
            size = sizes[len(segs) % len(sizes)]
            segs.append(Seg(offset=at, data=payload[at : at + size]))
            at += size
        for j in sorted(draw(st.sets(st.integers(0, len(segs) - 1), max_size=2)), reverse=True):
            segs.insert(j, Seg(offset=segs[j].offset, data=b"." * len(segs[j].data), ttl=2))
        if len(segs) > 2 and draw(st.booleans()):
            j = draw(st.integers(0, len(segs) - 2))
            segs[j], segs[j + 1] = segs[j + 1], segs[j]
        ending = draw(st.sampled_from(["fin", "rst", "open"]))
        if ending == "fin":
            segs[-1] = Seg(offset=segs[-1].offset, data=segs[-1].data, fin=True)
        client, port = f"10.77.{k}.1", 40000 + k
        packets = [p.ip for p in plan_to_packets(segs, src=client, src_port=port)]
        if ending == "rst":
            reset = TcpSegment(
                src_port=port, dst_port=80, seq=1_000_001 + at, flags=TCP_RST | TCP_ACK
            )
            packets.insert(
                draw(st.integers(2, len(packets))),
                build_tcp_packet(client, "10.0.0.2", reset, dont_fragment=False),
            )
        if draw(st.booleans()):  # the server acknowledges now and then
            ack = TcpSegment(src_port=80, dst_port=port, seq=5000, flags=TCP_ACK)
            for j in range(len(packets) - 1, 1, -3):
                packets.insert(j, build_tcp_packet("10.0.0.2", client, ack, dont_fragment=False))
        for j in sorted(draw(st.sets(st.integers(1, len(packets) - 1), max_size=2)), reverse=True):
            if packets[j].total_length > 48:
                packets[j : j + 1] = fragment(packets[j], 48)
        streams.append(packets)
    order = draw(
        st.permutations([k for k, packets in enumerate(streams) for _ in packets])
    )
    cursors = [iter(packets) for packets in streams]
    return [TimedPacket(1.0 + i * 1e-3, next(cursors[k])) for i, k in enumerate(order)]


@given(
    packets=interleaved_diverted_flows(),
    probation=st.sampled_from([0, 2, 8]),
    policy=st.sampled_from(list(OverlapPolicy)),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_flow_runs_decide_as_one_row_at_a_time(packets, probation, policy):
    """Batch 1 feeds every diverted row alone; at 7 and 256 a flow's rows
    up to one that ends its run are reassembled and matched as one (on
    the ``SlowPath.process`` call without ``more``).  Alerts (in order, with their timestamps), slow-path state and
    every counter must not tell the difference."""
    kw = dict(
        overlap_policy=policy, ensemble_policies=tuple(OverlapPolicy), probation_packets=probation
    )
    alone = run_outcome(packets, 1, **kw)
    assert run_outcome(packets, 7, **kw) == alone
    assert run_outcome(packets, 256, **kw) == alone


def test_alert_of_a_run_carries_the_row_of_its_last_byte():
    """Nine in-order segments after a tiny one diverted the flow are one
    run with the FIN that ends it; the signature ends in the fifth, so its
    alert has that row's timestamp and offset, exactly as row-at-a-time
    delivery gives."""
    payload = attack_payload(120, 20)  # the signature is bytes 20..48
    segs = [Seg(offset=0, data=payload[:4])]  # tiny: diverts the flow (no probation)
    segs += [Seg(offset=at, data=payload[at : at + 10]) for at in range(4, 94, 10)]
    segs.append(Seg(offset=94, data=payload[94:], fin=True))
    packets = plan_to_packets(segs)  # SYN, the tiny one, the run of nine, FIN
    ips = SplitDetectIPS(attack_ruleset(), split_policy=SplitPolicy(piece_length=4))
    runs = [0]  # rows per run: SlowPath.process calls up to one without ``more``
    process = ips.slow_path.process

    def counting(canonical, row, fragment=None, more=False):
        runs[-1] += 1
        if not more:
            runs.append(0)
        return process(canonical, row, fragment, more)

    ips.slow_path.process = counting
    (batch,) = encode_batches(packets, 256)
    (alert,) = [a for a in ips.process_column_batch(batch) if a.sid == 5001]
    assert runs == [1, 10, 0]  # the tiny one; the nine, ended by the FIN
    fifth = packets[2 + 4]  # row 5 of the run: payload bytes 44..54
    assert alert.timestamp == fifth.timestamp
    assert alert.stream_offset == 48  # the slow path's stream starts at the tiny segment
    alone = SplitDetectIPS(attack_ruleset(), split_policy=SplitPolicy(piece_length=4))
    assert alert in per_packet_oracle(alone, packets)


def test_a_run_that_raises_leaves_the_others_fed_once():
    """A fragment feeds every pending run.  When one of them raises, the
    runs fed before it are not fed again by the batch end's feed."""
    payload = attack_payload(60, 20)
    segs = [Seg(offset=0, data=payload[:4])]  # tiny: diverts the flow (no probation)
    segs += [Seg(offset=at, data=payload[at : at + 10]) for at in range(4, 44, 10)]
    flows = [
        [p.ip for p in plan_to_packets(segs, src=f"10.78.{k}.1", src_port=41000 + k)]
        for k in range(2)
    ]
    ips_order = [ip for pair in zip(*flows) for ip in pair][:-2]  # ends with both runs pending
    ips_order += fragment(flows[0][-1], 48)
    packets = [TimedPacket(1.0 + i * 1e-3, ip) for i, ip in enumerate(ips_order)]
    ips = SplitDetectIPS(attack_ruleset(), split_policy=SplitPolicy(piece_length=4))
    normalizer = ips.slow_path.normalizer
    feed = normalizer.feed
    fed = []

    def failing(canonical, rows, fragment=None):
        if len(rows) > 1 and canonical.dst_port == 41001:  # the second flow's run
            raise RuntimeError("injected")
        fed.extend((row[0], row[1]) for row in rows)
        return feed(canonical, rows, fragment)

    normalizer.feed = failing
    (batch,) = encode_batches(packets, 256)
    with pytest.raises(RuntimeError, match="injected"):
        ips.process_column_batch(batch)
    assert len(fed) == len(set(fed)) > 0
