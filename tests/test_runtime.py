"""The sharded runtime: routing properties, equivalence, and merging.

The load-bearing guarantee is in the middle section: the unsharded
engine, :class:`SerialRunner` at N shards, and :class:`ParallelRunner`
at N workers must produce the *identical* ordered alert list and the
same summed packet/byte/diversion counters on the same trace -- both a
benign trace and an evasion gauntlet with fragmentation in it.
"""

from __future__ import annotations

import random

import pytest

from repro.core import SplitDetectIPS
from repro.evasion import build_attack
from repro.hashing import fnv1a_64
from repro.packet import (
    FlowKey,
    IPv4Packet,
    TcpSegment,
    TimedPacket,
    UdpDatagram,
    build_tcp_packet,
    build_udp_packet,
    fragment,
)
from repro.runtime import (
    Backpressure,
    EngineSpec,
    ParallelRunner,
    RunnerConfig,
    SerialRunner,
    ShardPolicy,
    ShardProcessor,
    ShardRouter,
    equivalence_digest,
    iter_batches,
    merge_shard_reports,
)
from repro.runtime.report import ShardReport
from repro.signatures import SplitPolicy
from repro.telemetry import trace_id_of
from repro.traffic import TrafficProfile, generate_trace, inject_attacks

from helpers import (
    ATTACK_SIGNATURE,
    CLIENT,
    SERVER,
    SIGNATURE_OFFSET,
    as_batch,
    attack_payload,
    attack_ruleset,
    per_packet_oracle,
)


# ---------------------------------------------------------------------------
# Routing properties
# ---------------------------------------------------------------------------


def random_flow(rng: random.Random) -> FlowKey:
    return FlowKey(
        f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
        f"172.16.{rng.randrange(256)}.{rng.randrange(1, 255)}",
        rng.randrange(1024, 65536),
        rng.choice([80, 443, 25, 53, 8080]),
        rng.choice([6, 17]),
    )


@pytest.mark.parametrize("policy", list(ShardPolicy))
@pytest.mark.parametrize("shards", [1, 2, 4, 7])
def test_direction_symmetry(policy, shards):
    """Both directions of a conversation always land on the same shard."""
    router = ShardRouter(shards, policy)
    rng = random.Random(1234)
    for _ in range(200):
        flow = random_flow(rng)
        assert router.shard_of_flow(flow) == router.shard_of_flow(flow.reversed())


def test_shard_range_and_determinism():
    router = ShardRouter(4)
    rng = random.Random(99)
    flows = [random_flow(rng) for _ in range(500)]
    first = [router.shard_of_flow(f) for f in flows]
    assert all(0 <= s < 4 for s in first)
    assert [router.shard_of_flow(f) for f in flows] == first
    # A 500-flow sample should not degenerate onto one shard.
    assert len(set(first)) == 4


GOLDEN_FLOWS = [
    FlowKey("10.0.0.1", "10.0.0.2", 1234, 80, 6),
    FlowKey("192.168.1.50", "8.8.8.8", 53211, 53, 17),
    FlowKey("172.16.0.9", "172.16.0.10", 40000, 443, 6),
    FlowKey("10.9.9.9", "10.0.0.2", 44000, 80, 6),
    FlowKey("10.250.0.1", "10.0.0.2", 44000, 80, 6),
]


def test_golden_assignments_are_platform_stable():
    """Hard-coded FNV results: the hash must never drift across platforms,
    Python versions, or PYTHONHASHSEED -- shard layouts are part of the
    on-disk/benchmark contract."""
    router = ShardRouter(4, ShardPolicy.FLOW)
    assert [router.shard_of_flow(f) for f in GOLDEN_FLOWS] == [0, 2, 3, 2, 1]


def test_golden_trace_ids_share_the_placement_hash():
    """Trace ids are the shard key's FNV, hard-coded: a flow's trace id
    and its shard never drift apart, nor across platforms."""
    assert [trace_id_of(f) for f in GOLDEN_FLOWS] == [
        0xB1F080EF1FE6CDA4,
        0x11F1B5AD219B059A,
        0xF7FB9A09348A71D3,
        0xCBCC43B65A8B8AA6,
        0xE1E87CB4E1E08049,
    ]
    router = ShardRouter(4)
    assert [trace_id_of(f) % 4 for f in GOLDEN_FLOWS] == [
        router.shard_of_flow(f) for f in GOLDEN_FLOWS
    ]


def shards_of(router: ShardRouter, packets: list[IPv4Packet]) -> list[int]:
    """Each packet's shard, as the runners route it: off the batch columns."""
    batch = as_batch([TimedPacket(0.0, packet) for packet in packets])
    shard_by_row = {
        row: shard
        for shard, rows in enumerate(batch.shard_rows(router))
        for row in rows
    }
    return [shard_by_row[row] for row in range(len(packets))]


def golden_packets() -> list[IPv4Packet]:
    """One packet per golden flow, then a non-first fragment of the last
    flow's connection and an ICMP packet between the first flow's hosts."""
    packets = []
    for flow in GOLDEN_FLOWS:
        if flow.protocol == 17:
            datagram = UdpDatagram(flow.src_port, flow.dst_port, b"q")
            packets.append(build_udp_packet(flow.src, flow.dst, datagram))
        else:
            segment = TcpSegment(src_port=flow.src_port, dst_port=flow.dst_port, seq=1)
            packets.append(build_tcp_packet(flow.src, flow.dst, segment))
    last = GOLDEN_FLOWS[-1]
    segment = TcpSegment(src_port=last.src_port, dst_port=last.dst_port, payload=b"z" * 1200)
    whole = build_tcp_packet(last.src, last.dst, segment, dont_fragment=False)
    packets.append(fragment(whole, 600)[1])
    packets.append(IPv4Packet(src="10.0.0.1", dst="10.0.0.2", protocol=1, payload=b"ping"))
    return packets


@pytest.mark.parametrize(
    ("policy", "expected"),
    [
        (ShardPolicy.FLOW, [0, 2, 3, 2, 1, 1, 0]),
    ],
)
def test_golden_batch_row_placement(policy, expected):
    """The runners' row routing (:meth:`PacketBatch.shard_rows`) lands the
    golden flows where :meth:`ShardRouter.shard_of_flow` does, a non-first
    fragment on its connection's shard, and ICMP on shard 0 --
    hard-coded, so no change to how a row is hashed can move a row
    unnoticed."""
    assert shards_of(ShardRouter(4, policy), golden_packets()) == expected


def test_fragments_colocate_with_their_connection_under_flow_policy():
    """The RSS pitfall: under FLOW, every fragment of a datagram AND the
    connection's unfragmented packets agree on one shard."""
    router = ShardRouter(4, ShardPolicy.FLOW)
    whole = IPv4Packet(
        src="10.1.2.3",
        dst="10.4.5.6",
        protocol=6,
        payload=(1234).to_bytes(2, "big") + (80).to_bytes(2, "big") + b"\x00" * 16
        + b"x" * 1600,
        identification=77,
    )
    frags = fragment(whole, 600)
    assert len(frags) > 2
    shards = shards_of(router, [whole, *frags])
    assert len(set(shards)) == 1
    assert shards[0] == router.shard_of_flow(FlowKey("10.1.2.3", "10.4.5.6", 1234, 80, 6))


def test_non_tcp_udp_goes_to_shard_zero():
    router = ShardRouter(8)
    icmp = IPv4Packet(src="1.2.3.4", dst="5.6.7.8", protocol=1, payload=b"ping")
    assert shards_of(router, [icmp]) == [0]


def test_router_rejects_bad_shard_count():
    with pytest.raises(ValueError):
        ShardRouter(0)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def test_iter_batches_sizes_and_order():
    batches = list(iter_batches(iter(range(10)), 4))
    assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


def test_iter_batches_is_lazy():
    def gen():
        yield 1
        raise RuntimeError("must not be pulled eagerly")

    it = iter_batches(gen(), 1)
    assert next(it) == [1]


def test_iter_batches_rejects_bad_size():
    with pytest.raises(ValueError):
        list(iter_batches([1], 0))


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_runner_config_validation():
    with pytest.raises(ValueError):
        RunnerConfig(batch_size=0)
    with pytest.raises(ValueError):
        RunnerConfig(queue_depth=0)
    with pytest.raises(ValueError):
        RunnerConfig(evict_interval=0.0)
    with pytest.raises(ValueError):
        ParallelRunner(EngineSpec(rules=attack_ruleset()), workers=0)


# ---------------------------------------------------------------------------
# Equivalence: unsharded == SerialRunner(N) == ParallelRunner(N)
# ---------------------------------------------------------------------------

BATCH = 64


def make_spec() -> EngineSpec:
    return EngineSpec(rules=attack_ruleset(), split_policy=SplitPolicy(piece_length=8))


def gauntlet_trace() -> list[TimedPacket]:
    """Benign background plus catalog attacks, fragmentation included."""
    trace = generate_trace(TrafficProfile(flows=40), seed=7)
    payload = attack_payload()
    span = (SIGNATURE_OFFSET, len(ATTACK_SIGNATURE))
    attacks = [
        build_attack(
            name,
            payload,
            signature_span=span,
            src=f"10.66.0.{i + 1}",
            dst_port=80,
            seed=i,
        )
        for i, name in enumerate(
            ["tcp_seg_8", "ip_frag_8", "stealth_segments", "tcp_overlap_new"]
        )
    ]
    return inject_attacks(trace, attacks)


def benign_only_trace() -> list[TimedPacket]:
    return generate_trace(TrafficProfile(flows=40), seed=21)


def run_unsharded(trace: list[TimedPacket]):
    """The reference: one engine, one packet at a time -- no batching and
    no encoder, so it shares nothing with the route under test."""
    ips = SplitDetectIPS(
        attack_ruleset(), split_policy=SplitPolicy(piece_length=8)
    )
    return per_packet_oracle(ips, trace), ips.stats


@pytest.mark.parametrize("make_trace", [gauntlet_trace, benign_only_trace])
def test_serial_and_parallel_match_unsharded(make_trace):
    trace = make_trace()
    ref_alerts, ref_stats = run_unsharded(trace)
    config = RunnerConfig(batch_size=BATCH)
    spec = make_spec()

    serial = SerialRunner(spec, shards=4, config=config).run(trace)
    parallel = ParallelRunner(spec, workers=4, config=config).run(trace)

    # Identical ordered alert lists between the two runners.
    assert serial.alerts == parallel.alerts
    # Same alert *set* and counters as the unsharded engine.
    ref_digest = equivalence_digest(ref_alerts, ref_stats)
    assert serial.digest() == ref_digest
    assert parallel.digest() == ref_digest
    for report in (serial, parallel):
        assert report.stats.packets_total == ref_stats.packets_total == len(trace)
        assert report.stats.fast_bytes_scanned == ref_stats.fast_bytes_scanned
        assert report.stats.slow_bytes_normalized == ref_stats.slow_bytes_normalized
        assert report.stats.diversions == ref_stats.diversions
        assert report.stats.alerts == ref_stats.alerts
        assert report.shed_packets == 0
    # The gauntlet must actually exercise detection for this to mean much.
    if make_trace is gauntlet_trace:
        assert serial.alerts


def test_serial_runner_shard_count_is_transparent():
    """1 shard vs 4 shards: same digest (sharding never changes results)."""
    trace = gauntlet_trace()
    config = RunnerConfig(batch_size=BATCH)
    one = SerialRunner(make_spec(), shards=1, config=config).run(trace)
    four = SerialRunner(make_spec(), shards=4, config=config).run(trace)
    assert one.digest() == four.digest()
    assert one.mode == four.mode == "serial"
    assert len(four.shards) == 4
    assert sum(s.stats.packets_total for s in four.shards) == len(trace)


#: A client port for which, at two shards, a port-inclusive five-tuple
#: key and the port-less shard key pick different shards.
SPLIT_PORT = 40001


def fragmented_middle_connection() -> list[TimedPacket]:
    """One connection carrying sid 5001 (28 bytes, pieces at 0/10/19,
    B = 16) across three segments, the middle one IP-fragmented.  The
    first fragment diverts the connection and the slow path reassembles
    the signature from byte 9 on: an alert only an engine that sees the
    fragments *and* the last segment can raise."""
    sig = ATTACK_SIGNATURE
    filler = b"x" * 40

    def segment(seq: int, payload: bytes, flags: int = 0x10) -> TcpSegment:
        return TcpSegment(
            src_port=SPLIT_PORT, dst_port=80, seq=seq, flags=flags, payload=payload
        )

    middle = build_tcp_packet(
        CLIENT, SERVER, segment(1050, sig[9:18]), dont_fragment=False, identification=7
    )
    packets = [
        build_tcp_packet(CLIENT, SERVER, segment(1000, b"", flags=0x02)),
        build_tcp_packet(CLIENT, SERVER, segment(1001, filler + sig[0:9])),
        *fragment(middle, 36),
        build_tcp_packet(CLIENT, SERVER, segment(1059, sig[18:] + filler)),
    ]
    assert len(packets) == 5
    return [TimedPacket(float(i), packet) for i, packet in enumerate(packets)]


def test_a_fragmented_connection_alerts_at_every_shard_count():
    """The theorem needs every packet that can share engine state on one
    shard: a port-inclusive key sent this connection's whole segments to
    one shard and its fragments to the other, and it raised no alert at
    two shards (the policy that did so is gone)."""
    five_tuple_key = f"{SERVER}|{CLIENT}|80|{SPLIT_PORT}|6".encode()
    assert fnv1a_64(five_tuple_key) % 2 != ShardRouter(2).shard_of_flow(
        FlowKey(CLIENT, SERVER, SPLIT_PORT, 80)
    )
    trace = fragmented_middle_connection()
    ref_alerts, ref_stats = run_unsharded(trace)
    config = RunnerConfig(batch_size=BATCH)
    reports = [
        SerialRunner(make_spec(), shards=shards, config=config).run(trace)
        for shards in (1, 2, 4)
    ]
    reports.append(ParallelRunner(make_spec(), workers=2, config=config).run(trace))
    assert any(alert.sid == 5001 for alert in ref_alerts)
    for report in reports:
        assert any(alert.sid == 5001 for alert in report.alerts)
        assert report.digest() == equivalence_digest(ref_alerts, ref_stats)


def test_parallel_shed_accounting_invariant():
    """Under SHED, every input packet is either processed or counted shed."""
    trace = gauntlet_trace()
    config = RunnerConfig(
        batch_size=8,
        queue_depth=1,
        backpressure=Backpressure.SHED,
        telemetry=True,
    )
    report = ParallelRunner(make_spec(), workers=2, config=config).run(trace)
    assert report.packets + report.shed_packets == len(trace)
    if report.shed_packets:
        assert report.shed_batches > 0
        # shed counter mirrored into merged telemetry when enabled
        if report.telemetry is not None:
            assert "repro_runtime_shed_packets_total" in report.telemetry["counters"]


def test_evict_interval_triggers_sweeps():
    """Packet-time eviction ticks reclaim idle flows mid-run."""
    spec = make_spec()
    config = RunnerConfig(batch_size=4, evict_interval=5.0)
    processor = ShardProcessor(0, spec, config)
    # Two bursts separated by a long idle gap; the second burst's tick
    # must sweep the first burst's dead flows.
    span = (SIGNATURE_OFFSET, len(ATTACK_SIGNATURE))
    early = [
        p
        for i in range(6)
        for p in build_attack(
            "tcp_seg_8",
            attack_payload(),
            signature_span=span,
            src=f"10.70.0.{i + 1}",
            dst_port=80,
            seed=i,
        )
    ]
    late = build_attack("plain", b"B" * 400, src="10.71.0.1", dst_port=80, seed=99)
    late = [TimedPacket(p.timestamp + 3600.0, p.ip) for p in late]
    for batch in iter_batches(early + late, 4):
        processor.feed(as_batch(batch))
    report = processor.finish()
    assert report.evictions > 0


def test_merge_orders_alerts_by_time_then_shard_then_sequence():
    from repro.core.alerts import Alert, AlertKind

    flow = FlowKey("1.1.1.1", "2.2.2.2", 1, 2, 6)

    def alert(ts, msg):
        return Alert(kind=AlertKind.SIGNATURE, flow=flow, sid=1, msg=msg, timestamp=ts)

    shard0 = ShardReport(shard=0, alerts=[alert(5.0, "s0-a"), alert(5.0, "s0-b")])
    shard1 = ShardReport(shard=1, alerts=[alert(1.0, "s1-a"), alert(5.0, "s1-b")])
    merged = merge_shard_reports(
        [shard1, shard0], mode="serial", workers=2, wall_seconds=0.1
    )
    assert [a.msg for a in merged.alerts] == ["s1-a", "s0-a", "s0-b", "s1-b"]


def test_digest_is_order_insensitive_and_content_sensitive():
    from repro.core import EngineStats
    from repro.core.alerts import Alert, AlertKind

    flow = FlowKey("1.1.1.1", "2.2.2.2", 1, 2, 6)
    a = Alert(kind=AlertKind.SIGNATURE, flow=flow, sid=1, msg="a", timestamp=1.0)
    b = Alert(kind=AlertKind.SIGNATURE, flow=flow, sid=2, msg="b", timestamp=2.0)
    stats = EngineStats(packets_total=10)
    assert equivalence_digest([a, b], stats) == equivalence_digest([b, a], stats)
    assert equivalence_digest([a], stats) != equivalence_digest([b], stats)
    assert equivalence_digest([a], stats) != equivalence_digest(
        [a], EngineStats(packets_total=11)
    )


def test_parallel_reports_worker_failure():
    """An engine that cannot even build in the child surfaces as
    WorkerFailure with the shard's traceback, not a hang."""
    from repro.runtime import WorkerFailure

    spec = EngineSpec(rules=None)  # SplitDetectIPS(None) raises in the worker
    runner = ParallelRunner(spec, workers=1, config=RunnerConfig(drain_timeout=30.0))
    with pytest.raises(WorkerFailure) as excinfo:
        runner.run(benign_only_trace()[:16])
    assert "shard 0" in str(excinfo.value)


def test_parallel_merged_telemetry_matches_serial():
    """The merged parallel registry sums to exactly what the serial
    runner's merged registry holds for the same trace."""
    trace = gauntlet_trace()
    config = RunnerConfig(batch_size=BATCH, telemetry=True)
    serial = SerialRunner(make_spec(), shards=2, config=config).run(trace)
    parallel = ParallelRunner(make_spec(), workers=2, config=config).run(trace)
    for report in (serial, parallel):
        assert report.registry is not None and report.telemetry is not None
        assert "repro_engine_packets_total" in report.telemetry["counters"]
        assert "repro_runtime_workers" in report.telemetry["gauges"]
    def samples_of(report):
        metric = report.registry.get("repro_engine_packets_total")
        return sorted(
            (tuple(sorted(labels.items())), value)
            for labels, value in metric.samples()
        )

    assert samples_of(serial) == samples_of(parallel)


# ---------------------------------------------------------------------------
# Sketch state backend through the sharded runtime
# ---------------------------------------------------------------------------


def make_sketch_spec() -> EngineSpec:
    from repro.core import FastPathConfig

    return EngineSpec(
        rules=attack_ruleset(),
        split_policy=SplitPolicy(piece_length=8),
        fast_config=FastPathConfig(
            state_backend="sketch",
            sketch_slots=1 << 12,
            sketch_hot_capacity=256,
            sketch_width=1 << 10,
        ),
    )


def test_sketch_backend_serial_parallel_digest_equality():
    """Serial(4) == parallel(4) must hold with the sketch backend: each
    shard's sketch evolution is deterministic, and the sketch never
    feeds the digest."""
    trace = gauntlet_trace()
    config = RunnerConfig(batch_size=BATCH)
    serial = SerialRunner(make_sketch_spec(), shards=4, config=config).run(trace)
    parallel = ParallelRunner(make_sketch_spec(), workers=4, config=config).run(trace)
    assert serial.alerts == parallel.alerts
    assert serial.digest() == parallel.digest()
    assert serial.alerts  # the gauntlet must actually detect something


def test_sketch_backend_merges_shard_sketches_bucketwise():
    trace = gauntlet_trace()
    config = RunnerConfig(batch_size=BATCH)
    serial = SerialRunner(make_sketch_spec(), shards=4, config=config).run(trace)
    parallel = ParallelRunner(make_sketch_spec(), workers=4, config=config).run(trace)
    for report in (serial, parallel):
        assert report.sketch is not None
        shard_sketches = [s.sketch for s in report.shards if s.sketch is not None]
        assert len(shard_sketches) == 4
        # The merged sketch is the cell-wise sum: total increments add up.
        assert report.sketch.total() == sum(s.total() for s in shard_sketches)
    # Shard partitioning is identical, so the merged sketches agree too.
    assert serial.sketch == parallel.sketch
    assert serial.sketch.total() > 0  # diversions actually fed the sketch


def test_exact_backends_report_no_sketch():
    trace = benign_only_trace()
    config = RunnerConfig(batch_size=BATCH)
    report = SerialRunner(make_spec(), shards=2, config=config).run(trace)
    assert report.sketch is None
    assert all(s.sketch is None for s in report.shards)
