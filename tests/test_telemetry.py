"""Tests for the telemetry subsystem: registry, exporters, engine wiring.

Covers the contracts DESIGN.md's Telemetry section promises: Prometheus
``le`` bucket-edge semantics, label declaration/binding, bounded journal
arithmetic, idempotent registration, exporter round-trips, the no-op
registry, and -- at the engine level -- that per-packet and batched
intake produce identical counters, that every family mirroring a plain
count is published from it (never incremented per row), and that
``evict_idle`` returns what the eviction counters record.
"""

import json
import re
import sys

import pytest

from helpers import attack_payload, attack_ruleset, counter_state, signature_span
from repro.core import ConventionalIPS, DivertReason, NaivePacketIPS, SplitDetectIPS
from repro.core.slowpath import SlowPath
from repro.evasion import build_attack
from repro.packet import IP_PROTO_TCP, IP_PROTO_UDP, IPv4Packet, PacketError, TimedPacket
from repro.pcap.columnar import encode_batches
from repro.signatures import SplitPolicy
from repro.telemetry import (
    JOURNAL_CAPACITY,
    LATENCY_NS_BUCKETS,
    NULL_REGISTRY,
    EventJournal,
    NullRegistry,
    TelemetryRegistry,
    registry,
    summarize,
    to_json,
    to_prometheus,
    write_telemetry,
)
from repro.traffic import TrafficProfile, generate_trace, inject_attacks


class TestCounter:
    def test_unlabeled_inc(self):
        tel = TelemetryRegistry()
        c = tel.counter("repro_test_total", "help text")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_labeled_children_accumulate_independently(self):
        tel = TelemetryRegistry()
        c = tel.counter("repro_test_total", "", label_names=("cause",))
        c.labels(cause="tiny").inc(2)
        c.labels(cause="frag").inc()
        assert c.value_for(cause="tiny") == 2
        assert c.value_for(cause="frag") == 1
        assert c.value == 3  # family value sums children

    def test_bound_child_is_cached(self):
        tel = TelemetryRegistry()
        c = tel.counter("repro_test_total", "", label_names=("cause",))
        assert c.labels(cause="x") is c.labels(cause="x")

    def test_labeled_family_rejects_direct_inc(self):
        tel = TelemetryRegistry()
        c = tel.counter("repro_test_total", "", label_names=("cause",))
        with pytest.raises(ValueError, match="use .labels"):
            c.inc()

    def test_undeclared_label_rejected(self):
        tel = TelemetryRegistry()
        c = tel.counter("repro_test_total", "", label_names=("cause",))
        with pytest.raises(ValueError, match="do not match"):
            c.labels(reason="x")

    def test_counter_cannot_decrease(self):
        tel = TelemetryRegistry()
        c = tel.counter("repro_test_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)
        with pytest.raises(ValueError, match="cannot decrease"):
            tel.counter("repro_lbl_total", label_names=("a",)).labels(a="1").inc(-2)


class TestGauge:
    def test_set_inc_dec(self):
        tel = TelemetryRegistry()
        g = tel.gauge("repro_test_bytes")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12

    def test_labeled_gauge(self):
        tel = TelemetryRegistry()
        g = tel.gauge("repro_state_bytes", "", label_names=("component",))
        g.labels(component="fast").set(24)
        g.labels(component="slow").set(4096)
        assert g.value_for(component="fast") == 24
        assert g.value_for(component="slow") == 4096


class TestHistogram:
    def test_value_on_edge_lands_in_that_bucket(self):
        # Prometheus le semantics: observe(edge) counts toward that edge.
        tel = TelemetryRegistry()
        h = tel.histogram("repro_test_ns", buckets=(10.0, 20.0, 30.0))
        child = h.labels() if h.label_names else h._children[()]
        for value in (10.0, 20.0, 30.0):
            h.observe(value)
        assert child.bucket_counts == [1, 1, 1, 0]
        assert child.cumulative() == [1, 2, 3, 3]

    def test_between_edges_and_overflow(self):
        tel = TelemetryRegistry()
        h = tel.histogram("repro_test_ns", buckets=(10.0, 20.0))
        for value in (5, 15, 25, 9999):
            h.observe(value)
        child = h._children[()]
        assert child.bucket_counts == [1, 1, 2]  # last slot is +Inf
        assert child.count == 4
        assert child.sum == 5 + 15 + 25 + 9999

    def test_labeled_histogram_children(self):
        tel = TelemetryRegistry()
        h = tel.histogram(
            "repro_stage_ns", "", label_names=("stage",), buckets=(100.0,)
        )
        h.labels(stage="fast").observe(50)
        h.labels(stage="slow").observe(500)
        assert h.child_for(stage="fast").cumulative() == [1, 1]
        assert h.child_for(stage="slow").cumulative() == [0, 1]
        assert h.count == 2

    def test_edges_must_strictly_increase(self):
        tel = TelemetryRegistry()
        with pytest.raises(ValueError, match="strictly increase"):
            tel.histogram("repro_bad_ns", buckets=(10.0, 10.0))
        with pytest.raises(ValueError, match="strictly increase"):
            tel.histogram("repro_bad2_ns", buckets=(20.0, 10.0))
        with pytest.raises(ValueError, match="at least one"):
            tel.histogram("repro_bad3_ns", buckets=())


class TestJournal:
    def test_truncation_drops_oldest_and_reconciles(self):
        journal = EventJournal(capacity=3)
        for i in range(7):
            journal.record("test", "event", ts=float(i), index=i)
        assert len(journal) == 3
        assert journal.recorded == 7
        assert journal.dropped == 4
        assert len(journal) + journal.dropped == journal.recorded
        assert [e["index"] for e in journal.events()] == [4, 5, 6]

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            EventJournal(capacity=0)

    def test_default_capacity(self):
        assert TelemetryRegistry().journal.capacity == JOURNAL_CAPACITY

    def test_record_fields_preserved(self):
        journal = EventJournal()
        journal.record("engine", "divert", ts=1.5, flow="a->b", reason="tiny")
        (event,) = journal.events()
        assert event == {
            "ts": 1.5,
            "subsystem": "engine",
            "event": "divert",
            "flow": "a->b",
            "reason": "tiny",
        }


class TestRegistry:
    def test_reregistration_returns_same_family(self):
        tel = TelemetryRegistry()
        a = tel.counter("repro_x_total", "first")
        b = tel.counter("repro_x_total", "second")
        assert a is b

    def test_kind_mismatch_rejected(self):
        tel = TelemetryRegistry()
        tel.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            tel.gauge("repro_x_total")

    def test_label_mismatch_rejected(self):
        tel = TelemetryRegistry()
        tel.counter("repro_x_total", label_names=("a",))
        with pytest.raises(ValueError, match="already registered with labels"):
            tel.counter("repro_x_total", label_names=("b",))

    def test_bucket_mismatch_rejected(self):
        tel = TelemetryRegistry()
        tel.histogram("repro_x_ns", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="different buckets"):
            tel.histogram("repro_x_ns", buckets=(1.0, 3.0))
        # Same buckets is fine (idempotent).
        assert tel.histogram("repro_x_ns", buckets=(1.0, 2.0)) is tel.get("repro_x_ns")

    def test_get_and_metrics_sorted(self):
        tel = TelemetryRegistry()
        tel.counter("repro_b_total")
        tel.gauge("repro_a_bytes")
        assert [m.name for m in tel.metrics()] == ["repro_a_bytes", "repro_b_total"]
        assert tel.get("repro_missing") is None


class TestNullRegistry:
    def test_disabled_and_shared_instrument(self):
        assert NULL_REGISTRY.enabled is False
        c = NULL_REGISTRY.counter("repro_anything_total", label_names=("x",))
        assert c.labels(x="1") is c  # one singleton impersonates everything
        c.inc()
        c.observe(5)
        c.set(3)
        c.dec()
        assert c.value == 0
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.metrics() == []

    def test_null_journal_is_inert(self):
        NULL_REGISTRY.journal.record("engine", "divert", ts=1.0)
        assert len(NULL_REGISTRY.journal) == 0
        assert NULL_REGISTRY.journal.events() == []

    def test_fresh_instances_also_disabled(self):
        assert NullRegistry().enabled is False


def populated_registry() -> TelemetryRegistry:
    tel = TelemetryRegistry()
    c = tel.counter("repro_t_anomaly_total", "anomalies", label_names=("cause",))
    c.labels(cause="tiny_segment").inc(3)
    c.labels(cause="piece_match").inc()
    tel.gauge("repro_t_state_bytes", "state").set(1234.5)
    h = tel.histogram("repro_t_latency_ns", "latency", buckets=(10.0, 100.0))
    for value in (5, 50, 500):
        h.observe(value)
    tel.journal.record("engine", "divert", ts=2.0, reason="tiny_segment")
    return tel


class TestExporters:
    def test_json_round_trip_matches_snapshot(self):
        tel = populated_registry()
        parsed = json.loads(to_json(tel))
        assert parsed == json.loads(json.dumps(tel.snapshot()))
        counter = parsed["counters"]["repro_t_anomaly_total"]
        assert {"labels": {"cause": "tiny_segment"}, "value": 3} in counter["values"]
        hist = parsed["histograms"]["repro_t_latency_ns"]
        assert hist["bucket_edges"] == [10.0, 100.0]
        assert hist["values"][0]["cumulative_counts"] == [1, 2, 3]
        assert parsed["journal"]["events"][0]["reason"] == "tiny_segment"

    def test_prometheus_parses_line_by_line(self):
        text = to_prometheus(populated_registry())
        sample_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
            r'(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})?'  # labels
            r" -?[0-9.e+Inf]+$"                   # value
        )
        lines = text.strip().split("\n")
        assert lines, "exporter emitted nothing"
        for line in lines:
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert sample_re.match(line), f"unparseable sample line: {line!r}"

    def test_prometheus_histogram_series(self):
        text = to_prometheus(populated_registry())
        assert 'repro_t_latency_ns_bucket{le="10"} 1' in text
        assert 'repro_t_latency_ns_bucket{le="100"} 2' in text
        assert 'repro_t_latency_ns_bucket{le="+Inf"} 3' in text
        assert "repro_t_latency_ns_sum 555" in text
        assert "repro_t_latency_ns_count 3" in text

    def test_prometheus_type_headers(self):
        text = to_prometheus(populated_registry())
        assert "# TYPE repro_t_anomaly_total counter" in text
        assert "# TYPE repro_t_state_bytes gauge" in text
        assert "# TYPE repro_t_latency_ns histogram" in text

    def test_label_escaping(self):
        tel = TelemetryRegistry()
        c = tel.counter("repro_t_total", label_names=("msg",))
        c.labels(msg='say "hi"\nback\\slash').inc()
        text = to_prometheus(tel)
        assert r'msg="say \"hi\"\nback\\slash"' in text

    def test_write_telemetry_both_formats(self, tmp_path):
        tel = populated_registry()
        json_path = write_telemetry(tel, tmp_path / "s.json")
        prom_path = write_telemetry(tel, tmp_path / "s.prom", format="prometheus")
        assert json.loads(json_path.read_text())["gauges"]
        assert prom_path.read_text() == to_prometheus(tel)
        with pytest.raises(ValueError, match="unknown telemetry format"):
            write_telemetry(tel, tmp_path / "s.x", format="xml")

    def test_summarize_skips_zero_and_filters(self):
        tel = populated_registry()
        tel.counter("repro_t_never_total", "never fires")
        lines = summarize(tel)
        assert not any("repro_t_never_total" in line for line in lines)
        assert any("repro_t_state_bytes = 1234.5" in line for line in lines)
        only_anomaly = summarize(tel, prefix="repro_t_anomaly")
        assert only_anomaly == [
            'repro_t_anomaly_total{cause="piece_match"} = 1',
            'repro_t_anomaly_total{cause="tiny_segment"} = 3',
        ]


def split_ips(telemetry):
    return SplitDetectIPS(
        attack_ruleset(),
        split_policy=SplitPolicy(piece_length=8),
        telemetry=telemetry,
    )


def sample_trace():
    """Two attack flows (one divertable, one in-order) plus the packets
    interleaved deterministically by the builders."""
    first = build_attack("tcp_seg_8", attack_payload(), signature_span=signature_span())
    second = build_attack(
        "plain", attack_payload(), signature_span=signature_span(), src="10.9.9.10"
    )
    return first + second


class TestEngineTelemetry:
    def test_process_and_process_batch_counters_identical(self):
        trace = sample_trace()
        tel_single, tel_batch = TelemetryRegistry(), TelemetryRegistry()
        ips_single, ips_batch = split_ips(tel_single), split_ips(tel_batch)
        alerts_single = [a for p in trace for a in ips_single.process(p)]
        alerts_batch = ips_batch.process_batch(trace)
        assert [str(a) for a in alerts_single] == [str(a) for a in alerts_batch]
        assert counter_state(tel_single) == counter_state(tel_batch)

    def test_diversion_counters_match_engine_stats(self):
        tel = TelemetryRegistry()
        ips = split_ips(tel)
        ips.process_batch(sample_trace())
        diversions = tel.get("repro_engine_diversions_total")
        by_reason = {
            labels["reason"]: value
            for labels, value in diversions.samples()
            if value
        }
        assert by_reason == {
            reason.value: count for reason, count in ips.divert_reasons.items()
        }
        assert diversions.value == ips.stats.diversions

    def test_a_fragmented_attack_books_ip_fragment_once(self):
        """R3 is decided in the engine, not the fast path: its one trigger
        (the first fragment, on a flow not yet diverted) is still booked
        under the fast path's anomaly family, once."""
        tel = TelemetryRegistry()
        ips = split_ips(tel)
        attack = build_attack("ip_frag_8", attack_payload(), signature_span=signature_span())
        assert sum(packet.ip.is_fragment for packet in attack) > 2
        ips.process_batch(attack)
        anomalies = {
            labels["cause"]: value
            for labels, value in tel.get("repro_fastpath_anomaly_total").samples()
            if value
        }
        assert anomalies["ip_fragment"] == 1 == ips.fragment_anomalies
        assert ips.divert_reasons == {DivertReason.IP_FRAGMENT: 1}

    def test_stage_latency_histogram_observes_all_stages(self):
        def observed_stages(tel):
            stage = tel.get("repro_engine_stage_latency_ns")
            return {labels["stage"]: child.count for labels, child in stage.samples()}

        # The batch route profiles the sweep once per batch, and the
        # decode of the rows it routes to the slow path; rows committed
        # clean on their columns are not timed one by one.
        tel = TelemetryRegistry()
        ips = split_ips(tel)
        ips.process_batch(sample_trace())
        observed = observed_stages(tel)
        assert observed["ac_prescan"] >= 1
        assert observed["slow_path"] == ips.stats.slow_packets
        assert 0 < observed["decode"] <= ips.stats.packets_total
        # The fast-path stage keeps its sample: every row that came back
        # with a result (each diverting row is one) is timed.
        assert ips.stats.diversions <= observed["fast_path"] <= ips.stats.fast_packets

    def test_materialized_counter_says_what_needed_a_packet_object(self):
        from repro.packet import IPv4Packet, TimedPacket

        # A flow to a port the signature does not cover: its rows hit the
        # automaton but neither alert nor divert, so none builds an object.
        off_port = build_attack(
            "plain",
            attack_payload(),
            signature_span=signature_span(),
            src="10.9.9.11",
            dst_port=8081,
        )
        # A TCP header too short to decode: the one row kind that does.
        broken = TimedPacket(9.0, IPv4Packet("10.9.9.12", "10.0.0.2", payload=b"x" * 10))
        tel = TelemetryRegistry()
        ips = split_ips(tel)
        ips.process_batch(sample_trace() + off_port + [broken])
        by_cause = {
            labels["cause"]: value
            for labels, value in tel.get("repro_ingest_materialized_total").samples()
        }
        # Diverting rows and rows of diverted flows enter the slow path
        # as columns: no object is built for any of them.
        assert ips.stats.diversions > 0 and ips.stats.slow_packets > ips.stats.diversions
        assert by_cause == {"decode_error": 1}
        assert ips.stats.decode_errors == 1

    # Transport headers the columns flag as bad, each with the exception
    # class the transport parser raises for it.
    MALFORMED = (
        (IP_PROTO_TCP, b"x" * 10, "TruncatedPacketError"),  # 10-byte header
        (IP_PROTO_UDP, b"x" * 5, "TruncatedPacketError"),  # 5-byte header
        (IP_PROTO_TCP, bytes(12) + b"\x40" + bytes(7), "MalformedPacketError"),  # offset 4
        (IP_PROTO_TCP, bytes(12) + b"\xf0" + bytes(15), "TruncatedPacketError"),  # 60 > 28 B
    )

    @pytest.mark.parametrize("route", ["process", "process_batch"])
    def test_decode_error_cause_is_the_parsers(self, route):
        packets = [
            TimedPacket(float(i), IPv4Packet("10.9.9.12", "10.0.0.2", protocol=proto, payload=raw))
            for i, (proto, raw, _) in enumerate(self.MALFORMED)
        ]
        engines = []
        if route == "process":
            for packet in packets:  # one engine each: every label is pinned
                engines.append(split_ips(TelemetryRegistry()))
                assert engines[-1].process(packet) == []
            expected = [{cause: 1} for _, _, cause in self.MALFORMED]
        else:
            engines.append(split_ips(TelemetryRegistry()))
            assert engines[0].process_batch(packets) == []
            expected = [{"TruncatedPacketError": 3, "MalformedPacketError": 1}]
        for ips, causes in zip(engines, expected, strict=True):
            tel = ips.telemetry
            booked = {
                labels["cause"]: value
                for labels, value in tel.get("repro_engine_decode_errors_total").samples()
            }
            rows = sum(causes.values())
            assert booked == causes
            assert tel.get("repro_ingest_materialized_total").value_for(cause="decode_error") == rows
            assert ips.stats.decode_errors == ips.stats.packets_total == rows
            assert ips.stats.fast_packets == ips.fast_path.packets_processed == rows
            assert tel.get("repro_fastpath_packets_total").value == rows

    def test_journal_records_diversions_with_packet_time(self):
        tel = TelemetryRegistry()
        ips = split_ips(tel)
        trace = sample_trace()
        ips.process_batch(trace)
        diverts = [e for e in tel.journal.events() if e["event"] == "divert"]
        assert len(diverts) == ips.stats.diversions
        trace_times = {p.timestamp for p in trace}
        assert all(e["ts"] in trace_times for e in diverts)

    def test_evict_idle_returns_count_matching_counters(self):
        tel = TelemetryRegistry()
        ips = split_ips(tel)
        ips.process_batch(sample_trace())
        evicted = ips.evict_idle(now=1e9)
        assert evicted > 0  # both flows idle far in the past
        evictions = tel.get("repro_engine_evictions_total")
        assert evictions.value == evicted
        sweeps = [e for e in tel.journal.events() if e["event"] == "evict_sweep"]
        assert sweeps
        assert sweeps[-1]["fast_evicted"] + sweeps[-1]["slow_evicted"] == evicted
        # A second sweep finds nothing and is not journaled again.
        assert ips.evict_idle(now=2e9) == 0

    def test_state_ratio_gauge_positive_and_below_one(self):
        tel = TelemetryRegistry()
        ips = split_ips(tel)
        ips.process_batch(sample_trace())
        ips.refresh_telemetry()
        ratio = tel.get("repro_engine_state_bytes_ratio").value
        assert 0 < ratio < 1  # the paper's whole point

    def test_disabled_engine_records_nothing(self):
        ips = split_ips(NULL_REGISTRY)
        alerts = ips.process_batch(sample_trace())
        assert alerts  # detection unaffected
        assert ips.telemetry.snapshot() == {}

    def test_default_is_null_registry(self):
        for engine in (
            SplitDetectIPS(attack_ruleset()),
            ConventionalIPS(attack_ruleset()),
            NaivePacketIPS(attack_ruleset()),
        ):
            assert engine.telemetry is NULL_REGISTRY

    def test_conventional_telemetry(self):
        tel = TelemetryRegistry()
        ips = ConventionalIPS(attack_ruleset(), telemetry=tel)
        trace = sample_trace()
        alerts = [a for p in trace for a in ips.process(p)]
        ips.refresh_telemetry()
        assert tel.get("repro_conventional_packets_total").value == len(trace)
        assert tel.get("repro_conventional_alerts_total").value == len(alerts)
        assert tel.get("repro_conventional_packet_latency_ns").count == len(trace)
        assert (
            tel.get("repro_conventional_normalized_bytes_total").value
            == ips.bytes_normalized
        )

    def test_naive_telemetry_batch_equals_sequential(self):
        trace = sample_trace()
        tel_a, tel_b = TelemetryRegistry(), TelemetryRegistry()
        a = NaivePacketIPS(attack_ruleset(), telemetry=tel_a)
        b = NaivePacketIPS(attack_ruleset(), telemetry=tel_b)
        for packet in trace:
            a.process(packet)
        b.process_batch(trace)
        assert counter_state(tel_a) == counter_state(tel_b)
        assert tel_a.get("repro_naive_bytes_total" ) is None  # naming check
        assert tel_a.get("repro_naive_scanned_bytes_total").value == a.bytes_scanned

    def test_shared_registry_across_engines_aggregates(self):
        tel = TelemetryRegistry()
        first, second = split_ips(tel), split_ips(tel)
        trace = sample_trace()
        first.process_batch(trace)
        packets_after_first = tel.get("repro_engine_packets_total").value
        second.process_batch(trace)
        assert tel.get("repro_engine_packets_total").value == 2 * packets_after_first


#: Every registry family that mirrors a plain count: (name, labels, count).
MIRRORED = [
    ("repro_engine_packets_total", {"path": "fast"}, lambda ips: ips.stats.fast_packets),
    ("repro_engine_packets_total", {"path": "slow"}, lambda ips: ips.stats.slow_packets),
    ("repro_engine_bytes_total", {"path": "fast"}, lambda ips: ips.stats.fast_bytes_scanned),
    ("repro_engine_bytes_total", {"path": "slow"}, lambda ips: ips.stats.slow_bytes_normalized),
    ("repro_engine_reinstated_flows_total", {}, lambda ips: ips.reinstated_flows),
    ("repro_engine_overload_refusals_total", {}, lambda ips: ips.overload_refusals),
    ("repro_fastpath_packets_total", {}, lambda ips: ips.fast_path.packets_processed),
    ("repro_fastpath_scanned_bytes_total", {}, lambda ips: ips.fast_path.bytes_scanned),
    ("repro_slowpath_packets_total", {}, lambda ips: ips.slow_path.packets_processed),
    ("repro_slowpath_normalized_bytes_total", {}, lambda ips: ips.slow_path.bytes_normalized),
] + [
    (
        "repro_engine_diversions_total",
        {"reason": reason.value},
        lambda ips, reason=reason: ips.divert_reasons[reason],
    )
    for reason in DivertReason
]


def assert_published(tel, engines, last):
    """Each mirroring family reads the sum of its plain count over the
    engines sharing ``tel``; the occupancy gauges read ``last``'s."""
    for name, labels, count in MIRRORED:
        metric = tel.get(name)
        value = metric.value_for(**labels) if labels else metric.value
        assert value == sum(count(ips) for ips in engines), (name, labels)
    assert tel.get("repro_engine_diverted_flows").value == last.diverted_flow_count
    assert tel.get("repro_fastpath_monitor_entries").value == last.fast_path.tracked_flows


def eventful_trace():
    """Benign flows with reordering and retransmission (probation and
    reinstatement), three catalog attacks (tiny segments, fragments),
    and one TCP header too short to decode -- the ``tok == 0`` row that
    builds a packet object -- in the second half."""
    trace = generate_trace(
        TrafficProfile(flows=40, reorder_rate=0.05, retransmit_rate=0.02), seed=2006
    )
    attacks = [
        build_attack(name, attack_payload(), signature_span=signature_span(),
                     src=f"10.66.0.{i + 1}", seed=i)
        for i, name in enumerate(["tcp_seg_8", "ip_frag_8", "stealth_segments"])
    ]
    trace = inject_attacks(trace, attacks)
    at = 3 * len(trace) // 4
    broken = IPv4Packet("10.9.9.12", "10.0.0.2", payload=b"x" * 10)
    return trace[:at] + [TimedPacket(trace[at].timestamp, broken)] + trace[at:]


def mirror_ips(telemetry, **kwargs):
    return SplitDetectIPS(
        attack_ruleset(),
        split_policy=SplitPolicy(piece_length=8),
        probation_packets=2,
        telemetry=telemetry,
        **kwargs,
    )


class TestPublishedCounters:
    def test_row_loop_makes_no_counter_inc(self, monkeypatch):
        callers: list[str] = []
        for cls in (registry.Counter, registry._BoundCounter):

            def counting(self, amount=1, _inc=cls.inc):
                callers.append(sys._getframe(1).f_code.co_name)
                _inc(self, amount)

            monkeypatch.setattr(cls, "inc", counting)
        clean = TrafficProfile(
            flows=30, reorder_rate=0, retransmit_rate=0, tiny_rate=0,
            small_segment_rate=0, fragment_rate=0, udp_fraction=0,
        )
        trace = generate_trace(clean, seed=7)
        ips = mirror_ips(TelemetryRegistry())
        for rows in (16, 512):
            (batch,) = encode_batches(trace[:rows], rows)
            trace = trace[rows:]
            callers.clear()
            ips.process_column_batch(batch)
            # Only the batch-end ingest pair and the publish step count.
            assert sorted(set(callers)) == ["_publish", "process_column_batch"]
            assert callers.count("process_column_batch") == 2
            assert callers.count("_publish") <= len(MIRRORED)
        assert ips.stats.fast_bytes_scanned > 0
        assert ips.stats.diversions == ips.stats.slow_packets == 0

    def test_published_families_equal_plain_counts_after_every_call(self):
        trace = eventful_trace()
        tel = TelemetryRegistry()
        wide, tight = mirror_ips(tel), mirror_ips(tel, slow_capacity_flows=3)
        engines = (wide, tight)
        half = len(trace) // 2
        assert_published(tel, engines, wide)
        for ips in engines:
            for packet in trace[:40]:
                ips.process(packet)
                assert_published(tel, engines, ips)
            ips.process_batch(trace[40:half])
            assert_published(tel, engines, ips)
            for batch in encode_batches(trace[half:], 64):
                ips.process_column_batch(batch)
                assert_published(tel, engines, ips)
            assert ips.evict_idle(now=1e9) > 0
            assert_published(tel, engines, ips)
        # Every family moved: the equalities above are not 0 == 0.
        assert tight.overload_refusals > 0
        assert wide.reinstated_flows > 0 and tight.reinstated_flows > 0
        assert len(wide.divert_reasons) >= 3
        assert wide.stats.decode_errors == tight.stats.decode_errors == 1
        assert all(ips.stats.slow_packets and ips.stats.fast_packets for ips in engines)

    @pytest.mark.parametrize("route", ["packet", "batch"])
    def test_a_row_that_raises_leaves_no_lag(self, monkeypatch, route):
        process = SlowPath.process
        calls = [0]

        def flaky(self, *args):
            calls[0] += 1
            if calls[0] == 25:
                raise PacketError("injected mid-batch")
            return process(self, *args)

        monkeypatch.setattr(SlowPath, "process", flaky)
        trace = eventful_trace()
        tel = TelemetryRegistry()
        ips = mirror_ips(tel)
        with pytest.raises(PacketError, match="injected"):
            if route == "packet":
                for packet in trace:
                    ips.process(packet)
            else:
                (batch,) = encode_batches(trace, len(trace))
                ips.process_column_batch(batch)
        assert_published(tel, [ips], ips)
        # The rows before the raise are folded into the engine's counts.
        assert ips.stats.fast_packets == ips.fast_path.packets_processed > 0
        assert ips.stats.fast_bytes_scanned == ips.fast_path.bytes_scanned > 0


class TestRegistryMerge:
    """Registry.merge: the sharded runtime's fold."""

    def test_counters_sum(self):
        a, b = TelemetryRegistry(), TelemetryRegistry()
        a.counter("repro_m_total", "h").inc(3)
        b.counter("repro_m_total", "h").inc(4)
        a.counter("repro_labeled_total", "h", ("path",)).labels(path="fast").inc(2)
        b.counter("repro_labeled_total", "h", ("path",)).labels(path="slow").inc(5)
        a.merge(b)
        assert a.get("repro_m_total").value == 7
        labeled = a.get("repro_labeled_total")
        assert labeled.value_for(path="fast") == 2
        assert labeled.value_for(path="slow") == 5

    def test_gauge_merge_modes(self):
        a, b = TelemetryRegistry(), TelemetryRegistry()
        a.gauge("repro_g_max", "h", merge="max").set(3)
        b.gauge("repro_g_max", "h", merge="max").set(9)
        a.gauge("repro_g_sum", "h", merge="sum").set(3)
        b.gauge("repro_g_sum", "h", merge="sum").set(9)
        a.gauge("repro_g_last", "h", merge="last").set(3)
        b.gauge("repro_g_last", "h", merge="last").set(9)
        a.merge(b)
        assert a.get("repro_g_max").value == 9
        assert a.get("repro_g_sum").value == 12
        assert a.get("repro_g_last").value == 9

    def test_gauge_present_only_in_other(self):
        a, b = TelemetryRegistry(), TelemetryRegistry()
        b.gauge("repro_g_new", "h", merge="sum").set(5)
        a.merge(b)
        assert a.get("repro_g_new").value == 5

    def test_histograms_merge_bucketwise(self):
        a, b = TelemetryRegistry(), TelemetryRegistry()
        edges = (1.0, 10.0)
        ha = a.histogram("repro_h", "h", buckets=edges)
        hb = b.histogram("repro_h", "h", buckets=edges)
        for v in (0.5, 5.0):
            ha.observe(v)
        for v in (5.0, 50.0):
            hb.observe(v)
        a.merge(b)
        merged = a.get("repro_h")
        assert merged.count == 4
        assert merged.sum == pytest.approx(60.5)
        child = merged.child_for()
        assert child.cumulative() == [1, 3, 4]

    def test_histogram_edge_mismatch_raises(self):
        a, b = TelemetryRegistry(), TelemetryRegistry()
        a.histogram("repro_h", "h", buckets=(1.0,))
        b.histogram("repro_h", "h", buckets=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_journal_events_carry_over(self):
        a, b = TelemetryRegistry(), TelemetryRegistry()
        b.journal.record("fastpath", "divert", ts=1.0, flow="f")
        a.merge(b)
        assert any(e["event"] == "divert" for e in a.journal.events())

    def test_merge_mode_conflict_rejected(self):
        tel = TelemetryRegistry()
        tel.gauge("repro_g", "h", merge="sum")
        with pytest.raises(ValueError):
            tel.gauge("repro_g", "h", merge="max")
        # None means "no opinion" and must keep the declared mode.
        assert tel.gauge("repro_g", "h").merge == "sum"

    def test_merge_with_null_registry_is_noop(self):
        tel = TelemetryRegistry()
        tel.counter("repro_m_total", "h").inc(2)
        tel.merge(NULL_REGISTRY)
        assert tel.get("repro_m_total").value == 2
        assert NULL_REGISTRY.merge(tel) is NULL_REGISTRY
