"""Flow-level decision tracing: flight recorder, merge, serve, explain.

The contract under test is the tracer's determinism pact: trace ids are
a pure function of the canonical flow, sampling is a pure function of
the trace id, and the merged parallel timeline is byte-identical to the
serial one -- while the equivalence digest never notices tracing at all.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.core import SplitDetectIPS
from repro.evasion import build_attack
from repro.packet import FlowKey, TimedPacket
from repro.runtime import (
    EngineSpec,
    FaultPlan,
    ParallelRunner,
    RunnerConfig,
    SerialRunner,
)
from repro.signatures import SplitPolicy
from repro.telemetry import (
    NULL_TRACER,
    FlowTracer,
    TelemetryPublisher,
    TelemetryRegistry,
    TelemetryServer,
    histogram_quantile,
    merge_trace_snapshots,
    span_sort_key,
    stage_profile,
    trace_id_of,
)
from repro.traffic import TrafficProfile, generate_trace, inject_attacks

from helpers import ATTACK_SIGNATURE, SIGNATURE_OFFSET, attack_payload, attack_ruleset


def make_spec() -> EngineSpec:
    return EngineSpec(rules=attack_ruleset(), split_policy=SplitPolicy(piece_length=8))


def gauntlet_trace(flows: int = 30) -> list[TimedPacket]:
    trace = generate_trace(TrafficProfile(flows=flows), seed=7)
    span = (SIGNATURE_OFFSET, len(ATTACK_SIGNATURE))
    attacks = [
        build_attack(
            name,
            attack_payload(),
            signature_span=span,
            src=f"10.66.0.{i + 1}",
            dst_port=80,
            seed=i,
        )
        for i, name in enumerate(["tcp_seg_8", "ip_frag_8", "stealth_segments"])
    ]
    return inject_attacks(trace, attacks)


def traced_config(**overrides) -> RunnerConfig:
    defaults = dict(batch_size=32, telemetry=True, trace=True)
    defaults.update(overrides)
    return RunnerConfig(**defaults)


# ---------------------------------------------------------------------------
# Trace ids
# ---------------------------------------------------------------------------


class TestTraceId:
    def test_both_directions_share_an_id(self):
        flow = FlowKey("10.0.0.1", "10.0.0.2", 1025, 80)
        assert trace_id_of(flow) == trace_id_of(flow.reversed())

    def test_ports_do_not_matter(self):
        # IP fragments decode with no ports; they must land on their
        # connection's trace, exactly like the shard key.
        full = FlowKey("10.0.0.1", "10.0.0.2", 1025, 80)
        fragment = FlowKey("10.0.0.1", "10.0.0.2", 0, 0)
        assert trace_id_of(full) == trace_id_of(fragment)

    def test_protocol_does_matter(self):
        tcp = FlowKey("10.0.0.1", "10.0.0.2", 1025, 80, 6)
        udp = FlowKey("10.0.0.1", "10.0.0.2", 1025, 80, 17)
        assert trace_id_of(tcp) != trace_id_of(udp)

    def test_id_is_stable_and_cached(self):
        flow = FlowKey("10.0.0.1", "10.0.0.2", 1025, 80)
        tracer = FlowTracer()
        assert tracer.trace_id(flow) == trace_id_of(flow)
        assert tracer.trace_id(flow.reversed()) == trace_id_of(flow)


# ---------------------------------------------------------------------------
# Recording, sampling, ring accounting
# ---------------------------------------------------------------------------


class TestFlowTracer:
    def test_every_flow_traced_at_sample_one(self):
        tracer = FlowTracer(sample=1)
        flow = FlowKey("10.0.0.1", "10.0.0.2", 1025, 80)
        tracer.record(flow, "decode", "fast_route", 0.5)
        (span,) = tracer.spans()
        assert span["trace"] == f"{trace_id_of(flow):016x}"
        assert span["stage"] == "decode"
        assert span["event"] == "fast_route"
        assert span["ts"] == 0.5

    def test_sampling_thins_unforced_flows(self):
        sample = 10
        tracer = FlowTracer(sample=sample)
        flows = [FlowKey(f"10.1.{i}.1", "10.0.0.2", 1025, 80) for i in range(300)]
        for flow in flows:
            tracer.record(flow, "decode", "fast_route", 0.0)
        expected = sum(1 for f in flows if trace_id_of(f) % sample == 0)
        assert len(tracer) == expected
        assert 0 < expected < len(flows)

    def test_force_pins_the_flow_past_sampling(self):
        tracer = FlowTracer(sample=1_000_000_007)  # samples essentially nothing
        flow = FlowKey("10.0.0.1", "10.0.0.2", 1025, 80)
        tracer.record(flow, "decode", "fast_route", 0.0)
        assert len(tracer) == 0
        tracer.record(flow, "engine", "divert", 1.0, force=True)
        # ...and every later span of the same connection is kept, even
        # unforced and via the reverse direction.
        tracer.record(flow.reversed(), "slow", "reassemble", 2.0)
        assert [s["event"] for s in tracer.spans()] == ["divert", "reassemble"]

    def test_ring_overflow_arithmetic(self):
        tracer = FlowTracer(capacity=8)
        flow = FlowKey("10.0.0.1", "10.0.0.2", 1025, 80)
        for i in range(20):
            tracer.record(flow, "decode", "fast_route", float(i))
        assert len(tracer) == 8
        assert tracer.recorded == 20
        assert tracer.dropped == 12
        assert len(tracer) + tracer.dropped == tracer.recorded
        # The ring keeps the newest spans.
        assert [s["ts"] for s in tracer.spans()] == [float(i) for i in range(12, 20)]

    def test_system_spans_always_recorded(self):
        tracer = FlowTracer(sample=1_000_000_007)
        tracer.record_system("engine", "evict_sweep", ts=9.0, fast_evicted=3)
        (span,) = tracer.spans()
        assert span["trace"] == "0" * 16
        assert span["flow"] == ""
        assert span["fast_evicted"] == 3

    def test_snapshot_is_json_safe(self):
        tracer = FlowTracer()
        tracer.record(FlowKey("a", "b", 1, 2), "decode", "fast_route", 0.0)
        snapshot = tracer.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowTracer(capacity=0)
        with pytest.raises(ValueError):
            FlowTracer(sample=0)

    def test_null_tracer_is_inert(self):
        flow = FlowKey("a", "b", 1, 2)
        NULL_TRACER.record(flow, "decode", "fast_route", 0.0, force=True)
        NULL_TRACER.record_system("engine", "evict_sweep")
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.snapshot() == {}
        assert not NULL_TRACER.wants(flow)


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


class TestMerge:
    def test_merge_orders_and_sums(self):
        a = FlowTracer(shard=0)
        b = FlowTracer(shard=1, capacity=16)
        a.record(FlowKey("a", "b", 1, 2), "decode", "fast_route", 2.0)
        b.record(FlowKey("c", "d", 3, 4), "decode", "fast_route", 1.0)
        merged = merge_trace_snapshots(a.snapshot(), None, b.snapshot(), {})
        assert [s["ts"] for s in merged["spans"]] == [1.0, 2.0]
        assert merged["recorded"] == 2
        assert merged["capacity"] == FlowTracer().capacity
        assert merged["spans"] == sorted(merged["spans"], key=span_sort_key)

    def test_merge_breaks_ts_ties_by_shard_then_gen_then_seq(self):
        spans = [
            {"ts": 1.0, "shard": 1, "gen": 0, "seq": 0},
            {"ts": 1.0, "shard": 0, "gen": 1, "seq": 0},
            {"ts": 1.0, "shard": 0, "gen": 0, "seq": 1},
            {"ts": 1.0, "shard": 0, "gen": 0, "seq": 0},
        ]
        ordered = sorted(spans, key=span_sort_key)
        assert ordered == [spans[3], spans[2], spans[1], spans[0]]


# ---------------------------------------------------------------------------
# Engine integration: the divert → confirm timeline
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def run_traced(self, trace):
        tracer = FlowTracer()
        ips = SplitDetectIPS(
            attack_ruleset(),
            split_policy=SplitPolicy(piece_length=8),
            tracer=tracer,
        )
        alerts = ips.process_batch(trace)
        return ips, tracer, alerts

    def test_divert_confirm_timeline_is_causal(self):
        trace = gauntlet_trace()
        ips, tracer, alerts = self.run_traced(trace)
        assert alerts
        spans = tracer.spans()
        events = {(s["stage"], s["event"]) for s in spans}
        assert ("engine", "divert") in events
        assert ("slow", "confirm") in events
        # Every diverted connection's timeline runs anomaly-or-fragment
        # → divert → (reassemble ...) in nondecreasing packet time.
        diverts = [s for s in spans if s["event"] == "divert"]
        for divert in diverts:
            timeline = sorted(
                (s for s in spans if s["trace"] == divert["trace"]),
                key=span_sort_key,
            )
            order = [s["event"] for s in timeline]
            assert "divert" in order
            trigger = min(
                (
                    order.index(e)
                    for e in ("anomaly", "fragment")
                    if e in order
                ),
                default=None,
            )
            assert trigger is not None and trigger < order.index("divert")

    def test_tracing_does_not_change_detection(self):
        trace = gauntlet_trace()
        _, _, traced_alerts = self.run_traced(trace)
        untraced = SplitDetectIPS(
            attack_ruleset(), split_policy=SplitPolicy(piece_length=8)
        )
        assert untraced.tracer is NULL_TRACER
        assert untraced.process_batch(trace) == traced_alerts

    def test_diverted_flow_fully_traced_under_sampling(self):
        trace = gauntlet_trace()
        tracer = FlowTracer(sample=1_000_000_007)
        ips = SplitDetectIPS(
            attack_ruleset(),
            split_policy=SplitPolicy(piece_length=8),
            tracer=tracer,
        )
        ips.process_batch(trace)
        events = [s["event"] for s in tracer.spans()]
        assert "divert" in events and "confirm" in events
        # The benign prefix was thinned: no plain routing spans for
        # never-diverted flows.
        benign = {s["trace"] for s in tracer.spans() if s["event"] == "fast_route"}
        forced = {s["trace"] for s in tracer.spans() if s["event"] == "divert"}
        assert benign <= forced


# ---------------------------------------------------------------------------
# Runtime: serial == parallel, digest unperturbed, restart salvage
# ---------------------------------------------------------------------------


class TestRuntimeTracing:
    def test_serial_equals_parallel_spans_and_digest(self):
        trace = gauntlet_trace()
        config = traced_config()
        serial = SerialRunner(make_spec(), shards=4, config=config).run(trace)
        parallel = ParallelRunner(make_spec(), workers=4, config=config).run(trace)
        assert serial.digest() == parallel.digest()
        assert serial.trace is not None and parallel.trace is not None
        assert serial.trace["spans"] == parallel.trace["spans"]

    def test_tracing_leaves_digest_unchanged(self):
        trace = gauntlet_trace()
        plain = SerialRunner(
            make_spec(), shards=4, config=RunnerConfig(batch_size=32)
        ).run(trace)
        traced = SerialRunner(make_spec(), shards=4, config=traced_config()).run(trace)
        assert plain.digest() == traced.digest()
        assert plain.trace is None
        assert traced.trace["recorded"] > 0

    def test_sampling_knob_reaches_the_workers(self):
        trace = gauntlet_trace()
        coarse = SerialRunner(
            make_spec(), shards=2, config=traced_config(trace_sample=1_000_000_007)
        ).run(trace)
        fine = SerialRunner(make_spec(), shards=2, config=traced_config()).run(trace)
        assert 0 < coarse.trace["recorded"] < fine.trace["recorded"]
        assert {s["event"] for s in coarse.trace["spans"]} >= {"divert", "confirm"}

    def test_restart_salvages_crashed_generation_traces(self):
        trace = gauntlet_trace()
        # The stall forces a heartbeat-interval delta flush (carrying the
        # gen-0 trace ring) before the crash -- salvage works from the
        # last flushed delta, so a crash before any flush has nothing
        # to recover.
        config = traced_config(
            max_restarts=2,
            restart_backoff=0.01,
            heartbeat_interval=0.05,
            heartbeat_timeout=5.0,
            drain_timeout=60.0,
            faults=FaultPlan.parse(
                ["stall:shard=0,at=40,seconds=0.12", "crash:shard=0,at=120"]
            ),
        )
        report = ParallelRunner(make_spec(), workers=2, config=config).run(trace)
        assert report.worker_restarts >= 1
        assert report.trace is not None
        # Both the dead generation's salvaged spans and the replacement
        # generation's spans survive the merge, tagged apart.
        shard0_gens = {
            s["gen"] for s in report.trace["spans"] if s["shard"] == 0
        }
        assert len(shard0_gens) >= 2
        assert report.trace["spans"] == sorted(
            report.trace["spans"], key=span_sort_key
        )
        # Each generation appears exactly once in the shard reports, and
        # the merged registry still carries its telemetry.
        gen_keys = [(s.shard, s.generation) for s in report.shards]
        assert len(gen_keys) == len(set(gen_keys))
        assert isinstance(report.registry, TelemetryRegistry)

    def test_trace_rides_outside_the_digest_under_restart(self):
        trace = gauntlet_trace()

        def run(traced: bool):
            config = traced_config(
                trace=traced,
                max_restarts=2,
                restart_backoff=0.01,
                heartbeat_interval=0.05,
                heartbeat_timeout=1.0,
                drain_timeout=60.0,
                faults=FaultPlan.parse(["crash:shard=1,at=90"]),
            )
            return ParallelRunner(make_spec(), workers=2, config=config).run(trace)

        traced_report = run(True)
        plain = run(False)
        assert traced_report.digest() == plain.digest()
        assert plain.trace is None


# ---------------------------------------------------------------------------
# Stage profiler
# ---------------------------------------------------------------------------


class TestProfile:
    def test_histogram_quantile_interpolates(self):
        edges = (10.0, 100.0)
        # 4 samples <=10, 6 more <=100 (cumulative 4, 10).
        assert histogram_quantile(edges, (4, 10), 0.0) <= 10.0
        assert histogram_quantile(edges, (4, 10), 1.0) == 100.0
        mid = histogram_quantile(edges, (4, 10), 0.5)
        assert 10.0 < mid < 100.0

    def test_run_report_carries_profile_and_slowest_flows(self):
        trace = gauntlet_trace()
        report = SerialRunner(make_spec(), shards=2, config=traced_config()).run(trace)
        assert report.profile is not None
        stages = report.profile["stages"]
        assert {"fast_path", "slow_path"} <= set(stages)
        for stage in stages.values():
            assert stage["count"] > 0
            assert stage["p50_ns"] <= stage["p99_ns"] <= stage["max_le_ns"]
        slowest = report.profile["slowest_flows"]
        assert slowest
        for entries in slowest.values():
            durations = [entry["dur_ns"] for entry in entries]
            assert durations == sorted(durations, reverse=True)

    def test_profile_none_without_telemetry(self):
        registry = TelemetryRegistry()
        assert stage_profile(registry) is None


# ---------------------------------------------------------------------------
# Live telemetry endpoint
# ---------------------------------------------------------------------------


class TestServe:
    def fetch(self, url: str) -> tuple[int, bytes]:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read()

    def test_endpoints_serve_live_state(self):
        trace = gauntlet_trace(flows=10)
        report = SerialRunner(make_spec(), shards=2, config=traced_config()).run(trace)
        publisher = TelemetryPublisher()
        publisher.registry = report.registry
        publisher.trace_snapshot = report.trace
        publisher.health = {"status": "ok", "packets": report.packets}
        with TelemetryServer(publisher, port=0) as server:
            status, metrics = self.fetch(f"{server.url}/metrics")
            assert status == 200
            assert b"repro_telemetry_journal_recorded_total" in metrics
            assert b"repro_profile_stage_latency_ns" in metrics
            status, health = self.fetch(f"{server.url}/healthz")
            assert status == 200
            assert json.loads(health)["status"] == "ok"
            status, traces = self.fetch(f"{server.url}/traces")
            assert status == 200
            spans = json.loads(traces)["spans"]
            assert spans == report.trace["spans"]
            # Filtered by trace id prefix.
            wanted = spans[0]["trace"]
            status, body = self.fetch(f"{server.url}/traces?trace={wanted}")
            filtered = json.loads(body)["spans"]
            assert filtered and all(s["trace"] == wanted for s in filtered)

    def test_unknown_path_is_404(self):
        with TelemetryServer(TelemetryPublisher(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.fetch(f"{server.url}/nope")
            assert excinfo.value.code == 404
