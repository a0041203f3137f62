"""The service subsystem: sources, tenancy, shedding, reload, drain.

The load-bearing promises under test:

- **equivalence**: replaying a trace through ``serve`` (shedding off /
  below overload) alerts identically to the batch runners;
- **hot reload**: a mid-stream rule swap produces the union of the old
  rules' alerts (before) and the new rules' alerts (after), loses zero
  flow state, and never drops an in-flight diverted flow;
- **shedding invariants**: a diverted or force-traced flow is never
  shed at any level, and the loss accounting identity
  ``examined + shed + quarantined + lost == input`` closes;
- **drain**: a stop request mid-stream drains into a partial report
  whose accounting still closes.
"""

from __future__ import annotations

import json
import socket
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.packet import (
    IP_PROTO_TCP,
    TCP_FIN,
    TCP_RST,
    IPv4Packet,
    ip_u32_to_str,
    TcpSegment,
    TimedPacket,
    build_tcp_packet,
    decode_tcp,
    flow_key_of,
    fragment,
    tuple_of_flow,
)
from repro.runtime import (
    ControlMessage,
    EngineSpec,
    ParallelRunner,
    Quarantine,
    RunnerConfig,
    SerialRunner,
    equivalence_digest,
)
from repro.runtime.batching import iter_feed
from repro.evasion import build_attack
from repro.pcap import (
    PcapWriter,
    read_column_batches,
    read_records,
    read_trace,
    write_trace,
)
from repro.service import (
    DEFAULT_TENANT,
    FRAME_MAGIC,
    LoadShedder,
    PcapTailSource,
    ReplaySource,
    ServiceConfig,
    ShedPolicy,
    SocketSource,
    SplitDetectService,
    TenantSpec,
    TenantTable,
    encode_record,
    open_source,
    send_records,
)
from repro.packet.batch import portless_flow_hash
from repro.service.shedding import _SHED_SCALE
from repro.signatures import RuleSet, Signature, SplitPolicy
from repro.telemetry import trace_id_of
from repro.telemetry.serve import TelemetryPublisher, TelemetryServer, TelemetrySession
from repro.traffic import TrafficProfile, generate_trace

from helpers import (
    ATTACK_SIGNATURE,
    SIGNATURE_OFFSET,
    as_batch,
    attack_payload,
    attack_ruleset,
    per_packet_oracle,
)

# A second signature that only exists in the post-reload rule set.
SECOND_SIGNATURE = b"SECOND-WAVE/exploit\xde\xad\xbe\xef:trigger"
SECOND_SID = 6001


def second_ruleset() -> RuleSet:
    """The post-reload set: everything the seed set has, plus one more."""
    return attack_ruleset(
        extra=[
            Signature(
                sid=SECOND_SID,
                pattern=SECOND_SIGNATURE,
                msg="second wave",
                dst_port=80,
            )
        ]
    )


def second_payload(total: int = 2000, offset: int = 100) -> bytes:
    body = bytearray(b"\x20" * total)
    body[offset : offset + len(SECOND_SIGNATURE)] = SECOND_SIGNATURE
    return bytes(body)


def make_spec(rules: RuleSet | None = None) -> EngineSpec:
    return EngineSpec(
        rules=rules or attack_ruleset(),
        split_policy=SplitPolicy(piece_length=8),
    )


def first_wave() -> list[TimedPacket]:
    """A fragmented catalog attack carrying the seed signature (diverts)."""
    return build_attack(
        "ip_frag_8",
        attack_payload(),
        signature_span=(SIGNATURE_OFFSET, len(ATTACK_SIGNATURE)),
        src="10.66.0.1",
        dst_port=80,
        seed=1,
    )


def second_wave() -> list[TimedPacket]:
    """A segmented attack only the post-reload rule set can see."""
    return build_attack(
        "tcp_seg_8",
        second_payload(),
        signature_span=(100, len(SECOND_SIGNATURE)),
        src="10.66.0.2",
        dst_port=80,
        seed=2,
    )


def records_of(trace: list[TimedPacket]) -> list[tuple[float, bytes]]:
    return [(packet.timestamp, packet.ip.serialize()) for packet in trace]


def alert_sids(alerts) -> set[int]:
    return {alert.sid for alert in alerts if alert.sid is not None}


def run_service(
    source,
    *,
    rules: RuleSet | None = None,
    tenants: list[TenantSpec] | None = None,
    keyer: str = "dst-ip",
    runner_config: RunnerConfig | None = None,
    service_config: ServiceConfig | None = None,
    reload_loader=None,
) -> tuple[SplitDetectService, "ServiceReportType"]:
    table = TenantTable(
        make_spec(rules),
        tenants or [],
        keyer=keyer,
        config=runner_config or RunnerConfig(batch_size=32),
    )
    service = SplitDetectService(
        source,
        table,
        config=service_config or ServiceConfig(batch_size=32, poll_timeout=0.05),
        reload_loader=reload_loader,
    )
    return service, service.run()


ServiceReportType = object  # narrative alias for the helper's return


class HookedSource:
    """A ReplaySource that fires a callback at a chosen poll number.

    The deterministic way to land a stop or reload request at an exact
    stream position: poll *k* triggers the hook before returning its
    records, so the service observes the request at that batch boundary.
    """

    def __init__(self, records, *, at_poll: int, hook) -> None:
        self._inner = ReplaySource(records, label="hooked")
        self.at_poll = at_poll
        self.hook = hook
        self.polls = 0

    @property
    def exhausted(self) -> bool:
        return self._inner.exhausted

    def poll(self, max_records: int, timeout: float):
        self.polls += 1
        if self.polls == self.at_poll and self.hook is not None:
            self.hook()
        return self._inner.poll(max_records, timeout)

    def state(self):
        return self._inner.state()

    def close(self) -> None:
        self._inner.close()


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


class TestReplaySource:
    def test_polls_in_batches_then_exhausts(self):
        records = records_of(first_wave())
        source = ReplaySource(iter(records))
        out: list[tuple[float, bytes]] = []
        while not source.exhausted:
            out.extend(source.poll(3, timeout=0.0))
        assert out == records
        assert source.state()["records"] == len(records)
        assert source.state()["backlog_fraction"] == 0.0

    def test_close_exhausts(self):
        source = ReplaySource(iter(records_of(first_wave())))
        source.close()
        assert source.exhausted


class TestServeIntakeCost:
    """Noise-free tripwire for what serve pays per record before the
    engine: ``read_records`` -> ``ReplaySource.poll`` -> ``iter_feed``, the
    path ``serve replay:`` drives, at its 256-record polls."""

    EVENTS_PER_RECORD = 8.0
    """``call`` + ``c_call`` events per record under ``sys.setprofile``:
    4.8 measured on the ledger's ``small_pkt`` 10,240-record prefix -- the
    record walk's one unpack and one append, the encoder's two appends,
    and each window's walk and each poll's column decode amortized (the
    records themselves are sliced and handed on in C).  It read 15.9
    while the reader took each record with two ``read`` calls and a
    header decode through two generators, and the encoder ran an
    ``isinstance`` chain."""

    def test_events_per_record(self, tmp_path):
        path = tmp_path / "intake.pcap"
        write_trace(path, generate_trace(TrafficProfile(flows=400), seed=7))
        counts = {"call": 0, "c_call": 0}

        def profile(frame, event, arg):
            if event in counts:
                counts[event] += 1

        quarantine = Quarantine()
        source = ReplaySource(read_records(path))
        records = rows = 0
        sys.setprofile(profile)
        try:
            while not source.exhausted:
                polled = source.poll(256, 0.0)
                records += len(polled)
                for batch in iter_feed(polled, 256, quarantine):
                    rows += len(batch)
        finally:
            sys.setprofile(None)
        assert records > 2000 and rows == records
        assert (counts["call"] + counts["c_call"]) / records <= self.EVENTS_PER_RECORD


class TestPcapTailSource:
    def test_follows_a_growing_file(self, tmp_path):
        trace = first_wave()
        full = tmp_path / "full.pcap"
        write_trace(full, trace)
        data = full.read_bytes()
        # Savefile timestamps are quantized to microseconds; compare
        # against the round-tripped records, not the in-memory trace.
        expected = list(read_records(full))
        # Cut mid-way through the *second* record's body: the tail must
        # yield the first record and hold the truncated one back.
        first_len = len(trace[0].ip.serialize())
        cut = 24 + 16 + first_len + 16 + 4
        tailed = tmp_path / "live.pcap"
        tailed.write_bytes(data[:cut])

        source = PcapTailSource(tailed, poll_interval=0.01)
        try:
            got = source.poll(100, timeout=0.2)
            assert len(got) == 1
            assert got[0] == expected[0]
            # Nothing more until the capture tool finishes the record.
            assert source.poll(100, timeout=0.05) == []
            with tailed.open("ab") as handle:
                handle.write(data[cut:])
            rest: list[tuple[float, bytes]] = []
            deadline = time.monotonic() + 2.0
            while len(rest) < len(expected) - 1 and time.monotonic() < deadline:
                rest.extend(source.poll(100, timeout=0.1))
            assert rest == expected[1:]
            assert not source.exhausted  # tails never finish on their own
        finally:
            source.close()
        assert source.exhausted

    def test_waits_for_file_to_exist(self, tmp_path):
        source = PcapTailSource(tmp_path / "not-yet.pcap", poll_interval=0.01)
        try:
            assert source.poll(10, timeout=0.05) == []
            assert source.state()["header_seen"] is False
        finally:
            source.close()


class TestSocketSource:
    def drain(self, source: SocketSource, expect: int, timeout: float = 3.0):
        records: list[tuple[float, bytes]] = []
        deadline = time.monotonic() + timeout
        while len(records) < expect and time.monotonic() < deadline:
            records.extend(source.poll(64, timeout=0.05))
        return records

    def wait_state(self, source: SocketSource, predicate, timeout: float = 3.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            state = source.state()
            if predicate(state):
                return state
            time.sleep(0.01)
        return source.state()

    def test_framed_records_round_trip(self):
        records = records_of(first_wave())
        source = SocketSource(("127.0.0.1", 0), capacity=1024)
        try:
            with socket.create_connection(source.address) as producer:
                sent = send_records(producer, records)
            got = self.drain(source, sent)
            # Thread hand-off preserves per-connection order.
            assert got == records
            state = source.state()
            assert state["records_in"] == sent
            assert state["protocol_errors"] == 0
            assert state["overflow_dropped"] == 0
        finally:
            source.close()

    def test_overflow_is_counted_not_silent(self):
        records = records_of(first_wave() + second_wave())
        assert len(records) > 8
        source = SocketSource(("127.0.0.1", 0), capacity=4)
        try:
            with socket.create_connection(source.address) as producer:
                sent = send_records(producer, records)
            state = self.wait_state(
                source,
                lambda s: s["records_in"] == sent,
            )
            assert state["overflow_dropped"] > 0
            got = self.drain(source, sent - state["overflow_dropped"])
            final = source.state()
            # Every record offered is either delivered or counted lost.
            assert final["records_out"] + final["overflow_dropped"] == sent
        finally:
            source.close()

    def test_bad_magic_closes_only_that_connection(self):
        records = records_of(first_wave())
        source = SocketSource(("127.0.0.1", 0), capacity=1024)
        try:
            with socket.create_connection(source.address) as bad:
                bad.sendall(b"XXXX" + b"garbage")
            self.wait_state(source, lambda s: s["protocol_errors"] == 1)
            with socket.create_connection(source.address) as good:
                sent = send_records(good, records)
            assert self.drain(source, sent) == records
            state = source.state()
            assert state["protocol_errors"] == 1
            assert state["records_in"] == sent
        finally:
            source.close()

    def test_oversized_frame_is_protocol_corruption(self):
        source = SocketSource(("127.0.0.1", 0), capacity=16, max_frame=64)
        try:
            with socket.create_connection(source.address) as producer:
                producer.sendall(FRAME_MAGIC + encode_record(1.0, b"x" * 65))
            state = self.wait_state(source, lambda s: s["protocol_errors"] == 1)
            assert state["protocol_errors"] == 1
            assert source.poll(10, timeout=0.05) == []
        finally:
            source.close()

    def test_backlog_fraction_rises_with_queue_depth(self):
        source = SocketSource(("127.0.0.1", 0), capacity=8)
        try:
            with socket.create_connection(source.address) as producer:
                send_records(producer, [(1.0, b"\x45" + b"\x00" * 19)] * 4)
            state = self.wait_state(
                source, lambda s: s["backlog_fraction"] >= 0.5
            )
            assert state["backlog_fraction"] == pytest.approx(0.5)
        finally:
            source.close()


class TestOpenSource:
    def test_replay_tail_tcp_specs(self, tmp_path):
        pcap = tmp_path / "t.pcap"
        write_trace(pcap, first_wave())
        replay = open_source(f"replay:{pcap}")
        assert isinstance(replay, ReplaySource)
        tail = open_source(f"tail:{pcap}")
        assert isinstance(tail, PcapTailSource)
        tail.close()
        tcp = open_source("tcp:127.0.0.1:0", capacity=16)
        assert isinstance(tcp, SocketSource)
        tcp.close()

    @pytest.mark.parametrize(
        "spec",
        ["", "replay", "tcp:9999", "tcp:localhost:notaport", "ftp:whatever"],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            open_source(spec)


# ---------------------------------------------------------------------------
# Tenancy
# ---------------------------------------------------------------------------


def tcp_packet(src: str, dst: str, dst_port: int = 80) -> TimedPacket:
    segment = TcpSegment(src_port=40000, dst_port=dst_port, seq=1, payload=b"hi")
    return TimedPacket(1.0, build_tcp_packet(src, dst, segment))


class TestTenantTable:
    def two_tenants(self, keyer: str = "dst-ip") -> TenantTable:
        tenants = [
            TenantSpec("acme", ("10.1.0.0/16",), attack_ruleset()),
            TenantSpec("globex", ("10.2.0.7",), second_ruleset()),
        ]
        if keyer == "dst-port":
            tenants = [
                TenantSpec("acme", ("8080",), attack_ruleset()),
                TenantSpec("globex", ("9090",), second_ruleset()),
            ]
        return TenantTable(make_spec(), tenants, keyer=keyer)

    def test_dst_ip_keyer_routes_cidr_and_exact(self):
        table = self.two_tenants()
        assert table.tenant_of(tcp_packet("10.9.9.9", "10.1.44.5")) == "acme"
        assert table.tenant_of(tcp_packet("10.9.9.9", "10.2.0.7")) == "globex"
        assert (
            table.tenant_of(tcp_packet("10.9.9.9", "192.168.0.1"))
            == DEFAULT_TENANT
        )

    def test_src_ip_keyer_uses_the_other_end(self):
        tenants = [TenantSpec("acme", ("10.1.0.0/16",), attack_ruleset())]
        table = TenantTable(make_spec(), tenants, keyer="src-ip")
        assert table.tenant_of(tcp_packet("10.1.2.3", "10.9.9.9")) == "acme"
        assert table.tenant_of(tcp_packet("10.9.9.9", "10.1.2.3")) == DEFAULT_TENANT

    def test_dst_port_keyer_and_fragment_fallback(self):
        table = self.two_tenants(keyer="dst-port")
        assert table.tenant_of(tcp_packet("10.9.9.9", "10.0.0.2", 8080)) == "acme"
        assert table.tenant_of(tcp_packet("10.9.9.9", "10.0.0.2", 80)) == DEFAULT_TENANT
        # A non-first fragment has no transport header to key on.
        from repro.packet import fragment

        segment = TcpSegment(src_port=40000, dst_port=8080, seq=1, payload=b"hi")
        whole = build_tcp_packet(
            "10.9.9.9", "10.0.0.2", segment, dont_fragment=False
        )
        frags = fragment(whole, 28)
        assert len(frags) > 1
        later = TimedPacket(1.0, frags[1])
        assert later.ip.fragment_offset > 0
        assert table.tenant_of(later) == DEFAULT_TENANT

    def test_overlap_resolves_to_first_declared(self):
        tenants = [
            TenantSpec("narrow", ("10.1.2.0/24",), attack_ruleset()),
            TenantSpec("wide", ("10.1.0.0/16",), attack_ruleset()),
        ]
        table = TenantTable(make_spec(), tenants)
        assert table.tenant_of(tcp_packet("10.9.9.9", "10.1.2.3")) == "narrow"

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="keyer"):
            TenantTable(make_spec(), [], keyer="by-vibes")
        with pytest.raises(ValueError, match="reserved"):
            TenantTable(
                make_spec(),
                [TenantSpec(DEFAULT_TENANT, ("10.0.0.0/8",), attack_ruleset())],
            )
        with pytest.raises(ValueError, match="duplicate"):
            TenantTable(
                make_spec(),
                [
                    TenantSpec("a", ("10.0.0.1",), attack_ruleset()),
                    TenantSpec("a", ("10.0.0.2",), attack_ruleset()),
                ],
            )
        with pytest.raises(ValueError, match="selector"):
            TenantTable(
                make_spec(),
                [TenantSpec("a", ("not-an-ip",), attack_ruleset())],
            )

    def test_reload_unknown_tenant_raises(self):
        table = self.two_tenants()
        with pytest.raises(KeyError):
            table.reload({"initech": attack_ruleset()})

    def test_reload_bumps_only_named_tenants(self):
        table = self.two_tenants()
        generations = table.reload({"acme": second_ruleset()}, seq=1)
        assert generations == {"acme": 1}
        assert table.processor("acme").engine.rules_generation == 1
        assert table.processor("globex").engine.rules_generation == 0
        assert table.processor(DEFAULT_TENANT).engine.rules_generation == 0
        state = table.state()
        assert state["tenants"]["acme"]["rules_generation"] == 1
        assert state["keyer"] == "dst-ip"


# ---------------------------------------------------------------------------
# Hot reload: union of alerts, zero flow-state loss, no dropped diversions
# ---------------------------------------------------------------------------


class TestHotReload:
    def test_runner_reload_mid_stream_yields_alert_union(self):
        """Both runners: old-rule alerts before, new-rule alerts after."""
        reload = ControlMessage(op="reload", payload={"rules": second_ruleset()}, seq=1)
        as_objects = first_wave() + [reload] + second_wave()
        # The same two waves already encoded: the batch route carries the
        # command between batches just as it does between packets.
        as_batches = [as_batch(first_wave()), reload, as_batch(second_wave())]
        config = RunnerConfig(batch_size=16)
        spec = make_spec()
        for stream in (as_objects, as_batches):
            serial = SerialRunner(spec, shards=2, config=config).run(list(stream))
            parallel = ParallelRunner(spec, workers=2, config=config).run_columnar(
                list(stream)
            )
            for report in (serial, parallel):
                sids = alert_sids(report.alerts)
                assert 5001 in sids  # seed signature, sent before the swap
                assert SECOND_SID in sids  # only the new rule set knows this

    def test_without_reload_second_wave_is_invisible(self):
        """The control above is doing the work: no swap, no 6001."""
        stream = first_wave() + second_wave()
        report = SerialRunner(
            make_spec(), shards=2, config=RunnerConfig(batch_size=16)
        ).run(stream)
        assert SECOND_SID not in alert_sids(report.alerts)

    def test_reload_preserves_flow_state_and_inflight_diversions(self):
        """The property behind the service's reload contract.

        Feed half of a fragmented (diverting) attack, swap rules, feed
        the rest: every monitor entry and diversion survives the swap
        bit-for-bit, and the in-flight diverted flow still alerts under
        the rules it started with.
        """
        attack = first_wave()
        benign = generate_trace(TrafficProfile(flows=10), seed=3)
        mid = len(attack) // 2
        table = TenantTable(make_spec(), [], config=RunnerConfig(batch_size=16))
        processor = table.processor(DEFAULT_TENANT)
        engine = processor.engine

        processor.feed(as_batch(benign + attack[:mid]))
        before = (
            engine.fast_path.live_flows(),
            engine.fast_path.tracked_flows,
            len(engine.diversions),
            engine.slow_path.active_flows,
        )
        assert before[2] > 0, "the fragmented attack must divert pre-swap"

        generations = table.reload({DEFAULT_TENANT: second_ruleset()}, seq=1)
        assert generations == {DEFAULT_TENANT: 1}
        after = (
            engine.fast_path.live_flows(),
            engine.fast_path.tracked_flows,
            len(engine.diversions),
            engine.slow_path.active_flows,
        )
        assert after == before, "a reload must not touch flow state"

        processor.feed(as_batch(attack[mid:] + second_wave()))
        report = processor.finish()
        sids = alert_sids(report.alerts)
        assert 5001 in sids, "in-flight diverted flow lost across reload"
        assert SECOND_SID in sids, "new rules not active after reload"

    def test_service_reload_applies_at_poll_boundary(self):
        """End-to-end through SplitDetectService.request_reload()."""
        stream = first_wave() + second_wave()
        holder: dict = {}

        def trigger():
            holder["service"].request_reload()

        source = HookedSource(records_of(stream), at_poll=2, hook=trigger)
        table = TenantTable(make_spec(), [], config=RunnerConfig(batch_size=16))
        service = SplitDetectService(
            source,
            table,
            config=ServiceConfig(batch_size=16, poll_timeout=0.05),
            reload_loader=lambda: {DEFAULT_TENANT: second_ruleset()},
        )
        holder["service"] = service
        report = service.run()
        assert report.reloads == 1
        assert report.stop_reason == "exhausted"
        sids = alert_sids(report.runtime.alerts)
        assert 5001 in sids and SECOND_SID in sids
        assert report.accounting_closed
        assert (
            report.tenants["tenants"][DEFAULT_TENANT]["rules_generation"] == 1
        )

    def test_service_reload_failure_keeps_current_rules(self, capsys):
        def bad_loader():
            raise OSError("rules file vanished")

        source = HookedSource(
            records_of(first_wave()),
            at_poll=1,
            hook=lambda: holder["service"].request_reload(),
        )
        holder: dict = {}
        table = TenantTable(make_spec(), [], config=RunnerConfig(batch_size=16))
        service = SplitDetectService(
            source,
            table,
            config=ServiceConfig(batch_size=16, poll_timeout=0.05),
            reload_loader=bad_loader,
        )
        holder["service"] = service
        report = service.run()
        assert report.reloads == 0
        assert "reload failed" in capsys.readouterr().out
        assert 5001 in alert_sids(report.runtime.alerts)
        assert table.processor(DEFAULT_TENANT).engine.rules_generation == 0

    def test_request_reload_without_loader_raises(self):
        table = TenantTable(make_spec(), [])
        service = SplitDetectService(ReplaySource(iter([])), table)
        with pytest.raises(RuntimeError):
            service.request_reload()


# ---------------------------------------------------------------------------
# Load shedding
# ---------------------------------------------------------------------------


class FakeEngine:
    def __init__(self, diverted=()):
        self.diverted = set(diverted)

    def is_diverted(self, flow):
        return flow.canonical() in self.diverted


class FakeTracer:
    def __init__(self, forced=()):
        self.forced = set(forced)

    def is_forced(self, flow):
        return flow.canonical() in self.forced


def shed_slot(flow) -> int:
    """A flow's position in the shed hash space."""
    src, dst, _, _, proto = tuple_of_flow(flow)
    return portless_flow_hash(src, dst, proto) % _SHED_SCALE


def sheddable_packet() -> TimedPacket:
    """A packet whose flow's slot falls inside the level-1 (0.25) fraction."""
    for host in range(1, 250):
        packet = tcp_packet(f"10.50.0.{host}", "10.0.0.2")
        if shed_slot(flow_key_of(packet.ip)) < 0.25 * _SHED_SCALE:
            return packet
    raise AssertionError("no sheddable flow in 250 candidates")


def sheds(shedder: LoadShedder, packet: TimedPacket, **protections) -> bool:
    """Does ``shedder`` shed the one row of ``packet``?"""
    _kept, shed = shedder.shed_rows(as_batch([packet]), [0], **protections)
    return bool(shed)


class TestLoadShedder:
    def test_raise_is_immediate_lower_is_hysteretic(self):
        shedder = LoadShedder(ShedPolicy(calm_updates=3))
        assert shedder.update(backlog=0.9) == 1
        assert shedder.update(backlog=0.9) == 2
        assert shedder.update(backlog=0.9) == 3
        assert shedder.update(backlog=0.9) == 3  # pinned at max
        # Mid-band readings neither raise nor count as calm.
        assert shedder.update(backlog=0.5) == 3
        # Three consecutive calm updates step down exactly once.
        assert shedder.update(backlog=0.1) == 3
        assert shedder.update(backlog=0.1) == 3
        assert shedder.update(backlog=0.1) == 2
        # A calm streak broken by overload starts over.
        assert shedder.update(backlog=0.1) == 2
        assert shedder.update(backlog=0.9) == 3
        assert shedder.update(backlog=0.1) == 3

    def test_p99_budget_is_an_independent_trigger(self):
        shedder = LoadShedder(ShedPolicy(p99_budget_ns=1000.0))
        assert shedder.update(backlog=0.0, p99_ns=1500.0) == 1
        assert shedder.last_p99_ratio == pytest.approx(1.5)
        calm = LoadShedder(ShedPolicy())  # budget 0: latency signal off
        assert calm.update(backlog=0.0, p99_ns=10**12) == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ShedPolicy(levels=(0.5, 0.75))
        with pytest.raises(ValueError):
            ShedPolicy(levels=(0.0, 1.5))
        with pytest.raises(ValueError):
            ShedPolicy(backlog_low=0.8, backlog_high=0.2)
        with pytest.raises(ValueError):
            ShedPolicy(calm_updates=0)

    def test_never_sheds_diverted_or_forced_flows(self):
        packet = sheddable_packet()
        flow = flow_key_of(packet.ip)
        shedder = LoadShedder()
        shedder.level = 1

        # Unprotected: the hash says shed, so it sheds.
        assert sheds(shedder, packet, engine=FakeEngine()) is True
        assert shedder.shed_packets == 1

        # Same flow, now diverted: absolutely protected.
        diverted = FakeEngine(diverted=[flow.canonical()])
        assert sheds(shedder, packet, engine=diverted) is False
        # Same flow, force-traced: absolutely protected.
        forced = FakeTracer(forced=[flow.canonical()])
        assert sheds(shedder, packet, engine=FakeEngine(), tracer=forced) is False
        assert shedder.protected_packets == 2
        assert shedder.shed_packets == 1

    def test_level_zero_and_disabled_never_shed(self):
        packet = sheddable_packet()
        shedder = LoadShedder()
        assert sheds(shedder, packet, engine=FakeEngine()) is False
        shedder.level = 1
        shedder.enabled = False
        assert sheds(shedder, packet, engine=FakeEngine()) is False
        assert shedder.shed_packets == 0

    def test_whole_flow_decisions_are_deterministic(self):
        packet = sheddable_packet()
        reply = build_tcp_packet(
            packet.ip.dst, packet.ip.src, TcpSegment(src_port=80, dst_port=40000, seq=9)
        )
        packets = [packet, TimedPacket(1.0, reply)] * 5
        shedder = LoadShedder()
        shedder.level = 1
        kept, shed = shedder.shed_rows(
            as_batch(packets), list(range(len(packets))), engine=FakeEngine()
        )
        assert kept == [] and len(shed) == len(packets), (
            "a shed flow is shed wholly, both directions, not per-packet"
        )


class TestSheddingService:
    def overloaded_run(self):
        """Run the gauntlet with the shedder pinned at max level.

        ``backlog_high=0`` makes every signal update an overload, so the
        level ladder climbs to max within the first polls -- injected
        overload without needing a real producer to outrun us.
        """
        trace = generate_trace(TrafficProfile(flows=60), seed=11)
        trace = sorted(
            trace + first_wave() + second_wave(), key=lambda p: p.timestamp
        )
        source = ReplaySource(records_of(trace))
        runner_config = RunnerConfig(batch_size=16, trace=True, telemetry=True)
        table = TenantTable(make_spec(), [], config=runner_config)
        service = SplitDetectService(
            source,
            table,
            config=ServiceConfig(
                batch_size=16,
                poll_timeout=0.05,
                shed_policy=ShedPolicy(
                    levels=(0.0, 0.5, 0.75), backlog_high=0.0, backlog_low=0.0
                ),
            ),
        )
        report = service.run()
        return service, table, report, len(trace)

    def test_accounting_identity_closes_under_shedding(self):
        service, _table, report, offered = self.overloaded_run()
        assert report.shed_packets > 0, "injected overload must actually shed"
        assert report.input_records == offered
        assert (
            report.examined_packets
            + report.shed_packets
            + report.quarantined_packets
            + report.lost_packets
            == report.input_records
        )
        assert report.accounting_closed
        assert report.shed["level"] == 2
        assert report.shed["level_changes"] >= 2

    def test_shed_decisions_never_touch_diverted_flows(self):
        _service, table, report, _ = self.overloaded_run()
        processor = table.processor(DEFAULT_TENANT)
        diverted_ids = {
            trace_id_of(d.flow) for d in processor.engine.diversions
        }
        snapshot = processor.tracer.snapshot()
        shed_ids = {
            int(span["trace"], 16)
            for span in snapshot["spans"]
            if span["stage"] == "service" and span["event"] == "shed"
        }
        assert shed_ids, "shed decisions must land in the flight recorder"
        assert not (shed_ids & diverted_ids), (
            "a diverted flow was shed -- the never-shed invariant is broken"
        )
        # The shed counter also reaches merged telemetry.
        counters = report.runtime.telemetry["counters"]
        assert "repro_service_shed_packets_total" in counters


# ---------------------------------------------------------------------------
# Equivalence with the batch runners, and the drain contract
# ---------------------------------------------------------------------------


class TestServeEquivalence:
    def test_serve_matches_serial_runner_below_overload(self):
        trace = generate_trace(TrafficProfile(flows=30), seed=5)
        trace = sorted(
            trace + first_wave() + second_wave(), key=lambda p: p.timestamp
        )
        config = RunnerConfig(batch_size=32)
        batch = SerialRunner(make_spec(), shards=1, config=config).run(list(trace))

        source = ReplaySource(records_of(trace))
        _service, report = run_service(source, runner_config=config)
        assert report.shed_packets == 0
        assert report.accounting_closed
        assert report.examined_packets == len(trace)
        assert alert_sids(report.runtime.alerts) == alert_sids(batch.alerts)
        assert (
            report.runtime.stats.diversions == batch.stats.diversions
        )

    def test_serve_is_the_batch_pipeline(self, tmp_path):
        """serve == batch runner == per-packet reference, malformed frames included."""
        trace = generate_trace(TrafficProfile(flows=30), seed=5)
        trace = sorted(
            trace + first_wave() + second_wave(), key=lambda p: p.timestamp
        )
        path = tmp_path / "mixed.pcap"
        write_trace(path, trace)
        good = list(read_records(path))
        # Malformed frames spliced in mid-stream: truncated header, wrong
        # IP version, snaplen-clipped payload.
        bad = [(good[40][0], good[40][1][:9]), (good[90][0], b"\x65" + good[90][1][1:]),
               (good[140][0], good[140][1][:-3])]
        records = good[:40] + bad[:1] + good[40:90] + bad[1:2] + good[90:140] + bad[2:] + good[140:]
        hostile = tmp_path / "hostile.pcap"
        with PcapWriter(hostile) as writer:
            for timestamp, frame in records:
                writer.write_record(timestamp, frame)

        ips = make_spec().build()
        oracle = equivalence_digest(
            per_packet_oracle(ips, read_trace(path)), ips.stats
        )
        config = RunnerConfig(batch_size=32)
        batch = SerialRunner(make_spec(), shards=1, config=config).run_columnar(
            read_column_batches(hostile, batch_size=32)
        )
        _service, served = run_service(
            ReplaySource(read_records(hostile)), runner_config=config
        )
        assert served.runtime.digest() == batch.digest() == oracle
        assert served.quarantined_packets == batch.quarantined_packets == len(bad)
        assert served.runtime.quarantined == batch.quarantined
        assert served.examined_packets == len(good)
        assert served.accounting_closed
        # The daemon's memory policy: the engine's per-flow containers
        # hold live flows only -- a diversion names a flow the slow path
        # still tracks, a monitor record a direction that sent data and
        # has not closed -- and no module intern outlives a poll.
        engine = _service.table.processor(DEFAULT_TENANT).engine
        diverted = {canonical for _flow, canonical in engine._diverted.values()}
        assert diverted <= engine.slow_path.normalizer.live_flows()
        assert engine.diverted_flow_count == len(diverted)
        open_directions = set()
        for packet in trace:
            ip = packet.ip
            if ip.protocol != IP_PROTO_TCP or ip.is_fragment:
                continue
            key = tuple_of_flow(flow_key_of(ip))
            flags = decode_tcp(ip).flags
            if flags & (TCP_FIN | TCP_RST):
                open_directions.discard(key)
                if flags & TCP_RST:
                    open_directions.discard((key[1], key[0], key[3], key[2], key[4]))
            else:
                open_directions.add(key)
        monitored = {key for key, _state in engine.fast_path._flows.items()}
        assert monitored <= open_directions
        assert ip_u32_to_str.cache_info().currsize == 0

    def test_dst_port_tenants_route_on_columns_as_per_packet(self):
        tenants = [
            TenantSpec("acme", ("8080",), attack_ruleset()),
            TenantSpec("globex", ("9090", "0"), second_ruleset()),
        ]
        whole = build_tcp_packet(
            "10.9.9.9", "10.0.0.2",
            TcpSegment(src_port=40000, dst_port=8080, seq=1, payload=b"x" * 64),
            dont_fragment=False,
        )
        packets = [
            tcp_packet("10.9.9.9", "10.0.0.2", 8080),
            tcp_packet("10.9.9.9", "10.0.0.2", 9090),
            tcp_packet("10.9.9.9", "10.0.0.2", 80),
            tcp_packet("10.9.9.9", "10.0.0.2", 0),  # a real port 0: globex selects it
            # fewer than 4 transport bytes: no port to read, default tenant
            TimedPacket(1.0, IPv4Packet("10.9.9.9", "10.0.0.2", 6, b"\x1f\x90\x1f")),
            TimedPacket(1.0, IPv4Packet("10.9.9.9", "10.0.0.2", 1, b"\x08\x00\x00\x00")),
            *[TimedPacket(1.0, piece) for piece in fragment(whole, 44)],
        ]
        assert any(p.ip.fragment_offset > 0 for p in packets)
        table = TenantTable(make_spec(), tenants, keyer="dst-port")
        expected: dict[str, list[int]] = {}
        for row, packet in enumerate(packets):
            expected.setdefault(table.tenant_of(packet), []).append(row)
        assert table.tenant_rows(as_batch(packets)) == expected
        assert set(expected) == {"acme", "globex", DEFAULT_TENANT}
        # ...and through the service each tenant's engine sees its share.
        _service, report = run_service(
            ReplaySource(records_of(packets)), tenants=tenants, keyer="dst-port"
        )
        assert {
            name: entry["packets"] for name, entry in report.tenants["tenants"].items()
        } == {name: len(rows) for name, rows in expected.items()}

    def test_ip_tenants_route_on_columns_as_per_packet(self):
        tenants = [
            TenantSpec("narrow", ("10.1.2.0/24",), attack_ruleset()),
            TenantSpec("wide", ("10.1.0.0/16", "10.2.0.7"), attack_ruleset()),
        ]
        packets = [
            tcp_packet("10.9.9.9", dst)
            for dst in ("10.1.2.3", "10.1.44.5", "10.2.0.7", "10.2.0.8", "192.168.0.1")
        ]
        for keyer in ("dst-ip", "src-ip"):
            table = TenantTable(make_spec(), tenants, keyer=keyer)
            expected: dict[str, list[int]] = {}
            for row, packet in enumerate(packets):
                expected.setdefault(table.tenant_of(packet), []).append(row)
            assert table.tenant_rows(as_batch(packets)) == expected

    @staticmethod
    def shed_batch_packets() -> list[TimedPacket]:
        """119 one-packet flows, a fragmented datagram of the first, and
        an ICMP packet."""
        packets = [tcp_packet(f"10.50.0.{host}", "10.0.0.2") for host in range(1, 120)]
        whole = build_tcp_packet(
            "10.50.0.1", "10.0.0.2",
            TcpSegment(src_port=40000, dst_port=80, seq=1, payload=b"x" * 64),
            dont_fragment=False,
        )
        packets += [TimedPacket(1.0, piece) for piece in fragment(whole, 44)]
        packets.append(
            TimedPacket(1.0, IPv4Packet("10.50.0.9", "10.0.0.2", 1, b"\x08\x00\x00\x00"))
        )
        return packets

    def test_shed_rows_never_sheds_a_protected_flow(self):
        """Every row of a flow in the shed space is shed, protections
        and non-first fragments excepted."""
        packets = self.shed_batch_packets()
        batch = as_batch(packets)
        flows = [
            None if p.ip.fragment_offset else flow_key_of(p.ip) for p in packets
        ]
        sheddable = [
            flow for flow in flows
            if flow is not None and shed_slot(flow) < 0.5 * _SHED_SCALE
        ]
        diverted = {flow.canonical() for flow in sheddable[0::3]}
        forced = {flow.canonical() for flow in sheddable[1::3]}
        assert diverted and forced and len(sheddable) > len(diverted) + len(forced)

        shedder = LoadShedder(ShedPolicy(levels=(0.0, 0.25, 0.5)))
        shedder.level = 2
        kept, shed = shedder.shed_rows(
            batch,
            list(range(len(batch))),
            engine=FakeEngine(diverted),
            tracer=FakeTracer(forced),
        )
        expected_shed = [
            (row, flow)
            for row, flow in enumerate(flows)
            if flow is not None
            and shed_slot(flow) < 0.5 * _SHED_SCALE
            and flow.canonical() not in diverted | forced
        ]
        assert shed == expected_shed and shed
        assert kept == [row for row in range(len(batch)) if row not in dict(shed)]
        assert shedder.shed_packets == len(shed)
        assert shedder.protected_packets == sum(
            1
            for flow in flows
            if flow is not None and flow.canonical() in diverted | forced
        ) > 0

    def test_shed_rows_golden_split(self):
        """Hard-coded shed rows at half the flow space: no change to how
        a slot is hashed can move a flow in or out of it unnoticed."""
        batch = as_batch(self.shed_batch_packets())
        shedder = LoadShedder(ShedPolicy(levels=(0.0, 0.25, 0.5)))
        shedder.level = 2
        kept, shed = shedder.shed_rows(
            batch, list(range(len(batch))), engine=FakeEngine()
        )
        assert [row for row, _ in shed] == [
            0, 2, 3, 8, 9, 14, 15, 17, 19, 22, 24, 26, 27, 33, 35, 38, 40, 45,
            46, 48, 49, 51, 53, 57, 59, 62, 63, 65, 70, 73, 76, 80, 81, 82, 83,
            85, 86, 88, 90, 91, 92, 93, 97, 98, 100, 102, 104, 105, 107, 109,
            112, 115, 119, 123,
        ]
        assert len(kept) == 70

    def test_max_packets_stop(self):
        records = records_of(first_wave() + second_wave())
        source = ReplaySource(records)
        _service, report = run_service(
            source,
            service_config=ServiceConfig(
                batch_size=8, poll_timeout=0.05, max_packets=16
            ),
        )
        assert report.stop_reason == "max_packets"
        assert not report.runtime.interrupted
        assert report.accounting_closed


class TestDrain:
    def test_stop_request_drains_into_partial_report(self):
        stream = first_wave() + second_wave()
        holder: dict = {}
        source = HookedSource(
            records_of(stream),
            at_poll=2,
            hook=lambda: holder["service"].request_stop("sigterm"),
        )
        table = TenantTable(make_spec(), [], config=RunnerConfig(batch_size=8))
        service = SplitDetectService(
            source, table, config=ServiceConfig(batch_size=8, poll_timeout=0.05)
        )
        holder["service"] = service
        report = service.run()
        assert report.stop_reason == "sigterm"
        assert service.stopping
        assert report.runtime.interrupted, "a signal stop is a partial report"
        assert report.accounting_closed
        # Polls 1 and 2 both complete (the stop lands during poll 2 and
        # is honoured at the next loop top): exactly 16 records examined.
        assert report.examined_packets == 16
        assert report.examined_packets < len(stream)

    def test_stop_is_idempotent_and_keeps_first_reason(self):
        table = TenantTable(make_spec(), [])
        service = SplitDetectService(ReplaySource(iter([])), table)
        assert service.request_stop("sigterm")["reason"] == "sigterm"
        assert service.request_stop("sigint")["reason"] == "sigterm"


# ---------------------------------------------------------------------------
# Telemetry endpoints: /healthz with service state, POST /reload auth
# ---------------------------------------------------------------------------


def http_get(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, json.loads(response.read().decode())


def http_post(url: str, token: str | None = None):
    request = urllib.request.Request(url, data=b"{}", method="POST")
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


class TestServiceEndpoints:
    def test_healthz_reports_uptime_source_and_shed(self):
        publisher = TelemetryPublisher()
        publisher.health = {"status": "running", "mode": "serve"}
        publisher.source_state = lambda: {"kind": "replay", "records": 7}
        publisher.shed_state = lambda: {"level": 1, "shed_packets": 3}
        publisher.tenants_state = lambda: {"keyer": "dst-ip", "tenants": {}}
        with TelemetryServer(publisher, port=0) as server:
            status, body = http_get(f"{server.url}/healthz")
            assert status == 200
            assert body["status"] == "running"
            assert body["uptime_seconds"] >= 0
            assert body["source"]["records"] == 7
            assert body["shed"]["level"] == 1
            status, body = http_get(f"{server.url}/shed")
            assert status == 200 and body["shed_packets"] == 3
            status, body = http_get(f"{server.url}/tenants")
            assert status == 200 and body["keyer"] == "dst-ip"

    def test_shed_and_tenants_404_when_not_serving(self):
        with TelemetryServer(TelemetryPublisher(), port=0) as server:
            for path in ("/shed", "/tenants"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"{server.url}{path}", timeout=5.0)
                assert excinfo.value.code == 404

    def test_reload_endpoint_auth_ladder(self):
        publisher = TelemetryPublisher()
        calls: list[int] = []
        with TelemetryServer(publisher, port=0) as server:
            # No token configured: refused outright.
            status, _ = http_post(f"{server.url}/reload", token="whatever")
            assert status == 503
            publisher.reload_token = "s3cret"
            publisher.on_reload = lambda: calls.append(1) or {"reloads_applied": 0}
            status, _ = http_post(f"{server.url}/reload")
            assert status == 401
            status, _ = http_post(f"{server.url}/reload", token="wrong")
            assert status == 401
            assert calls == []
            status, body = http_post(f"{server.url}/reload", token="s3cret")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            assert calls == [1]

    def test_reload_hook_errors_become_500(self):
        publisher = TelemetryPublisher()
        publisher.reload_token = "t"

        def boom():
            raise RuntimeError("no loader configured")

        publisher.on_reload = boom
        with TelemetryServer(publisher, port=0) as server:
            status, body = http_post(f"{server.url}/reload", token="t")
            assert status == 500
            assert "no loader" in body


class TestTelemetrySession:
    def test_disabled_session_is_all_noops(self):
        with TelemetrySession(None) as session:
            assert not session.enabled
            assert session.url is None
            session.update_health(status="running")
            session.publish_trace({})

    def test_enabled_session_serves_and_marks_finished(self):
        announced: list[str] = []
        with TelemetrySession(0, announce=announced.append) as session:
            assert session.enabled
            session.update_health(status="running", mode="serve")
            status, body = http_get(f"{session.url}/healthz")
            assert status == 200 and body["mode"] == "serve"
        assert announced and "http://" in announced[0]
        assert session.publisher.health["status"] == "ok"
        assert session.publisher.health["finished"] is True
