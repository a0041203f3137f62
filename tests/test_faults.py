"""Fault tolerance: injection plans, quarantine, supervision, cleanup.

The contract under test is the runtime's "never silently" guarantee:
whatever a worker failure or a malformed frame costs, the merged report
accounts for it exactly -- ``examined + shed + quarantined + lost``
equals the input -- and a clean supervised run stays byte-identical to
the serial reference.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp

import pytest

from repro.evasion import build_attack
from repro.packet import IPv4Packet, TimedPacket
from repro.packet.errors import MalformedPacketError
from repro.pcap import read_column_batches, read_records, read_trace, write_trace
from repro.runtime import (
    DECODE_ERRORS,
    Backpressure,
    ControlMessage,
    EngineSpec,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ParallelRunner,
    Quarantine,
    RunnerConfig,
    SerialRunner,
    WorkerFailure,
)
from repro.runtime.batching import iter_feed
from repro.signatures import RuleSet, Signature, SplitPolicy
from repro.traffic import TrafficProfile, generate_trace, inject_attacks

from helpers import (
    ATTACK_SIGNATURE,
    SIGNATURE_OFFSET,
    ExplodingSpec,
    SlowBuildSpec,
    attack_payload,
    attack_ruleset,
)


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


def supervised_config(**overrides) -> RunnerConfig:
    """Fast failure detection so supervision tests finish in CI time."""
    defaults = dict(
        batch_size=32,
        max_restarts=2,
        restart_backoff=0.01,
        heartbeat_interval=0.05,
        heartbeat_timeout=1.0,
        drain_timeout=60.0,
    )
    defaults.update(overrides)
    return RunnerConfig(**defaults)


def assert_accounting(report, n_input: int) -> None:
    """The never-silently identity: every input packet is disposed of."""
    total = (
        report.packets
        + report.shed_packets
        + report.quarantined_packets
        + report.degraded_packets
    )
    assert total == n_input, (
        f"accounting hole: examined={report.packets} shed={report.shed_packets} "
        f"quarantined={report.quarantined_packets} lost={report.degraded_packets} "
        f"!= input={n_input}"
    )


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


def test_fault_plan_parse_grammar():
    plan = FaultPlan.parse(["crash:shard=1,at=500", "stall:at=10,seconds=0.25"])
    assert plan.specs == (
        FaultSpec(FaultKind.CRASH, shard=1, at=500),
        FaultSpec(FaultKind.STALL, shard=0, at=10, seconds=0.25),
    )
    assert "crash:shard=1,at=500" in plan.describe()


@pytest.mark.parametrize(
    "text",
    [
        "segfault:shard=0",  # unknown kind
        "crash:when=5",  # unknown field
        "crash:shard=x",  # bad int
        "stall:shard=0,at=5",  # timed kind without seconds
        "crash:shard=-1",  # negative shard
    ],
)
def test_fault_plan_parse_rejects(text):
    with pytest.raises(ValueError):
        FaultPlan.parse([text])


def test_fault_plan_random_is_deterministic():
    one = FaultPlan.random(42, shards=4)
    two = FaultPlan.random(42, shards=4)
    assert one == two
    assert one.seed == 42
    assert 1 <= len(one.specs) <= 3
    assert all(0 <= spec.shard < 4 for spec in one.specs)
    assert FaultPlan.random(43, shards=4) != one


def test_for_shard_orders_by_packet_index():
    plan = FaultPlan.parse(
        ["stall:shard=1,at=50,seconds=0.1", "decode:shard=1,at=5", "crash:shard=0,at=1"]
    )
    assert [spec.at for spec in plan.for_shard(1)] == [5, 50]
    assert [spec.kind for spec in plan.for_shard(0)] == [FaultKind.CRASH]


def test_injector_in_process_ignores_process_faults():
    """crash/hang must never take down the SerialRunner's own process."""
    plan = FaultPlan.parse(["crash:shard=0,at=0", "hang:shard=0,at=0"])
    injector = FaultInjector(plan, 0, allow_process_faults=False)
    injector.before_batch(0, [None] * 4)  # returns instead of exiting
    assert injector.pending == 0


def test_injector_decode_fault_raises_packet_error():
    plan = FaultPlan.parse(["decode:shard=0,at=2"])
    injector = FaultInjector(plan, 0, allow_process_faults=False)
    with pytest.raises(MalformedPacketError):
        injector.before_batch(0, [None] * 4)  # at=2 falls inside [0, 4)
    assert injector.pending == 0  # one-shot: consumed even though it raised
    late = FaultInjector(plan, 0, allow_process_faults=False)
    with pytest.raises(MalformedPacketError):
        # Catch-up semantics: a trigger index the batching skipped past
        # still fires on the next batch rather than being lost.
        late.before_batch(4, [None] * 4)


def test_injector_skew_accumulates():
    plan = FaultPlan.parse(
        ["skew:shard=0,at=0,seconds=100", "skew:shard=0,at=5,seconds=-40"]
    )
    injector = FaultInjector(plan, 0, allow_process_faults=False)
    injector.before_batch(0, [None] * 10)
    assert injector.clock_skew == pytest.approx(60.0)


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------


def test_decode_packets_quarantines_garbage():
    quarantine = Quarantine()
    good = gauntlet_trace(flows=2)[:5]
    items = [good[0], b"\x00\x01", (1.5, b"junk"), good[1], bytes(range(20))]
    (batch,) = iter_feed(items, len(items), quarantine)
    out = [batch.materialize(row) for row in range(len(batch))]
    assert out == [good[0], good[1]]
    assert quarantine.total == len(items) - len(out)
    assert all(count > 0 for count in quarantine.counts.values())


def test_serial_runner_survives_garbage_and_counts_it():
    trace = gauntlet_trace(flows=5)
    garbage = [b"", b"\xff" * 3, (0.5, b"\x45\x00")]
    clean = SerialRunner(make_spec(), shards=2).run(trace)
    mixed = SerialRunner(make_spec(), shards=2).run(list(trace) + garbage)
    assert mixed.quarantined_packets == len(garbage)
    assert mixed.is_degraded
    # Quarantined junk never changes what the valid traffic produced.
    assert mixed.digest() == clean.digest()
    assert_accounting(mixed, len(trace) + len(garbage))


def test_engine_counts_transport_decode_errors():
    """A truncated TCP header is counted, not raised, at the engine level."""
    spec = make_spec()
    runner = SerialRunner(spec, shards=1)
    bad_transport = TimedPacket(
        0.0, IPv4Packet(src="10.0.0.1", dst="10.0.0.2", protocol=6, payload=b"\x01")
    )
    report = runner.run([bad_transport])
    assert report.stats.packets_total == 1
    assert report.stats.decode_errors == 1


def test_injected_decode_fault_quarantines_batch():
    trace = gauntlet_trace(flows=5)
    config = RunnerConfig(
        batch_size=16, faults=FaultPlan.parse(["decode:shard=0,at=0"])
    )
    report = SerialRunner(make_spec(), shards=2, config=config).run(trace)
    # The whole first routed bucket for shard 0 (at most one batch_size,
    # less after the per-shard split) is quarantined conservatively.
    quarantined = report.quarantined.get("MalformedPacketError")
    assert quarantined is not None and 1 <= quarantined <= 16
    assert_accounting(report, len(trace))


@pytest.fixture(params=["records", "column_batches"])
def sources_of(request, tmp_path):
    """One savefile read back two ways: as packet objects (the source the
    tests around these already use) and as undecoded records or a
    savefile-reader batch stream."""

    def build(trace: list[TimedPacket], batch_size: int):
        path = tmp_path / "trace.pcap"
        write_trace(path, trace)
        if request.param == "records":
            return list(read_trace(path)), read_records(path)
        return list(read_trace(path)), read_column_batches(path, batch_size=batch_size)

    return build


def test_decode_fault_on_every_source(sources_of):
    objects, source = sources_of(gauntlet_trace(flows=5), 16)
    config = RunnerConfig(
        batch_size=16, faults=FaultPlan.parse(["decode:shard=0,at=0"])
    )
    reference = SerialRunner(make_spec(), shards=2, config=config).run(objects)
    report = SerialRunner(make_spec(), shards=2, config=config).run(source)
    assert report.quarantined == reference.quarantined
    assert 1 <= report.quarantined["MalformedPacketError"] <= 16
    assert report.digest() == reference.digest()
    assert_accounting(report, len(objects))


def test_clock_skew_on_every_source(sources_of):
    """Skew lands on the housekeeping clock only: the sweep it provokes
    is the same whatever fed the run, and nothing goes unaccounted."""
    objects, source = sources_of(gauntlet_trace(flows=5), 16)
    config = RunnerConfig(
        batch_size=16,
        evict_interval=5.0,
        faults=FaultPlan.parse(["skew:shard=0,at=40,seconds=3600"]),
    )
    reference = SerialRunner(make_spec(), shards=2, config=config).run(objects)
    report = SerialRunner(make_spec(), shards=2, config=config).run(source)
    assert report.evictions == reference.evictions > 0
    assert report.digest() == reference.digest()
    assert_accounting(report, len(objects))


def test_crash_restart_on_every_source(sources_of):
    config = supervised_config(faults=FaultPlan.parse(["crash:shard=0,at=120"]))
    objects, source = sources_of(gauntlet_trace(), config.batch_size)

    def intervals(report):
        return [(iv.shard, iv.generation, iv.reason) for iv in report.degraded]

    reference = ParallelRunner(make_spec(), workers=2, config=config).run(objects)
    report = ParallelRunner(make_spec(), workers=2, config=config).run(source)
    assert report.worker_restarts >= 1
    assert intervals(report) == intervals(reference)
    assert {reason for _, _, reason in intervals(report)} == {"crash"}
    assert report.degraded_packets > 0
    assert_accounting(report, len(objects))
    assert mp.active_children() == []


# ---------------------------------------------------------------------------
# Supervision
# ---------------------------------------------------------------------------


def test_supervised_clean_run_matches_serial():
    trace = gauntlet_trace()
    config = supervised_config()
    serial = SerialRunner(make_spec(), shards=2, config=config).run(trace)
    parallel = ParallelRunner(make_spec(), workers=2, config=config).run(trace)
    assert parallel.digest() == serial.digest()
    assert parallel.alerts == serial.alerts
    assert parallel.degraded == []
    assert parallel.worker_restarts == 0
    assert mp.active_children() == []


def test_supervised_crash_restart_and_loss_accounting():
    trace = gauntlet_trace()
    config = supervised_config(faults=FaultPlan.parse(["crash:shard=0,at=120"]))
    report = ParallelRunner(make_spec(), workers=2, config=config).run(trace)
    assert report.worker_restarts >= 1
    assert report.degraded
    assert any(iv.reason == "crash" for iv in report.degraded)
    assert report.degraded_packets > 0
    assert_accounting(report, len(trace))
    # Salvaged + surviving alerts are a subset of the serial reference.
    serial = SerialRunner(make_spec(), shards=2, config=supervised_config()).run(trace)
    reference = {(a.timestamp, str(a.flow), a.sid, a.msg) for a in serial.alerts}
    produced = {(a.timestamp, str(a.flow), a.sid, a.msg) for a in report.alerts}
    assert produced <= reference
    # The untouched shard's alerts survive byte-identical.
    ref_by_shard = {s.shard: s.alerts for s in serial.shards}
    for shard_report in report.shards:
        if shard_report.shard != 0:
            assert shard_report.alerts == ref_by_shard[shard_report.shard]
    assert mp.active_children() == []


def test_supervised_hang_detection_restarts_worker():
    trace = gauntlet_trace()
    config = supervised_config(
        heartbeat_timeout=0.4,
        max_restarts=1,
        faults=FaultPlan.parse(["hang:shard=1,at=60"]),
    )
    report = ParallelRunner(make_spec(), workers=2, config=config).run(trace)
    assert any(iv.reason == "hang" for iv in report.degraded)
    assert report.worker_restarts >= 1
    assert_accounting(report, len(trace))
    assert mp.active_children() == []


def test_supervised_budget_exhaustion_completes_degraded():
    """A shard that keeps dying is buried, not retried forever -- and the
    run still completes with its loss on the books."""
    trace = gauntlet_trace()
    config = supervised_config(
        max_restarts=1, faults=FaultPlan.parse(["crash:shard=0,at=0"])
    )
    report = ParallelRunner(make_spec(), workers=2, config=config).run(trace)
    # Generation 0 and its single replacement both crash at packet 0.
    assert report.worker_restarts == 1
    assert len([iv for iv in report.degraded if iv.shard == 0]) == 2
    assert report.degraded[-1].open  # the shard stayed dead
    assert_accounting(report, len(trace))
    assert mp.active_children() == []


def test_restarted_worker_rejoins_at_current_rule_generation():
    """A replacement is born with the fleet's latest reload applied: a
    full queue and a slow engine build must not leave it on the seed's
    rules for the rest of the run."""
    seed_rules = RuleSet()
    seed_rules.add(Signature(sid=5002, pattern=b"OTHER-SIGNATURE-NOT-PRESENT-xx", msg="decoy"))
    spec = SlowBuildSpec(rules=seed_rules, split_policy=SplitPolicy(piece_length=8))
    benign = generate_trace(TrafficProfile(flows=30), seed=7)[:48]
    assert len(benign) == 48
    reload = ControlMessage(op="reload", payload={"rules": attack_ruleset()}, seq=1)
    attack = build_attack(
        "plain",
        attack_payload(),
        signature_span=(SIGNATURE_OFFSET, len(ATTACK_SIGNATURE)),
        src="10.66.0.9",
        dst_port=80,
        seed=9,
    )
    assert len(attack) < 44  # the replacement never re-reaches the crash index
    config = supervised_config(
        batch_size=8,
        queue_depth=1,
        backpressure=Backpressure.BLOCK,
        max_restarts=1,
        # The slowdown keeps the feeder ahead of the worker, so the
        # queue is full when the crash (after the reload) is noticed.
        faults=FaultPlan.parse(
            ["slowdown:shard=0,at=0,seconds=0.03", "crash:shard=0,at=44"]
        ),
    )
    report = ParallelRunner(spec, workers=1, config=config).run(
        benign[:40] + [reload] + benign[40:] + attack
    )
    assert report.worker_restarts == 1
    assert [iv.reason for iv in report.degraded] == ["crash"]
    alerting = [s.generation for s in report.shards if any(a.sid == 5001 for a in s.alerts)]
    assert alerting and min(alerting) >= 1
    assert_accounting(report, 48 + len(attack))
    assert mp.active_children() == []


def test_engine_build_time_is_not_a_hang():
    """The hang clock starts at a generation's first message, not at
    spawn: a build longer than ``heartbeat_timeout`` is not silence."""
    trace = gauntlet_trace(flows=5)
    spec = SlowBuildSpec(rules=attack_ruleset(), split_policy=SplitPolicy(piece_length=8))
    config = supervised_config(heartbeat_timeout=0.4)
    serial = SerialRunner(make_spec(), shards=2, config=config).run(trace)
    parallel = ParallelRunner(spec, workers=2, config=config).run(trace)
    assert parallel.degraded == []
    assert parallel.worker_restarts == 0
    assert parallel.digest() == serial.digest()
    assert mp.active_children() == []


def test_stall_shorter_than_timeout_is_not_a_failure():
    """Every run is watched now, budget or not: a pause under the
    heartbeat timeout must not fail a ``max_restarts=0`` run."""
    trace = gauntlet_trace(flows=5)
    config = RunnerConfig(
        batch_size=32,
        heartbeat_interval=0.05,
        heartbeat_timeout=1.0,
        faults=FaultPlan.parse(["stall:shard=0,at=10,seconds=0.3"]),
    )
    serial = SerialRunner(make_spec(), shards=2, config=config).run(trace)
    parallel = ParallelRunner(make_spec(), workers=2, config=config).run(trace)
    assert parallel.digest() == serial.digest()
    assert parallel.degraded == []


def test_zero_restart_budget_fails_fast():
    """max_restarts=0: the first worker failure is the run's failure."""
    trace = gauntlet_trace(flows=3)
    config = RunnerConfig(batch_size=32, faults=FaultPlan.parse(["crash:shard=0,at=0"]))
    assert config.max_restarts == 0
    with pytest.raises(WorkerFailure, match="shard 0 crash: exit code 73"):
        ParallelRunner(make_spec(), workers=2, config=config).run(trace)
    assert mp.active_children() == []


def test_fail_fast_is_prompt_and_carries_the_traceback():
    """Default config: an engine error surfaces when it happens, with the
    worker's traceback, not after the whole source has been fed."""
    consumed = 0

    def source():
        nonlocal consumed
        for packet in itertools.islice(itertools.cycle(gauntlet_trace(flows=5)), 20_000):
            consumed += 1
            yield packet

    spec = ExplodingSpec(rules=attack_ruleset(), split_policy=SplitPolicy(piece_length=8))
    with pytest.raises(WorkerFailure) as excinfo:
        ParallelRunner(spec, workers=2).run(source())
    message = str(excinfo.value)
    assert "Traceback" in message and "RuntimeError: engine exploded" in message
    assert consumed < 20_000
    assert mp.active_children() == []


def test_no_zombies_after_worker_failure():
    """The finally-block audit: an induced failure leaves no child
    processes (and no stuck queue feeder threads keeping them alive)."""
    spec = EngineSpec(rules=None)  # construction fails in every worker
    with pytest.raises(WorkerFailure):
        ParallelRunner(spec, workers=3).run(gauntlet_trace(flows=2))
    assert mp.active_children() == []


def test_config_validation():
    with pytest.raises(ValueError):
        RunnerConfig(max_restarts=-1)
    with pytest.raises(ValueError):
        RunnerConfig(restart_backoff=0.0)
    with pytest.raises(ValueError):
        RunnerConfig(heartbeat_timeout=0.1, heartbeat_interval=0.2)


# ---------------------------------------------------------------------------
# Property-based: garbage never escapes the decode boundary
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _parses_cleanly(data: bytes) -> bool:
    try:
        IPv4Packet.parse(data)
    except DECODE_ERRORS:
        return False
    return True


@given(
    frames=st.lists(
        st.one_of(
            st.binary(min_size=0, max_size=60),
            # Start from a plausible IPv4 first byte so some inputs get
            # deep into the parser before failing (or even succeed).
            st.builds(
                lambda body: b"\x45" + body, st.binary(min_size=0, max_size=59)
            ),
        ),
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_garbage_frames_never_escape_the_pipeline(frames):
    """Any byte string either parses and is examined, or is quarantined;
    nothing raises out of ``run`` and the ledger matches the oracle."""
    bad = sum(0 if _parses_cleanly(frame) else 1 for frame in frames)
    report = SerialRunner(make_spec(), shards=2).run(frames)
    assert report.quarantined_packets == bad
    assert report.packets == len(frames) - bad
    assert_accounting(report, len(frames))


@given(data=st.binary(min_size=0, max_size=80))
@settings(max_examples=120, deadline=None)
def test_single_frame_decode_is_total(data):
    """The intake is total over bytes: a row or a quarantine, never a raise."""
    quarantine = Quarantine()
    rows = sum(len(batch) for batch in iter_feed([data], 1, quarantine))
    assert rows + quarantine.total == 1
    if quarantine.total:
        ((cause, count),) = quarantine.counts.items()
        assert count == 1
        assert quarantine.examples[cause]  # an exemplar was retained
