"""Unit tests for the count-min sketch and the sketch-backed flow state."""

import pickle

import pytest

from helpers import ATTACK_SIGNATURE, attack_ruleset, fast_process
from repro.core import (
    FAST_FLOW_STATE_BYTES,
    CountMinSketch,
    DivertReason,
    FastPath,
    FastPathConfig,
    FlowState,
    SketchBackend,
)
from repro.core.fastpath import _flow_key_bytes
from repro.hashing import fnv1a_64, mix64
from repro.packet import FlowKey, tuple_of_flow
from repro.signatures import SplitPolicy, split_ruleset


def flow_n(n: int) -> FlowKey:
    return FlowKey(f"10.{(n >> 8) & 255}.{n & 255}.1", "10.200.0.1", 1024 + (n % 40000), 80)


def key_bytes(flow: FlowKey) -> bytes:
    """The fast path's key bytes for a FlowKey-keyed test backend."""
    return _flow_key_bytes(tuple_of_flow(flow))


def make_backend(**kw) -> SketchBackend:
    kw.setdefault("slots", 1 << 10)
    kw.setdefault("hot_capacity", 8)
    kw.setdefault("width", 1 << 8)
    kw.setdefault("depth", 4)
    return SketchBackend(key_bytes=key_bytes, **kw)


class TestHashing:
    def test_fnv1a_known_vectors(self):
        # Published FNV-1a 64-bit test vectors.
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_mix64_rows_decorrelate(self):
        base = fnv1a_64(b"some flow key")
        derived = {mix64(base, row) for row in range(8)}
        assert len(derived) == 8

    def test_mix64_deterministic(self):
        assert mix64(12345, 3) == mix64(12345, 3)


class TestCountMinSketch:
    def test_estimate_never_underestimates(self):
        cms = CountMinSketch(width=64, depth=4)
        truth = {}
        for n in range(200):
            h = fnv1a_64(str(n).encode())
            count = (n % 3) + 1
            cms.add(h, count)
            truth[h] = count
        for h, count in truth.items():
            assert cms.estimate(h) >= count

    def test_unseen_key_estimates_zero_when_sparse(self):
        cms = CountMinSketch(width=1 << 12, depth=4)
        cms.add(fnv1a_64(b"only key"))
        assert cms.estimate(fnv1a_64(b"never added")) == 0

    def test_merge_is_cellwise_and_sound(self):
        a = CountMinSketch(width=64, depth=4)
        b = CountMinSketch(width=64, depth=4)
        ha, hb = fnv1a_64(b"flow-a"), fnv1a_64(b"flow-b")
        a.add(ha, 3)
        b.add(hb, 5)
        b.add(ha, 2)
        a.merge(b)
        assert a.estimate(ha) >= 5
        assert a.estimate(hb) >= 5
        assert a.total() == 10

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=64, depth=4).merge(CountMinSketch(width=128, depth=4))

    def test_width_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=100)

    def test_copy_is_independent(self):
        cms = CountMinSketch(width=64, depth=2)
        h = fnv1a_64(b"k")
        cms.add(h)
        clone = cms.copy()
        clone.add(h, 10)
        assert cms.estimate(h) == 1
        assert clone.estimate(h) == 11

    def test_pickle_roundtrip(self):
        cms = CountMinSketch(width=64, depth=3)
        cms.add(fnv1a_64(b"x"), 7)
        assert pickle.loads(pickle.dumps(cms)) == cms

    def test_counters_saturate(self):
        cms = CountMinSketch(width=64, depth=1)
        h = fnv1a_64(b"hot")
        cms.add(h, 0xFFFFFFFF)
        cms.add(h, 5)
        assert cms.estimate(h) == 0xFFFFFFFF


class TestSketchBackendColdPath:
    def test_cold_roundtrip_preserves_expected_seq(self):
        backend = make_backend()
        backend.put(flow_n(1), FlowState(expected_seq=123456))
        state = backend.get(flow_n(1))
        assert state is not None and state.expected_seq == 123456
        assert len(backend) == 1
        assert backend.hot_entries == 0

    def test_expected_seq_32bit_boundaries(self):
        backend = make_backend()
        backend.put(flow_n(2), FlowState(expected_seq=2**32 - 1))
        assert backend.get(flow_n(2)).expected_seq == 2**32 - 1
        backend.put(flow_n(3), FlowState(expected_seq=0))
        assert backend.get(flow_n(3)).expected_seq == 0

    def test_none_expected_seq_roundtrips(self):
        backend = make_backend()
        backend.put(flow_n(4), FlowState(expected_seq=None))
        state = backend.get(flow_n(4))
        assert state is not None and state.expected_seq is None

    def test_miss_returns_none(self):
        backend = make_backend()
        assert backend.get(flow_n(5)) is None
        assert backend.peek(flow_n(5)) is None

    def test_pop_clears_the_slot(self):
        backend = make_backend()
        backend.put(flow_n(6), FlowState(expected_seq=9))
        assert backend.pop(flow_n(6)).expected_seq == 9
        assert backend.get(flow_n(6)) is None
        assert len(backend) == 0
        sentinel = FlowState(expected_seq=42)
        assert backend.pop(flow_n(6), sentinel) is sentinel

    def test_slot_collision_recycles_never_chains(self):
        # One slot: every flow collides.  The newcomer wins the slot and
        # the victim's record is gone (midstream pickup on return), but
        # the victim's key never resolves to the newcomer's state.
        backend = make_backend(slots=1)
        backend.put(flow_n(7), FlowState(expected_seq=700))
        backend.put(flow_n(8), FlowState(expected_seq=800))
        assert backend.slot_recycles == 1
        assert backend.table_evictions == 1
        assert backend.get(flow_n(7)) is None
        assert backend.get(flow_n(8)).expected_seq == 800
        assert len(backend) == 1

    def test_provisioned_bytes_constant_under_load(self):
        backend = make_backend()
        fixed = backend.provisioned_bytes()
        for n in range(2000):
            backend.put(flow_n(n), FlowState(expected_seq=n))
        assert backend.provisioned_bytes() == fixed
        assert fixed == (
            (1 << 10) * 8
            + backend.sketch_snapshot().state_bytes()
            + 8 * FAST_FLOW_STATE_BYTES
        )


class TestSketchBackendHotSet:
    def test_anomaly_promotes_on_next_write(self):
        backend = make_backend()
        flow = flow_n(10)
        backend.record_anomaly(flow)
        backend.put(flow, FlowState(expected_seq=5000, last_seen=1.0))
        assert backend.hot_entries == 1
        assert backend.promotions == 1
        assert dict(backend.items()) == {flow: FlowState(expected_seq=5000, last_seen=1.0)}

    def test_clean_flow_stays_cold(self):
        backend = make_backend()
        backend.put(flow_n(11), FlowState(expected_seq=1))
        assert backend.hot_entries == 0
        assert backend.promotions == 0

    def test_promote_threshold_respected(self):
        backend = make_backend(promote_threshold=3)
        flow = flow_n(12)
        for _ in range(2):
            backend.record_anomaly(flow)
        backend.put(flow, FlowState())
        assert backend.hot_entries == 0
        backend.record_anomaly(flow)
        backend.put(flow, FlowState())
        assert backend.hot_entries == 1

    def test_hot_overflow_demotes_lru_to_cold(self):
        backend = make_backend(hot_capacity=2)
        flows = [flow_n(20 + n) for n in range(3)]
        for n, flow in enumerate(flows):
            backend.record_anomaly(flow)
            backend.put(flow, FlowState(expected_seq=n + 1, last_seen=float(n)))
        assert backend.hot_entries == 2
        assert backend.demotions == 1
        # The demoted (oldest) flow kept its state in a cold slot.
        assert backend.get(flows[0]).expected_seq == 1

    def test_get_refreshes_lru_order(self):
        backend = make_backend(hot_capacity=2)
        first, second, third = flow_n(30), flow_n(31), flow_n(32)
        for n, flow in enumerate((first, second)):
            backend.record_anomaly(flow)
            backend.put(flow, FlowState(expected_seq=n + 1))
        backend.get(first)  # touch: second becomes the LRU victim
        backend.record_anomaly(third)
        backend.put(third, FlowState(expected_seq=3))
        assert first in dict(backend.items())
        assert second not in dict(backend.items())

    def test_peek_does_not_refresh_lru(self):
        backend = make_backend(hot_capacity=2)
        first, second, third = flow_n(33), flow_n(34), flow_n(35)
        for n, flow in enumerate((first, second)):
            backend.record_anomaly(flow)
            backend.put(flow, FlowState(expected_seq=n + 1))
        backend.peek(first)  # passive: first stays the LRU victim
        backend.record_anomaly(third)
        backend.put(third, FlowState(expected_seq=3))
        assert first not in dict(backend.items())
        assert second in dict(backend.items())

    def test_evict_idle_demotes_but_state_survives(self):
        backend = make_backend()
        flow = flow_n(40)
        backend.record_anomaly(flow)
        backend.put(flow, FlowState(expected_seq=777, last_seen=10.0))
        assert backend.hot_entries == 1
        assert backend.evict_idle(now=1000.0, idle_timeout=300.0) == 1
        assert backend.hot_entries == 0
        assert backend.demotions == 1
        # Demoted, not dropped: the expected sequence number survives.
        assert backend.get(flow).expected_seq == 777

    def test_evict_idle_keeps_fresh_entries(self):
        backend = make_backend()
        flow = flow_n(41)
        backend.record_anomaly(flow)
        backend.put(flow, FlowState(expected_seq=1, last_seen=990.0))
        assert backend.evict_idle(now=1000.0, idle_timeout=300.0) == 0
        assert backend.hot_entries == 1

    def test_clear_flushes_entries_but_keeps_anomaly_history(self):
        backend = make_backend()
        flow = flow_n(42)
        backend.record_anomaly(flow)
        backend.put(flow, FlowState(expected_seq=1))
        backend.clear()
        assert len(backend) == 0
        # The sketch is history, not a monitor entry: the flow still
        # promotes on its next write.
        backend.put(flow, FlowState(expected_seq=2))
        assert backend.hot_entries == 1

    def test_sketch_snapshot_is_a_copy(self):
        backend = make_backend()
        flow = flow_n(43)
        backend.record_anomaly(flow)
        snapshot = backend.sketch_snapshot()
        h = fnv1a_64(key_bytes(flow))
        assert snapshot.estimate(h) == 1
        snapshot.add(h, 100)
        assert backend.sketch_snapshot().estimate(h) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_backend(slots=100)  # not a power of two
        with pytest.raises(ValueError):
            make_backend(hot_capacity=0)
        with pytest.raises(ValueError):
            make_backend(promote_threshold=0)


def _sketch_config(**kw):
    kw.setdefault("state_backend", "sketch")
    kw.setdefault("sketch_slots", 1 << 12)
    kw.setdefault("sketch_hot_capacity", 256)
    kw.setdefault("sketch_width", 1 << 10)
    return FastPathConfig(**kw)


def _fastpath(config=None):
    rules = attack_ruleset()
    split = split_ruleset(rules, SplitPolicy(piece_length=8))
    return FastPath(split, config)


class TestFastPathSketchBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            _fastpath(FastPathConfig(state_backend="bloom"))

    def test_state_bytes_is_provisioned_and_flat(self):
        from repro.evasion import even_segments, plan_to_packets

        fp = _fastpath(_sketch_config())
        fixed = fp.state_bytes()
        for n in range(50):
            packets = plan_to_packets(
                even_segments(b"just plain benign traffic " * 30, 600),
                src_port=10000 + n,
            )
            for packet in packets:
                fast_process(fp, packet)
        assert fp.state_bytes() == fixed

    def test_matches_dict_backend_on_mixed_traffic(self):
        """The sketch backend must reach the exact backend's verdicts on
        collision-free traffic: same diverts, same alerts, packet by
        packet."""
        from repro.evasion import even_segments, plan_to_packets

        def trace():
            packets = []
            for n in range(40):
                if n % 4 == 0:
                    payload = b"A" * 100 + ATTACK_SIGNATURE + b"B" * 500
                else:
                    payload = b"nothing to see here, move along " * 20
                packets.extend(
                    plan_to_packets(
                        even_segments(payload, 600), src_port=20000 + n
                    )
                )
            return packets

        exact = _fastpath()
        sketch = _fastpath(_sketch_config())
        for exact_packet, sketch_packet in zip(trace(), trace()):
            a = fast_process(exact, exact_packet)
            b = fast_process(sketch, sketch_packet)
            assert a.divert == b.divert
            assert [alert.sid for alert in a.alerts] == [
                alert.sid for alert in b.alerts
            ]

    def test_diverting_flow_promotes_to_hot_set(self):
        from repro.evasion import even_segments, plan_to_packets

        fp = _fastpath(_sketch_config())
        payload = b"A" * 100 + ATTACK_SIGNATURE + b"B" * 500
        packets = plan_to_packets(even_segments(payload, 600))
        diverted = False
        for packet in packets:
            result = fast_process(fp, packet)
            diverted = diverted or result.divert is not None
        assert diverted
        assert fp._flows.promotions >= 1

    def test_seed_flow_lands_hot_after_anomaly(self):
        fp = _fastpath(_sketch_config())
        flow = FlowKey("10.9.9.9", "10.0.0.2", 44000, 80)
        # The diversion that probationed it (the state key is numeric).
        fp._flows.record_anomaly(tuple_of_flow(flow))
        fp.seed_flow(flow, 5000, now=100.0)
        assert fp._flows.hot_entries == 1
        assert fp.expected_seq(flow) == 5000
