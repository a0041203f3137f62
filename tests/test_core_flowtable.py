"""Tests for the fixed set-associative flow table and its fast-path wiring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import attack_payload, attack_ruleset, signature_span
from repro.core import (
    FAST_FLOW_STATE_BYTES,
    AlertKind,
    FastPathConfig,
    FlowTable,
    SplitDetectIPS,
    fnv1a_64,
)
from repro.evasion import build_attack
from repro.traffic import TrafficProfile, generate_trace


class TestFnv:
    def test_known_vector(self):
        # FNV-1a 64-bit test vectors.
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_spreads_bits(self):
        hashes = {fnv1a_64(f"10.0.0.{i}".encode()) & 1023 for i in range(256)}
        assert len(hashes) > 150  # buckets well spread


class TestFlowTable:
    def test_basic_put_get(self):
        table = FlowTable(buckets=8, ways=2)
        table.put("a", 1)
        assert table.get("a") == 1
        assert table.get("b") is None
        assert len(table) == 1

    def test_update_in_place(self):
        table = FlowTable(buckets=8, ways=2)
        table.put("a", 1)
        table.put("a", 2)
        assert table.get("a") == 2
        assert len(table) == 1
        assert table.evictions == 0

    def test_eviction_when_bucket_full(self):
        table = FlowTable(buckets=1, ways=2)  # single bucket forces conflicts
        table.put("a", 1)
        table.put("b", 2)
        evicted = table.put("c", 3)
        assert evicted == "a"  # LRU victim
        assert table.evictions == 1
        assert table.get("a") is None
        assert len(table) == 2

    def test_lru_refresh_on_get(self):
        table = FlowTable(buckets=1, ways=2)
        table.put("a", 1)
        table.put("b", 2)
        table.get("a")  # refresh "a"; "b" becomes the victim
        evicted = table.put("c", 3)
        assert evicted == "b"

    def test_pop(self):
        table = FlowTable(buckets=4, ways=2)
        table.put("a", 1)
        assert table.pop("a") == 1
        assert table.pop("a") is None
        assert table.pop("a", "dflt") == "dflt"
        assert len(table) == 0

    def test_setitem_is_put(self):
        table = FlowTable(buckets=4, ways=2)
        table["k"] = 9
        assert table.get("k") == 9

    def test_capacity_and_load(self):
        table = FlowTable(buckets=4, ways=2)
        assert table.capacity == 8
        table.put("a", 1)
        assert table.load_factor == pytest.approx(1 / 8)

    def test_clear(self):
        table = FlowTable(buckets=4, ways=2)
        table.put("a", 1)
        table.clear()
        assert len(table) == 0 and table.get("a") is None

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            FlowTable(buckets=3)
        with pytest.raises(ValueError):
            FlowTable(buckets=8, ways=0)

    def test_hit_miss_counters(self):
        table = FlowTable(buckets=4, ways=2)
        table.put("a", 1)
        table.get("a")
        table.get("zz")
        assert table.hits == 1 and table.misses == 1

    def test_peek_returns_value_without_counting(self):
        table = FlowTable(buckets=4, ways=2)
        table.put("a", 1)
        assert table.peek("a") == 1
        assert table.peek("zz") is None
        assert table.hits == 0 and table.misses == 0

    def test_peek_does_not_refresh_lru(self):
        # Same shape as test_lru_refresh_on_get, but the passive read
        # must NOT protect "a": it stays the LRU victim.
        table = FlowTable(buckets=1, ways=2)
        table.put("a", 1)
        table.put("b", 2)
        table.peek("a")
        evicted = table.put("c", 3)
        assert evicted == "a"

    @given(
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
            max_size=200,
        )
    )
    @settings(max_examples=80)
    def test_matches_bounded_dict_semantics(self, ops):
        """Whatever the access pattern, entries present in the table must
        return the latest value written, and size never exceeds capacity."""
        table = FlowTable(buckets=4, ways=2)
        shadow = {}
        for key, is_put in ops:
            if is_put:
                table.put(key, ("v", key))
                shadow[key] = ("v", key)
            else:
                got = table.get(key)
                if got is not None:
                    assert got == shadow[key]
            assert len(table) <= table.capacity


class TestFastPathWithTable:
    def test_state_bytes_is_provisioned_capacity(self):
        config = FastPathConfig(state_backend="table", table_buckets=64, table_ways=2)
        ips = SplitDetectIPS(attack_ruleset(), fast_config=config)
        assert ips.fast_path.state_bytes() == 64 * 2 * FAST_FLOW_STATE_BYTES

    def test_detection_survives_tiny_table(self):
        """Even a pathologically small table (constant evictions) cannot
        hide the catalog attack: piece matching is stateless."""
        config = FastPathConfig(state_backend="table", table_buckets=2, table_ways=1)
        ips = SplitDetectIPS(attack_ruleset(), fast_config=config)
        trace = generate_trace(TrafficProfile(flows=30), seed=5)
        attack = build_attack(
            "tcp_seg_8", attack_payload(), signature_span=signature_span(),
            src="10.99.0.1",
        )
        from repro.traffic import inject_attacks

        alerts = []
        for packet in inject_attacks(trace, [attack]):
            alerts.extend(ips.process(packet))
        assert any(
            a.sid == 5001 and a.kind in (AlertKind.SIGNATURE, AlertKind.PARTIAL_SIGNATURE)
            for a in alerts
        )
        assert ips.fast_path.table_evictions > 0

    def test_no_evictions_when_table_ample(self):
        config = FastPathConfig(state_backend="table", table_buckets=4096, table_ways=4)
        ips = SplitDetectIPS(attack_ruleset(), fast_config=config)
        for packet in generate_trace(TrafficProfile(flows=30), seed=5):
            ips.process(packet)
        assert ips.fast_path.table_evictions == 0

    def test_unbounded_default_reports_zero_evictions(self):
        ips = SplitDetectIPS(attack_ruleset())
        assert ips.fast_path.table_evictions == 0

    @pytest.mark.parametrize("backend", ["dict", "sketch"])
    def test_table_buckets_without_the_table_backend_is_an_error(self, backend):
        # ``state_backend`` is the only selector: a bucket count must not
        # quietly pick the table, nor be quietly dropped.
        config = FastPathConfig(state_backend=backend, table_buckets=64)
        with pytest.raises(ValueError, match="table_buckets"):
            SplitDetectIPS(attack_ruleset(), fast_config=config)
