"""Unit and property tests for the IP defragmenter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import IPv4Packet, fragment
from repro.streams import IpDefragmenter, OverlapPolicy, StreamEvent


def make_datagram(payload=b"x" * 100, ident=7):
    return IPv4Packet(src="10.0.0.1", dst="10.0.0.2", payload=payload, identification=ident)


def events_of(result):
    return [record.event for record in result.events]


class TestPassThrough:
    def test_unfragmented_packet_passes(self):
        d = IpDefragmenter()
        pkt = make_datagram()
        result = d.add(pkt)
        assert result.packet is pkt
        assert d.pending_datagrams == 0


class TestReassembly:
    def test_two_fragments_in_order(self):
        d = IpDefragmenter()
        pkt = make_datagram(bytes(range(200)) * 2)
        frags = fragment(pkt, 300)
        assert d.add(frags[0]).packet is None
        result = d.add(frags[1])
        assert result.packet is not None
        assert result.packet.payload == pkt.payload
        assert not result.packet.is_fragment

    def test_fragments_out_of_order(self):
        d = IpDefragmenter()
        pkt = make_datagram(b"A" * 500 + b"B" * 500)
        frags = fragment(pkt, 300)
        for frag in reversed(frags[1:]):
            assert d.add(frag).packet is None
        result = d.add(frags[0])
        assert result.packet.payload == pkt.payload

    def test_reassembled_header_comes_from_first_fragment(self):
        d = IpDefragmenter()
        pkt = make_datagram(b"z" * 400)
        frags = fragment(pkt, 200)
        frags[0] = frags[0].copy(ttl=3)
        result = None
        for frag in frags:
            result = d.add(frag)
        assert result.packet.ttl == 3

    def test_interleaved_datagrams_keep_separate(self):
        d = IpDefragmenter()
        a = make_datagram(b"A" * 400, ident=1)
        b = make_datagram(b"B" * 400, ident=2)
        fa, fb = fragment(a, 200), fragment(b, 200)
        outs = []
        for frag in [fa[0], fb[0], fa[1], fb[1], fa[2], fb[2]]:
            result = d.add(frag)
            if result.packet:
                outs.append(result.packet)
        assert {bytes(p.payload) for p in outs} == {a.payload, b.payload}

    def test_duplicate_final_fragment_is_tolerated(self):
        d = IpDefragmenter()
        frags = fragment(make_datagram(b"q" * 400), 200)
        d.add(frags[-1])
        result = d.add(frags[-1])
        assert StreamEvent.FRAGMENT_OVERLAP in events_of(result)

    def test_moved_final_fragment_is_inconsistent(self):
        d = IpDefragmenter()
        frags = fragment(make_datagram(b"q" * 400), 200)
        d.add(frags[-1])
        moved = frags[-1].copy(fragment_offset=frags[-1].fragment_offset + 8)
        result = d.add(moved)
        assert StreamEvent.INCONSISTENT_FRAGMENT_OVERLAP in events_of(result)


class TestOverlaps:
    def overlapping_fragments(self, contested_old, contested_new):
        """First frag claims [0,16) ending with contested bytes; second
        re-claims [8,24) starting with different bytes over [8,16)."""
        base = make_datagram()
        f1 = base.copy(payload=b"AAAAAAAA" + contested_old, fragment_offset=0, more_fragments=True)
        f2 = base.copy(payload=contested_new + b"ZZZZZZZZ", fragment_offset=8, more_fragments=False)
        return f1, f2

    def test_consistent_overlap_flagged(self):
        d = IpDefragmenter()
        f1, f2 = self.overlapping_fragments(b"SAMEsame", b"SAMEsame")
        d.add(f1)
        result = d.add(f2)
        assert StreamEvent.FRAGMENT_OVERLAP in events_of(result)
        assert result.packet.payload == b"AAAAAAAA" + b"SAMEsame" + b"ZZZZZZZZ"

    def test_inconsistent_overlap_flagged(self):
        d = IpDefragmenter()
        f1, f2 = self.overlapping_fragments(b"OLDdata!", b"NEWdata!")
        d.add(f1)
        result = d.add(f2)
        assert StreamEvent.INCONSISTENT_FRAGMENT_OVERLAP in events_of(result)

    def test_first_policy_keeps_old(self):
        d = IpDefragmenter(policy=OverlapPolicy.FIRST)
        f1, f2 = self.overlapping_fragments(b"OLDdata!", b"NEWdata!")
        d.add(f1)
        result = d.add(f2)
        assert result.packet.payload == b"AAAAAAAA" + b"OLDdata!" + b"ZZZZZZZZ"

    def test_last_policy_takes_new(self):
        d = IpDefragmenter(policy=OverlapPolicy.LAST)
        f1, f2 = self.overlapping_fragments(b"OLDdata!", b"NEWdata!")
        d.add(f1)
        result = d.add(f2)
        assert result.packet.payload == b"AAAAAAAA" + b"NEWdata!" + b"ZZZZZZZZ"

    def test_teardrop_shape_rejected_or_flagged(self):
        # Fragment claiming bytes past the 64 KiB datagram limit is dropped.
        d = IpDefragmenter()
        bad = make_datagram().copy(
            payload=b"x" * 100, fragment_offset=65528, more_fragments=False
        )
        result = d.add(bad)
        assert StreamEvent.OUT_OF_WINDOW in events_of(result)
        assert result.packet is None


class TestTinyFragments:
    def test_tiny_nonfinal_fragment_flagged(self):
        d = IpDefragmenter(tiny_threshold=16)
        base = make_datagram()
        tiny = base.copy(payload=b"x" * 8, more_fragments=True, fragment_offset=0)
        result = d.add(tiny)
        assert StreamEvent.TINY_FRAGMENT in events_of(result)

    def test_final_fragment_exempt(self):
        d = IpDefragmenter(tiny_threshold=16)
        base = make_datagram()
        final = base.copy(payload=b"x" * 8, more_fragments=False, fragment_offset=8)
        result = d.add(final)
        assert StreamEvent.TINY_FRAGMENT not in events_of(result)


class TestTimeout:
    def test_stale_partials_evicted(self):
        d = IpDefragmenter(timeout=10)
        frags = fragment(make_datagram(b"x" * 400), 200)
        d.add(frags[0], timestamp=0.0)
        assert d.pending_datagrams == 1
        d.expire(now=11.0)
        assert d.pending_datagrams == 0
        assert d.evicted_total == 1
        # The late final fragment alone can no longer complete the datagram.
        result = d.add(frags[-1], timestamp=12.0)
        assert result.packet is None

    def test_fresh_partials_survive(self):
        d = IpDefragmenter(timeout=10)
        frags = fragment(make_datagram(b"x" * 400), 200)
        d.add(frags[0], timestamp=0.0)
        d.expire(now=5.0)
        assert d.pending_datagrams == 1

    def test_buffered_accounting(self):
        d = IpDefragmenter()
        frags = fragment(make_datagram(b"x" * 400), 200)
        d.add(frags[0])
        assert d.buffered_bytes == len(frags[0].payload)
        for frag in frags[1:]:
            d.add(frag)
        assert d.buffered_bytes == 0
        assert d.reassembled_total == 1


@given(
    payload=st.binary(min_size=9, max_size=2000),
    mtu=st.integers(min_value=48, max_value=600),
    seed=st.randoms(use_true_random=False),
)
@settings(max_examples=60)
def test_any_fragment_arrival_order_reassembles(payload, mtu, seed):
    pkt = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", payload=payload, identification=99)
    frags = fragment(pkt, mtu)
    seed.shuffle(frags)
    d = IpDefragmenter()
    outputs = [d.add(f).packet for f in frags]
    completed = [p for p in outputs if p is not None]
    assert len(completed) == 1
    assert completed[0].payload == payload
    assert d.pending_datagrams == 0


class ScanningDefragmenter(IpDefragmenter):
    """The scan-on-every-packet reference the deadline clock must equal."""

    def expire(self, now: float) -> int:
        stale = [
            key
            for key, partial in self._partials.items()
            if now - partial.arrival > self.timeout
        ]
        for key in stale:
            self._buffered -= self._partials.pop(key).buffered_bytes
        self.evicted_total += len(stale)
        return len(stale)


class CountingScans(dict):
    """A ``_partials`` table that counts full scans of itself."""

    scans = 0

    def items(self):
        CountingScans.scans += 1
        return super().items()


class TestDeadlineClock:
    FRAGMENT_STRATEGIES = ["ip_frag_8", "ip_frag_16", "ip_frag_reorder", "ip_frag_overlap"]

    def interleaved_catalog(self) -> list:
        """Every fragment strategy, from its own source, staggered so that
        datagrams open, complete and go stale while others are pending
        (every third attack loses its final fragments and never completes)."""
        from repro.evasion import build_attack

        from helpers import attack_payload

        packets = []
        for index, name in enumerate(self.FRAGMENT_STRATEGIES * 3):
            attack = build_attack(name, attack_payload(), src=f"10.9.{index}.1")
            packets += [
                (p.timestamp + index * 0.0015, p.ip)
                for p in attack
                if index % 3 or not (p.ip.is_fragment and not p.ip.more_fragments)
            ]
        packets.sort(key=lambda item: item[0])
        return packets

    @pytest.mark.parametrize("timeout", [0.0, 0.001, 0.003, 30.0])
    def test_same_evictions_and_accounting_as_scanning_every_packet(self, timeout):
        clocked = IpDefragmenter(timeout=timeout)
        scanning = ScanningDefragmenter(timeout=timeout)
        completed = 0
        for timestamp, ip in self.interleaved_catalog():
            got = clocked.add(ip, timestamp)
            want = scanning.add(ip, timestamp)
            assert got.packet == want.packet and got.events == want.events
            completed += got.packet is not None and ip.is_fragment
            for name in ("evicted_total", "buffered_bytes", "pending_datagrams"):
                assert getattr(clocked, name) == getattr(scanning, name)
        if timeout < 30.0:
            assert clocked.evicted_total > 0
        assert completed > 0

    def test_non_fragments_scan_once_per_deadline_crossing(self):
        pending, packets, timeout = 50, 1000, 10.0
        d = IpDefragmenter(timeout=timeout)
        d._partials = CountingScans()
        for ident in range(pending):  # one first fragment each, arriving 0.0 .. 4.9
            frag = fragment(make_datagram(b"x" * 400, ident=ident), 200)[0]
            d.add(frag, timestamp=ident * 0.1)
        assert d.pending_datagrams == pending
        CountingScans.scans = 0
        plain = make_datagram()
        for step in range(packets):  # 0.0 .. 19.98: every deadline is crossed
            d.add(plain, timestamp=step * 0.02)
        assert d.pending_datagrams == 0 and d.evicted_total == pending
        # One scan per distinct stale arrival at most -- not packets * pending.
        assert CountingScans.scans <= pending
