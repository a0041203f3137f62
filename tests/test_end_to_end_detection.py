"""The paper's central claim, tested adversarially end to end.

Hypothesis plays the attacker: it composes arbitrary segmentations,
reorderings, duplications, inconsistent overlaps, low-TTL chaff, and IP
fragmentation -- any mixture -- and delivers the result both to an
emulated victim and to the Split-Detect engine.  Whenever the victim's
application actually receives the signature bytes, the engine must have
raised an alert (signature, partial signature, or ambiguity).

This covers the probation optimization too: if handing flows back to the
fast path ever opened a detection hole, this test is built to find it.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AlertKind, SplitDetectIPS
from repro.evasion import Seg, Victim, plan_to_packets
from repro.packet import TimedPacket, fragment
from repro.signatures import RuleSet, Signature, SplitPolicy
from repro.streams import OverlapPolicy

SIGNATURE = b"ZQv7#EVIL-PAYLOAD\x90\x90\x90\x90:exec(/bin/sh)!K"  # 38 bytes, no '.'
SID = 7001


def ruleset() -> RuleSet:
    rules = RuleSet()
    rules.add(Signature(sid=SID, pattern=SIGNATURE, msg="e2e target"))
    return rules


def detected(alerts) -> bool:
    return any(
        (a.kind in (AlertKind.SIGNATURE, AlertKind.PARTIAL_SIGNATURE) and a.sid == SID)
        or a.kind is AlertKind.AMBIGUITY
        for a in alerts
    )


@st.composite
def adversarial_delivery(draw):
    """A random attack: payload with embedded signature + delivery script."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    filler_before = draw(st.integers(min_value=0, max_value=900))
    filler_after = draw(st.integers(min_value=0, max_value=900))
    filler_byte = b"x"
    payload = (
        filler_byte * filler_before + SIGNATURE + filler_byte * filler_after
    )
    # Random segmentation: cut points anywhere, including inside the signature.
    n_cuts = draw(st.integers(min_value=0, max_value=24))
    cuts = sorted(
        {draw(st.integers(min_value=1, max_value=len(payload) - 1)) for _ in range(n_cuts)}
    )
    bounds = [0] + cuts + [len(payload)]
    segs = [
        Seg(offset=a, data=payload[a:b], fin=(b == len(payload)))
        for a, b in zip(bounds, bounds[1:])
    ]
    # Mutations.
    if draw(st.booleans()):  # shuffle
        rng.shuffle(segs)
    if draw(st.booleans()):  # duplicate some segments (consistent copies)
        extras = [seg for seg in segs if rng.random() < 0.3]
        for seg in extras:
            segs.insert(rng.randrange(len(segs) + 1), Seg(seg.offset, seg.data))
    chaff = draw(st.sampled_from(["none", "ttl", "overlap_after"]))
    if chaff == "ttl":  # insertion chaff the victim never sees
        garbage = [
            Seg(seg.offset, b"\x2e" * len(seg.data), ttl=1)
            for seg in segs
            if seg.data and rng.random() < 0.5
        ]
        for seg in garbage:
            segs.insert(rng.randrange(len(segs) + 1), seg)
    victim_hops = 3 if chaff == "ttl" else 0
    packets = plan_to_packets(segs, gap=0.0001)
    if chaff == "overlap_after":
        # Garbage rewrites of delivered data: the victim (FIRST) keeps the
        # original bytes, a LAST-policy observer would be blinded.
        rewritten = []
        for packet in packets:
            rewritten.append(packet)
            ip = packet.ip
            if ip.payload and rng.random() < 0.3 and len(ip.payload) > 40:
                from repro.packet import TcpSegment, build_tcp_packet, decode_tcp

                seg = decode_tcp(ip)
                if seg.payload and not seg.syn:
                    garbage_seg = seg.copy(payload=b"\x2e" * len(seg.payload))
                    rewritten.append(
                        TimedPacket(
                            packet.timestamp + 0.00001,
                            build_tcp_packet(ip.src, ip.dst, garbage_seg),
                        )
                    )
        packets = rewritten
    if draw(st.booleans()):  # fragment a random subset of packets
        mtu = draw(st.sampled_from([36, 68, 256]))
        fragged = []
        for packet in packets:
            if packet.ip.payload and rng.random() < 0.4 and packet.ip.total_length > mtu:
                ip = packet.ip.copy(dont_fragment=False)
                frags = fragment(ip, mtu)
                if rng.random() < 0.5:
                    rng.shuffle(frags)
                fragged.extend(TimedPacket(packet.timestamp, f) for f in frags)
            else:
                fragged.append(packet)
        packets = fragged
    return packets, victim_hops


@given(case=adversarial_delivery(), probation=st.sampled_from([0, 2, 8]))
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_no_delivered_signature_goes_undetected(case, probation):
    packets, victim_hops = case
    victim = Victim(policy=OverlapPolicy.FIRST, hops_behind_ips=victim_hops)
    victim.deliver_all(packets)
    if not victim.received(SIGNATURE):
        return  # the mutation corrupted the attack; nothing to assert
    # Both routes: process() per packet, and the encoded batch route the
    # CLI, the runners and the ledger take, at two batch sizes.
    for batch_size in (None, 1, 7):
        ips = SplitDetectIPS(
            ruleset(),
            split_policy=SplitPolicy(piece_length=8),
            probation_packets=probation,
        )
        alerts = []
        if batch_size is None:
            for packet in packets:
                alerts.extend(ips.process(packet))
        else:
            for start in range(0, len(packets), batch_size):
                alerts.extend(ips.process_batch(packets[start : start + batch_size]))
        assert detected(alerts), (
            f"victim received the signature but no alert was raised "
            f"(batch size {batch_size})"
        )


@given(case=adversarial_delivery())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_conventional_baseline_also_detects(case):
    from repro.core import ConventionalIPS

    packets, victim_hops = case
    victim = Victim(policy=OverlapPolicy.FIRST, hops_behind_ips=victim_hops)
    victim.deliver_all(packets)
    if not victim.received(SIGNATURE):
        return
    ips = ConventionalIPS(ruleset())
    alerts = []
    for packet in packets:
        alerts.extend(ips.process(packet))
    assert detected(alerts)
