"""The slow path's piece-hit confirmation and its O(1) state accounting.

The slow path streams each delivered chunk through the fast path's piece
automaton -- under the bundled corpus swept once (``_Generation.sweep``),
walking only the sides the sweep could not clear -- and confirms only
what a signature's last piece points at.  These tests hold confirmation
to a brute-force oracle over random chunkings, the swept route to the
never-swept one at engine level, pin the carry's lifetime to its
``_matchers`` entry, and check the running byte counters against a
recount after every packet.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ATTACK_SIGNATURE, SIGNATURE_OFFSET, attack_payload
from repro.core import AlertKind, SplitDetectIPS
from repro.core.slowpath import SlowPath
from repro.evasion import STRATEGIES, build_attack
from repro.signatures import RuleSet, Signature, load_bundled_rules, split_ruleset
from repro.packet import FlowKey, packet_fields
from repro.telemetry import TelemetryRegistry
from repro.traffic import TrafficProfile, generate_trace, inject_attacks

SID = 3001
REORDER_HEAVY = TrafficProfile(
    flows=60, reorder_rate=0.05, retransmit_rate=0.03, fragment_rate=0.02, tiny_rate=0.02
)


def bundled_rules():
    rules = load_bundled_rules()
    rules.add(Signature(sid=SID, pattern=ATTACK_SIGNATURE, msg="catalog target"))
    return rules


def catalog_trace():
    """Every catalog strategy once, inside a reorder-heavy benign trace."""
    attacks = [
        build_attack(
            name,
            attack_payload(),
            signature_span=(SIGNATURE_OFFSET, len(ATTACK_SIGNATURE)),
            src=f"10.66.0.{i + 1}",
            seed=i,
        )
        for i, name in enumerate(STRATEGIES)
    ]
    return inject_attacks(generate_trace(REORDER_HEAVY, seed=2006), attacks)


@pytest.fixture(scope="module")
def trace():
    return catalog_trace()


def recount(slow: SlowPath) -> dict:
    """Every running counter, recomputed from what is actually held."""
    normalizer = slow.normalizer
    reassemblers = [
        r for state in normalizer._flows.values() for r in state.directions.values()
    ]
    for reassembler in reassemblers:
        assert reassembler.buffered_bytes == sum(map(len, reassembler._chunks))
    partials = normalizer.defragmenter._partials.values()
    matchers = [state.matcher for _, state, _ in slow._matchers.values()]
    return {
        "defrag": sum(len(piece) for p in partials for _, piece in p.pieces),
        "reassembly": sum(r.buffered_bytes for r in reassemblers),
        "matchers": sum(m.STATE_BYTES + len(m.carry) for m in matchers),
    }


def check_counters(slow: SlowPath) -> None:
    held = recount(slow)
    normalizer = slow.normalizer
    assert normalizer.defragmenter.buffered_bytes == held["defrag"]
    assert normalizer.buffered_bytes == held["defrag"] + held["reassembly"]
    assert slow.state_bytes() == normalizer.state_bytes() + held["matchers"]


class TestRunningCounters:
    def test_counters_equal_a_recount_after_every_packet(self, trace):
        """Catalog evasions (overlaps, fragments, tiny segments) and a
        reorder-heavy benign trace, all sent straight to the slow path:
        every park, merge, delivery and flow close keeps the sums exact."""
        slow = SlowPath(split_ruleset(bundled_rules()))
        parked = 0
        for packet in trace:
            slow.process(*packet_fields(packet))
            check_counters(slow)
            parked = max(parked, slow.normalizer.buffered_bytes)
        assert parked > 0 and slow._matchers
        some_flow = next(iter(slow._matchers))
        slow.release_flow(some_flow)
        check_counters(slow)
        slow.evict_idle(trace[-1].timestamp + 1e6)
        check_counters(slow)
        assert not slow._matchers and slow.normalizer.buffered_bytes == 0
        # Nothing outlives its flow: only expired fragments can remain.
        assert slow.state_bytes() == slow.normalizer.defragmenter.buffered_bytes

    def test_carry_is_counted_and_dies_with_the_entry(self, trace):
        slow = SlowPath(split_ruleset(bundled_rules()))
        for packet in build_attack("tcp_seg_8", attack_payload()):
            slow.process(*packet_fields(packet))
            check_counters(slow)
        current = slow._current
        assert current.sweep is not None
        assert current.carry == max(len(sig.pattern) for sig in bundled_rules()) == 175
        if slow._matchers:
            (_, state, _) = next(iter(slow._matchers.values()))
            assert len(state.matcher.carry) == current.carry
        slow.evict_idle(1e9)
        assert slow._matcher_bytes == 0


def run_engine(trace, swept=True):
    """Alerts, every ``safe_to_release`` answer and the reinstatement
    count of a bundled-corpus engine (its slow path unswept unless
    *swept*)."""
    ips = SplitDetectIPS(bundled_rules())
    assert ips.slow_path._current.sweep is not None
    if not swept:
        ips.slow_path._current.sweep = None
    answers = []
    certify = ips.slow_path.safe_to_release

    def recording(flow):
        answer = certify(flow)
        answers.append((flow, answer))
        return answer

    ips.slow_path.safe_to_release = recording
    alerts = [alert for packet in trace for alert in ips.process(packet)]
    return ips, alerts, answers, ips.reinstated_flows


class TestSweptEngineEqualsUnswept:
    def test_same_alerts_release_answers_and_reinstatements(self, trace):
        swept_ips, alerts, answers, reinstated = run_engine(trace)
        _, plain_alerts, plain_answers, plain_reinstated = run_engine(trace, swept=False)
        assert alerts == plain_alerts
        assert answers == plain_answers
        assert reinstated == plain_reinstated > 0
        caught = {
            a.flow.src for a in alerts if a.sid == SID or a.kind is AlertKind.AMBIGUITY
        }
        assert caught >= {f"10.66.0.{i + 1}" for i in range(len(STRATEGIES))}
        assert {answer for _, answer in answers} == {True, False}  # both arms seen
        pieces = swept_ips.slow_path._current.automaton.sensitive
        assert pieces.stream_swept_chunks > 0 and pieces.stream_walked_chunks > 0

    def test_hot_reload_keeps_the_old_carry_with_the_old_set(self):
        """A stream that began under generation 0 keeps that generation's
        automaton, sweep and carry length; flows diverted after the swap
        get the new one's."""
        ips = SplitDetectIPS(bundled_rules())
        slow = ips.slow_path
        attack = build_attack(
            "tcp_seg_8",
            attack_payload(),
            signature_span=(SIGNATURE_OFFSET, len(ATTACK_SIGNATURE)),
        )
        packets = iter(attack)
        for packet in packets:
            ips.process(packet)
            if slow._matchers:  # diverted, first chunk matched: mid-stream
                break
        (direction,) = slow._matchers
        old_set, state, _ = slow._matchers[direction]
        long_rules = bundled_rules()
        long_rules.add(Signature(sid=4000, pattern=b"Z" * 400, msg="longer than any"))
        ips.swap_rules(long_rules)
        assert slow._current is not old_set and slow._matchers[direction][0] is old_set
        alerts = [alert for packet in packets for alert in ips.process(packet)]
        assert SID in {alert.sid for alert in alerts}  # confirmed under the old set
        late = build_attack("tcp_seg_8", attack_payload(), src="10.66.1.1")
        for packet in late:
            ips.process(packet)
        new_entries = [e for e in slow._matchers.values() if e[0] is slow._current]
        assert len(state.matcher.carry) <= old_set.carry < 400
        assert slow._current.carry == 400
        assert any(e[1].matcher._carry_len == 400 for e in new_entries)
        check_counters(slow)


def test_piece_walk_and_sweep_counts_are_exported(trace):
    """`repro_slowpath_match` names the stream piece automaton's sides:
    dense, walked on some chunks and swept clean on others."""
    tel = TelemetryRegistry()
    ips = SplitDetectIPS(bundled_rules(), telemetry=tel)
    for packet in trace[:4000]:
        ips.process(packet)
    gauges = ips.telemetry_snapshot()["gauges"]["repro_slowpath_match"]
    samples = {
        (s["labels"]["matcher"], s["labels"]["side"], s["labels"]["stat"]): s["value"]
        for s in gauges["values"]
    }
    assert {matcher for matcher, _, _ in samples} == {"piece"}
    states = ips.fast_path.automaton.sensitive.state_count
    assert samples[("piece", "sensitive", "states")] == states
    assert samples[("piece", "sensitive", "walked_chunks")] > 0
    assert samples[("piece", "sensitive", "walked_bytes")] > 0
    assert samples[("piece", "sensitive", "swept_chunks")] > 0


# -- confirmation against a brute-force oracle -------------------------------

FLOW = FlowKey("10.0.0.1", "10.0.0.2", 40000, 80)


def oracle(signature, split, stream: bytes) -> list:
    """``(kind, end)`` per occurrence in ``stream``, by the definition:
    SIGNATURE where the whole pattern ends, PARTIAL_SIGNATURE for each
    tail ``s[o_j:]`` ending at ``e < |s|`` (so starting before ``o_j``)."""
    fold = signature.fold
    text = fold(stream)
    pattern = signature.match_pattern
    found = []
    for end in range(1, len(stream) + 1):
        if end >= len(pattern) and text[end - len(pattern) : end] == pattern:
            found.append((AlertKind.SIGNATURE, end))
        elif end < len(pattern):
            for piece in split.pieces[1:]:
                tail = pattern[piece.offset :]
                if end >= len(tail) and text[end - len(tail) : end] == tail:
                    found.append((AlertKind.PARTIAL_SIGNATURE, end))
    return found


@st.composite
def confirm_cases(draw):
    """A signature (nocase or not), and a stream made of its pieces'
    tails, whole copies and filler in either case, cut into chunks."""
    nocase = draw(st.booleans())
    signature = Signature(sid=7, pattern=b"Exploit-Target-Payload-2006!", msg="t", nocase=nocase)
    split = split_ruleset(RuleSet([signature])).splits[7]
    offsets = [piece.offset for piece in split.pieces]
    part = st.one_of(
        st.sampled_from(offsets).map(lambda o: signature.pattern[o:]),
        st.just(signature.pattern),
        st.binary(max_size=12),
        st.sampled_from([b"Exploit", b"Target-", b"-2006!", b"!"]),
    )
    parts = draw(st.lists(part, min_size=1, max_size=8))
    if nocase:
        parts = [p.swapcase() if draw(st.booleans()) else p for p in parts]
    stream = b"".join(parts)
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=6)))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)]) if b > a]
    return signature, split, stream, chunks


@given(confirm_cases())
@settings(max_examples=150, deadline=None)
def test_confirmation_equals_the_oracle_on_any_chunking(case):
    signature, split, stream, chunks = case
    slow = SlowPath(split_ruleset(RuleSet([signature])))
    got = []
    for chunk in chunks:
        alerts = slow._match(FLOW, chunk, [(FLOW, 0.0)], [0], [len(chunk)])
        got += [(alert.kind, alert.stream_offset) for _, alert in alerts]
    assert sorted(got, key=lambda hit: (hit[1], hit[0].value)) == sorted(
        oracle(signature, split, stream), key=lambda hit: (hit[1], hit[0].value)
    )
