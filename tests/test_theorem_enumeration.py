"""THEORY.md's theorem checked through the shipped engine, exhaustively.

The scope keeps the theorem's arithmetic: p = 4 (the splitter's
``ABSOLUTE_MIN_PIECE``) and B = 2p = 8.  For each signature -- 12 to 24
bytes over a two-letter alphabet, plus the shortest splittable bundled
ones -- and each pair of context lengths from 0 / 1 / p-1 / B, every
in-order segmentation of context + signature + context that R1 accepts
(non-final segments of at least B bytes; the last one carries FIN) is
sent as its own connection through ``process_column_batch`` at batch
sizes 1 and 7.  R2 and R4 accept every such case by construction
(exact sequence numbers, TTL 64).

Two obligations, counted separately:

- **detected**: the flow is diverted or alerted -- the fast path's half,
  the theorem itself;
- **confirmed**: an alert names the signature (SIGNATURE or
  PARTIAL_SIGNATURE) or flags the flow AMBIGUITY -- the slow path's half.

R5 checks a piece hit against its own signature's bytes around it, so
a decoy family sends, ahead of the compliant delivery, a piece of the
same signature in contradicting context (filler on both sides): as an
in-order segment of its own before every legal segmentation of the
signature, and one filler byte from the signature, so some
segmentations carry the decoy and a real piece in one packet.  Every
such delivery must still be detected and confirmed, and the decoy alone
must pass the fast path.  Checking context at the wrong alignment (a
hit's end moved by its piece's offset, or by one byte) must leave some
of these deliveries undetected.

Tightness as mutation testing: each rule THEORY.md calls necessary is
switched off in turn, over a family of cases that rule exists to catch,
and the checker must then find a counterexample.  R1 (size), R2 (order)
and R5 (piece) each leave some case undetected.  R4 (TTL floor) cannot:
a low-TTL copy sent ahead of a segment makes the real segment a
retransmission, which R2 diverts.  What R4 buys is that the slow path
sees the chaff, so the flow is confirmed; without it the real copy lands
below the slow path's anchor and is never matched, so its
counterexample is a detected but unconfirmed flow.

The probation hand-off is enumerated the same way (THEORY.md invariants
2-4): every legal segmentation of context + signature, with segment
``i + 1`` sent ahead of segment ``i`` for each ``i`` up to the
signature's end (the out-of-order lead diverts the flow there), under
every probation length, so each segment boundary after the diversion
-- every one inside the signature included -- is the first point where
the flow may return to the fast path.  ``safe_to_release``
itself is held to a brute-force oracle by a Hypothesis differential.

Run as a script for a wider scope (the nightly job): batch 256 and
contexts up to 2B, the decoy family included, counterexamples written
as JSON::

    PYTHONPATH=src python tests/test_theorem_enumeration.py \\
        --batch 256 --contexts 0,1,3,8,15,16 --out counterexamples.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AlertKind, FastPathConfig, SplitDetectIPS
from repro.core.slowpath import SlowPath
from repro.evasion import Seg, plan_to_packets
from repro.packet import FlowKey, PacketBatch, TimedPacket
from repro.pcap.columnar import encode_batches
from repro.signatures import (
    Piece,
    RuleSet,
    Signature,
    SplitPolicy,
    load_bundled_rules,
    split_ruleset,
)

P = 4
B = 2 * P
CONTEXTS = (0, 1, P - 1, B)
BATCHES = (1, 7)
FILLER = b"z"  # outside the signatures' alphabet: only the signature holds pieces
GARBAGE = b"."
SERVER = "10.0.0.2"
CLIENT_PORT = 44000


def signatures() -> list[Signature]:
    """One seeded two-letter signature per length 12..24, plus every
    bundled TCP signature of the shortest splittable length (3p)."""
    rng = random.Random(2006)
    out = [
        Signature(sid=9000 + n, pattern=bytes(rng.choice(b"ab") for _ in range(n)), msg=f"ab{n}")
        for n in range(12, 25)
    ]
    out += [
        sig
        for sig in load_bundled_rules()
        if sig.protocol_number == 6 and len(sig.pattern) == 3 * P and not sig.extra_contents
    ]
    return out


@lru_cache(maxsize=None)
def compositions(n: int, smallest: int = B) -> tuple[tuple[int, ...], ...]:
    """Every cut of ``n`` stream bytes into in-order segment lengths whose
    non-final parts are at least ``smallest`` bytes (R1 exempts the final,
    FIN-carrying one)."""
    out: list[tuple[int, ...]] = [(n,)]
    for first in range(smallest, n):
        out += [(first, *rest) for rest in compositions(n - first, smallest)]
    return tuple(out)


@dataclass(frozen=True)
class Case:
    """One connection: a segment plan over one stream, and how it was cut."""

    family: str
    left: int
    right: int
    lengths: tuple[int, ...]
    segs: tuple[Seg, ...]

    def describe(self) -> dict:
        return {
            "family": self.family,
            "context": [self.left, self.right],
            "segments": [
                [seg.offset, len(seg.data)] + ([seg.ttl] if seg.ttl is not None else [])
                for seg in self.segs
            ],
        }


def stream_of(signature: Signature, left: int, right: int) -> bytes:
    return FILLER * left + signature.pattern + FILLER * right


def cut(stream: bytes, lengths: tuple[int, ...]) -> list[Seg]:
    segs = []
    offset = 0
    for length in lengths:
        segs.append(Seg(offset=offset, data=stream[offset : offset + length]))
        offset += length
    segs[-1] = Seg(offset=segs[-1].offset, data=segs[-1].data, fin=True)
    return segs


def legal_cases(signature: Signature, pairs=None) -> list[Case]:
    """Every R1/R2/R4-legal in-order segmentation, for each (left, right)
    context length pair (default: every pair from ``CONTEXTS``)."""
    cases = []
    for left, right in product(CONTEXTS, CONTEXTS) if pairs is None else pairs:
        stream = stream_of(signature, left, right)
        for lengths in compositions(len(stream)):
            cases.append(Case("legal", left, right, lengths, tuple(cut(stream, lengths))))
    return cases


def tiny_cases(signature: Signature) -> list[Case]:
    """R1's family: uniform segments below B."""
    stream = stream_of(signature, 0, 0)
    return [
        Case("tiny", 0, 0, lengths, tuple(cut(stream, lengths)))
        for size in range(1, B)
        for lengths in [tuple(len(stream[i : i + size]) for i in range(0, len(stream), size))]
    ]


def resend_cases(signature: Signature) -> list[Case]:
    """R2's family: B-byte segments each re-sending all but ``step`` bytes
    of its predecessor's range, garbage past the new bytes (a victim whose
    later copy wins reads the signature; no packet holds a piece)."""
    stream = stream_of(signature, 0, 0)
    cases = []
    for step in range(1, P):
        offsets = range(0, len(stream), step)
        segs = [
            Seg(offset=o, data=stream[o : o + step] + GARBAGE * (B - step)) for o in offsets
        ]
        segs[-1] = Seg(offset=segs[-1].offset, data=stream[segs[-1].offset :], fin=True)
        cases.append(Case("resend", 0, 0, tuple(len(s.data) for s in segs), tuple(segs)))
    return cases


def handoff_cases(signature: Signature) -> list[tuple[Case, int]]:
    """Probation's family, as ``(case, how many packets it diverts)``:
    each legal segmentation of context + signature, with segment ``i + 1``
    sent ahead of segment ``i`` for every ``i``, after each context of
    ``CONTEXTS``; and after a 2B context cut into two B-byte segments,
    the second of them leading, so the first release point is the
    signature's start and flows really return to the fast path ahead of
    it (inside it an open prefix always refuses)."""
    cases = []
    for left in CONTEXTS:
        stream = stream_of(signature, left, 0)
        for lengths in compositions(len(stream))[1:]:
            segs = cut(stream, lengths)
            for i in range(len(segs) - 1):
                planned = (*segs[:i], segs[i + 1], segs[i], *segs[i + 2 :])
                cases.append((Case(f"handoff@{i}", left, 0, lengths, planned), len(segs) - i))
    stream = stream_of(signature, 2 * B, 0)
    for rest in compositions(len(signature.pattern)):
        first, second, *segs = cut(stream, (B, B, *rest))
        planned = (second, first, *segs)
        cases.append((Case("handoff@0", 2 * B, 0, (B, B, *rest), planned), 2 + len(segs)))
    return cases


def split_of(signature: Signature):
    rules = RuleSet()
    rules.add(signature)
    return split_ruleset(rules, SplitPolicy(piece_length=P)).splits[signature.sid]


def decoy_cases(signature: Signature) -> list[Case]:
    """R5-in-context's family: each piece of the signature in
    contradicting context (filler on both sides, so its own hit does not
    divert), in order ahead of the compliant delivery -- as a segment of
    its own ahead of every legal segmentation of the signature, and one
    filler byte from it, so some legal segmentations of the whole stream
    carry the decoy and a real piece in one packet."""
    cases = []
    for piece in split_of(signature).pieces:
        decoy = FILLER * P + piece.data + FILLER * P
        stream = decoy + signature.pattern
        for lengths in compositions(len(signature.pattern)):
            lengths = (len(decoy), *lengths)
            cases.append(Case(f"decoy-ahead@{piece.index}", len(decoy), 0, lengths, tuple(cut(stream, lengths))))
        decoy = FILLER + piece.data + FILLER
        stream = decoy + signature.pattern
        for lengths in compositions(len(stream)):
            cases.append(Case(f"decoy-inside@{piece.index}", len(decoy), 0, lengths, tuple(cut(stream, lengths))))
    return cases


def bare_decoy_cases(signature: Signature) -> list[Case]:
    """The decoys alone, one segment each: a connection that must pass."""
    decoys = [FILLER * P + piece.data + FILLER * P for piece in split_of(signature).pieces]
    return [Case(f"bare-decoy@{i}", len(d), 0, (len(d),), tuple(cut(d, (len(d),)))) for i, d in enumerate(decoys)]


def chaff_cases(signature: Signature) -> list[Case]:
    """R4's family: each legal segmentation (no context) with a low-TTL
    garbage copy of one segment sent just before it."""
    stream = stream_of(signature, 0, 0)
    cases = []
    for lengths in compositions(len(stream)):
        segs = cut(stream, lengths)
        for j, seg in enumerate(segs):
            chaff = Seg(offset=seg.offset, data=GARBAGE * len(seg.data), ttl=2)
            planned = (*segs[:j], chaff, *segs[j:])
            cases.append(Case(f"chaff@{j}", 0, 0, lengths, planned))
    return cases


def client(index: int) -> str:
    return f"10.{100 + index // 65536}.{index // 256 % 256}.{index % 256}"


@dataclass
class Verdicts:
    detected: list[bool]
    confirmed: list[bool]
    alerts: list[tuple]
    reinstated: int = 0

    def counterexamples(self, cases: list[Case]) -> dict[str, list[Case]]:
        return {
            "undetected": [c for c, ok in zip(cases, self.detected) if not ok],
            "unconfirmed": [c for c, ok in zip(cases, self.confirmed) if not ok],
        }


def encode(signature: Signature, cases: list[Case]) -> PacketBatch:
    """Every case as its own connection, one after another, in one batch."""
    packets: list[TimedPacket] = []
    for index, case in enumerate(cases):
        packets += plan_to_packets(
            list(case.segs),
            src=client(index),
            dst=SERVER,
            src_port=CLIENT_PORT,
            dst_port=signature.dst_port or 80,
            start_time=1.0 + index * 0.01,
            gap=1e-4,
        )
    (whole,) = encode_batches(packets, len(packets))
    return whole


def run_cases(
    signature: Signature,
    cases: list[Case],
    whole: PacketBatch,
    batch_size: int,
    *,
    fast_config: FastPathConfig | None = None,
    patch=None,
    probation: int = 8,
) -> Verdicts:
    """The cases (``whole``: as :func:`encode` made them) through one
    engine's ``process_column_batch``, ``batch_size`` rows at a time."""
    rules = RuleSet()
    rules.add(signature)
    ips = SplitDetectIPS(
        rules,
        split_policy=SplitPolicy(piece_length=P),
        fast_config=fast_config,
        probation_packets=probation,
    )
    if patch is not None:
        patch(ips)
    alerts = []
    for start in range(0, len(whole), batch_size):
        alerts += ips.process_column_batch(whole.slice(start, start + batch_size))
    port = signature.dst_port or 80
    flows = [FlowKey(client(i), SERVER, CLIENT_PORT, port).canonical() for i in range(len(cases))]
    diverted = {d.flow.canonical() for d in ips.diversions}
    alerted: set[FlowKey] = set()
    confirmed: set[FlowKey] = set()
    for alert in alerts:
        canonical = alert.flow.canonical()
        alerted.add(canonical)
        if alert.sid == signature.sid or alert.kind is AlertKind.AMBIGUITY:
            confirmed.add(canonical)
    return Verdicts(
        detected=[f in diverted or f in alerted for f in flows],
        confirmed=[f in confirmed for f in flows],
        alerts=[(a.kind, a.sid, a.flow, a.stream_offset, a.timestamp, a.path) for a in alerts],
        reinstated=ips.reinstated_flows,
    )


def minimal(cases: list[Case]) -> Case:
    """The counterexample with the fewest segments (then shortest stream)."""
    return min(cases, key=lambda c: (len(c.segs), sum(c.lengths), c.lengths))


def check(signatures_, batches, contexts=CONTEXTS) -> tuple[int, dict[str, list[Case]]]:
    """The whole enumeration: cases run, and counterexamples by kind
    (including batch sizes whose alert tuples differ from the first)."""
    total = 0
    found: dict[str, list[Case]] = {"undetected": [], "unconfirmed": [], "batch_mismatch": []}
    for signature, pair in product(signatures_, product(contexts, contexts)):
        # One context pair at a time: the wide scope holds ~190k cases
        # for one signature, too many packet objects to build at once.
        cases = legal_cases(signature, [pair])
        total += len(cases)
        whole = encode(signature, cases)
        first: Verdicts | None = None
        for batch_size in batches:
            verdicts = run_cases(signature, cases, whole, batch_size)
            for kind, bad in verdicts.counterexamples(cases).items():
                found[kind] += bad
            if first is None:
                first = verdicts
            elif verdicts.alerts != first.alerts:
                found["batch_mismatch"].append(cases[0])
    return total, found


def check_decoys(signatures_, batches) -> tuple[int, dict[str, list[Case]]]:
    """The decoy family per signature: counterexamples by kind, plus
    ``decoy_diverted`` for a bare decoy the fast path did not let pass."""
    total = 0
    found: dict[str, list[Case]] = {"undetected": [], "unconfirmed": [], "batch_mismatch": [], "decoy_diverted": []}
    for signature in signatures_:
        cases = decoy_cases(signature)
        bare = bare_decoy_cases(signature)
        total += len(cases)
        whole = encode(signature, cases + bare)
        first: Verdicts | None = None
        for batch_size in batches:
            verdicts = run_cases(signature, cases + bare, whole, batch_size)
            for kind, bad in verdicts.counterexamples(cases).items():  # zip stops at cases
                found[kind] += bad
            found["decoy_diverted"] += [c for c, hit in zip(bare, verdicts.detected[len(cases) :]) if hit]
            if first is None:
                first = verdicts
            elif verdicts.alerts != first.alerts:
                found["batch_mismatch"].append(cases[0])
    return total, found


def test_every_legal_segmentation_is_detected_and_confirmed(capsys):
    started = time.perf_counter()
    total, found = check(signatures(), BATCHES)
    with capsys.disabled():
        print(
            f"\n[theorem] {total} segmentations x batch {BATCHES}: "
            + ", ".join(f"{kind} {len(bad)}" for kind, bad in found.items())
            + f" ({time.perf_counter() - started:.1f}s)"
        )
    assert total > 10_000
    for kind, bad in found.items():
        assert not bad, f"{kind}: {minimal(bad).describe()}"


def test_every_decoy_delivery_is_detected_and_confirmed(capsys):
    """A piece in contradicting context does not divert, and sent in
    order ahead of the signature (in its own packet or beside a real
    piece) it hides nothing: every compliant delivery after it is still
    detected and confirmed."""
    started = time.perf_counter()
    total, found = check_decoys(signatures(), BATCHES)
    with capsys.disabled():
        print(
            f"\n[decoy] {total} segmentations x batch {BATCHES}: "
            + ", ".join(f"{kind} {len(bad)}" for kind, bad in found.items())
            + f" ({time.perf_counter() - started:.1f}s)"
        )
    assert total > 5_000
    for kind, bad in found.items():
        assert not bad, f"{kind}: {minimal(bad).describe()}"


def test_every_probation_release_point_is_detected_and_confirmed(capsys):
    """Probation length n >= 2 makes the end of the n-th diverted packet
    (the lead is the first, the segment it skipped the second) the first
    point the flow may go back to the fast path; over every n and every
    segmentation that is every segment boundary after the diversion.
    Wherever the release lands (or is refused), the signature is still
    detected and confirmed."""
    started = time.perf_counter()
    total = reinstated = 0
    found: dict[str, list[Case]] = {"undetected": [], "unconfirmed": []}
    for signature in signatures():
        cases = handoff_cases(signature)
        for probation in range(2, max(diverted for _, diverted in cases) + 1):
            chosen = [case for case, diverted in cases if diverted >= probation]
            whole = encode(signature, chosen)
            for batch_size in BATCHES:
                verdicts = run_cases(signature, chosen, whole, batch_size, probation=probation)
                total += len(chosen)
                reinstated += verdicts.reinstated
                for kind, bad in verdicts.counterexamples(chosen).items():
                    found[kind] += bad
    with capsys.disabled():
        print(
            f"\n[hand-off] {total} releases x batch {BATCHES}: {reinstated} reinstated, "
            + ", ".join(f"{kind} {len(bad)}" for kind, bad in found.items())
            + f" ({time.perf_counter() - started:.1f}s)"
        )
    assert reinstated > 0  # flows really go back to the fast path
    for kind, bad in found.items():
        assert not bad, f"{kind}: {minimal(bad).describe()}"


def open_prefix_oracle(split_rules, stream: bytes) -> bool:
    """Brute force: does a stream suffix equal a prefix (whole patterns
    included) of any content, or of any tail ``s[o_j:]`` while that
    occurrence would start before the longest missing prefix?"""
    tails = [
        (split.signature, split.signature.match_pattern[piece.offset :])
        for split in split_rules.splits.values()
        for piece in split.pieces[1:]
    ]
    latest = max((piece.offset for split in split_rules.splits.values() for piece in split.pieces[1:]), default=0)
    signatures_ = [split.signature for split in split_rules.splits.values()] + split_rules.unsplittable
    for size in range(1, len(stream) + 1):
        for signature in signatures_:
            tail = signature.fold(stream[-size:])
            if any(c.startswith(tail) for c in (signature.match_pattern, *signature.match_extras)):
                return True
        if len(stream) - size < latest:
            if any(t.startswith(signature.fold(stream[-size:])) for signature, t in tails):
                return True
    return False


_ALPHABET = st.sampled_from([b"a", b"b", b"A", b"B", b"z"])


@st.composite
def release_cases(draw):
    """Signatures over a tiny alphabet (some nocase, some with an extra
    content) and a stream of their fragments and filler, in chunks."""
    signatures_ = []
    for sid in range(draw(st.integers(1, 3))):
        pattern = b"".join(draw(st.lists(_ALPHABET, min_size=12, max_size=24)))
        extras = (pattern[: draw(st.integers(1, 6))],) if draw(st.booleans()) else ()
        signatures_.append(
            Signature(sid=sid + 1, pattern=pattern, nocase=draw(st.booleans()), extra_contents=extras)
        )
    fragment = st.one_of(
        st.builds(lambda s, a, b: s.pattern[a:b], st.sampled_from(signatures_), st.integers(0, 24), st.integers(0, 24)),
        st.lists(_ALPHABET, max_size=6).map(b"".join),
    )
    stream = b"".join(draw(st.lists(fragment, min_size=1, max_size=10)))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=5)))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)]) if b > a]
    return signatures_, chunks


@given(release_cases())
@settings(max_examples=200, deadline=None)
def test_safe_to_release_equals_the_brute_force_oracle(case):
    signatures_, chunks = case
    rules = RuleSet()
    for signature in signatures_:
        rules.add(signature)
    split_rules = split_ruleset(rules, SplitPolicy(piece_length=P))
    slow = SlowPath(split_rules)
    flow = FlowKey("10.0.0.1", SERVER, CLIENT_PORT, 80)
    stream = b""
    for chunk in chunks:
        slow._match(flow, chunk, [(flow, 0.0)], [0], [len(chunk)])
        stream += chunk
        assert slow.safe_to_release(flow) is not open_prefix_oracle(split_rules, stream)


def _drop_piece_hits(ips: SplitDetectIPS) -> None:
    """R5 off: the fast path still confirms whole signatures in a packet
    but no longer diverts on a piece."""
    fast = ips.fast_path
    resolve = fast._resolve_hits

    def without_pieces(key, hits, payload, ts, result):
        kept = [hit for hit in hits if not isinstance(fast._entries[hit[0]], Piece)]
        return resolve(key, kept, payload, ts, result)

    fast._resolve_hits = without_pieces


def _misaligned_context(shift):
    """R5's context checked at the wrong alignment: each piece hit's
    end moved by ``shift(piece)`` before the fast path reads it."""

    def patch(ips: SplitDetectIPS) -> None:
        fast = ips.fast_path
        resolve = fast._resolve_hits

        def misaligned(key, hits, payload, ts, result):
            entries = fast._entries
            moved = [
                (i, end + shift(entries[i])) if isinstance(entries[i], Piece) else (i, end)
                for i, end in hits
            ]
            return resolve(key, moved, payload, ts, result)

        fast._resolve_hits = misaligned

    return patch


MUTATIONS = {
    "R1": (tiny_cases, {"fast_config": FastPathConfig(check_tiny=False)}, "undetected"),
    "R2": (resend_cases, {"fast_config": FastPathConfig(check_order=False)}, "undetected"),
    "R4": (chaff_cases, {"fast_config": FastPathConfig(min_ttl=0)}, "unconfirmed"),
    "R5": (legal_cases, {"patch": _drop_piece_hits}, "undetected"),
}


@pytest.mark.parametrize("rule", sorted(MUTATIONS))
def test_each_rule_is_load_bearing(rule):
    """With every rule on, the rule's family is clean; with the one rule
    off, the checker finds a counterexample of the expected kind."""
    family, mutation, kind = MUTATIONS[rule]
    signature = signatures()[0]
    cases = family(signature)
    whole = encode(signature, cases)
    for batch_size in BATCHES:
        intact = run_cases(signature, cases, whole, batch_size).counterexamples(cases)
        assert intact == {"undetected": [], "unconfirmed": []}
        broken = run_cases(signature, cases, whole, batch_size, **mutation)
        broken = broken.counterexamples(cases)
        assert broken[kind], f"{rule} off: no counterexample in {len(cases)} cases"


@pytest.mark.parametrize(
    "shift", [lambda piece: piece.offset, lambda piece: 1], ids=["ignores-offset", "off-by-one"]
)
def test_context_at_the_wrong_alignment_is_caught(shift):
    """The decoy family is clean with R5 as shipped; checking a hit's
    context anywhere but at its own piece's offset loses real pieces."""
    signature = signatures()[0]
    cases = decoy_cases(signature)
    whole = encode(signature, cases)
    for batch_size in BATCHES:
        intact = run_cases(signature, cases, whole, batch_size).counterexamples(cases)
        assert intact == {"undetected": [], "unconfirmed": []}
        broken = run_cases(signature, cases, whole, batch_size, patch=_misaligned_context(shift))
        assert broken.counterexamples(cases)["undetected"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch", type=int, action="append", help="batch size (repeatable)")
    parser.add_argument("--contexts", default=",".join(map(str, CONTEXTS)))
    parser.add_argument("--out", help="write counterexamples here as JSON")
    args = parser.parse_args(argv)
    batches = tuple(args.batch or BATCHES)
    contexts = tuple(int(c) for c in args.contexts.split(","))
    total, found = check(signatures(), batches, contexts)
    decoys, decoy_found = check_decoys(signatures(), batches)
    total += decoys
    for kind, bad in decoy_found.items():
        found.setdefault(kind, []).extend(bad)
    report = {kind: [case.describe() for case in bad] for kind, bad in found.items()}
    print(f"{total} segmentations x batch {batches}: " + json.dumps({k: len(v) for k, v in report.items()}))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 1 if any(found.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
