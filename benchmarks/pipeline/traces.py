"""Seeded pcap inputs for the pipeline ledger.

Every trace is a pure function of ``(TraceSpec, seed)``:

1. a *base* benign population comes from the product's own generator,
   ``repro.traffic.generate_trace(spec.profile, seed=seed)``;
2. the base is *tiled* to the spec's packet count: copy ``k`` of a flow
   adds ``k`` to the low 16 bits of its source address and subtracts
   ``k`` from the low 16 bits of its destination.  Both words enter the
   IPv4 header checksum and the TCP/UDP pseudo-header sum, so every
   checksum in the copy still verifies without being recomputed -- which
   is what lets a 300k-packet trace be built in seconds instead of the
   ~50 s the generator would need (it spends ~100 us per packet on
   payload synthesis and pure-Python checksums).  Copies are staggered
   in time and the merged stream is cut at exactly ``spec.packets``;
3. the *attack manifest* -- ``spec.attack_flows`` flows built with
   ``repro.evasion.build_attack``, round-robin over every evading
   strategy, each delivering :data:`ATTACK_SIGNATURE` from
   ``10.66.0.0/16`` -- is spread over the benign time span.

The pcap, its first :data:`PREFIX` records as a second small pcap (the
input of the equivalence check, kept separate so that check never loads
the whole capture), its facts and its manifest are cached under
``.cache/`` keyed by spec + seed; nothing here reads a clock other than
to report ``gen_s``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from repro.evasion import STRATEGIES, build_attack
from repro.pcap import PcapWriter
from repro.traffic import TrafficProfile, generate_trace

CACHE_DIR = Path(__file__).resolve().parent / ".cache"

ATTACK_SID = 3001
ATTACK_SIGNATURE = b"EVIL-PAYLOAD\x90\x90\x90\x90:exec/bin/sh"
ATTACK_OFFSET = 120
ATTACK_DST = "10.0.0.2"
#: Benign client ports are 1024 + flow index (< 61024), so a manifest
#: flow is identified by (source address, source port) alone.
ATTACK_PORT = 62000
EVADING = tuple(name for name in STRATEGIES if name not in ("plain", "mss_segments"))

#: Largest address shift a tile may use: the generator draws the low
#: address words from [0x0102, 0xF9F9], so +-257 can neither wrap a
#: 16-bit word nor carry out of it.
MAX_TILES = 257

#: Records in the equivalence-check prefix: 40 batches of 256.
PREFIX = 10_240

Record = tuple[float, bytes]


@dataclass(frozen=True)
class TraceSpec:
    """What a workload's input looks like, independent of the seed."""

    name: str
    profile: TrafficProfile
    packets: int
    """Benign packets after tiling; 0 keeps the base population as generated."""
    attack_flows: int

    def scaled(self, divisor: int) -> "TraceSpec":
        """The same shape, ``divisor`` times smaller (``--quick``)."""
        return TraceSpec(
            name=f"{self.name}-q{divisor}",
            profile=replace(self.profile, flows=self.profile.flows // divisor),
            packets=self.packets // divisor,
            attack_flows=max(len(EVADING), self.attack_flows // divisor),
        )


# Interactive flows are left out of the bulk population: at the default
# tiny_rate a 2000-flow sample holds 4 +- 2 of them, each 300-2000
# packets of 1-7 bytes, so their count alone moved the trace's mean
# packet size between 540 and 810 bytes from one seed to the next.
# Tiny segments are evasion_mix's subject (tcp_seg_1, tcp_seg_8).
BULK_PROFILE = TrafficProfile(flows=2000, max_flow_bytes=60_000, tiny_rate=0.0)
SMALL_PROFILE = TrafficProfile(
    flows=4000,
    mean_flow_bytes=2400,
    max_flow_bytes=2400,
    segment_sizes=((96, 1.0), (128, 1.0), (160, 1.0)),
    udp_fraction=0.30,
    # Half the default pathology rates: with the manifest's own ~0.6 %
    # the workload stays under its 2 % diverted-packet ceiling.
    reorder_rate=0.001,
    retransmit_rate=0.001,
    small_segment_rate=0.0,
    tiny_rate=0.0,
    fragment_rate=0.0,
    # Flows start 20 us apart and last ~10 ms, so a few thousand are
    # open at once: the state layer holds a working set, not a handful.
    mean_interarrival=0.00002,
)

SPECS = {
    spec.name: spec
    for spec in (
        TraceSpec("benign_bulk", BULK_PROFILE, packets=120_000, attack_flows=len(EVADING)),
        TraceSpec("small_pkt", SMALL_PROFILE, packets=300_000, attack_flows=len(EVADING)),
        TraceSpec("evasion_mix", BULK_PROFILE, packets=0, attack_flows=1200),
    )
}


@dataclass(frozen=True)
class Trace:
    """One built (or cached) input: where it is and what is in it."""

    path: Path
    prefix_path: Path
    facts: dict
    manifest: list[dict]


def attack_payload() -> bytes:
    body = bytearray(b"Content-Filler: benign web traffic padding / " * 30)
    body[ATTACK_OFFSET : ATTACK_OFFSET + len(ATTACK_SIGNATURE)] = ATTACK_SIGNATURE
    return bytes(body)


def _tile(base: list[Record], packets: int, rng: random.Random) -> list[Record]:
    """Replicate ``base`` with checksum-neutral address shifts (module doc)."""
    copies = -(-packets // len(base))
    if copies > MAX_TILES:
        raise ValueError(f"{copies} tiles needed, at most {MAX_TILES} are checksum-safe")
    span = base[-1][0] - base[0][0]
    out = list(base)
    for shift in range(1, copies):
        offset = span * (shift + rng.random()) / copies
        for ts, data in base:
            src_low = int.from_bytes(data[14:16], "big") + shift
            dst_low = int.from_bytes(data[18:20], "big") - shift
            out.append(
                (
                    ts + offset,
                    data[:14]
                    + src_low.to_bytes(2, "big")
                    + data[16:18]
                    + dst_low.to_bytes(2, "big")
                    + data[20:],
                )
            )
    out.sort(key=lambda record: record[0])
    return out[:packets]


def _attacks(
    count: int, rng: random.Random, start: float, span: float
) -> tuple[list[Record], list[dict]]:
    payload = attack_payload()
    records: list[Record] = []
    manifest: list[dict] = []
    for index in range(count):
        strategy = EVADING[index % len(EVADING)]
        src = f"10.66.{index >> 8}.{index & 0xFF}"
        packets = build_attack(
            strategy,
            payload,
            seed=rng.randrange(2**31),
            signature_span=(ATTACK_OFFSET, len(ATTACK_SIGNATURE)),
            src=src,
            dst=ATTACK_DST,
            src_port=ATTACK_PORT,
            isn=rng.randrange(2**32),
        )
        shift = start + span * (index + rng.random()) / (count + 1) - packets[0].timestamp
        records.extend((p.timestamp + shift, p.ip.serialize()) for p in packets)
        manifest.append({"src": src, "strategy": strategy, "packets": len(packets)})
    return records, manifest


def _facts(records: list[Record]) -> dict:
    """Input facts straight from the IPv4/TCP/UDP wire layout.

    ``payload_bytes`` is the L4 payload of unfragmented TCP/UDP packets
    (fragments count 0, as in ``repro.analysis.characterize``); flows
    are directional five-tuples (the generator never emits a reverse
    direction), fragments keyed without ports.
    """
    capture_bytes = payload_bytes = 0
    flows: set[bytes] = set()
    for _, data in records:
        capture_bytes += len(data)
        ihl = (data[0] & 0x0F) * 4
        proto = data[9]
        key = data[9:10] + data[12:20]
        if not int.from_bytes(data[6:8], "big") & 0x3FFF:
            key += data[ihl : ihl + 4]
            if proto == 6:
                payload_bytes += len(data) - ihl - (data[ihl + 12] >> 4) * 4
            elif proto == 17:
                payload_bytes += len(data) - ihl - 8
        flows.add(key)
    return {
        "packets": len(records),
        "capture_bytes": capture_bytes,
        "payload_bytes": payload_bytes,
        "flows": len(flows),
    }


def build(spec: TraceSpec, seed: int, *, cache: bool = True) -> Trace:
    """Return the trace for ``(spec, seed)``, building it on a cache miss."""
    key = hashlib.sha256(f"{spec!r}|{seed}".encode()).hexdigest()[:16]
    pcap_path = CACHE_DIR / f"{spec.name}-{seed}-{key}.pcap"
    prefix_path = pcap_path.with_suffix(".prefix.pcap")
    meta_path = pcap_path.with_suffix(".json")
    if cache and pcap_path.exists() and prefix_path.exists() and meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        return Trace(pcap_path, prefix_path, meta["facts"], meta["manifest"])
    started = perf_counter()
    rng = random.Random(seed)
    base = [
        (packet.timestamp, packet.ip.serialize())
        for packet in generate_trace(spec.profile, seed=seed)
    ]
    benign = _tile(base, spec.packets, rng) if spec.packets else base
    start = benign[0][0]
    attacks, manifest = _attacks(spec.attack_flows, rng, start, benign[-1][0] - start)
    records = benign + attacks
    records.sort(key=lambda record: record[0])
    CACHE_DIR.mkdir(exist_ok=True)
    for path, part in ((pcap_path, records), (prefix_path, records[:PREFIX])):
        with PcapWriter(path) as writer:
            for ts, data in part:
                writer.write_record(ts, data)
    facts = _facts(records)
    facts["sha256"] = hashlib.sha256(pcap_path.read_bytes()).hexdigest()
    facts["seed"] = seed
    facts["gen_s"] = perf_counter() - started
    meta_path.write_text(
        json.dumps({"facts": facts, "manifest": manifest}, indent=1), encoding="utf-8"
    )
    return Trace(pcap_path, prefix_path, facts, manifest)
