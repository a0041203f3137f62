"""Shared fixtures-as-functions for core/evasion/integration tests."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import Alert, FastPath, FastPathResult, SplitDetectIPS
from repro.packet import FlowKey, PacketBatch, TimedPacket
from repro.pcap.columnar import encode_batches
from repro.runtime import EngineSpec
from repro.signatures import RuleSet, Signature

ATTACK_SIGNATURE = b"EVIL/shellcode\x90\x90\x90:run/bin/sh"  # 28 bytes
SIGNATURE_OFFSET = 100

CLIENT = "10.9.9.9"
SERVER = "10.0.0.2"
CLIENT_PORT = 44000
SERVER_PORT = 80

ATTACK_FLOW = FlowKey(CLIENT, SERVER, CLIENT_PORT, SERVER_PORT)


def attack_ruleset(extra: list[Signature] | None = None) -> RuleSet:
    """A small ruleset containing the canonical attack signature."""
    rules = RuleSet()
    rules.add(Signature(sid=5001, pattern=ATTACK_SIGNATURE, msg="test attack", dst_port=80))
    rules.add(Signature(sid=5002, pattern=b"OTHER-SIGNATURE-NOT-PRESENT-xx", msg="decoy"))
    for signature in extra or []:
        rules.add(signature)
    return rules


def attack_payload(total: int = 2000, offset: int = SIGNATURE_OFFSET) -> bytes:
    """Benign-looking filler with the attack signature embedded at ``offset``."""
    filler = (b"GET /index.html HTTP/1.1\r\nHost: example.com\r\nUser-Agent: x\r\n" * 40)[:total]
    body = bytearray(filler)
    body[offset : offset + len(ATTACK_SIGNATURE)] = ATTACK_SIGNATURE
    return bytes(body)


def signature_span() -> tuple[int, int]:
    return (SIGNATURE_OFFSET, len(ATTACK_SIGNATURE))


def as_batch(packets: list[TimedPacket]) -> PacketBatch:
    """One encoded batch holding every packet (what a shard is fed)."""
    (batch,) = encode_batches(packets, len(packets))
    assert not batch.quarantined
    return batch


def fast_process(fast: FastPath, packet: TimedPacket) -> FastPathResult:
    """One unfragmented, decodable TCP/UDP packet through
    ``FastPath.process_columns``, fed as the engine's row loop feeds a
    row the batch sweep did not cover: the row's columns and the
    automaton's ``find_all`` hits.  A clean packet's ``None`` reads as
    an empty result."""
    batch = as_batch([packet])
    assert batch.tok[0] and not batch.fragflags[0] & 0x3FFF
    start, plen = batch.pay_off[0], batch.pay_len[0]
    payload = batch.view[start : start + plen]
    hits = None
    if plen and fast.automaton is not None:
        hits = fast.automaton.find_all(bytes(payload))
    key = (batch.src[0], batch.dst[0], batch.sport[0], batch.dport[0], batch.proto[0])
    result = fast.process_columns(
        key,
        hits,
        batch.proto[0],
        plen,
        batch.tcpflags[0],
        batch.ttl[0],
        batch.seq[0],
        batch.ts[0],
        payload if hits else None,
    )
    return result or FastPathResult()


def per_packet_oracle(ips: SplitDetectIPS, packets) -> list[Alert]:
    """The reference every batch route is compared against: the engine's
    ``process()`` loop, each packet a batch of one (no batch sweep: each
    payload is scanned with ``find_all``)."""
    return [alert for packet in packets for alert in ips.process(packet)]


def counter_state(tel) -> dict:
    """Every decision counter in a telemetry registry, as comparable
    plain data.

    ``repro_ingest_*`` counters describe the carrier (rows per batch,
    rows materialized), not what was decided about the traffic; a
    per-packet loop has no carrier, so they are left out."""
    out = {}
    for metric in tel.metrics():
        if metric.kind == "counter" and not metric.name.startswith("repro_ingest_"):
            out[metric.name] = [
                (labels, value) for labels, value in metric.samples()
            ]
    return out


# Worker-process specs live here, at module level of an importable
# module, so a ``spawn`` worker can unpickle them.


@dataclass(frozen=True)
class SlowBuildSpec(EngineSpec):
    """An engine that takes ``build_seconds`` to construct, like the
    bundled corpus does -- on every generation, replacements included."""

    build_seconds: float = 0.6

    def build(self, telemetry=None, tracer=None) -> SplitDetectIPS:
        time.sleep(self.build_seconds)
        return super().build(telemetry=telemetry, tracer=tracer)


def _explode(batch: PacketBatch) -> list[Alert]:
    raise RuntimeError("engine exploded")


@dataclass(frozen=True)
class ExplodingSpec(EngineSpec):
    """An engine that builds fine and raises on its first batch."""

    def build(self, telemetry=None, tracer=None) -> SplitDetectIPS:
        engine = super().build(telemetry=telemetry, tracer=tracer)
        engine.process_column_batch = _explode
        return engine
