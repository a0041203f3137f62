"""Flow keys and convenience constructors tying the IP and TCP layers together.

The IPS pipeline identifies a flow by its five-tuple.  ``FlowKey`` is
hashable and direction-sensitive; ``FlowKey.canonical()`` gives the
direction-insensitive form used when both directions share state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .ip import IP_PROTO_TCP, IP_PROTO_UDP, IPv4Packet
from .tcp import TcpSegment
from .udp import decode_udp


class FlowKey(NamedTuple):
    """A directional five-tuple identifying one side of a conversation.

    A tuple, so hashing and equality run in C: every state lookup on the
    hot path hashes one.  It hashes like the plain tuple of its fields
    and compares equal to it, so a key container must not mix the two
    (none does), and an export writes ``str(flow)``, never the key.
    """

    src: str
    dst: str
    src_port: int
    dst_port: int
    protocol: int = IP_PROTO_TCP

    def reversed(self) -> "FlowKey":
        """The same conversation viewed from the other endpoint."""
        return FlowKey(self.dst, self.src, self.dst_port, self.src_port, self.protocol)

    def canonical(self) -> "FlowKey":
        """A direction-insensitive key: the lexicographically smaller endpoint first."""
        if (self.src, self.src_port) <= (self.dst, self.dst_port):
            return self
        return self.reversed()

    def __str__(self) -> str:
        return f"{self.src}:{self.src_port} -> {self.dst}:{self.dst_port}/{self.protocol}"


@dataclass(frozen=True, slots=True)
class TimedPacket:
    """An IPv4 packet stamped with its capture time in seconds."""

    timestamp: float
    ip: IPv4Packet


def flow_key_of(packet: IPv4Packet) -> FlowKey:
    """Extract the directional five-tuple of a TCP/UDP packet.

    For a fragmented packet only the first fragment carries the transport
    header; callers must defragment first (``ValueError`` otherwise).
    Ports are zero for protocols without them.
    """
    if packet.is_fragment and packet.fragment_offset > 0:
        raise ValueError("non-first fragment carries no transport header")
    src_port = dst_port = 0
    if packet.protocol in (IP_PROTO_TCP, IP_PROTO_UDP) and len(packet.payload) >= 4:
        src_port = int.from_bytes(packet.payload[0:2], "big")
        dst_port = int.from_bytes(packet.payload[2:4], "big")
    return FlowKey(packet.src, packet.dst, src_port, dst_port, packet.protocol)


def build_tcp_packet(
    src: str,
    dst: str,
    segment: TcpSegment,
    *,
    ttl: int = 64,
    identification: int = 0,
    dont_fragment: bool = True,
) -> IPv4Packet:
    """Wrap a ``TcpSegment`` in an IPv4 packet with a valid TCP checksum."""
    return IPv4Packet(
        src=src,
        dst=dst,
        protocol=IP_PROTO_TCP,
        payload=segment.serialize(src, dst),
        ttl=ttl,
        identification=identification,
        dont_fragment=dont_fragment,
    )


def decode_tcp(packet: IPv4Packet, *, strict: bool = False) -> TcpSegment:
    """Parse the TCP segment out of a non-fragmented IPv4 packet."""
    if packet.protocol != IP_PROTO_TCP:
        raise ValueError(f"not a TCP packet (protocol {packet.protocol})")
    if packet.is_fragment:
        raise ValueError("cannot decode TCP from an IP fragment; defragment first")
    return TcpSegment.parse(
        packet.payload, src_ip=packet.src, dst_ip=packet.dst, strict=strict
    )


def transport_fields(packet: IPv4Packet) -> tuple[int, int, bytes | None]:
    """``(seq, flags, payload)`` of an unfragmented packet's transport
    layer; the payload is None when the header does not decode (or the
    protocol is neither TCP nor UDP)."""
    try:
        if packet.protocol == IP_PROTO_TCP:
            segment = decode_tcp(packet)
            return segment.seq, segment.flags, segment.payload
        if packet.protocol == IP_PROTO_UDP:
            return 0, 0, decode_udp(packet).payload
    except Exception:
        pass
    return 0, 0, None


def packet_fields(packet: TimedPacket) -> tuple:
    """One packet object as ``SlowPath.process`` takes it: ``(canonical,
    (flow, ts, ttl, seq, flags, payload), None)``, or for a fragment
    ``(None, (None, ts, ttl, 0, 0, ip_payload), fragment_header)``."""
    ip = packet.ip
    if ip.is_fragment:
        return None, (None, packet.timestamp, ip.ttl, 0, 0, ip.payload), ip.fragment_header
    flow = flow_key_of(ip)
    return flow.canonical(), (flow, packet.timestamp, ip.ttl, *transport_fields(ip)), None
