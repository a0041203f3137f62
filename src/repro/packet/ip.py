"""IPv4 header model with byte-exact parse/serialize and fragmentation flags.

Only the features an IPS cares about are modelled: the fixed 20-byte header,
options as an opaque blob, DF/MF flags, the fragment offset in 8-byte units,
and the header checksum.  Addresses are held as dotted-quad strings in the
public API and converted at the wire boundary.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from .checksum import internet_checksum
from .errors import ChecksumError, MalformedPacketError, TruncatedPacketError

IP_PROTO_ICMP = 1
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17

IP_FLAG_DF = 0x2
IP_FLAG_MF = 0x1

_IPV4_FMT = struct.Struct("!BBHHHBBH4s4s")


def ip_to_bytes(addr: str) -> bytes:
    """Convert a dotted-quad string to 4 network-order bytes.

    >>> ip_to_bytes("10.0.0.1")
    b'\\n\\x00\\x00\\x01'
    """
    parts = addr.split(".")
    if len(parts) != 4:
        raise MalformedPacketError(f"not a dotted quad: {addr!r}")
    try:
        octets = bytes(int(p) for p in parts)
    except ValueError as exc:
        raise MalformedPacketError(f"not a dotted quad: {addr!r}") from exc
    return octets


def bytes_to_ip(raw: bytes) -> str:
    """Convert 4 network-order bytes to a dotted-quad string."""
    if len(raw) != 4:
        raise MalformedPacketError(f"IPv4 address must be 4 bytes, got {len(raw)}")
    return ".".join(str(b) for b in raw)


@dataclass
class IPv4Packet:
    """A parsed (or to-be-serialized) IPv4 packet.

    ``payload`` carries the bytes after the IP header -- for TCP traffic,
    the entire TCP segment.  ``fragment_offset`` is in bytes (a multiple
    of 8), not in 8-byte units as on the wire.
    """

    src: str
    dst: str
    protocol: int = IP_PROTO_TCP
    payload: bytes = b""
    ttl: int = 64
    identification: int = 0
    dont_fragment: bool = False
    more_fragments: bool = False
    fragment_offset: int = 0
    tos: int = 0
    options: bytes = b""

    def __post_init__(self) -> None:
        if self.fragment_offset % 8:
            raise MalformedPacketError(
                f"fragment offset {self.fragment_offset} is not a multiple of 8"
            )
        if self.fragment_offset > 0xFFF8:
            raise MalformedPacketError("fragment offset exceeds 16-bit field")
        if len(self.options) % 4:
            raise MalformedPacketError("IP options must pad to a 4-byte multiple")
        if len(self.options) > 40:
            raise MalformedPacketError("IP options exceed 40 bytes")
        if not 0 <= self.ttl <= 255:
            raise MalformedPacketError(f"TTL {self.ttl} out of range")
        if not 0 <= self.identification <= 0xFFFF:
            raise MalformedPacketError("identification out of range")

    @property
    def header_length(self) -> int:
        """Header length in bytes (20 plus options)."""
        return 20 + len(self.options)

    @property
    def total_length(self) -> int:
        """Wire total length: header plus payload."""
        return self.header_length + len(self.payload)

    @property
    def is_fragment(self) -> bool:
        """True when this packet is one piece of a fragmented datagram."""
        return self.more_fragments or self.fragment_offset > 0

    @property
    def fragment_key(self) -> tuple[str, str, int, int]:
        """The (src, dst, protocol, id) tuple that groups fragments."""
        return (self.src, self.dst, self.protocol, self.identification)

    @property
    def fragment_header(self) -> tuple[str, str, int, int, int, bool]:
        """``fragment_key`` plus the byte offset and MF: what reassembly reads."""
        return (*self.fragment_key, self.fragment_offset, self.more_fragments)

    def serialize(self) -> bytes:
        """Render the packet to wire bytes with a correct header checksum."""
        if self.total_length > 0xFFFF:
            raise MalformedPacketError(f"total length {self.total_length} exceeds 65535")
        ihl = self.header_length // 4
        # Flags/fragment field: 3 flag bits then 13 offset bits (8-byte units).
        flags = (IP_FLAG_DF if self.dont_fragment else 0) | (
            IP_FLAG_MF if self.more_fragments else 0
        )
        flags_frag = (flags << 13) | (self.fragment_offset // 8)
        header = _IPV4_FMT.pack(
            (4 << 4) | ihl,
            self.tos,
            self.total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.protocol,
            0,
            ip_to_bytes(self.src),
            ip_to_bytes(self.dst),
        ) + self.options
        checksum = internet_checksum(header)
        header = header[:10] + checksum.to_bytes(2, "big") + header[12:]
        return header + self.payload

    @classmethod
    def parse(cls, raw: bytes, *, strict: bool = False) -> "IPv4Packet":
        """Parse wire bytes into an ``IPv4Packet``.

        With ``strict=True`` the header checksum must verify and the total
        length must match the buffer exactly; otherwise the parser accepts
        trailing bytes (as capture files often contain padding) and skips
        checksum verification.
        """
        if len(raw) < 20:
            raise TruncatedPacketError("IPv4 header", 20, len(raw))
        (
            ver_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            checksum,
            src_raw,
            dst_raw,
        ) = _IPV4_FMT.unpack_from(raw)
        version = ver_ihl >> 4
        if version != 4:
            raise MalformedPacketError(f"IP version {version}, expected 4")
        ihl = (ver_ihl & 0xF) * 4
        if ihl < 20:
            raise MalformedPacketError(f"IHL {ihl} below minimum header size")
        if len(raw) < ihl:
            raise TruncatedPacketError("IPv4 options", ihl, len(raw))
        if total_length < ihl:
            raise MalformedPacketError(
                f"total length {total_length} shorter than header {ihl}"
            )
        if len(raw) < total_length:
            raise TruncatedPacketError("IPv4 payload", total_length, len(raw))
        if strict:
            computed = internet_checksum(raw[:ihl])
            if computed != 0:
                raise ChecksumError("IPv4", checksum, internet_checksum(raw[:10] + b"\x00\x00" + raw[12:ihl]))
        flags = flags_frag >> 13
        return cls(
            src=bytes_to_ip(src_raw),
            dst=bytes_to_ip(dst_raw),
            protocol=protocol,
            payload=bytes(raw[ihl:total_length]),
            ttl=ttl,
            identification=identification,
            dont_fragment=bool(flags & IP_FLAG_DF),
            more_fragments=bool(flags & IP_FLAG_MF),
            fragment_offset=(flags_frag & 0x1FFF) * 8,
            tos=tos,
            options=bytes(raw[20:ihl]),
        )

    def copy(self, **changes) -> "IPv4Packet":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def fragment(packet: IPv4Packet, mtu: int) -> list[IPv4Packet]:
    """Split ``packet`` into IP fragments that fit within ``mtu`` bytes.

    Follows RFC 791: every non-final fragment carries a payload that is a
    multiple of 8 bytes, offsets accumulate, MF is set on all but the last
    fragment (which inherits the original MF bit, so a fragment can itself
    be re-fragmented).  Raises when DF is set or the MTU cannot fit even
    eight payload bytes.
    """
    if packet.dont_fragment:
        raise MalformedPacketError("cannot fragment: DF bit set")
    header_len = packet.header_length
    chunk = (mtu - header_len) // 8 * 8
    if chunk <= 0:
        raise MalformedPacketError(f"MTU {mtu} cannot carry any payload")
    if packet.total_length <= mtu:
        return [packet.copy()]
    fragments: list[IPv4Packet] = []
    payload = packet.payload
    offset = 0
    while offset < len(payload):
        piece = payload[offset : offset + chunk]
        last = offset + chunk >= len(payload)
        fragments.append(
            packet.copy(
                payload=piece,
                fragment_offset=packet.fragment_offset + offset,
                more_fragments=packet.more_fragments if last else True,
            )
        )
        offset += chunk
    return fragments
