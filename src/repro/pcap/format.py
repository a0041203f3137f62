"""Classic libpcap savefile format: global header and per-record headers.

Implements the original ``.pcap`` container (not pcapng): a 24-byte global
header followed by records, each with a 16-byte header carrying seconds,
microseconds, captured length, and original length.  Both byte orders are
read; files are written native little-endian with magic 0xa1b2c3d4.
:func:`walk_records` is the one record framing: every reader -- the
record reader, the columnar savefile reader and the service's tail
source -- finds its records with it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import BinaryIO

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
PCAP_MAGIC_NS = 0xA1B23C4D
PCAP_MAGIC_NS_SWAPPED = 0x4D3CB2A1
PCAP_VERSION_MAJOR = 2
PCAP_VERSION_MINOR = 4

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

_GLOBAL_FMT = "IHHiIII"
_RECORD_FMT = "IIII"
GLOBAL_HEADER_SIZE = struct.calcsize("<" + _GLOBAL_FMT)
RECORD_HEADER_SIZE = struct.calcsize("<" + _RECORD_FMT)
#: What a read needs of a record header: seconds, fraction, captured length.
_RECORD = {order: struct.Struct(order + "III4x") for order in "<>"}

#: libpcap's ``MAXIMUM_SNAPLEN`` bounds every record (of Ethernet and raw IP,
#: as libpcap does), whatever snaplen the global header claims.  A larger
#: claim is a corrupt record header, rejected where it is read, not at EOF.
MAXIMUM_SNAPLEN = 262144


class PcapFormatError(Exception):
    """Raised when a savefile violates the pcap container format."""


@dataclass(frozen=True)
class PcapHeader:
    """Decoded global header of a savefile."""

    linktype: int
    snaplen: int
    byte_order: str  # "<" or ">"
    version: tuple[int, int] = (PCAP_VERSION_MAJOR, PCAP_VERSION_MINOR)
    nanosecond: bool = False
    """True when the magic declares nanosecond-resolution timestamps."""


def encode_global_header(linktype: int, snaplen: int = 65535) -> bytes:
    """Build the 24-byte global header (native little-endian)."""
    return struct.pack(
        "<" + _GLOBAL_FMT,
        PCAP_MAGIC,
        PCAP_VERSION_MAJOR,
        PCAP_VERSION_MINOR,
        0,  # thiszone: GMT
        0,  # sigfigs: always 0 in practice
        snaplen,
        linktype,
    )


def decode_global_header(raw: bytes) -> PcapHeader:
    """Decode and validate the 24-byte global header, detecting byte order."""
    if len(raw) < GLOBAL_HEADER_SIZE:
        raise PcapFormatError(
            f"truncated global header: {len(raw)} < {GLOBAL_HEADER_SIZE} bytes"
        )
    magic = struct.unpack_from("<I", raw)[0]
    nanosecond = False
    if magic == PCAP_MAGIC:
        order = "<"
    elif magic == PCAP_MAGIC_SWAPPED:
        order = ">"
    elif magic == PCAP_MAGIC_NS:
        order = "<"
        nanosecond = True
    elif magic == PCAP_MAGIC_NS_SWAPPED:
        order = ">"
        nanosecond = True
    else:
        raise PcapFormatError(f"bad magic 0x{magic:08x}; not a pcap file")
    (
        _magic,
        major,
        minor,
        _thiszone,
        _sigfigs,
        snaplen,
        linktype,
    ) = struct.unpack_from(order + _GLOBAL_FMT, raw)
    if major != PCAP_VERSION_MAJOR:
        raise PcapFormatError(f"unsupported pcap version {major}.{minor}")
    return PcapHeader(
        linktype=linktype,
        snaplen=snaplen,
        byte_order=order,
        version=(major, minor),
        nanosecond=nanosecond,
    )


def read_global_header(stream: BinaryIO) -> PcapHeader:
    """Decode a stream's global header, reading on past short reads until it is whole or EOF."""
    raw = b""
    while len(raw) < GLOBAL_HEADER_SIZE and (more := stream.read(GLOBAL_HEADER_SIZE - len(raw))):
        raw += more
    return decode_global_header(raw)


def encode_record_header(timestamp: float, captured: int, original: int) -> bytes:
    """Build a 16-byte record header from a float timestamp and lengths."""
    sec = int(timestamp)
    usec = int(round((timestamp - sec) * 1_000_000))
    if usec >= 1_000_000:  # rounding can spill into the next second
        sec += 1
        usec -= 1_000_000
    return struct.pack("<" + _RECORD_FMT, sec, usec, captured, original)


def walk_records(
    data: bytes, header: PcapHeader, at_eof: bool
) -> tuple[list[float], list[int], list[int], int, PcapFormatError | None]:
    """Timestamps, body offsets and lengths of the records wholly in *data*.

    *data* starts on a record header.  Also returned: where the last of
    them ends, and the error for the damage the walk stopped on, if any
    -- returned, not raised, so the records before it come first.  A
    record that *data* cuts short is damage only *at_eof*; one longer
    than ``MAXIMUM_SNAPLEN`` is damage wherever it is.
    """
    unpack = _RECORD[header.byte_order].unpack_from
    scale = 1_000_000_000 if header.nanosecond else 1_000_000
    largest = MAXIMUM_SNAPLEN
    fields: list[tuple[int, int, int]] = []
    keep = fields.append
    pos = 0
    end = len(data)
    # One unpack and one append per record; the record the walk stopped
    # on is told apart once, below.
    while pos + RECORD_HEADER_SIZE <= end:
        record = unpack(data, pos)
        following = pos + RECORD_HEADER_SIZE + record[2]
        if following > end or record[1] >= scale or record[2] > largest:
            break
        keep(record)
        pos = following
    damage = None
    body = pos + RECORD_HEADER_SIZE
    if body > end:
        if at_eof and pos < end:
            damage = f"truncated record header: {end - pos} < {RECORD_HEADER_SIZE} bytes"
    else:
        _sec, frac, captured = unpack(data, pos)
        if frac >= scale:
            damage = f"record sub-second field {frac} out of range"
        elif captured > largest:
            damage = f"invalid record capture length {captured}, bigger than maximum of {largest}"
        elif at_eof:
            damage = f"truncated record body: need {captured} bytes, got {end - body}"
    cap_list = [record[2] for record in fields]
    starts = accumulate([RECORD_HEADER_SIZE + cap for cap in cap_list], initial=RECORD_HEADER_SIZE)
    ts_list = [sec + frac / scale for sec, frac, _captured in fields]
    error = PcapFormatError(damage) if damage else None
    return ts_list, list(starts)[:-1], cap_list, pos, error
