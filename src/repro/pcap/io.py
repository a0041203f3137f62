"""Reading and writing pcap savefiles at the raw-record and IPv4-packet level.

``PcapWriter``/``PcapReader`` move (timestamp, bytes) records; the
``write_trace``/``read_trace`` helpers convert to and from the library's
``TimedPacket`` view, handling both raw-IP and Ethernet link types.
``PcapReader`` frames ``_WINDOW_BYTES`` windows with the columnar
reader's walk (:func:`~repro.pcap.format.walk_records`).
"""

from __future__ import annotations

import io
import os
from collections.abc import Iterable, Iterator
from itertools import chain
from operator import add
from typing import BinaryIO

from ..packet import ETHERTYPE_IPV4, EthernetFrame, IPv4Packet, TimedPacket
from .format import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PcapFormatError,
    PcapHeader,
    encode_global_header,
    encode_record_header,
    read_global_header,
    walk_records,
)

#: File bytes per record window: a hundred small records, enough to keep
#: the per-window costs small, few enough to keep the window small.
_WINDOW_BYTES = 1 << 14


class PcapWriter:
    """Streams (timestamp, packet bytes) records into a savefile.

    Usable as a context manager; the global header is written on
    construction so even an empty capture is a valid file.
    """

    def __init__(
        self,
        stream: BinaryIO | str | os.PathLike,
        *,
        linktype: int = LINKTYPE_RAW_IP,
        snaplen: int = 65535,
    ) -> None:
        if isinstance(stream, (str, os.PathLike)):
            self._stream: BinaryIO = open(stream, "wb")
            self._owns_stream = True
        else:
            self._stream = stream
            self._owns_stream = False
        self.linktype = linktype
        self.snaplen = snaplen
        self.records_written = 0
        self._stream.write(encode_global_header(linktype, snaplen))

    def write_record(self, timestamp: float, data: bytes) -> None:
        """Append one record, truncating to the snaplen if necessary."""
        captured = data[: self.snaplen]
        self._stream.write(encode_record_header(timestamp, len(captured), len(data)))
        self._stream.write(captured)
        self.records_written += 1

    def write_packet(self, packet: TimedPacket) -> None:
        """Append an IPv4 packet, framing it to match the file's linktype."""
        raw = packet.ip.serialize()
        if self.linktype == LINKTYPE_ETHERNET:
            raw = EthernetFrame(ethertype=ETHERTYPE_IPV4, payload=raw).serialize()
        self.write_record(packet.timestamp, raw)

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PcapReader:
    """Iterates (timestamp, captured bytes) records out of a savefile."""

    def __init__(self, stream: BinaryIO | str | os.PathLike) -> None:
        if isinstance(stream, (str, os.PathLike)):
            self._stream: BinaryIO = open(stream, "rb")
            self._owns_stream = True
        else:
            self._stream = stream
            self._owns_stream = False
        self.header: PcapHeader = read_global_header(self._stream)

    @property
    def linktype(self) -> int:
        return self.header.linktype

    def __iter__(self) -> Iterator[tuple[float, bytes]]:
        # Python runs once per window; the records come out in C.
        return chain.from_iterable(self._windows())

    def _windows(self) -> Iterator[Iterator[tuple[float, bytes]]]:
        """Each window's records, as an iterator that slices each record
        out as it is taken; damage raises after the records before it."""
        carry = b""
        while True:
            chunk = self._stream.read(_WINDOW_BYTES)
            data = carry + chunk if carry else chunk
            ts_list, off_list, cap_list, end, error = walk_records(data, self.header, not chunk)
            ends = map(add, off_list, cap_list)
            yield zip(ts_list, map(data.__getitem__, map(slice, off_list, ends)))
            if error is not None:
                raise error
            if not chunk:
                return
            carry = data[end:]

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_trace(
    path: str | os.PathLike,
    packets: Iterable[TimedPacket],
    *,
    linktype: int = LINKTYPE_RAW_IP,
) -> int:
    """Write a sequence of timed IPv4 packets to ``path``; returns the count."""
    with PcapWriter(path, linktype=linktype) as writer:
        for packet in packets:
            writer.write_packet(packet)
        return writer.records_written


def read_trace(path: str | os.PathLike) -> Iterator[TimedPacket]:
    """Yield timed IPv4 packets from a savefile, unwrapping Ethernet frames.

    Records that do not contain IPv4 (e.g. ARP) are skipped silently, as
    tools like tcpdump do when filtering on ``ip``.
    """
    with PcapReader(path) as reader:
        ethernet = reader.linktype == LINKTYPE_ETHERNET
        if not ethernet and reader.linktype != LINKTYPE_RAW_IP:
            raise PcapFormatError(f"unsupported linktype {reader.linktype}")
        for timestamp, data in reader:
            if ethernet:
                frame = EthernetFrame.parse(data)
                if frame.ethertype != ETHERTYPE_IPV4:
                    continue
                data = frame.payload
            yield TimedPacket(timestamp, IPv4Packet.parse(data))


def ip_records(records: Iterable[tuple[float, bytes]]) -> Iterator[tuple[float, bytes]]:
    """Ethernet records as :func:`read_records` yields them: the IPv4
    payload; a record too short for the link header whole; other
    ethertypes not at all."""
    for timestamp, data in records:
        if len(data) < 14:
            yield timestamp, data
        elif data[12:14] == b"\x08\x00":  # ETHERTYPE_IPV4
            yield timestamp, data[14:]


def read_records(path: str | os.PathLike) -> Iterator[tuple[float, bytes]]:
    """Yield undecoded ``(timestamp, IP bytes)`` records from a savefile.

    The quarantine-aware feed for the runners: Ethernet framing is
    unwrapped and non-IPv4 ethertypes skipped, but the IP layer is *not*
    parsed here -- a corrupt record reaches the caller as raw bytes, so
    the runtime's decode quarantine can count it per cause instead of
    this reader raising mid-trace (:func:`read_trace`'s behaviour).  A
    record too short to carry an Ethernet header passes through whole,
    for the same reason.
    """
    return chain.from_iterable(_ip_windows(path))


def _ip_windows(path: str | os.PathLike) -> Iterator[Iterator[tuple[float, bytes]]]:
    with PcapReader(path) as reader:
        if reader.linktype == LINKTYPE_ETHERNET:
            yield ip_records(reader)
        elif reader.linktype == LINKTYPE_RAW_IP:
            yield from reader._windows()
        else:
            raise PcapFormatError(f"unsupported linktype {reader.linktype}")


def trace_to_bytes(packets: Iterable[TimedPacket]) -> bytes:
    """Render a trace to an in-memory pcap image (handy for tests)."""
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    for packet in packets:
        writer.write_packet(packet)
    return buffer.getvalue()
