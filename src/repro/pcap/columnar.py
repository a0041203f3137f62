"""Columnar decode: whole batches of packets without packet objects.

The one place frames become :class:`~repro.packet.batch.PacketBatch`
columns -- parallel arrays of fast-path-relevant fields over one shared
buffer.  :func:`read_column_batches` streams a savefile once;
:func:`encode_batches` is the door every other source goes through.
Both hand offsets into a buffer to the same row decode, so a frame is
classified one way whichever route carried it.  The engine consumes the
columns directly and materializes a full object only for a row whose
transport header does not decode.

Parity contract (tested, and the reason this module is careful rather
than clever):

* Record framing, both byte orders, and the nanosecond magics follow
  :class:`~repro.pcap.io.PcapReader` exactly, including the timestamp
  arithmetic (``sec + frac / scale``) and every ``PcapFormatError``.
* ``on_invalid="quarantine"`` treats a savefile as
  :func:`~repro.pcap.io.read_records` does: Ethernet-short records are
  taken as raw IP, non-IPv4 ethertypes are skipped silently, and
  malformed IP rows become real exception instances on
  ``batch.quarantined``.
* ``on_invalid="raise"`` mirrors :func:`~repro.pcap.io.read_trace`: the
  first malformed record raises the authoritative parse error.
* Invalid rows are produced by delegating to the *object* parsers
  (``EthernetFrame.parse`` / ``IPv4Packet.parse``), so exception types
  and messages can never drift from them.
* Rows whose transport header would not decode get ``tok == 0`` and are
  materialized by the engine, so the per-packet path produces the
  authoritative decode-error accounting.

Decode is vectorized (numpy, a dependency): field extraction and the
validity checks run over a whole window of records at once.  A record
the checks reject -- an Ethernet record shorter than its link header,
or one failing the IPv4 header checks, which are exactly
``IPv4Packet.parse``'s own -- is only classified, through the object
parsers; there is no second field extractor.

A savefile batch carries exactly ``batch_size`` valid rows (skipped and
quarantined records consume no slots); an encoded batch covers
``batch_size`` consecutive source items, so a rejected frame leaves it
one row short.

Memory model: the reader streams.  It reads the savefile in windows of
``_WINDOW_BYTES`` and a batch references only its own window's
``bytes`` -- zero-copy payload views over a buffer that is freed once
its batches are consumed.  Resident set = one window + live flow state
+ the intern caches, whatever the capture's size; one reader serves
every size and source (path, open file, pipe, ``bytes``), and where the
window edges fall is not observable (:meth:`ColumnarPcapReader.__iter__`).
``PacketBatch.compact`` copies slices out before they are pickled to
workers.
"""

from __future__ import annotations

import io
import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, BinaryIO

import numpy as np

from ..packet import EthernetFrame, IPv4Packet, PacketError, TimedPacket
from ..packet.batch import PacketBatch
from .format import (
    GLOBAL_HEADER_SIZE,
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    RECORD_HEADER_SIZE,
    PcapFormatError,
    decode_global_header,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..runtime.control import ControlMessage
    from ..runtime.quarantine import PacketSource

__all__ = [
    "DECODE_ERRORS",
    "ColumnarPcapReader",
    "encode_batches",
    "read_column_batches",
]

#: Exception types the decode boundary converts into quarantine entries.
#: Anything else is a genuine bug and must escape loudly.
DECODE_ERRORS: tuple[type[BaseException], ...] = (
    PacketError,
    ValueError,
    struct.error,
)

IP_PROTO_TCP = 6
IP_PROTO_UDP = 17

ETHERTYPE_IPV4 = 0x0800
_ETH_HLEN = 14


#: File bytes read per decode window.  Large enough that the per-window
#: fixed costs (a few dozen numpy calls, one re-decode of the carried
#: short batch) stay under 1 % of a pass; small enough that the window,
#: not the capture, bounds what the reader keeps resident.
_WINDOW_BYTES = 1 << 20


class ColumnarPcapReader:
    """Streams :class:`PacketBatch` columns out of a pcap savefile, once."""

    def __init__(
        self,
        source: str | os.PathLike[str] | bytes | BinaryIO,
        *,
        batch_size: int = 256,
        on_invalid: str = "quarantine",
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if on_invalid not in ("quarantine", "raise"):
            raise ValueError(f"on_invalid must be 'quarantine' or 'raise', got {on_invalid!r}")
        self.batch_size = batch_size
        self.on_invalid = on_invalid
        if isinstance(source, (str, os.PathLike)):
            self._stream: BinaryIO = open(source, "rb")
            self._owns_stream = True
        else:
            self._stream = io.BytesIO(source) if isinstance(source, bytes) else source
            self._owns_stream = False
        try:
            self.header = decode_global_header(self._stream.read(GLOBAL_HEADER_SIZE))
            if self.header.linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
                raise PcapFormatError(f"unsupported linktype {self.header.linktype}")
        except PcapFormatError:
            self.close()
            raise

    def close(self) -> None:
        """Release the file a path source opened (iteration does, on ending)."""
        if self._owns_stream:
            self._stream.close()

    # -- record walk ---------------------------------------------------

    def _walk_window(
        self, data: bytes, at_eof: bool
    ) -> tuple[list[float], list[int], list[int], int, PcapFormatError | None]:
        """Offsets/lengths of the record bodies wholly inside *data*.

        Also where the last of them ends and, when the walk stopped on
        damage rather than on the window edge, PcapReader's error for
        it -- returned, not raised: the records before it come first.
        A record the window cuts short is damage only at end of file.
        """
        record = struct.Struct(self.header.byte_order + "IIII")
        scale = 1_000_000_000 if self.header.nanosecond else 1_000_000
        ts_list: list[float] = []
        off_list: list[int] = []
        cap_list: list[int] = []
        error = None
        pos = 0
        end = len(data)
        while pos < end:
            body = pos + RECORD_HEADER_SIZE
            if body > end:
                if at_eof:
                    error = PcapFormatError(
                        f"truncated record header: {end - pos} < {RECORD_HEADER_SIZE} bytes"
                    )
                break
            sec, frac, captured, _original = record.unpack_from(data, pos)
            if frac >= scale:
                error = PcapFormatError(f"record sub-second field {frac} out of range")
                break
            if end - body < captured:
                if at_eof:
                    error = PcapFormatError(
                        f"truncated record body: need {captured} bytes, got {end - body}"
                    )
                break
            ts_list.append(sec + frac / scale)
            off_list.append(body)
            cap_list.append(captured)
            pos = body + captured
        return ts_list, off_list, cap_list, pos, error

    def __iter__(self) -> Iterator[PacketBatch]:
        """Decode window by window; batches are those of a one-window decode.

        A batch closes on its ``batch_size``-th row wherever the window
        edges fall (``ShardProcessor.feed`` keys eviction and sampling on
        batch boundaries).  What a window leaves undelivered is carried
        to the head of the next: the bytes of a record the edge split,
        and the records behind the rows of a trailing short batch, which
        are decoded again there -- skipped and quarantined records are
        not, so the carry never exceeds one batch of records.  Their
        exceptions wait in ``pending`` for the batch they belong to;
        ``batch_size`` of them are delivered on their own rather than
        let a capture of garbage accumulate in it.
        """
        ethernet = self.header.linktype == LINKTYPE_ETHERNET
        record_shift = RECORD_HEADER_SIZE + (_ETH_HLEN if ethernet else 0)
        size = self.batch_size
        carry = b""
        pending: list[BaseException] = []
        try:
            while True:
                chunk = self._stream.read(_WINDOW_BYTES)
                data = carry + chunk if carry else chunk
                ts_list, off_list, cap_list, end, error = self._walk_window(data, not chunk)
                final = not chunk or error is not None
                decoder = _RowDecoder(data, ethernet, size, self.on_invalid)
                short = None
                for batch in decoder.batches(ts_list, off_list, cap_list):
                    pending += batch.quarantined
                    while len(pending) >= size:
                        yield PacketBatch(b"", {}, pending[:size])
                        del pending[:size]
                    if len(batch) == size or (final and len(batch)):
                        batch.quarantined, pending = pending, []
                        yield batch
                    else:
                        short = batch
                if final:
                    if pending:  # rejected frames after the last row
                        yield PacketBatch(b"", {}, pending)
                    if error is not None:
                        raise error
                    return
                # A row's offset is its IP header: the record starts one
                # record (and link) header before it.
                rows = zip(short.off, short.caplen) if short is not None else ()
                carry = b"".join(
                    [data[off - record_shift : off + caplen] for off, caplen in rows]
                    + [data[end:]]
                )
        finally:
            self.close()


@dataclass
class _RowDecoder:
    """Rows at known offsets in one buffer -> :class:`PacketBatch` columns.

    The half of the reader that does not know about pcap framing: the
    savefile reader hands it record offsets, :func:`encode_batches` the
    offsets of frames it joined itself.
    """

    data: bytes
    ethernet: bool
    batch_size: int
    on_invalid: str

    def _reject(self, off: int, caplen: int) -> BaseException:
        """The object parsers' exception for a record the predicates rejected.

        Raised under ``on_invalid="raise"``, returned for quarantine.  The
        predicates are ``IPv4Packet.parse``'s own checks, so a parser that
        *accepts* the record is a decode-boundary bug and escapes as one.
        """
        record = self.data[off : off + caplen]
        try:
            if self.ethernet:
                if caplen >= _ETH_HLEN:
                    record = record[_ETH_HLEN:]
                elif self.on_invalid == "raise":
                    # read_trace parses the frame strictly and propagates.
                    EthernetFrame.parse(record)
                # else: read_records takes a short record as raw IP.
            IPv4Packet.parse(record)
        except DECODE_ERRORS as exc:
            if self.on_invalid == "raise":
                raise
            # Kept as a ledger value: the traceback would pin two frames
            # and a copy of the record (~2 KB) per quarantined frame.
            return exc.with_traceback(None)
        raise RuntimeError(
            f"IPv4Packet.parse accepted the {caplen}-byte record at offset {off} "
            "that the column predicates rejected"
        )

    def batches(
        self, ts_list: list[float], off_list: list[int], cap_list: list[int]
    ) -> Iterator[PacketBatch]:
        """Decode every record at once; classify the rejected few one by one.

        A record is a row when it passes the IPv4 validity predicates,
        skipped silently when its Ethernet type is not IPv4, and otherwise
        rejected: handed to :meth:`_reject` in capture order, before the
        batch it falls in is yielded.
        """
        # An empty buffer has no last byte for the gathers to clamp to:
        # the encoder makes one from all-empty frames, every one rejected.
        buf = np.frombuffer(self.data or b"\0", dtype=np.uint8)
        limit = len(buf) - 1
        off = np.asarray(off_list, dtype=np.int64)
        cap = np.asarray(cap_list, dtype=np.int64)

        def gather(idx):  # type: ignore[no-untyped-def]
            return buf[np.minimum(idx, limit)].astype(np.int64)

        if self.ethernet:
            ethertype = (gather(off + 12) << 8) | gather(off + 13)
            skip = (cap >= _ETH_HLEN) & (ethertype != ETHERTYPE_IPV4)
            ip_off = off + _ETH_HLEN
            ip_len = cap - _ETH_HLEN
        else:
            skip = np.zeros(len(off), dtype=bool)
            ip_off = off
            ip_len = cap

        ver_ihl = gather(ip_off)
        ihl = (ver_ihl & 0x0F) * 4
        total = (gather(ip_off + 2) << 8) | gather(ip_off + 3)
        # IPv4Packet.parse's checks; an Ethernet record shorter than its
        # link header fails the first one.
        ip_valid = (
            (ip_len >= 20)
            & ((ver_ihl >> 4) == 4)
            & (ihl >= 20)
            & (ip_len >= ihl)
            & (total >= ihl)
            & (ip_len >= total)
        )

        fragflags = (gather(ip_off + 6) << 8) | gather(ip_off + 7)
        ttl = gather(ip_off + 8)
        proto = gather(ip_off + 9)
        src = (
            (gather(ip_off + 12) << 24)
            | (gather(ip_off + 13) << 16)
            | (gather(ip_off + 14) << 8)
            | gather(ip_off + 15)
        )
        dst = (
            (gather(ip_off + 16) << 24)
            | (gather(ip_off + 17) << 16)
            | (gather(ip_off + 18) << 8)
            | gather(ip_off + 19)
        )
        p_off = ip_off + ihl
        p_len = total - ihl
        transport = (proto == IP_PROTO_TCP) | (proto == IP_PROTO_UDP)
        has_ports = transport & (p_len >= 4)
        sport = np.where(has_ports, (gather(p_off) << 8) | gather(p_off + 1), 0)
        dport = np.where(has_ports, (gather(p_off + 2) << 8) | gather(p_off + 3), 0)

        not_fragment = (fragflags & 0x3FFF) == 0
        tcp_head = transport & not_fragment & (proto == IP_PROTO_TCP) & (p_len >= 20)
        header_len = (gather(p_off + 12) >> 4) * 4
        tcp_ok = tcp_head & (header_len >= 20) & (p_len >= header_len)
        seq = np.where(
            tcp_head,
            (gather(p_off + 4) << 24)
            | (gather(p_off + 5) << 16)
            | (gather(p_off + 6) << 8)
            | gather(p_off + 7),
            0,
        )
        tcpflags = np.where(tcp_head, gather(p_off + 13), 0)
        udp_head = transport & not_fragment & (proto == IP_PROTO_UDP) & (p_len >= 8)
        length_field = (gather(p_off + 4) << 8) | gather(p_off + 5)
        udp_ok = udp_head & (length_field >= 8) & (p_len >= length_field)
        tok = tcp_ok | udp_ok
        pay_off = np.where(tcp_ok, p_off + header_len, np.where(udp_ok, p_off + 8, 0))
        pay_len = np.where(
            tcp_ok, p_len - header_len, np.where(udp_ok, length_field - 8, 0)
        )

        keep = ip_valid & ~skip
        rejected = np.flatnonzero(~ip_valid & ~skip).tolist()
        # A rejected record lands in the batch its preceding rows fill.
        home = (np.cumsum(keep)[rejected] // self.batch_size).tolist()
        rows = slice(None) if keep.all() else keep

        # Stored offsets cover the IP region, not the raw frame.
        window = PacketBatch.from_lists(
            self.data,
            {
                "ts": np.asarray(ts_list, dtype=np.float64)[rows].tolist(),
                "off": ip_off[rows].tolist(),
                "caplen": ip_len[rows].tolist(),
                "proto": proto[rows].tolist(),
                "fragflags": fragflags[rows].tolist(),
                "ttl": ttl[rows].tolist(),
                "src": src[rows].tolist(),
                "dst": dst[rows].tolist(),
                "sport": sport[rows].tolist(),
                "dport": dport[rows].tolist(),
                "seq": seq[rows].tolist(),
                "tcpflags": tcpflags[rows].tolist(),
                "pay_off": pay_off[rows].tolist(),
                "pay_len": pay_len[rows].tolist(),
                "tok": tok[rows].astype(np.uint8).tolist(),
            },
        )
        size = self.batch_size
        count = -(-len(window) // size)
        if home:
            count = max(count, home[-1] + 1)
        at = 0
        for index in range(count):
            batch = window.slice(index * size, (index + 1) * size)
            while at < len(rejected) and home[at] == index:
                record = rejected[at]
                batch.quarantined.append(self._reject(off_list[record], cap_list[record]))
                at += 1
            yield batch


def read_column_batches(
    source: str | os.PathLike[str] | bytes | BinaryIO,
    *,
    batch_size: int = 256,
    on_invalid: str = "quarantine",
) -> Iterator[PacketBatch]:
    """Yield columnar packet batches from a savefile (see module docs)."""
    return iter(ColumnarPcapReader(source, batch_size=batch_size, on_invalid=on_invalid))


def encode_batches(
    source: "PacketSource | Iterable[PacketBatch]", batch_size: int
) -> "Iterator[PacketBatch | ControlMessage]":
    """The one door: any packet source becomes a :class:`PacketBatch` stream.

    ``(timestamp, bytes)`` records, bare frames (timestamped 0.0) and
    parsed :class:`~repro.packet.TimedPacket` objects (re-serialized:
    the wire form is the one representation the pipeline decodes) are
    joined, ``batch_size`` consecutive items at a time, into one buffer
    for the reader's row decode.  A frame the IPv4 layer rejects, or an
    object that cannot be serialized, lands on ``batch.quarantined``
    with the authoritative exception; nothing raises out of the stream.

    Items already in the pipeline's own form pass through at their
    stream position, after the open batch is flushed: a
    :class:`~repro.runtime.control.ControlMessage` (so a hot reload
    lands between the same two packets on every shard) and an encoded
    :class:`PacketBatch` (a savefile read by :func:`read_column_batches`
    needs no second decode).
    """
    # Deferred: repro.runtime imports this module.
    from ..runtime.control import ControlMessage

    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    ts_list: list[float] = []
    frames: list[bytes] = []
    unserializable: list[BaseException] = []

    def flush() -> Iterator[PacketBatch]:
        if not frames and not unserializable:
            return
        caplens = list(map(len, frames))
        offsets = list(accumulate(caplens, initial=0))[:-1]
        decoder = _RowDecoder(b"".join(frames), False, len(frames) or 1, "quarantine")
        # batch_size covers every frame, so the decode yields one batch
        # -- or none, when no frame was offered at all.
        batch = next(decoder.batches(ts_list, offsets, caplens), None)
        if batch is None:
            batch = PacketBatch(b"", {})
        batch.quarantined.extend(unserializable)
        ts_list.clear()
        frames.clear()
        unserializable.clear()
        yield batch

    for item in source:
        if isinstance(item, (ControlMessage, PacketBatch)):
            yield from flush()
            yield item
            continue
        if isinstance(item, TimedPacket):
            timestamp = item.timestamp
            try:
                frame = item.ip.serialize()
            except DECODE_ERRORS as exc:
                unserializable.append(exc)
                frame = None
        elif isinstance(item, tuple):
            timestamp, frame = item
        else:
            timestamp, frame = 0.0, item
        if frame is not None:
            ts_list.append(timestamp)
            frames.append(bytes(frame))
        if len(frames) + len(unserializable) >= batch_size:
            yield from flush()
    yield from flush()
