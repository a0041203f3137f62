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

* Records are framed by :func:`~repro.pcap.format.walk_records`, the
  walk :class:`~repro.pcap.io.PcapReader` uses: same timestamps, same
  ``PcapFormatError`` after the same records.
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
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    RECORD_HEADER_SIZE,
    PcapFormatError,
    read_global_header,
    walk_records,
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


def _layout(**fields: tuple[int, int]) -> tuple[np.dtype, np.ndarray]:
    """Fields gathered out of big-endian wire bytes into native order.

    Each ``name=(wire offset, size)`` becomes an aligned little-endian
    unsigned field; the index lists, per gathered byte, the wire byte it
    takes (a multi-byte field's bytes in reverse), so no read byte-swaps.
    """
    names: list[str] = []
    formats: list[str] = []
    offsets: list[int] = []
    index: list[int] = []
    for name, (at, size) in fields.items():
        index += [at] * (-len(index) % size)
        names.append(name)
        formats.append(f"<u{size}")
        offsets.append(len(index))
        index += range(at + size - 1, at - 1, -1)
    index += [0] * (-len(index) % 4)
    layout = np.dtype(
        {"names": names, "formats": formats, "offsets": offsets, "itemsize": len(index)}
    )
    return layout, np.array(index, dtype=np.int32)


#: The two blocks a row's fields are read from: the fixed IPv4 header
#: (behind the Ethernet header on Ethernet links) and the first 14
#: transport bytes.  UDP's length is the first half of where TCP keeps
#: its sequence number; a field is read only where the protocol has it.
_IPV4 = dict(
    ver_ihl=(0, 1), ttl=(8, 1), total=(2, 2), fragflags=(6, 2), proto=(9, 1), src=(12, 4),
    dst=(16, 4),
)  # fmt: skip
_HEADERS = {
    False: _layout(**_IPV4),
    True: _layout(
        ethertype=(12, 2), **{name: (at + _ETH_HLEN, size) for name, (at, size) in _IPV4.items()}
    ),
}
_TRANSPORT = _layout(
    sport=(0, 2), dport=(2, 2), seq=(4, 4), udp_len=(4, 2), offset=(12, 1), tcpflags=(13, 1)
)
#: The transport block's TCP fields, from ``seq`` on (zeroed on other rows).
_TCP_BYTES = slice(4, None)


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
            self.header = read_global_header(self._stream)
            if self.header.linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
                raise PcapFormatError(f"unsupported linktype {self.header.linktype}")
        except PcapFormatError:
            self.close()
            raise

    def close(self) -> None:
        """Release the file a path source opened (iteration does, on ending)."""
        if self._owns_stream:
            self._stream.close()

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
                at_eof = not chunk
                data = carry + chunk if carry else chunk
                # One window alive at a time: the read is copied behind
                # the carry, and the last window was released below.
                chunk = carry = b""
                ts_list, off_list, cap_list, end, error = walk_records(data, self.header, at_eof)
                final = at_eof or error is not None
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
                del data, decoder, short
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
        # Narrow offsets keep the rows x block-width gather index small.
        signed = np.int32 if len(buf) < 1 << 30 else np.int64
        off = np.array(off_list, dtype=signed)
        cap = np.array(cap_list, dtype=signed)

        def block(start, index):  # type: ignore[no-untyped-def]
            """Each row's bytes at *start* + *index*; past the buffer, its last."""
            return buf.take(start[:, None] + index, mode="clip")

        layout, index = _HEADERS[self.ethernet]
        head = block(off, index).view(layout)[:, 0]
        if self.ethernet:
            listed = (cap < _ETH_HLEN) | (head["ethertype"] == ETHERTYPE_IPV4)
            ip_off = off + _ETH_HLEN
            ip_len = cap - _ETH_HLEN
        else:
            listed = np.True_
            ip_off = off
            ip_len = cap

        ver_ihl = head["ver_ihl"]
        ihl = (ver_ihl & 0x0F).astype(signed) * 4
        total = head["total"].astype(signed)
        # IPv4Packet.parse's checks (len >= 20 and len >= ihl follow from
        # len >= total >= ihl >= 20); an Ethernet record shorter than its
        # link header fails the last.
        ip_valid = ((ver_ihl >> 4) == 4) & (ihl >= 20) & (total >= ihl) & (ip_len >= total)

        proto = head["proto"]
        p_off = ip_off + ihl
        p_len = total - ihl
        layout, index = _TRANSPORT
        transport = block(p_off, index)
        tail = transport.view(layout)[:, 0]
        is_tcp = proto == IP_PROTO_TCP
        is_udp = proto == IP_PROTO_UDP
        unfragmented = (head["fragflags"] & 0x3FFF) == 0
        tcp_head = unfragmented & is_tcp & (p_len >= 20)
        header_len = (tail["offset"] >> 4).astype(signed) * 4
        tcp_ok = tcp_head & (header_len >= 20) & (p_len >= header_len)
        udp_head = unfragmented & is_udp & (p_len >= 8)
        length_field = tail["udp_len"].astype(signed)
        udp_ok = udp_head & (length_field >= 8) & (p_len >= length_field)
        tok = tcp_ok | udp_ok
        # What a row's protocol does not have reads 0: the ports below
        # four payload bytes, the TCP fields without a whole TCP header.
        transport[~((is_tcp | is_udp) & (p_len >= 4)), :4] = 0
        transport[~tcp_head, _TCP_BYTES] = 0
        columns = {
            "ts": np.array(ts_list),
            # Stored offsets cover the IP region, not the raw frame.
            "off": ip_off,
            "caplen": ip_len,
            "proto": proto,
            "fragflags": head["fragflags"],
            "ttl": head["ttl"],
            "src": head["src"],
            "dst": head["dst"],
            "sport": tail["sport"],
            "dport": tail["dport"],
            "seq": tail["seq"],
            "tcpflags": tail["tcpflags"],
            "pay_off": (p_off + np.where(tcp_ok, header_len, 8)) * tok,
            "pay_len": np.where(tcp_ok, p_len - header_len, length_field - 8) * tok,
            "tok": tok,
        }

        keep = ip_valid & listed
        rejected: list[int] = []
        home: list[int] = []
        if not keep.all():
            rejected = np.flatnonzero(listed & ~ip_valid).tolist()
            # A rejected record lands in the batch its preceding rows fill.
            home = (np.cumsum(keep)[rejected] // self.batch_size).tolist()
            columns = {name: values[keep] for name, values in columns.items()}
        window = PacketBatch.from_arrays(self.data, columns)
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
    room = batch_size

    def flush() -> Iterator[PacketBatch]:
        nonlocal room
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
        room = batch_size
        yield batch

    for item in source:
        # The common item, a (timestamp, bytes) record, costs one test.
        if type(item) is tuple:
            timestamp, frame = item
        elif isinstance(item, (ControlMessage, PacketBatch)):
            yield from flush()
            yield item
            continue
        elif isinstance(item, TimedPacket):
            timestamp = item.timestamp
            try:
                frame = item.ip.serialize()
            except DECODE_ERRORS as exc:
                unserializable.append(exc)
                frame = None
        elif isinstance(item, tuple):
            timestamp, frame = item
        else:
            timestamp, frame = 0.0, bytes(item)
        if frame is not None:
            ts_list.append(timestamp)
            frames.append(frame)
        room -= 1
        if not room:
            yield from flush()
    yield from flush()
    yield from flush()
    yield from flush()
