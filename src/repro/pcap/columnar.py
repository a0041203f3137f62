"""Columnar decode: whole batches of packets without packet objects.

The one place frames become :class:`~repro.packet.batch.PacketBatch`
columns -- parallel arrays of fast-path-relevant fields over one shared
buffer.  :func:`read_column_batches` streams a savefile once;
:func:`encode_batches` is the door every other source goes through.
Both hand offsets into a buffer to the same row decode, so a frame is
classified one way whichever route carried it.  The engine consumes the
columns directly and materializes full objects only for the rows that
need one (fragments, diverted flows, undecodable transport headers, the
row that diverts a flow).

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

The optional numpy path (probed once, in :mod:`repro.optional_numpy`;
disabled when the environment variable ``REPRO_COLUMNAR_NUMPY=0``)
vectorizes field extraction and validity checks; rows it cannot prove
clean fall back to the stdlib row decoder, so both paths produce
identical columns by construction.  The stdlib path is mandatory and
fully featured.

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
from types import ModuleType
from typing import TYPE_CHECKING, BinaryIO

from ..optional_numpy import NUMPY as _NUMPY, numpy_available
from ..packet import EthernetFrame, IPv4Packet, PacketError, TimedPacket
from ..packet.batch import PacketBatch, PacketBatchBuilder, portless_flow_hash
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
    "numpy_available",
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

# One unpack per row for the fixed IPv4 header prefix; src/dst decoded
# as integers (the columns are numeric, strings are interned lazily).
_IP_FIXED = struct.Struct("!BBHHHBBHII")
_PORTS = struct.Struct("!HH")
_TCP_PREFIX = struct.Struct("!HHII")


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
        use_numpy: bool | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if on_invalid not in ("quarantine", "raise"):
            raise ValueError(f"on_invalid must be 'quarantine' or 'raise', got {on_invalid!r}")
        self._numpy = _NUMPY if use_numpy is None else (_NUMPY if use_numpy else None)
        if use_numpy and self._numpy is None:
            raise RuntimeError("numpy requested but not available")
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
                decoder = _RowDecoder(data, ethernet, size, self.on_invalid, self._numpy)
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
    numpy: ModuleType | None

    # -- per-row decode (stdlib; also the fallback for the numpy path) -

    def _decode_row(
        self, builder: PacketBatchBuilder, ts: float, off: int, caplen: int
    ) -> None:
        """Decode one record into a row, a silent skip, or a quarantine.

        Any record that fails the cheap field checks is re-parsed with
        the object-path parsers so the resulting exception (raised or
        quarantined) is authoritative.
        """
        data = self.data
        ip_off = off
        ip_len = caplen
        if self.ethernet:
            if caplen >= _ETH_HLEN:
                if data[off + 12] != 0x08 or data[off + 13] != 0x00:
                    return  # non-IPv4 ethertype: skipped silently
                ip_off = off + _ETH_HLEN
                ip_len = caplen - _ETH_HLEN
            elif self.on_invalid == "raise":
                # read_trace parses the frame strictly and propagates.
                EthernetFrame.parse(data[off : off + caplen])
                raise AssertionError("unreachable: short Ethernet frame parsed")
            # else: read_records yields the whole record as IP bytes and
            # lets the decode quarantine classify it below.
        valid = ip_len >= 20
        if valid:
            (
                ver_ihl,
                _tos,
                total,
                _ident,
                fragflags,
                ttl,
                proto,
                _checksum,
                src,
                dst,
            ) = _IP_FIXED.unpack_from(data, ip_off)
            ihl = (ver_ihl & 0x0F) * 4
            valid = (
                (ver_ihl >> 4) == 4
                and ihl >= 20
                and ip_len >= ihl
                and total >= ihl
                and ip_len >= total
            )
        if not valid:
            exc = self._invalid_row(ip_off, ip_len)
            if exc is not None:
                builder.quarantined.append(exc)
                return
            # Defensive: the object parser accepted what the cheap
            # checks rejected (should be impossible -- the checks are
            # the parser's own); trust the parser and unpack the fields.
            (
                ver_ihl,
                _tos,
                total,
                _ident,
                fragflags,
                ttl,
                proto,
                _checksum,
                src,
                dst,
            ) = _IP_FIXED.unpack_from(data, ip_off)
            ihl = (ver_ihl & 0x0F) * 4
        self._append_row(
            builder, ts, ip_off, ip_len, ihl, total, fragflags, ttl, proto, src, dst
        )

    def _invalid_row(self, ip_off: int, ip_len: int) -> BaseException | None:
        """Authoritative exception for a malformed IP region (or None)."""
        try:
            IPv4Packet.parse(self.data[ip_off : ip_off + ip_len])
        except DECODE_ERRORS as exc:
            if self.on_invalid == "raise":
                raise
            # Kept as a ledger value: the traceback would pin two frames
            # and a copy of the record (~2 KB) per quarantined frame.
            return exc.with_traceback(None)
        return None

    def _append_row(
        self,
        builder: PacketBatchBuilder,
        ts: float,
        ip_off: int,
        ip_len: int,
        ihl: int,
        total: int,
        fragflags: int,
        ttl: int,
        proto: int,
        src: int,
        dst: int,
    ) -> None:
        data = self.data
        p_off = ip_off + ihl
        p_len = total - ihl
        sport = dport = seq = tcpflags = tok = 0
        pay_off = pay_len = 0
        flow_hash = 0
        transport = proto == IP_PROTO_TCP or proto == IP_PROTO_UDP
        if transport:
            flow_hash = portless_flow_hash(src, dst, proto)
            if p_len >= 4:
                sport, dport = _PORTS.unpack_from(data, p_off)
            if not (fragflags & 0x3FFF):
                if proto == IP_PROTO_TCP:
                    if p_len >= 20:
                        _sp, _dp, seq, _ack = _TCP_PREFIX.unpack_from(data, p_off)
                        header_len = (data[p_off + 12] >> 4) * 4
                        tcpflags = data[p_off + 13]
                        if header_len >= 20 and p_len >= header_len:
                            tok = 1
                            pay_off = p_off + header_len
                            pay_len = p_len - header_len
                elif p_len >= 8:
                    length_field = (data[p_off + 4] << 8) | data[p_off + 5]
                    if length_field >= 8 and p_len >= length_field:
                        tok = 1
                        pay_off = p_off + 8
                        pay_len = length_field - 8
        builder.append(
            ts, ip_off, ip_len, proto, fragflags, ttl, src, dst,
            sport, dport, seq, tcpflags, pay_off, pay_len, tok, flow_hash,
        )

    # -- iteration -----------------------------------------------------

    def batches(
        self, ts_list: list[float], off_list: list[int], cap_list: list[int]
    ) -> Iterator[PacketBatch]:
        # (An empty buffer has no last byte for the vectorized gathers
        # to clamp to; the encoder can produce one, the reader cannot.)
        if self.numpy is not None and ts_list and self.data:
            yield from self._iter_numpy(ts_list, off_list, cap_list)
            return
        builder = PacketBatchBuilder()
        size = self.batch_size
        decode = self._decode_row
        for index in range(len(ts_list)):
            decode(builder, ts_list[index], off_list[index], cap_list[index])
            if len(builder) >= size:
                yield builder.build(self.data)
        if len(builder) or builder.quarantined:
            yield builder.build(self.data)

    # -- vectorized extraction (optional) ------------------------------

    def _iter_numpy(
        self, ts_list: list[float], off_list: list[int], cap_list: list[int]
    ) -> Iterator[PacketBatch]:
        """Vectorized decode: prove rows clean in bulk, fall back per row.

        Produces byte-identical columns to the stdlib path: every field
        is extracted with the same arithmetic, and any record that fails
        a vectorized validity check -- or needs Ethernet/quarantine
        special-casing -- is routed through :meth:`_decode_row`.
        """
        np = self.numpy
        buf = np.frombuffer(self.data, dtype=np.uint8)
        limit = len(buf) - 1
        off = np.asarray(off_list, dtype=np.int64)
        cap = np.asarray(cap_list, dtype=np.int64)

        def gather(idx):  # type: ignore[no-untyped-def]
            return buf[np.minimum(idx, limit)].astype(np.int64)

        ethernet = self.ethernet
        if ethernet:
            eth_ok = cap >= _ETH_HLEN
            ethertype = (gather(off + 12) << 8) | gather(off + 13)
            skip = eth_ok & (ethertype != ETHERTYPE_IPV4)
            fallback = ~eth_ok
            ip_off = off + _ETH_HLEN
            ip_len = cap - _ETH_HLEN
        else:
            skip = np.zeros(len(off), dtype=bool)
            fallback = skip.copy()
            ip_off = off
            ip_len = cap

        ver_ihl = gather(ip_off)
        ihl = (ver_ihl & 0x0F) * 4
        total = (gather(ip_off + 2) << 8) | gather(ip_off + 3)
        ip_valid = (
            (ip_len >= 20)
            & ((ver_ihl >> 4) == 4)
            & (ihl >= 20)
            & (ip_len >= ihl)
            & (total >= ihl)
            & (ip_len >= total)
        )
        fallback |= ~skip & ~ip_valid

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

        special = skip | fallback
        # Stored offsets cover the IP region, not the raw frame.
        eth_shift = _ETH_HLEN if ethernet else 0
        if not special.any():
            # Every record decoded clean (no quarantine, no ethertype
            # skip, no stdlib fallback): assemble whole batches with
            # C-speed column extends instead of a per-row append.  The
            # flow-hash column is the one per-row computation left, and
            # it is an intern-cache hit for all but a flow's first
            # packet.  Values are identical to the row loop below: same
            # arrays, same arithmetic, same bool->int narrowing.
            src_l = src.tolist()
            dst_l = dst.tolist()
            proto_l = proto.tolist()
            flow_hash_l = [
                portless_flow_hash(s, d, p)
                if p == IP_PROTO_TCP or p == IP_PROTO_UDP
                else 0
                for s, d, p in zip(src_l, dst_l, proto_l)
            ]
            lists = {
                "ts": ts_list,
                "off": (off + eth_shift).tolist() if eth_shift else off_list,
                "caplen": (cap - eth_shift).tolist() if eth_shift else cap_list,
                "proto": proto_l,
                "fragflags": fragflags.tolist(),
                "ttl": ttl.tolist(),
                "src": src_l,
                "dst": dst_l,
                "sport": sport.tolist(),
                "dport": dport.tolist(),
                "seq": seq.tolist(),
                "tcpflags": tcpflags.tolist(),
                "pay_off": pay_off.tolist(),
                "pay_len": pay_len.tolist(),
                "tok": tok.astype(np.uint8).tolist(),
                "flow_hash": flow_hash_l,
            }
            builder = PacketBatchBuilder()
            size = self.batch_size
            for start in range(0, len(off_list), size):
                stop = start + size
                builder.extend_lists(
                    {name: values[start:stop] for name, values in lists.items()}
                )
                yield builder.build(self.data)
            return

        # Single conversion to python scalars; per-element access on
        # numpy arrays is slower than list indexing in the assembly loop.
        columns = [
            arr.tolist()
            for arr in (
                special, fallback, cap, fragflags, ttl, proto, src, dst,
                sport, dport, seq, tcpflags, pay_off, pay_len, tok,
            )
        ]
        (
            special_l, fallback_l, cap_l, frag_l, ttl_l, proto_l, src_l, dst_l,
            sport_l, dport_l, seq_l, flags_l, payoff_l, paylen_l, tok_l,
        ) = columns
        off_l = off_list

        builder = PacketBatchBuilder()
        size = self.batch_size
        append = builder.append
        for i in range(len(off_l)):
            if special_l[i]:
                if fallback_l[i]:
                    self._decode_row(builder, ts_list[i], off_l[i], cap_l[i])
                # else: non-IPv4 ethertype, skipped silently
            else:
                p = proto_l[i]
                transport_row = p == IP_PROTO_TCP or p == IP_PROTO_UDP
                append(
                    ts_list[i], off_l[i] + eth_shift, cap_l[i] - eth_shift,
                    p, frag_l[i], ttl_l[i],
                    src_l[i], dst_l[i], sport_l[i], dport_l[i], seq_l[i],
                    flags_l[i], payoff_l[i], paylen_l[i], int(tok_l[i]),
                    portless_flow_hash(src_l[i], dst_l[i], p) if transport_row else 0,
                )
            if len(builder) >= size:
                yield builder.build(self.data)
        if len(builder) or builder.quarantined:
            yield builder.build(self.data)


def read_column_batches(
    source: str | os.PathLike[str] | bytes | BinaryIO,
    *,
    batch_size: int = 256,
    on_invalid: str = "quarantine",
    use_numpy: bool | None = None,
) -> Iterator[PacketBatch]:
    """Yield columnar packet batches from a savefile (see module docs)."""
    return iter(
        ColumnarPcapReader(
            source,
            batch_size=batch_size,
            on_invalid=on_invalid,
            use_numpy=use_numpy,
        )
    )


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
        decoder = _RowDecoder(
            b"".join(frames), False, len(frames) or 1, "quarantine", _NUMPY
        )
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
