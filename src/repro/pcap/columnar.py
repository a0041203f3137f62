"""Columnar pcap decode: whole batches of packets without packet objects.

:func:`read_column_batches` walks a savefile once and yields
:class:`~repro.packet.batch.PacketBatch` instances -- parallel columns
of fast-path-relevant fields over one shared capture buffer -- instead
of per-packet dataclasses.  The engine consumes the columns directly
and materializes full objects only for the flagged minority, which is
where the ingest speedup comes from.

Parity contract (tested, and the reason this module is careful rather
than clever):

* Record framing, both byte orders, and the nanosecond magics follow
  :class:`~repro.pcap.io.PcapReader` exactly, including the timestamp
  arithmetic (``sec + frac / scale``) and every ``PcapFormatError``.
* ``on_invalid="quarantine"`` mirrors :func:`~repro.pcap.io.read_records`
  + the runtime decode quarantine: Ethernet-short records are treated
  as raw IP, non-IPv4 ethertypes are skipped silently, and malformed IP
  rows become real exception instances on ``batch.quarantined``.
* ``on_invalid="raise"`` mirrors :func:`~repro.pcap.io.read_trace`: the
  first malformed record raises the authoritative parse error.
* Invalid rows are produced by delegating to the *object* parsers
  (``EthernetFrame.parse`` / ``IPv4Packet.parse``), so exception types
  and messages can never drift from the object path.
* Rows whose transport header would not decode get ``tok == 0`` and are
  materialized by the engine, which reproduces the object path's
  decode-error accounting byte for byte.

The optional numpy path (probed once, in :mod:`repro.optional_numpy`;
disabled when the environment variable ``REPRO_COLUMNAR_NUMPY=0``)
vectorizes field extraction and validity checks; rows it cannot prove
clean fall back to the stdlib row decoder, so both paths produce
identical columns by construction.  The stdlib path is mandatory and
fully featured.

Each batch carries exactly ``batch_size`` valid rows (skipped and
quarantined records consume no slots), so downstream evict cadence
matches the object path's fixed-size batches.  The reader holds the
whole file in one ``bytes`` buffer that all batches share -- the price
of zero-copy payload views; ``PacketBatch.compact`` copies slices out
before they are pickled to workers.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterator
from typing import BinaryIO

from ..optional_numpy import NUMPY as _NUMPY, numpy_available
from ..packet import EthernetFrame, IPv4Packet, PacketError
from ..packet.batch import PacketBatch, PacketBatchBuilder, portless_flow_hash
from .format import (
    GLOBAL_HEADER_SIZE,
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    RECORD_HEADER_SIZE,
    PcapFormatError,
    decode_global_header,
)

__all__ = ["ColumnarPcapReader", "numpy_available", "read_column_batches"]

_DECODE_ERRORS = (PacketError, ValueError, struct.error)

IP_PROTO_TCP = 6
IP_PROTO_UDP = 17

ETHERTYPE_IPV4 = 0x0800
_ETH_HLEN = 14

# One unpack per row for the fixed IPv4 header prefix; src/dst decoded
# as integers (the columns are numeric, strings are interned lazily).
_IP_FIXED = struct.Struct("!BBHHHBBHII")
_PORTS = struct.Struct("!HH")
_TCP_PREFIX = struct.Struct("!HHII")


def _read_source(source: str | os.PathLike[str] | bytes | BinaryIO) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            return handle.read()
    return source.read()


class ColumnarPcapReader:
    """Iterates :class:`PacketBatch` columns out of a pcap savefile."""

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
        self.data = _read_source(source)
        self.header = decode_global_header(self.data[:GLOBAL_HEADER_SIZE])
        if self.header.linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
            raise PcapFormatError(f"unsupported linktype {self.header.linktype}")
        self.batch_size = batch_size
        self.on_invalid = on_invalid
        self._numpy = _NUMPY if use_numpy is None else (_NUMPY if use_numpy else None)
        if use_numpy and self._numpy is None:
            raise RuntimeError("numpy requested but not available")

    # -- record walk ---------------------------------------------------

    def _walk_records(self) -> tuple[list[float], list[int], list[int]]:
        """Offsets/lengths of every record body, with PcapReader's errors."""
        data = self.data
        record = struct.Struct(self.header.byte_order + "IIII")
        scale = 1_000_000_000 if self.header.nanosecond else 1_000_000
        ts_list: list[float] = []
        off_list: list[int] = []
        cap_list: list[int] = []
        pos = GLOBAL_HEADER_SIZE
        end = len(data)
        while pos < end:
            if end - pos < RECORD_HEADER_SIZE:
                raise PcapFormatError(
                    f"truncated record header: {end - pos} < {RECORD_HEADER_SIZE} bytes"
                )
            sec, frac, captured, _original = record.unpack_from(data, pos)
            if frac >= scale:
                raise PcapFormatError(f"record sub-second field {frac} out of range")
            body = pos + RECORD_HEADER_SIZE
            if end - body < captured:
                raise PcapFormatError(
                    f"truncated record body: need {captured} bytes, got {end - body}"
                )
            ts_list.append(sec + frac / scale)
            off_list.append(body)
            cap_list.append(captured)
            pos = body + captured
        return ts_list, off_list, cap_list

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
        if self.header.linktype == LINKTYPE_ETHERNET:
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
        except _DECODE_ERRORS as exc:
            if self.on_invalid == "raise":
                raise
            return exc
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

    def __iter__(self) -> Iterator[PacketBatch]:
        ts_list, off_list, cap_list = self._walk_records()
        if self._numpy is not None and ts_list:
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
        np = self._numpy
        buf = np.frombuffer(self.data, dtype=np.uint8)
        limit = len(buf) - 1
        off = np.asarray(off_list, dtype=np.int64)
        cap = np.asarray(cap_list, dtype=np.int64)

        def gather(idx):  # type: ignore[no-untyped-def]
            return buf[np.minimum(idx, limit)].astype(np.int64)

        ethernet = self.header.linktype == LINKTYPE_ETHERNET
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
