"""Columnar packet batches: struct-of-arrays decode for the fast path.

The paper's economy is per-byte asymmetry: the fast path must do almost
nothing per packet.  An object ingest violates that shape -- every
frame becomes an :class:`~repro.packet.ip.IPv4Packet` dataclass (header
unpack, payload copy, options copy, ``TimedPacket`` wrapper) before the
engine ever looks at it.  A :class:`PacketBatch` instead carries one
shared ``bytes`` capture buffer plus parallel ``array`` columns of the
few fields the fast path actually consults (protocol, fragment bits,
TTL, addresses/ports, TCP seq/flags, payload offset/length), so the
clean majority of rows is processed with integer reads and zero-copy
``memoryview`` slices -- and so are the slow path's rows: a diverted
flow's row enters it as column scalars plus a payload view, a fragment
as its header fields (:meth:`PacketBatch.fragment`) plus its IP payload.
Only a row whose transport header does not decode is materialized
(:meth:`PacketBatch.materialize`), for the object parser to name the
error.

Column schema (one entry per valid row, in capture order):

===========  =========  ====================================================
column       typecode   meaning
===========  =========  ====================================================
ts           ``d``      capture timestamp (same arithmetic as the reader)
off          ``Q``      offset of the IPv4 header in :attr:`buffer`
caplen       ``I``      captured bytes from ``off`` (may include padding)
proto        ``B``      IPv4 protocol number
fragflags    ``H``      raw flags+fragment-offset field (``& 0x3FFF`` != 0
                        means fragment; ``& 0x1FFF`` is offset in 8-byte
                        units)
ttl          ``B``      IPv4 TTL
src / dst    ``I``      IPv4 addresses as big-endian integers
sport/dport  ``H``      ``flow_key_of`` port semantics: first 4 bytes of
                        the IP payload when present, else 0
seq          ``I``      TCP sequence number (0 for UDP / undecodable)
tcpflags     ``B``      TCP flag byte (0 for UDP / undecodable)
pay_off      ``Q``      offset of the transport payload in :attr:`buffer`
pay_len      ``I``      transport payload length (post snaplen check)
tok          ``B``      1 when the transport header decoded cleanly
===========  =========  ====================================================

A row's flow identity is its :data:`FlowTuple`, zipped from the columns
in C: the engine and the fast path's state key on it.  A ``FlowKey``
(dotted-quad strings) is built by :func:`flow_of_tuple` only where a
string is read, and nothing keeps one per flow seen.

No column carries a flow hash: the one-shard engine never needs one,
and the two readers that do -- :meth:`PacketBatch.shard_rows` at more
than one shard, :meth:`~repro.service.shedding.LoadShedder.shed_rows`
while shedding -- ask the intern-cached :func:`portless_flow_hash`.

``tok == 0`` marks rows whose transport header would make
``decode_tcp`` / ``UdpDatagram.parse`` raise; the engine materializes
them so the per-packet path produces the authoritative error and
accounting.  Malformed *IP* rows never become rows at all -- the decode
quarantines them (as real exception instances on
:attr:`PacketBatch.quarantined`) or raises, mirroring the two object
readers.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from socket import inet_aton
from typing import TYPE_CHECKING, Any, Sequence

from ..hashing import fnv1a_64
from .flows import FlowKey, TimedPacket
from .ip import IPv4Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..runtime.sharding import ShardRouter

__all__ = ["FlowTuple", "PacketBatch", "flow_of_tuple", "forget_interned_flows",
           "ip_u32_to_str", "portless_flow_hash", "portless_key_hash",
           "tuple_of_flow"]

IP_PROTO_TCP = 6
IP_PROTO_UDP = 17

_COLUMNS: tuple[tuple[str, str], ...] = (
    ("ts", "d"),
    ("off", "Q"),
    ("caplen", "I"),
    ("proto", "B"),
    ("fragflags", "H"),
    ("ttl", "B"),
    ("src", "I"),
    ("dst", "I"),
    ("sport", "H"),
    ("dport", "H"),
    ("seq", "I"),
    ("tcpflags", "B"),
    ("pay_off", "Q"),
    ("pay_len", "I"),
    ("tok", "B"),
)

_COLUMN_NAMES = tuple(name for name, _ in _COLUMNS)

# Bounded intern caches, for the readers that still turn a row's
# integers into strings or hashes: the shard router at more than one
# shard, the load shedder and the tracer (FNV of the port-less address
# pair), and the few rows that build a FlowKey (dotted-quad strings).
# The one-shard engine's clean rows never reach them.  Flow identities
# repeat heavily, so formatting and hashing are paid once per address
# pair, not once per packet.  Cleared wholesale at the cap -- an
# adversarial many-flow trace degrades to cache misses, never to
# unbounded memory.
_INTERN_CAP = 65536
_PORTLESS_HASHES: dict[tuple[int, int, int], int] = {}


@lru_cache(maxsize=_INTERN_CAP)
def ip_u32_to_str(value: int) -> str:
    """Dotted-quad string for a big-endian IPv4 address integer."""
    return (
        f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}."
        f"{(value >> 8) & 0xFF}.{value & 0xFF}"
    )


#: A directional ``(src, dst, sport, dport, proto)`` as the columns carry
#: it (integer addresses); never mixed with FlowKeys in one container.
FlowTuple = tuple[int, int, int, int, int]


def flow_of_tuple(key: FlowTuple) -> FlowKey:
    """The :class:`FlowKey` a numeric five-tuple names."""
    return FlowKey(ip_u32_to_str(key[0]), ip_u32_to_str(key[1]), key[2], key[3], key[4])


def tuple_of_flow(flow: FlowKey) -> FlowTuple:
    """The numeric five-tuple of a :class:`FlowKey` (its inverse)."""
    src = int.from_bytes(inet_aton(flow.src), "big")
    dst = int.from_bytes(inet_aton(flow.dst), "big")
    return (src, dst, flow.src_port, flow.dst_port, flow.protocol)


def portless_key_hash(src: str, dst: str, proto: int) -> int:
    """FNV-1a of the port-less canonical flow key: the one serialization.

    ``"lo|hi|proto"`` with the two dotted-quad addresses in string order
    -- :meth:`FlowKey.canonical`'s order whenever they differ; when they
    are equal the order is moot.  The shard of every packet and fragment
    of a connection, its trace id and its shed slot all derive from it,
    so both directions and every fragment of a flow agree on all three.
    """
    if dst < src:
        src, dst = dst, src
    return fnv1a_64(f"{src}|{dst}|{proto}".encode())


def portless_flow_hash(src: int, dst: int, proto: int) -> int:
    """:func:`portless_key_hash` of a row's integer address pair,
    intern-cached: a flow's FNV pass is paid once, not once per row."""
    key = (src, dst, proto)
    cached = _PORTLESS_HASHES.get(key)
    if cached is None:
        if len(_PORTLESS_HASHES) >= _INTERN_CAP:
            _PORTLESS_HASHES.clear()
        cached = portless_key_hash(ip_u32_to_str(src), ip_u32_to_str(dst), proto)
        _PORTLESS_HASHES[key] = cached
    return cached


def forget_interned_flows() -> None:
    """Empty the intern caches; every entry is re-derived on demand.

    At their cap the caches hold tens of MB of strings and hashes for
    address pairs long gone -- cheap beside a capture file that is
    resident anyway, not for a daemon whose working set is one poll (see
    ``SplitDetectService.run``)."""
    _PORTLESS_HASHES.clear()
    ip_u32_to_str.cache_clear()


class PacketBatch:
    """A run of decoded packets as parallel columns over one buffer.

    Instances are cheap to slice (:meth:`select` shares the buffer) and
    safe to pickle (:meth:`compact` first copies just the referenced
    bytes so a worker never receives the whole capture file; the lazy
    memoryview is dropped on ``__getstate__``: memoryviews do not pickle).
    """

    __slots__ = ("buffer", "quarantined", "_view") + _COLUMN_NAMES

    buffer: bytes
    quarantined: list[BaseException]
    _view: memoryview | None
    ts: "array[float]"
    off: "array[int]"
    caplen: "array[int]"
    proto: "array[int]"
    fragflags: "array[int]"
    ttl: "array[int]"
    src: "array[int]"
    dst: "array[int]"
    sport: "array[int]"
    dport: "array[int]"
    seq: "array[int]"
    tcpflags: "array[int]"
    pay_off: "array[int]"
    pay_len: "array[int]"
    tok: "array[int]"

    def __init__(
        self,
        buffer: bytes,
        columns: dict[str, array],
        quarantined: list[BaseException] | None = None,
    ) -> None:
        self.buffer = buffer
        self.quarantined: list[BaseException] = quarantined if quarantined is not None else []
        self._view: memoryview | None = None
        for name, typecode in _COLUMNS:
            column = columns.get(name)
            if column is None:
                column = array(typecode)
            setattr(self, name, column)

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.ts)

    def __bool__(self) -> bool:
        return len(self.ts) > 0

    @property
    def view(self) -> memoryview:
        """Lazily (re)built memoryview of the shared capture buffer."""
        view = self._view
        if view is None:
            view = memoryview(self.buffer)
            self._view = view
        return view

    @property
    def first_ts(self) -> float:
        return self.ts[0]

    @property
    def last_ts(self) -> float:
        return self.ts[-1]

    @classmethod
    def from_arrays(cls, buffer: bytes, rows: dict[str, Any]) -> "PacketBatch":
        """A batch over *buffer* from decoded numpy columns, each converted
        to its typecode and copied in whole (``array.frombytes``)."""
        return cls(
            buffer,
            {name: array(code, rows[name].astype(code).tobytes()) for name, code in _COLUMNS},
        )

    def columns(self) -> dict[str, array]:
        return {name: getattr(self, name) for name in _COLUMN_NAMES}

    # -- pickling (no memoryviews cross process boundaries) -----------

    def __getstate__(self) -> dict[str, object]:
        state: dict[str, object] = {"buffer": self.buffer}
        for name in _COLUMN_NAMES:
            state[name] = getattr(self, name)
        # Quarantined exceptions are absorbed feeder-side before a batch
        # is routed; never ship them to workers.
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.buffer = state["buffer"]  # type: ignore[assignment]
        self.quarantined = []
        self._view = None
        for name in _COLUMN_NAMES:
            setattr(self, name, state[name])

    # -- row access ----------------------------------------------------

    def materialize(self, row: int) -> TimedPacket:
        """Build the full packet object for one row (undecodable rows)."""
        off = self.off[row]
        raw = self.buffer[off : off + self.caplen[row]]
        return TimedPacket(self.ts[row], IPv4Packet.parse(raw))

    def fragment(self, row: int) -> tuple[tuple[str, str, int, int, int, bool], memoryview]:
        """A fragment row as ``IPv4Packet.fragment_header`` and a view of
        its IP payload, read from its header bytes (a fragment has no
        transport columns: its ``sport``/``dport`` are payload bytes)."""
        off = self.off[row]
        buf = self.buffer
        flags = self.fragflags[row]
        header = (
            ip_u32_to_str(self.src[row]),
            ip_u32_to_str(self.dst[row]),
            self.proto[row],
            buf[off + 4] << 8 | buf[off + 5],
            (flags & 0x1FFF) * 8,
            bool(flags & 0x2000),
        )
        start = off + (buf[off] & 0x0F) * 4
        return header, self.view[start : off + (buf[off + 2] << 8 | buf[off + 3])]

    def payload_view(self, row: int) -> memoryview:
        """Zero-copy view of a row's transport payload."""
        start = self.pay_off[row]
        return self.view[start : start + self.pay_len[row]]

    # -- slicing -------------------------------------------------------

    def select(self, rows: Sequence[int]) -> "PacketBatch":
        """New batch of the given rows, sharing this batch's buffer."""
        columns: dict[str, array] = {}
        for name, typecode in _COLUMNS:
            source = getattr(self, name)
            columns[name] = array(typecode, [source[row] for row in rows])
        return PacketBatch(self.buffer, columns)

    def slice(self, start: int, stop: int) -> "PacketBatch":
        """Contiguous row range as a new batch sharing this buffer."""
        columns: dict[str, array] = {}
        for name, _ in _COLUMNS:
            columns[name] = getattr(self, name)[start:stop]
        return PacketBatch(self.buffer, columns)

    def compact(self) -> "PacketBatch":
        """Copy just the referenced record bytes into a fresh buffer.

        Required before pickling a selection to a worker: a selection
        shares the whole capture buffer, and shipping that per shard
        would multiply the file size by the worker count.
        """
        pieces: list[bytes] = []
        new_off = array("Q")
        new_pay_off = array("Q")
        cursor = 0
        buffer = self.buffer
        for row in range(len(self)):
            off = self.off[row]
            caplen = self.caplen[row]
            pieces.append(buffer[off : off + caplen])
            new_off.append(cursor)
            # pay_off == 0 is the "no decoded payload" sentinel (tok==0
            # or non-transport row); it must survive the shift as-is.
            old_pay = self.pay_off[row]
            new_pay_off.append(old_pay - off + cursor if old_pay else 0)
            cursor += caplen
        columns = self.columns()
        columns["off"] = new_off
        columns["pay_off"] = new_pay_off
        return PacketBatch(b"".join(pieces), columns)

    # -- shard routing -------------------------------------------------

    def shard_rows(self, router: "ShardRouter") -> list[list[int]]:
        """Row indices per shard: the runners' packet-to-shard assignment.

        Non-TCP/UDP rows pin to shard 0 (they carry no flow state, so
        placement only needs to be deterministic); every other row --
        fragment or not -- goes where :func:`portless_flow_hash` of its
        address pair sends it.  The hashes are looked up in the intern
        cache for every row in one C-level pass, so a flow's FNV pass is
        paid once, not once per row.
        """
        shards = router.shards
        buckets: list[list[int]] = [[] for _ in range(shards)]
        if shards == 1:
            buckets[0] = list(range(len(self)))
            return buckets
        proto = self.proto
        src = self.src
        dst = self.dst
        portless = list(map(_PORTLESS_HASHES.get, zip(src, dst, proto)))
        for row in range(len(self)):
            p = proto[row]
            if p != IP_PROTO_TCP and p != IP_PROTO_UDP:
                buckets[0].append(row)
            else:
                digest = portless[row] or portless_flow_hash(src[row], dst[row], p)
                buckets[digest % shards].append(row)
        return buckets
