"""Packet ingestion sources for ``splitdetect serve``.

The batch CLI reads a finished pcap; a long-lived service ingests from
something that is still *producing*.  Three sources, one duck-typed
contract:

- ``poll(max_records, timeout)`` -> up to ``max_records`` undecoded
  ``(timestamp, ip_bytes)`` records, waiting at most ``timeout`` seconds
  for the first one (an empty list means "nothing arrived yet", never
  "end of stream");
- ``exhausted`` -> True once the source can never produce again (only
  the replay source ever finishes on its own);
- ``state()`` -> a JSON-safe dict for ``/healthz`` (kind, progress
  counters, backlog);
- ``close()`` -> release sockets/files; idempotent.

Sources hand the service *undecoded* records on purpose: the runtime's
decode quarantine (PR 5) owns malformed frames, so a hostile producer
cannot crash the service any more than a hostile capture can crash
``run``.

Socket framing (``SocketSource``): a connection opens with the 4-byte
magic ``SDS1``, then carries length-prefixed records -- ``!dI`` (float64
packet timestamp, uint32 payload length) followed by that many bytes of
raw IPv4.  Oversized or malformed frames terminate that connection (and
are counted); other connections and the service are unaffected.  Every
blocking socket/queue call in this module carries an explicit timeout --
enforced statically by splitcheck rule SD108 -- so no producer can wedge
the ingest loop.
"""

from __future__ import annotations

import os
import queue as queue_mod
import socket
import struct
import threading
import time
from collections.abc import Iterable, Iterator
from itertools import islice
from typing import Any

from ..pcap.format import (
    GLOBAL_HEADER_SIZE,
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PcapFormatError,
    PcapHeader,
    decode_global_header,
    walk_records,
)
from ..pcap.io import ip_records

__all__ = [
    "FRAME_MAGIC",
    "MAX_FRAME_BYTES",
    "PcapTailSource",
    "ReplaySource",
    "SocketSource",
    "encode_record",
    "open_source",
    "send_records",
]

#: Stream preamble a socket producer must send before its first record.
FRAME_MAGIC = b"SDS1"

#: Per-record header: float64 packet timestamp + uint32 payload length.
_RECORD_HEADER = struct.Struct("!dI")

#: Hard bound on one framed record's payload; larger claims are treated
#: as protocol corruption (no IPv4 datagram is this big).
MAX_FRAME_BYTES = 1 << 20

#: File bytes a tail source reads when it has no framed record left.
_TAIL_READ_BYTES = 1 << 16

#: Listener/connection socket timeout: the granularity at which reader
#: threads notice a shutdown request.
_SOCKET_POLL_SECONDS = 0.2


def encode_record(timestamp: float, data: bytes) -> bytes:
    """One framed record as the socket protocol puts it on the wire."""
    return _RECORD_HEADER.pack(timestamp, len(data)) + data


def send_records(
    sock: socket.socket, records: Iterable[tuple[float, bytes]]
) -> int:
    """Producer helper: magic preamble + every record, returns the count.

    Used by tests and the soak benchmark; a real producer only needs to
    replicate the framing (see the module docstring).
    """
    sock.sendall(FRAME_MAGIC)
    count = 0
    for timestamp, data in records:
        sock.sendall(encode_record(timestamp, data))
        count += 1
    return count


class ReplaySource:
    """An in-process iterable of records, served at poll granularity.

    The equivalence bridge between ``serve`` and ``run``: replaying a
    pcap's records through the service must alert identically to the
    batch CLI on the same file (modulo shedding, which is off below
    overload).  Also the deterministic source for tests.
    """

    def __init__(
        self, records: Iterable[tuple[float, bytes]], *, label: str = "replay"
    ) -> None:
        self._iterator: Iterator[tuple[float, bytes]] = iter(records)
        self._exhausted = False
        self.label = label
        self.records_out = 0

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def poll(
        self, max_records: int, timeout: float
    ) -> list[tuple[float, bytes]]:
        del timeout  # everything is already in memory; never waits
        batch = list(islice(self._iterator, max_records))
        if len(batch) < max_records:
            self._exhausted = True
        self.records_out += len(batch)
        return batch

    def state(self) -> dict[str, Any]:
        return {
            "kind": "replay",
            "label": self.label,
            "records": self.records_out,
            "exhausted": self._exhausted,
            "backlog_fraction": 0.0,
        }

    def close(self) -> None:
        self._exhausted = True


class PcapTailSource:
    """Follow a growing pcap file, yielding records as they are appended.

    ``tail -f`` for savefiles: reads whatever complete records exist,
    remembers the offset, and re-polls for more -- a record whose bytes
    are only partially flushed by the capturing process is left in the
    file until its remainder arrives (never yielded truncated).  The
    global header is awaited the same way, so tailing a file the capture
    tool has created-but-not-written-yet just waits.  Ethernet link
    types are unwrapped to raw IP exactly like ``read_records``; a
    non-IPv4 ethertype is skipped.  Never ``exhausted``: end of file
    only means "no more *yet*".
    """

    def __init__(self, path: str | os.PathLike, *, poll_interval: float = 0.05) -> None:
        self.path = os.fspath(path)
        self.poll_interval = poll_interval
        self._handle: Any = None
        self._header: PcapHeader | None = None
        self._unframed = b""  # read, not yet a whole record (or header)
        self._ready: list[tuple[float, bytes]] = []  # framed, not yet polled
        self._damage: PcapFormatError | None = None
        self._closed = False
        self.records_out = 0
        self.bytes_read = 0

    @property
    def exhausted(self) -> bool:
        return self._closed

    def _frame(self) -> None:
        """Read on and frame every whole record the bytes now hold."""
        if self._damage is not None:
            raise self._damage  # the records before it went out first
        if self._handle is None:
            try:
                self._handle = open(self.path, "rb")
            except FileNotFoundError:
                return  # capture tool has not created the file yet
        if self._header is None:
            head = self._unframed + self._handle.read(GLOBAL_HEADER_SIZE - len(self._unframed))
            self.bytes_read = len(head)
            if len(head) < GLOBAL_HEADER_SIZE:
                self._unframed = head
                return
            header = decode_global_header(head)
            if header.linktype not in (LINKTYPE_RAW_IP, LINKTYPE_ETHERNET):
                self._damage = PcapFormatError(
                    f"unsupported linktype {header.linktype} in {self.path}"
                )
                raise self._damage
            self._header = header
            self._unframed = b""
        chunk = self._handle.read(_TAIL_READ_BYTES)
        self.bytes_read += len(chunk)
        data = self._unframed + chunk
        # Never at end of file: a cut-short record is still being written.
        ts_list, off_list, cap_list, end, self._damage = walk_records(data, self._header, False)
        self._unframed = data[end:] if self._damage is None else b""
        records = zip(ts_list, [data[off : off + cap] for off, cap in zip(off_list, cap_list)])
        ethernet = self._header.linktype == LINKTYPE_ETHERNET
        self._ready = list(ip_records(records) if ethernet else records)
        if self._damage is not None and not self._ready:
            raise self._damage

    def poll(
        self, max_records: int, timeout: float
    ) -> list[tuple[float, bytes]]:
        deadline = time.monotonic() + timeout
        while True:
            if not self._ready:
                self._frame()
            records = self._ready[:max_records]
            del self._ready[:max_records]
            if records or time.monotonic() >= deadline or self._closed:
                self.records_out += len(records)
                return records
            time.sleep(self.poll_interval)

    def state(self) -> dict[str, Any]:
        return {
            "kind": "tail",
            "path": self.path,
            "records": self.records_out,
            "bytes_read": self.bytes_read,
            "pending_bytes": len(self._unframed) + sum(len(data) for _, data in self._ready),
            "header_seen": self._header is not None,
            "backlog_fraction": 0.0,
        }

    def close(self) -> None:
        self._closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class SocketSource:
    """A framed-record listener on a TCP or Unix-domain socket.

    Accepts any number of producer connections; each is read by its own
    daemon thread into one bounded hand-off queue the service drains
    with :meth:`poll`.  The queue bound is the service's explicit
    ingest buffer: when producers outrun the pipeline the queue fills,
    ``backlog_fraction`` rises (driving the load shedder), and records
    that arrive with the buffer full are *dropped and counted* as
    ``overflow_dropped`` -- the loss accounting's ``lost`` term, never a
    silent gap.

    A connection that violates the protocol (bad magic, oversized frame,
    truncated header) is closed and counted; the listener keeps serving
    everyone else.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        family: int = socket.AF_INET,
        capacity: int = 4096,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.max_frame = max_frame
        self._queue: queue_mod.Queue = queue_mod.Queue(maxsize=capacity)
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self.connections_total = 0
        self.connections_active = 0
        self.records_in = 0
        self.records_out = 0
        self.overflow_dropped = 0
        self.protocol_errors = 0

        self._listener = socket.socket(family, socket.SOCK_STREAM)
        if family == socket.AF_INET:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.settimeout(_SOCKET_POLL_SECONDS)
        self._listener.bind(address)
        self._listener.listen()
        self.address = self._listener.getsockname()
        accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        accept_thread.start()
        self._threads.append(accept_thread)

    @property
    def exhausted(self) -> bool:
        # A listener never finishes on its own; the service stops it.
        return self._stop.is_set() and self._queue.empty()

    # -- reader side (daemon threads) ---------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed underneath us during shutdown
            with self._lock:
                self.connections_total += 1
                self.connections_active += 1
            thread = threading.Thread(
                target=self._read_loop,
                args=(conn,),
                name=f"serve-conn-{self.connections_total}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _read_exact(self, conn: socket.socket, size: int) -> bytes | None:
        """Read exactly *size* bytes; None on EOF/shutdown mid-read."""
        chunks = bytearray()
        while len(chunks) < size:
            if self._stop.is_set():
                return None
            try:
                chunk = conn.recv(size - len(chunks))
            except TimeoutError:
                continue
            except OSError:
                return None
            if not chunk:
                return None
            chunks.extend(chunk)
        return bytes(chunks)

    def _read_loop(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(_SOCKET_POLL_SECONDS)
            magic = self._read_exact(conn, len(FRAME_MAGIC))
            if magic is None:
                return
            if magic != FRAME_MAGIC:
                with self._lock:
                    self.protocol_errors += 1
                return
            while not self._stop.is_set():
                header = self._read_exact(conn, _RECORD_HEADER.size)
                if header is None:
                    return  # clean EOF between records
                timestamp, length = _RECORD_HEADER.unpack(header)
                if length > self.max_frame:
                    with self._lock:
                        self.protocol_errors += 1
                    return
                data = self._read_exact(conn, length)
                if data is None:
                    with self._lock:
                        self.protocol_errors += 1  # EOF mid-record
                    return
                with self._lock:
                    self.records_in += 1
                try:
                    self._queue.put_nowait((timestamp, data))
                except queue_mod.Full:
                    # The explicit overflow path: the buffer bound is
                    # the backstop behind load shedding, and a drop here
                    # is the report's ``lost`` term.
                    with self._lock:
                        self.overflow_dropped += 1
        finally:
            conn.close()
            with self._lock:
                self.connections_active -= 1

    # -- service side --------------------------------------------------

    def poll(
        self, max_records: int, timeout: float
    ) -> list[tuple[float, bytes]]:
        records: list[tuple[float, bytes]] = []
        try:
            records.append(self._queue.get(timeout=timeout))
        except queue_mod.Empty:
            return records
        while len(records) < max_records:
            try:
                records.append(self._queue.get_nowait())
            except queue_mod.Empty:
                break
        self.records_out += len(records)
        return records

    def state(self) -> dict[str, Any]:
        with self._lock:
            return {
                "kind": "socket",
                "address": (
                    list(self.address)
                    if isinstance(self.address, tuple)
                    else self.address
                ),
                "connections_total": self.connections_total,
                "connections_active": self.connections_active,
                "records_in": self.records_in,
                "records_out": self.records_out,
                "overflow_dropped": self.overflow_dropped,
                "protocol_errors": self.protocol_errors,
                "backlog_fraction": self._queue.qsize() / self.capacity,
            }

    def close(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        for thread in self._threads:
            thread.join(timeout=2.0)


def open_source(
    spec: str, *, capacity: int = 4096
) -> ReplaySource | PcapTailSource | SocketSource:
    """Build a source from a CLI spec string.

    - ``replay:PATH`` -- read PATH's records once, then finish;
    - ``tail:PATH``   -- follow PATH as it grows;
    - ``tcp:HOST:PORT`` -- listen for framed-record producers (port 0
      picks a free port; ``/healthz`` reports the bound address);
    - ``unix:PATH``   -- the same protocol on a Unix-domain socket.
    """
    kind, _, rest = spec.partition(":")
    if not rest:
        raise ValueError(
            f"bad source spec {spec!r}: expected replay:PATH, tail:PATH, "
            "tcp:HOST:PORT, or unix:PATH"
        )
    if kind == "replay":
        from ..pcap import read_records

        return ReplaySource(read_records(rest), label=rest)
    if kind == "tail":
        return PcapTailSource(rest)
    if kind == "tcp":
        host, _, port_text = rest.rpartition(":")
        if not host:
            raise ValueError(f"bad source spec {spec!r}: expected tcp:HOST:PORT")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise ValueError(
                f"bad source spec {spec!r}: port {port_text!r} is not an integer"
            ) from exc
        return SocketSource((host, port), capacity=capacity)
    if kind == "unix":
        if not hasattr(socket, "AF_UNIX"):
            raise ValueError("unix sockets are not available on this platform")
        return SocketSource(rest, family=socket.AF_UNIX, capacity=capacity)
    raise ValueError(
        f"unknown source kind {kind!r}: expected replay, tail, tcp, or unix"
    )
