"""The record reader frames a savefile in windows, through the one walk.

``PcapReader`` -- and ``read_records`` / ``read_trace`` on top of it --
reads ``_WINDOW_BYTES`` of file at a time and frames each window with
``walk_records``, the walk the columnar reader and the service's tail
source use too.  Held here:

- where the window edges fall is not observable: every window size
  yields the records of a record-at-a-time read, and a damaged savefile
  raises the same error after the same records -- on both byte orders,
  the nanosecond magics, Ethernet captures with short and non-IPv4
  records, and a stream that returns short reads and cannot seek;
- a record header claiming more than ``MAXIMUM_SNAPLEN`` bytes is
  rejected where it stands, by every reader, after the records before it
  and within two windows of memory, whatever snaplen the global header
  claims;
- a stream that returns the global header a few bytes per read is read
  as a buffered one is;
- a tail of a file appended in arbitrary byte splits hands out exactly
  ``read_records``' records, and stops on damage where ``read_records``
  does.
"""

from __future__ import annotations

import io
import random
import struct
import tracemalloc
from unittest import mock

import pytest

from repro.packet import EthernetFrame, TcpSegment, build_tcp_packet
from repro.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PcapFormatError,
    PcapReader,
    read_column_batches,
    read_records,
)
from repro.pcap import columnar
from repro.pcap import io as record_io
from repro.pcap.format import GLOBAL_HEADER_SIZE, MAXIMUM_SNAPLEN, decode_global_header
from repro.service import PcapTailSource
from repro.service import sources
from repro.traffic import TrafficProfile, generate_trace

ETH_IPV4 = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00"
ETH_ARP = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x06"
MAGIC = {False: 0xA1B2C3D4, True: 0xA1B23C4D}
WINDOWS = (15, 16, 17, 100, 4096)


def frames(linktype: int) -> list[bytes]:
    """Record bodies: IP datagrams, and on Ethernet links also non-IPv4
    ethertypes and records too short for the link header."""
    packets = generate_trace(TrafficProfile(flows=30), seed=39)[:200]
    out = []
    for index, packet in enumerate(packets):
        raw = packet.ip.serialize()
        if linktype == LINKTYPE_RAW_IP:
            out.append(raw)
            continue
        out.append(ETH_IPV4 + raw)
        if index % 7 == 1:
            out.append(ETH_ARP + b"\x00" * 28)
        if index % 11 == 2:
            out.append(raw[: index % 14])
    return out


def capture(order: str, nanosecond: bool, linktype: int, snaplen: int = 65535) -> bytes:
    """A savefile written by hand in *order*, timestamps at its resolution."""
    scale = 1_000_000_000 if nanosecond else 1_000_000
    rng = random.Random(f"{order}{nanosecond}{linktype}")
    out = [struct.pack(order + "IHHiIII", MAGIC[nanosecond], 2, 4, 0, 0, snaplen, linktype)]
    for index, body in enumerate(frames(linktype)):
        header = (1_700_000_000 + index, rng.randrange(scale), len(body), len(body) + 4)
        out.append(struct.pack(order + "IIII", *header) + body)
    return b"".join(out)


def reference(data: bytes) -> tuple[list[tuple[float, bytes]], str | None]:
    """Record at a time, header then body: the records and the error."""
    stream = io.BytesIO(data)
    header = decode_global_header(stream.read(GLOBAL_HEADER_SIZE))
    scale = 1_000_000_000 if header.nanosecond else 1_000_000
    records: list[tuple[float, bytes]] = []
    while raw := stream.read(16):
        if len(raw) < 16:
            return records, f"truncated record header: {len(raw)} < 16 bytes"
        sec, frac, captured, _original = struct.unpack(header.byte_order + "IIII", raw)
        if frac >= scale:
            return records, f"record sub-second field {frac} out of range"
        ts = sec + frac / scale
        body = stream.read(captured)
        if len(body) < captured:
            return records, f"truncated record body: need {captured} bytes, got {len(body)}"
        records.append((ts, body))
    return records, None


def unwrapped(records: list[tuple[float, bytes]]) -> list[tuple[float, bytes]]:
    """``read_records``' Ethernet rule, through the frame parser."""
    out = []
    for ts, data in records:
        try:
            frame = EthernetFrame.parse(data)
        except Exception:
            out.append((ts, data))
            continue
        if frame.ethertype == 0x0800:
            out.append((ts, frame.payload))
    return out


def drained(iterator) -> tuple[list, str | None]:
    records = []
    try:
        for record in iterator:
            records.append(record)
    except PcapFormatError as exc:
        return records, str(exc)
    return records, None


class ShortReads(io.RawIOBase):
    """A pipe's raw end: reads return at most a few bytes at a time, and
    it cannot seek (wrapped in a buffered reader, as ``open`` does)."""

    def __init__(self, data: bytes, seed: int) -> None:
        self._data = memoryview(data)
        self._at = 0
        self._rng = random.Random(seed)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = min(len(buffer), self._rng.randint(1, 40), len(self._data) - self._at)
        buffer[:size] = self._data[self._at : self._at + size]
        self._at += size
        return size


def read_all(data_or_stream, window: int, linktype: int | None = None):
    """``PcapReader`` (or ``read_records`` when *linktype* is given) at *window*."""
    stream = io.BytesIO(data_or_stream) if isinstance(data_or_stream, bytes) else data_or_stream
    with mock.patch.object(record_io, "_WINDOW_BYTES", window):
        return drained(read_records(stream) if linktype is not None else PcapReader(stream))


FORMATS = [
    pytest.param(order, nanosecond, linktype, id=f"{name}-{unit}-{link}")
    for order, name in (("<", "le"), (">", "be"))
    for nanosecond, unit in ((False, "us"), (True, "ns"))
    for linktype, link in ((LINKTYPE_RAW_IP, "raw"), (LINKTYPE_ETHERNET, "eth"))
]


class TestWindowIsInvisible:
    @pytest.mark.parametrize("order,nanosecond,linktype", FORMATS)
    def test_every_window_reads_the_records_one_at_a_time(self, order, nanosecond, linktype):
        data = capture(order, nanosecond, linktype)
        expected, error = reference(data)
        assert error is None and len(expected) >= 200
        whole = read_all(data, len(data) + 1)
        assert whole == (expected, None)
        ip = read_all(data, len(data) + 1, linktype)
        assert ip == (unwrapped(expected) if linktype == LINKTYPE_ETHERNET else expected, None)
        if linktype == LINKTYPE_ETHERNET:  # the capture holds what it claims
            assert len(ip[0]) < len(expected)
            assert any(len(body) < 14 for _, body in ip[0])
        for window in WINDOWS:
            assert read_all(data, window) == whole, window
            assert read_all(data, window, linktype) == ip, window

    @pytest.mark.parametrize("order,nanosecond,linktype", FORMATS)
    def test_damage_raises_the_same_error_after_the_same_records(
        self, order, nanosecond, linktype
    ):
        data = capture(order, nanosecond, linktype)
        ends = []  # where each record ends
        pos = GLOBAL_HEADER_SIZE
        while pos < len(data):
            pos += 16 + struct.unpack_from(order + "I", data, pos + 8)[0]
            ends.append(pos)
        bad_fraction = bytearray(data)
        struct.pack_into(order + "I", bad_fraction, ends[40] + 4, 2_000_000_000)
        damaged = {
            "mid_header": data[: ends[30] + 9],
            "mid_body": data[: ends[60] + 16 + 3],
            "header_only": data[: ends[90] + 16],
            "last_byte": data[:-1],
            "sub_second": bytes(bad_fraction),
        }
        for name, bad in damaged.items():
            expected, error = reference(bad)
            assert error is not None, name
            for window in (17, 100, len(bad) + 1):
                assert read_all(bad, window) == (expected, error), (name, window)
                records, ip_error = read_all(bad, window, linktype)
                assert ip_error == error, (name, window)
                if linktype == LINKTYPE_RAW_IP:
                    assert records == expected, (name, window)

    @pytest.mark.parametrize("order,nanosecond,linktype", FORMATS[::3])
    def test_a_stream_of_short_reads_that_cannot_seek(self, order, nanosecond, linktype):
        data = capture(order, nanosecond, linktype)
        expected = read_all(data, len(data) + 1, linktype)
        for seed, window in enumerate((16, 4096)):
            stream = io.BufferedReader(ShortReads(data, seed), buffer_size=64)
            assert not stream.seekable()
            assert read_all(stream, window, linktype) == expected

    @pytest.mark.parametrize("order,nanosecond,linktype", FORMATS[::3])
    def test_short_reads_without_a_buffer_read_the_whole_header(
        self, order, nanosecond, linktype
    ):
        """A raw stream may hand over the 24-byte global header in
        pieces: both readers read on until they hold it."""
        data = capture(order, nanosecond, linktype)
        expected = read_all(data, len(data) + 1, linktype)
        expected_rows = drain_columns(io.BytesIO(data))
        for seed, window in enumerate((16, 4096)):
            assert read_all(ShortReads(data, seed), window, linktype) == expected
            with mock.patch.object(columnar, "_WINDOW_BYTES", window):
                assert drain_columns(ShortReads(data, seed)) == expected_rows


# ---------------------------------------------------------------------------
# A corrupt record length is rejected where it stands
# ---------------------------------------------------------------------------

WINDOW = 1 << 16


def corrupt_capture(path, junk_windows: int, snaplen: int = 65535) -> list[tuple[float, bytes]]:
    """Good records, then one header claiming 0x7FFFFFFF bytes and
    *junk_windows* windows of junk behind it; returns the good records."""
    datagram = build_tcp_packet(
        "10.0.0.1", "10.0.0.2", TcpSegment(1234, 80, seq=1, payload=b"p" * 44)
    ).serialize()
    good = [(float(index), datagram) for index in range(20)]
    with open(path, "wb") as handle:
        handle.write(struct.pack("<IHHiIII", MAGIC[False], 2, 4, 0, 0, snaplen, LINKTYPE_RAW_IP))
        for ts, body in good:
            handle.write(struct.pack("<IIII", int(ts), 0, len(body), len(body)) + body)
        handle.write(struct.pack("<IIII", 99, 0, 0x7FFFFFFF, 0x7FFFFFFF))
        junk = bytes(range(256)) * (WINDOW // 256)
        for _ in range(junk_windows):
            handle.write(junk)
    return good


def drain_records(path) -> tuple[list, str | None]:
    return drained(read_records(path))


def drain_columns(path) -> tuple[list, str | None]:
    rows: list[tuple[float, bytes]] = []
    try:
        for batch in read_column_batches(path, batch_size=8):
            rows += [
                (ts, batch.buffer[off : off + caplen])
                for ts, off, caplen in zip(batch.ts, batch.off, batch.caplen)
            ]
    except PcapFormatError as exc:
        return rows, str(exc)
    return rows, None


def drain_tail(path) -> tuple[list, str | None]:
    """Poll a finished file until the tail has read all of it."""
    size = path.stat().st_size
    source = PcapTailSource(path, poll_interval=0.0)
    records: list[tuple[float, bytes]] = []
    try:
        for _ in range(size):
            more = source.poll(8, 0.0)
            records += more
            if not more and source.bytes_read == size:
                break
    except PcapFormatError as exc:
        return records, str(exc)
    finally:
        source.close()
    return records, None


READERS = {
    "records": (drain_records, record_io, "_WINDOW_BYTES"),
    "columns": (drain_columns, columnar, "_WINDOW_BYTES"),
    "tail": (drain_tail, sources, "_TAIL_READ_BYTES"),
}


class TestOversizedRecord:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_rejected_after_the_records_before_it_within_two_windows(self, tmp_path, reader):
        """The header is damage where it stands: no reader carries a
        growing remainder to end of file looking for its body (the
        columnar reader used to copy it once per window, quadratically;
        the tail source buffered the rest of the file)."""
        drain, module, window_name = READERS[reader]
        path = tmp_path / "corrupt.pcap"
        good = corrupt_capture(path, junk_windows=32)
        with mock.patch.object(module, window_name, WINDOW):
            tracemalloc.start()
            try:
                got = drain(path)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        message = f"invalid record capture length {0x7FFFFFFF}, bigger than maximum of 262144"
        assert got == (good, message)
        assert peak <= 2 * WINDOW

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_an_oversized_snaplen_does_not_lift_the_bound(self, tmp_path, reader):
        """A global header claiming a 4 GiB snaplen must not let a corrupt
        length send a reader to end of file: the claim is judged against
        ``MAXIMUM_SNAPLEN`` alone."""
        drain, module, window_name = READERS[reader]
        path = tmp_path / "corrupt.pcap"
        good = corrupt_capture(path, junk_windows=32, snaplen=0xFFFFFFFF)
        with mock.patch.object(module, window_name, WINDOW):
            tracemalloc.start()
            try:
                got = drain(path)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        message = f"invalid record capture length {0x7FFFFFFF}, bigger than maximum of 262144"
        assert got == (good, message)
        assert peak <= 2 * WINDOW

    def test_the_bound_is_libpcaps_maximum_for_any_snaplen(self):
        for snaplen in (65535, MAXIMUM_SNAPLEN + 1000, 0xFFFFFFFF):
            largest = MAXIMUM_SNAPLEN
            header = struct.pack("<IHHiIII", MAGIC[False], 2, 4, 0, 0, snaplen, LINKTYPE_RAW_IP)
            fits = header + struct.pack("<IIII", 1, 0, largest, largest) + b"\x00" * largest
            assert [len(body) for _, body in PcapReader(io.BytesIO(fits))] == [largest]
            over = header + struct.pack("<IIII", 1, 0, largest + 1, largest + 1)
            over += b"\x00" * (largest + 1)
            for window in (16, len(over) + 1):  # cut short, or whole in one window
                records, error = read_all(over, window)
                assert records == [] and f"length {largest + 1}, bigger" in error


# ---------------------------------------------------------------------------
# The tail source frames a growing file as read_records frames the whole
# ---------------------------------------------------------------------------


def tail_appended(path, data: bytes, seed: int) -> tuple[list, str | None]:
    """Append *data* to *path* in random splits, polling between them,
    then poll until the tail has read the whole file."""
    rng = random.Random(seed)
    source = PcapTailSource(path, poll_interval=0.0)
    records: list[tuple[float, bytes]] = []
    try:
        with open(path, "wb", buffering=0) as handle:
            at = 0
            while at < len(data):
                step = rng.choice((1, 3, 16, 17, 200, 5000))
                handle.write(data[at : at + step])
                at += step
                records += source.poll(rng.randint(1, 9), 0.0)
        for _ in range(len(data)):
            more = source.poll(7, 0.0)
            records += more
            if not more and source.bytes_read == len(data):
                break
    except PcapFormatError as exc:
        return records, str(exc)
    finally:
        source.close()
    return records, None


class TestTailFraming:
    @pytest.mark.parametrize("order,nanosecond,linktype", FORMATS)
    def test_random_splits_hand_out_read_records(self, tmp_path, order, nanosecond, linktype):
        data = capture(order, nanosecond, linktype)
        path = tmp_path / "whole.pcap"
        path.write_bytes(data)
        expected = list(read_records(path))
        for seed in range(3):
            live = tmp_path / f"live-{seed}.pcap"
            with mock.patch.object(sources, "_TAIL_READ_BYTES", 64):
                assert tail_appended(live, data, seed) == (expected, None), seed

    def test_damage_stops_the_tail_where_read_records_stops(self, tmp_path):
        data = bytearray(capture("<", False, LINKTYPE_ETHERNET))
        pos = GLOBAL_HEADER_SIZE
        for _ in range(50):
            pos += 16 + struct.unpack_from("<I", data, pos + 8)[0]
        struct.pack_into("<I", data, pos + 4, 1_000_000)
        path = tmp_path / "damaged.pcap"
        path.write_bytes(data)
        expected = drained(read_records(path))
        assert expected[1] == "record sub-second field 1000000 out of range"
        assert tail_appended(tmp_path / "live.pcap", bytes(data), seed=5) == expected

    def test_an_unsupported_linktype_stops_the_tail_for_good(self, tmp_path):
        path = tmp_path / "arcnet.pcap"
        path.write_bytes(
            struct.pack("<IHHiIII", MAGIC[False], 2, 4, 0, 0, 65535, 7)
            + struct.pack("<IIII", 1, 0, 4, 4)
            + b"abcd"
        )
        source = PcapTailSource(path, poll_interval=0.0)
        try:
            for _ in range(2):  # no later poll hands out its records
                with pytest.raises(PcapFormatError, match="unsupported linktype 7"):
                    source.poll(8, 0.0)
        finally:
            source.close()
