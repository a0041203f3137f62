"""The savefile reader streams: the window is invisible, memory is bounded.

``ColumnarPcapReader`` decodes a capture in fixed windows of file bytes.
Two things are held here.  First, that nobody downstream can tell: for
any window size the batches are those of a one-window decode -- same
rows, same batch boundaries, same quarantine placement, same error at
the same record -- because eviction cadence and state sampling are keyed
on batch boundaries.  Second, that the window (not the capture) bounds
what the reader keeps alive, including on captures that yield no rows.
"""

from __future__ import annotations

import functools
import io
import struct
import tracemalloc
from unittest import mock

import pytest

from repro.packet import TcpSegment, build_tcp_packet
from repro.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PcapFormatError,
    PcapWriter,
    read_column_batches,
    read_records,
)
from repro.pcap import columnar
from repro.runtime import DECODE_ERRORS

from test_columnar_ingest import mixed_trace as _mixed_trace

mixed_trace = functools.cache(_mixed_trace)  # read-only here; built once

GLOBAL_HEADER = 24
RECORD_HEADER = 16
ETH_IPV4 = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00"
ETH_ARP = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x06"


def decode(source, window: int, **kwargs) -> list:
    with mock.patch.object(columnar, "_WINDOW_BYTES", window):
        return list(read_column_batches(source, **kwargs))


def content(batch) -> dict:
    """What a batch says, with buffer-relative offsets resolved to bytes."""
    buffer = batch.buffer
    said = {
        name: column.tolist()
        for name, column in batch.columns().items()
        if name not in ("off", "pay_off")
    }
    said["frame"] = [
        buffer[off : off + caplen] for off, caplen in zip(batch.off, batch.caplen)
    ]
    said["payload"] = [
        buffer[off : off + length] if off else None
        for off, length in zip(batch.pay_off, batch.pay_len)
    ]
    said["quarantined"] = [(type(exc), str(exc)) for exc in batch.quarantined]
    return said


def assert_same_batches(windowed: list, reference: list) -> None:
    assert [len(batch) for batch in windowed] == [len(batch) for batch in reference]
    for ours, theirs in zip(windowed, reference):
        assert content(ours) == content(theirs)


def spiced_capture(linktype: int, packets: list, big: int) -> bytes:
    """A capture with every kind of record the reader treats specially.

    Valid packets (fragments among them) interleaved with non-IPv4
    ethertypes, frames too short for an Ethernet header, malformed and
    snaplen-clipped IP -- and one padded record of *big* bytes.
    """
    ethernet = linktype == LINKTYPE_ETHERNET
    frame = (lambda raw: ETH_IPV4 + raw) if ethernet else (lambda raw: raw)
    out = io.BytesIO()
    writer = PcapWriter(out, linktype=linktype, snaplen=1 << 20)
    for index, packet in enumerate(packets):
        raw = packet.ip.serialize()
        ts = packet.timestamp
        writer.write_record(ts, frame(raw))
        if index % 11 == 3:
            writer.write_record(ts, ETH_ARP + b"\x00" * 28)
        if index % 13 == 5:
            writer.write_record(ts, raw[:9])
        if index % 17 == 7:
            writer.write_record(ts, frame(b"\x65" + raw[1:]))
        if index % 19 == 9:
            writer.write_record(ts, frame(raw[:-3]))
        if index == len(packets) // 2:
            writer.write_record(ts, frame(raw) + b"\x00" * (big - len(raw)))
    return out.getvalue()


@pytest.fixture(scope="module")
def captures() -> dict:
    """Spiced captures per linktype: the full mixed trace, and a prefix
    short enough for windows smaller than a record."""
    trace = mixed_trace()
    return {
        (linktype, name): spiced_capture(linktype, packets, big)
        for linktype in (LINKTYPE_RAW_IP, LINKTYPE_ETHERNET)
        for name, packets, big in (("full", trace, 70_000), ("prefix", trace[:150], 3_000))
    }


# ---------------------------------------------------------------------------
# The window is invisible
# ---------------------------------------------------------------------------


class TestWindowIsInvisible:
    @pytest.mark.parametrize("linktype", [LINKTYPE_RAW_IP, LINKTYPE_ETHERNET])
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    @pytest.mark.parametrize(
        "name,window", [("prefix", 64), ("full", 1 << 10), ("full", 1 << 16)]
    )
    def test_batches_equal_the_one_window_decode(
        self, captures, linktype, batch_size, name, window
    ):
        data = captures[linktype, name]
        reference = decode(data, len(data) + 1, batch_size=batch_size)
        # The capture exercises what it claims to.
        assert sum(len(batch) for batch in reference) > 100
        assert sum(len(batch.quarantined) for batch in reference) > 10
        assert_same_batches(decode(data, window, batch_size=batch_size), reference)

    @pytest.mark.parametrize("linktype", [LINKTYPE_RAW_IP, LINKTYPE_ETHERNET])
    def test_raise_mode_stops_at_the_same_record(self, captures, linktype):
        data = captures[linktype, "full"]

        def until_raise(window: int):
            rows = []
            with mock.patch.object(columnar, "_WINDOW_BYTES", window):
                with pytest.raises(DECODE_ERRORS) as caught:
                    for batch in read_column_batches(data, batch_size=2, on_invalid="raise"):
                        rows.extend(content(batch)["frame"])
            return rows, type(caught.value), str(caught.value)

        reference = until_raise(len(data) + 1)
        assert reference[0]
        for window in (64, 1 << 10, 1 << 16):
            assert until_raise(window) == reference

    def test_path_open_file_and_bytes_give_equal_output(self, captures, tmp_path):
        data = captures[LINKTYPE_ETHERNET, "full"]
        path = tmp_path / "spiced.pcap"
        path.write_bytes(data)
        reference = decode(data, len(data) + 1)
        assert_same_batches(decode(path, 1 << 12), reference)
        assert_same_batches(decode(str(path), 1 << 12), reference)
        with open(path, "rb") as handle:
            assert_same_batches(decode(handle, 1 << 12), reference)
            assert not handle.closed  # the caller's stream stays the caller's
        assert_same_batches(decode(io.BytesIO(data), 1 << 12), reference)

    def test_quarantine_beyond_a_batch_is_delivered_on_its_own(self):
        """``batch_size`` rejected frames are a delivery of their own, at
        the same place in the stream whatever the window: a capture of
        garbage must not pile up in one batch's ``quarantined``."""
        out = io.BytesIO()
        writer = PcapWriter(out)
        good = build_tcp_packet(
            "10.0.0.1", "10.0.0.2", TcpSegment(1234, 80, seq=1, payload=b"x" * 40)
        ).serialize()
        for index in range(40):
            writer.write_record(float(index), good if index in (0, 33) else b"\x65garbage")
        data = out.getvalue()
        reference = decode(data, len(data) + 1, batch_size=8)
        assert [(len(b), len(b.quarantined)) for b in reference] == [
            (0, 8), (0, 8), (0, 8), (0, 8), (2, 6),
        ]  # fmt: skip
        for window in (16, 100, 1 << 10):
            assert_same_batches(decode(data, window, batch_size=8), reference)
        # ... and a whole number of such deliveries leaves nothing behind.
        starts = record_starts(data)
        garbage = data[: starts[0]] + data[starts[1] : starts[17]]
        for window in (16, 100, len(garbage) + 1):
            batches = decode(garbage, window, batch_size=8)
            assert [(len(b), len(b.quarantined)) for b in batches] == [(0, 8), (0, 8)]


# ---------------------------------------------------------------------------
# Damage is reported where it is, as read_records reports it
# ---------------------------------------------------------------------------


def record_starts(data: bytes) -> list[int]:
    starts = []
    pos = GLOBAL_HEADER
    while pos < len(data):
        starts.append(pos)
        pos += RECORD_HEADER + struct.unpack_from("<I", data, pos + 8)[0]
    return starts


def until_format_error(iterator) -> tuple[list, str]:
    seen = []
    with pytest.raises(PcapFormatError) as caught:
        for item in iterator:
            seen.append(item)
    return seen, str(caught.value)


class TestDamagedSavefiles:
    WINDOW = 1 << 14

    @pytest.fixture(scope="class")
    def plain(self) -> bytes:
        out = io.BytesIO()
        writer = PcapWriter(out)
        for packet in mixed_trace():
            writer.write_packet(packet)
        return out.getvalue()

    def damaged(self, plain: bytes) -> dict[str, bytes]:
        starts = record_starts(plain)
        windows = len(plain) // self.WINDOW
        assert windows > 20

        def first_record_in(window: int) -> int:
            return next(pos for pos in starts if pos >= window * self.WINDOW)

        bad_fraction = bytearray(plain)
        struct.pack_into("<I", bad_fraction, first_record_in(windows // 3) + 4, 1_000_000)
        return {
            "mid_header_first_window": plain[: starts[3] + 9],
            "mid_body_first_window": plain[: starts[5] + RECORD_HEADER + 11],
            "mid_header_middle_window": plain[: first_record_in(windows // 2) + 5],
            "mid_body_middle_window": plain[
                : first_record_in(windows // 2) + RECORD_HEADER + 1
            ],
            "mid_body_last_window": plain[:-7],
            "sub_second_out_of_range": bytes(bad_fraction),
        }

    @pytest.mark.parametrize("batch_size", [7, 256])
    def test_every_record_before_the_damage_then_the_same_error(
        self, plain, tmp_path, batch_size
    ):
        for name, data in self.damaged(plain).items():
            path = tmp_path / f"{name}.pcap"
            path.write_bytes(data)
            records, record_error = until_format_error(read_records(path))
            with mock.patch.object(columnar, "_WINDOW_BYTES", self.WINDOW):
                batches, batch_error = until_format_error(
                    read_column_batches(path, batch_size=batch_size)
                )
            rows = [
                (ts, frame)
                for batch in batches
                for ts, frame in zip(batch.ts, content(batch)["frame"])
            ]
            assert rows == records, name
            assert batch_error == record_error, name
            # Full batches up to the damage; the open one flushed before the raise.
            assert all(len(batch) == batch_size for batch in batches[:-1]), name


# ---------------------------------------------------------------------------
# Memory is bounded by the window, not the capture
# ---------------------------------------------------------------------------

SEGMENT = build_tcp_packet(
    "10.0.0.1", "10.0.0.2", TcpSegment(1234, 80, seq=1, payload=b"p" * 44)
).serialize()


def tiled_capture(path, linktype: int, frame: bytes, size: int) -> None:
    """*frame* over and over (one small flow), *size* bytes of savefile."""
    assert 90 <= RECORD_HEADER + len(frame) <= 110
    record = struct.pack("<IIII", 1, 0, len(frame), len(frame)) + frame
    with open(path, "wb") as handle:
        PcapWriter(handle, linktype=linktype)
        chunk = record * 4096
        for _ in range(size // len(chunk) + 1):
            handle.write(chunk)


CAPTURES = {
    "rows": (LINKTYPE_RAW_IP, SEGMENT),
    "all_skipped": (LINKTYPE_ETHERNET, ETH_ARP + b"\x00" * 70),
    "all_quarantined": (LINKTYPE_RAW_IP, b"\x65" + SEGMENT[1:]),
}


class TestMemoryIsBounded:
    @pytest.mark.parametrize(
        "kind,window",
        [
            ("rows", None),  # the shipped window
            ("rows", 1 << 16),
            ("all_skipped", 1 << 16),
            ("all_quarantined", 1 << 16),
        ],
    )
    def test_peak_is_a_multiple_of_the_window_not_the_capture(
        self, tmp_path, kind, window
    ):
        window = window or columnar._WINDOW_BYTES
        linktype, frame = CAPTURES[kind]
        path = tmp_path / "tiled.pcap"
        tiled_capture(path, linktype, frame, 24 * window)
        batch_size = 256
        record = RECORD_HEADER + len(frame)
        rows = quarantined = 0
        with mock.patch.object(columnar, "_WINDOW_BYTES", window):
            tracemalloc.start()
            try:
                for batch in read_column_batches(path):
                    rows += len(batch)
                    quarantined += len(batch.quarantined)
                    assert len(batch.buffer) <= window + (batch_size + 1) * record
                    assert len(batch.quarantined) <= batch_size
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        records = (path.stat().st_size - GLOBAL_HEADER) // record
        assert records * record >= 24 * window
        assert (rows, quarantined) == {
            "rows": (records, 0),
            "all_skipped": (0, 0),
            "all_quarantined": (0, records),
        }[kind]
        assert peak <= 20 * window


# ---------------------------------------------------------------------------
# Property-based: any window, any batch size
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_SMALL = {
    linktype: spiced_capture(linktype, mixed_trace()[:60], 2_000)
    for linktype in (LINKTYPE_RAW_IP, LINKTYPE_ETHERNET)
}


@given(
    window=st.integers(1, 4096),
    batch_size=st.integers(1, 40),
    linktype=st.sampled_from(sorted(_SMALL)),
    on_invalid=st.sampled_from(["quarantine", "raise"]),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_window_decodes_as_one_window(window, batch_size, linktype, on_invalid):
    data = _SMALL[linktype]

    def drained(window_bytes: int) -> tuple[list, str | None]:
        batches = []
        try:
            with mock.patch.object(columnar, "_WINDOW_BYTES", window_bytes):
                for batch in read_column_batches(
                    data, batch_size=batch_size, on_invalid=on_invalid
                ):
                    batches.append(content(batch))
        except DECODE_ERRORS as exc:
            return batches, repr(exc)
        return batches, None

    assert drained(window) == drained(len(data) + 1)
