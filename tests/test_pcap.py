"""Tests for the libpcap savefile reader/writer."""

import io
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packet import IPv4Packet, TcpSegment, TimedPacket, build_tcp_packet
from repro.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PcapFormatError,
    PcapReader,
    PcapWriter,
    read_trace,
    trace_to_bytes,
    write_trace,
)
from repro.pcap.format import decode_global_header, encode_global_header


def sample_packets(n=3):
    packets = []
    for i in range(n):
        seg = TcpSegment(src_port=1000 + i, dst_port=80, seq=i * 100, payload=b"x" * i)
        packets.append(TimedPacket(1000.0 + i * 0.5, build_tcp_packet("10.0.0.1", "10.0.0.2", seg)))
    return packets


class TestGlobalHeader:
    def test_round_trip(self):
        header = decode_global_header(encode_global_header(LINKTYPE_RAW_IP, 1234))
        assert header.linktype == LINKTYPE_RAW_IP
        assert header.snaplen == 1234
        assert header.byte_order == "<"

    def test_big_endian_detected(self):
        raw = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        header = decode_global_header(raw)
        assert header.byte_order == ">" and header.linktype == 1

    def test_bad_magic(self):
        with pytest.raises(PcapFormatError):
            decode_global_header(b"\x00" * 24)

    def test_nanosecond_magic_detected(self):
        raw = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 101)
        header = decode_global_header(raw)
        assert header.nanosecond and header.byte_order == "<"

    def test_nanosecond_swapped_magic(self):
        raw = struct.pack(">IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 101)
        header = decode_global_header(raw)
        assert header.nanosecond and header.byte_order == ">"

    def test_nanosecond_records_scale_correctly(self):
        from repro.pcap.format import PcapHeader, walk_records

        body = struct.pack("<IIII", 10, 500_000_000, 3, 3) + b"abc"
        nano = PcapHeader(LINKTYPE_RAW_IP, 65535, "<", nanosecond=True)
        ts_list, off_list, cap_list, end, error = walk_records(body, nano, True)
        assert ts_list == [pytest.approx(10.5)] and (off_list, cap_list) == ([16], [3])
        assert (end, error) == (len(body), None)
        # The same frac field read as microseconds would be out of range.
        micro = PcapHeader(LINKTYPE_RAW_IP, 65535, "<")
        ts_list, _offs, _caps, end, error = walk_records(body, micro, True)
        assert (ts_list, end) == ([], 0)
        assert isinstance(error, PcapFormatError)

    def test_nanosecond_file_reads_end_to_end(self):
        stream = io.BytesIO()
        stream.write(struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 101))
        stream.write(struct.pack("<IIII", 7, 250_000_000, 4, 4))
        stream.write(b"data")
        stream.seek(0)
        [(ts, data)] = list(PcapReader(stream))
        assert ts == pytest.approx(7.25)
        assert data == b"data"

    def test_truncated(self):
        with pytest.raises(PcapFormatError):
            decode_global_header(b"\xd4\xc3")


class TestRecordStream:
    def test_write_read_records(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write_record(1.25, b"abc")
        writer.write_record(2.0, b"defgh")
        buffer.seek(0)
        records = list(PcapReader(buffer))
        assert records == [(1.25, b"abc"), (2.0, b"defgh")]

    def test_snaplen_truncates(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer, snaplen=4)
        writer.write_record(0.0, b"abcdefgh")
        buffer.seek(0)
        [(_, data)] = list(PcapReader(buffer))
        assert data == b"abcd"

    def test_truncated_body_raises(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write_record(0.0, b"abcdef")
        truncated = io.BytesIO(buffer.getvalue()[:-3])
        with pytest.raises(PcapFormatError):
            list(PcapReader(truncated))

    def test_empty_file_is_valid(self):
        buffer = io.BytesIO()
        PcapWriter(buffer)
        buffer.seek(0)
        assert list(PcapReader(buffer)) == []

    def test_timestamp_microsecond_rounding(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write_record(5.9999999, b"x")  # rounds to 6.0, must not emit usec=10^6
        buffer.seek(0)
        [(ts, _)] = list(PcapReader(buffer))
        assert ts == pytest.approx(6.0)


class TestTraceIO:
    def test_trace_round_trip_raw_ip(self, tmp_path):
        path = tmp_path / "t.pcap"
        packets = sample_packets()
        assert write_trace(path, packets) == len(packets)
        loaded = list(read_trace(path))
        assert [p.ip for p in loaded] == [p.ip for p in packets]
        assert [p.timestamp for p in loaded] == pytest.approx([p.timestamp for p in packets])

    def test_trace_round_trip_ethernet(self, tmp_path):
        path = tmp_path / "t.pcap"
        packets = sample_packets()
        write_trace(path, packets, linktype=LINKTYPE_ETHERNET)
        loaded = list(read_trace(path))
        assert [p.ip for p in loaded] == [p.ip for p in packets]

    def test_unsupported_linktype_raises(self, tmp_path):
        path = tmp_path / "t.pcap"
        with PcapWriter(path, linktype=228):
            pass
        with pytest.raises(PcapFormatError):
            list(read_trace(path))

    def test_trace_to_bytes_is_readable(self):
        raw = trace_to_bytes(sample_packets())
        records = list(PcapReader(io.BytesIO(raw)))
        assert len(records) == 3
        assert IPv4Packet.parse(records[0][1]).src == "10.0.0.1"


@given(
    timestamps=st.lists(
        st.floats(min_value=0, max_value=2**31, allow_nan=False), min_size=1, max_size=10
    ),
    payloads=st.lists(st.binary(max_size=200), min_size=1, max_size=10),
)
def test_record_round_trip_property(timestamps, payloads):
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    expected = []
    for ts, payload in zip(timestamps, payloads):
        writer.write_record(ts, payload)
        expected.append((ts, payload))
    buffer.seek(0)
    for (ts_in, data_in), (ts_out, data_out) in zip(expected, PcapReader(buffer)):
        assert data_out == data_in
        assert abs(ts_out - ts_in) < 1e-5 or abs(ts_out - ts_in) / max(ts_in, 1) < 1e-9
