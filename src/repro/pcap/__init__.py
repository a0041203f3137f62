"""Classic libpcap savefile reader/writer (object and columnar)."""

from .columnar import ColumnarPcapReader, read_column_batches
from .format import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PcapFormatError,
    PcapHeader,
)
from .io import (
    PcapReader,
    PcapWriter,
    read_records,
    read_trace,
    trace_to_bytes,
    write_trace,
)

__all__ = [
    "ColumnarPcapReader",
    "LINKTYPE_ETHERNET",
    "LINKTYPE_RAW_IP",
    "PcapFormatError",
    "PcapHeader",
    "PcapReader",
    "PcapWriter",
    "numpy_available",
    "read_column_batches",
    "read_records",
    "read_trace",
    "trace_to_bytes",
    "write_trace",
]


def numpy_available() -> bool:
    """Always true: numpy is a dependency.  Kept for the frozen pipeline
    ledger (``benchmarks/pipeline/run.py``), which records it as a host fact."""
    return True
