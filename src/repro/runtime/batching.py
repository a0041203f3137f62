"""Batch intake shared by the runners, the service and the run harness.

Every feeder takes its source through :func:`iter_feed`: encoded to
:class:`~repro.packet.batch.PacketBatch` columns at the door
(:func:`repro.pcap.columnar.encode_batches`), cut to the configured
batch size, and relieved of its decode quarantine before any shard sees
it.  Working from an iterator (not a list) keeps at most one batch
alive per pipeline stage.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice

from ..packet import TimedPacket
from ..packet.batch import PacketBatch
from ..pcap.columnar import encode_batches
from .control import ControlMessage
from .quarantine import PacketSource, Quarantine

__all__ = ["iter_batches", "iter_feed", "rebatch_columns"]


def iter_batches(
    packets: Iterable[TimedPacket], size: int
) -> Iterator[list[TimedPacket]]:
    """Yield consecutive lists of at most ``size`` packets.

    Consumes lazily: each batch is materialized only when requested, so
    feeding from :func:`repro.pcap.read_trace` never holds more than one
    batch (per consumer) in memory.
    """
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    iterator = iter(packets)
    while True:
        batch = list(islice(iterator, size))
        if not batch:
            return
        yield batch


def rebatch_columns(
    batches: "Iterable[PacketBatch | ControlMessage]", size: int
) -> "Iterator[PacketBatch | ControlMessage]":
    """Split oversized columnar batches down to at most ``size`` rows.

    Split-only by design: batches are never merged across capture
    buffers (a merge would force a copy and break the shared-buffer
    zero-copy contract), so a source already at or under ``size`` passes
    through untouched -- as does an interleaved control message.
    Quarantined exceptions ride on the first slice of a split batch so
    the feeder-side ledger sees each exactly once.
    """
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    for batch in batches:
        if isinstance(batch, ControlMessage) or len(batch) <= size:
            yield batch
            continue
        for start in range(0, len(batch), size):
            piece = batch.slice(start, start + size)
            if start == 0:
                piece.quarantined = batch.quarantined
            yield piece


def iter_feed(
    source: "PacketSource | Iterable[PacketBatch]", size: int, quarantine: Quarantine
) -> "Iterator[PacketBatch | ControlMessage]":
    """What a feeder loop consumes: non-empty batches and control messages.

    Frames the decode rejected are absorbed into *quarantine* here, on
    the feeder side -- exception instances never cross a process
    boundary -- and a batch left with no rows is dropped.  A
    control message keeps its stream position, so every consumer
    applies the command between the same two packets: what makes a hot
    reload deterministic with respect to the packet sequence.
    """
    for item in rebatch_columns(encode_batches(source, size), size):
        if not isinstance(item, ControlMessage):
            for exc in item.quarantined:
                quarantine.add(exc)
            if not item:
                continue
        yield item
