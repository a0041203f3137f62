"""Malformed-input quarantine: bad frames are counted, never fatal.

The PYROLYSE lesson (see PAPERS.md) is that real NIDS stacks die or
desynchronize on hostile input -- which turns the inspector itself into
an evasion vector.  This module is the runtime's answer at the *decode*
boundary: the runners accept undecoded records alongside parsed packets,
and a frame that fails IPv4 parsing is diverted into a
:class:`Quarantine` ledger (per-cause counts plus a few exemplars)
instead of raising out of the feed loop.

There is one decode boundary -- the row decode behind
:func:`repro.pcap.columnar.encode_batches` and the savefile reader --
and two quarantine sites, same ledger shape at both:

- **feeder-side** (:func:`~repro.runtime.batching.iter_feed`): frames
  the decode rejected, carried on ``batch.quarantined``, that never
  become a row;
- **shard-side** (:meth:`~repro.runtime.worker.ShardProcessor.feed`):
  a :class:`~repro.packet.errors.PacketError` escaping the engine for a
  batch that decoded but blew up deeper in the pipeline.

Both feed the merged report's ``quarantined`` map and the
``repro_runtime_quarantined_packets_total`` counter, so a run under
malformed traffic is *visibly* degraded, never silently wrong.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..packet import TimedPacket
from ..pcap.columnar import DECODE_ERRORS
from .control import ControlMessage

__all__ = ["DECODE_ERRORS", "PacketSource", "Quarantine"]

#: What the runners accept: parsed packets, (timestamp, bytes) records,
#: bare frame bytes (timestamped 0.0), or interleaved
#: :class:`~repro.runtime.control.ControlMessage` commands.
PacketSource = Iterable["TimedPacket | tuple[float, bytes] | bytes | ControlMessage"]


class Quarantine:
    """Per-cause ledger of frames dropped at a decode boundary."""

    #: Exemplars retained per cause (enough to debug, bounded by design).
    MAX_EXAMPLES = 3

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.examples: dict[str, list[str]] = {}

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def add(self, exc: BaseException, packets: int = 1) -> None:
        """Record *packets* frames dropped because of *exc*."""
        cause = type(exc).__name__
        self.counts[cause] = self.counts.get(cause, 0) + packets
        examples = self.examples.setdefault(cause, [])
        if len(examples) < self.MAX_EXAMPLES:
            examples.append(str(exc))
