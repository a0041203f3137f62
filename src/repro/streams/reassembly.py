"""Receiver-side TCP stream reassembly with target-based overlap policies.

One :class:`TcpReassembler` instance models one direction of one TCP
connection: it accepts segments in arrival order, buffers out-of-order
data, resolves overlaps per the configured :class:`OverlapPolicy`, and
delivers the in-order byte stream exactly as the modelled endpoint's
application would see it.  Every transport anomaly along the way is
reported as a :class:`StreamEventRecord`, which is what both the
conventional IPS (for alerting) and the evaluation (for diversion
statistics) consume.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..packet import seq_add, seq_diff
from .events import StreamEvent, StreamEventRecord
from .policies import OverlapPolicy, resolve_overlap

DEFAULT_HORIZON = 1 << 20
DEFAULT_MAX_BUFFERED = 1 << 20
DEFAULT_HISTORY = 4096


@dataclass
class ReassemblyResult:
    """Outcome of feeding one segment to the reassembler."""

    delivered: bytes = b""
    """Bytes that became contiguous with the delivered stream (possibly empty)."""

    events: list[StreamEventRecord] = field(default_factory=list)
    finished: bool = False
    """True once the FIN point has been reached in order."""


class TcpReassembler:
    """Reassembles one direction of a TCP stream.

    Parameters
    ----------
    policy:
        Which copy wins when segments overlap with different data.
    horizon:
        Maximum distance (bytes) past the next expected byte that data may
        be buffered; segments beyond it raise ``OUT_OF_WINDOW`` and are
        dropped, modelling a finite receive window.
    max_buffered:
        Out-of-order buffer budget in bytes; exceeding it raises
        ``BUFFER_OVERFLOW`` and drops the offending bytes.
    history:
        How many recently delivered bytes are retained to check
        retransmissions for consistency.  ``0`` disables the check.
    tiny_threshold:
        When positive, a non-final data segment smaller than this many
        bytes raises ``TINY_SEGMENT``.
    first_byte_seq:
        Absolute sequence number of the first stream byte (ISN + 1), when
        known.  Without it the first segment seen defines stream offset 0
        (midstream pickup), so a leading hole cannot be observed.
    """

    def __init__(
        self,
        *,
        policy: OverlapPolicy = OverlapPolicy.BSD,
        horizon: int = DEFAULT_HORIZON,
        max_buffered: int = DEFAULT_MAX_BUFFERED,
        history: int = DEFAULT_HISTORY,
        tiny_threshold: int = 0,
        first_byte_seq: int | None = None,
    ) -> None:
        self.policy = policy
        self.horizon = horizon
        self.max_buffered = max_buffered
        self.history_limit = history
        self.tiny_threshold = tiny_threshold
        self._base: int | None = first_byte_seq  # absolute seq of stream offset 0
        self._base_pinned = first_byte_seq is not None
        """An explicitly supplied origin is authoritative: data below it is
        known retransmission, so midstream-pickup rebasing must not move it."""
        self._next = 0  # stream offset of the next byte to deliver
        self._starts: list[int] = []  # sorted chunk start offsets
        self._chunks: list[bytearray] = []  # parallel payloads, disjoint
        self._buffered = 0  # running sum of len(chunk) over _chunks
        self._history = bytearray()  # tail of the delivered stream
        self._fin_offset: int | None = None
        self.delivered_total = 0
        self.finished = False

    # -- accounting ------------------------------------------------------

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently held in the out-of-order buffer (a running
        counter: sampled per batch for every flow, so never a re-sum)."""
        return self._buffered

    @property
    def buffered_chunks(self) -> int:
        """Number of disjoint out-of-order chunks currently buffered."""
        return len(self._chunks)

    @property
    def expected_seq(self) -> int | None:
        """Absolute sequence number of the next in-order byte (None until
        the stream origin is known).  Used to hand a flow between engines
        without losing its position."""
        if self._base is None:
            return None
        return self._expected_abs()

    def in_order_seq(self) -> int | None:
        """Where contiguous segments deliver their concatenation, with no
        event (None while bytes are buffered or a FIN is known)."""
        if self._starts or self._fin_offset is not None or self._base is None:
            return None
        return self._expected_abs()

    def pending_holes(self) -> list[tuple[int, int]]:
        """Gaps (start, end) between the delivered stream and buffered data."""
        holes: list[tuple[int, int]] = []
        cursor = self._next
        for start, chunk in zip(self._starts, self._chunks):
            if start > cursor:
                holes.append((cursor, start))
            cursor = max(cursor, start + len(chunk))
        return holes

    # -- segment intake ---------------------------------------------------

    def add(
        self, seq: int, data: bytes, *, syn: bool = False, fin: bool = False
    ) -> ReassemblyResult:
        """Feed one segment; returns newly in-order bytes and any anomalies.

        ``seq`` is the absolute TCP sequence number of the segment.  SYN
        consumes one sequence number before the payload, FIN one after,
        per RFC 793.
        """
        result = ReassemblyResult()
        data_seq = seq_add(seq, 1) if syn else seq
        if self._base is None:
            self._base = data_seq
        rel = self._next + seq_diff(data_seq, self._expected_abs())
        if (
            rel < 0
            and not self._base_pinned
            and self._next == 0
            and self.delivered_total == 0
        ):
            # Midstream pickup saw a later segment first; an earlier one is
            # legitimate data, not a retransmission.  Shift the origin down.
            self._rebase(-rel)
            rel = 0
        if fin:
            fin_at = rel + len(data)
            if self._fin_offset is not None and self._fin_offset != fin_at:
                result.events.append(
                    StreamEventRecord(
                        StreamEvent.INCONSISTENT_OVERLAP,
                        fin_at,
                        detail="FIN moved",
                    )
                )
            else:
                self._fin_offset = fin_at
        if (
            self.tiny_threshold
            and data
            and len(data) < self.tiny_threshold
            and not fin
        ):
            result.events.append(
                StreamEventRecord(StreamEvent.TINY_SEGMENT, rel, len(data))
            )
        if data:
            self._ingest(rel, data, result)
        self._deliver(result)
        return result

    def _rebase(self, shift: int) -> None:
        """Move stream offset 0 down by ``shift`` bytes (pre-delivery only)."""
        assert self._base is not None
        self._base = seq_add(self._base, -shift % (2**32))
        self._starts = [start + shift for start in self._starts]
        if self._fin_offset is not None:
            self._fin_offset += shift

    def _expected_abs(self) -> int:
        """Absolute sequence number corresponding to stream offset _next."""
        assert self._base is not None
        return seq_add(self._base, self._next % (2**32))

    # -- internals --------------------------------------------------------

    def _ingest(self, rel: int, data: bytes, result: ReassemblyResult) -> None:
        end = rel + len(data)
        if end <= self._next:
            # Entirely within the already-delivered stream: a retransmission.
            self._check_history(rel, data, result)
            return
        if rel < self._next:
            # Partially retransmitted prefix; the delivered bytes are final.
            self._check_history(rel, data[: self._next - rel], result)
            data = data[self._next - rel :]
            rel = self._next
        if rel > self._next + self.horizon:
            result.events.append(
                StreamEventRecord(StreamEvent.OUT_OF_WINDOW, rel, len(data))
            )
            return
        if rel > self._next and not self._covers(rel):
            result.events.append(
                StreamEventRecord(StreamEvent.OUT_OF_ORDER, rel, len(data))
            )
        if len(data) > self.max_buffered - self.buffered_bytes:
            allowed = max(0, self.max_buffered - self.buffered_bytes)
            result.events.append(
                StreamEventRecord(
                    StreamEvent.BUFFER_OVERFLOW, rel, len(data) - allowed
                )
            )
            data = data[:allowed]
            if not data:
                return
        self._insert(rel, bytearray(data), result)

    def _covers(self, offset: int) -> bool:
        """True when ``offset`` falls inside an already-buffered chunk."""
        i = bisect.bisect_right(self._starts, offset) - 1
        return i >= 0 and offset < self._starts[i] + len(self._chunks[i])

    def _check_history(self, rel: int, data: bytes, result: ReassemblyResult) -> None:
        """Compare a retransmission against retained delivered bytes."""
        history_start = self._next - len(self._history)
        overlap_start = max(rel, history_start)
        overlap_end = min(rel + len(data), self._next)
        consistent = True
        checked = overlap_start < overlap_end
        if checked:
            old = self._history[
                overlap_start - history_start : overlap_end - history_start
            ]
            new = data[overlap_start - rel : overlap_end - rel]
            consistent = bytes(old) == bytes(new)
        event = (
            StreamEvent.RETRANSMISSION
            if consistent
            else StreamEvent.INCONSISTENT_OVERLAP
        )
        result.events.append(
            StreamEventRecord(event, rel, len(data), detail="vs delivered")
        )

    def _insert(self, rel: int, data: bytearray, result: ReassemblyResult) -> None:
        """Merge ``data`` at offset ``rel`` into the chunk list."""
        end = rel + len(data)
        # Collect every existing chunk intersecting [rel, end).
        lo = bisect.bisect_right(self._starts, rel)
        while lo > 0 and self._starts[lo - 1] + len(self._chunks[lo - 1]) > rel:
            lo -= 1
        hi = lo
        while hi < len(self._starts) and self._starts[hi] < end:
            hi += 1
        if lo == hi:
            self._starts.insert(lo, rel)
            self._chunks.insert(lo, data)
            self._buffered += len(data)
            return
        # Build the merged region spanning new data and all intersecting
        # chunks.  The chunks are sorted and disjoint, so the new bytes
        # land in the gaps between them, one slice each: the merge costs
        # O(chunks) interpreter steps, not O(bytes).
        merged_start = min(rel, self._starts[lo])
        merged_end = max(end, self._starts[hi - 1] + len(self._chunks[hi - 1]))
        merged = bytearray(merged_end - merged_start)
        cursor = rel  # first new byte not yet placed or contested
        for start, chunk in zip(self._starts[lo:hi], self._chunks[lo:hi]):
            old_end = start + len(chunk)
            merged[start - merged_start : old_end - merged_start] = chunk
            if cursor < start:
                merged[cursor - merged_start : start - merged_start] = data[
                    cursor - rel : start - rel
                ]
            cursor = max(cursor, old_end)
            # Resolve this chunk's overlap against the new segment.
            ov_start, ov_end = max(start, rel), min(old_end, end)
            if ov_start >= ov_end:
                continue
            new_bytes = data[ov_start - rel : ov_end - rel]
            consistent = chunk[ov_start - start : ov_end - start] == new_bytes
            result.events.append(
                StreamEventRecord(
                    StreamEvent.OVERLAP if consistent else StreamEvent.INCONSISTENT_OVERLAP,
                    ov_start,
                    ov_end - ov_start,
                    detail=f"policy={self.policy.value}",
                )
            )
            if resolve_overlap(self.policy, start, old_end, rel, end):
                merged[ov_start - merged_start : ov_end - merged_start] = new_bytes
        if cursor < end:
            merged[cursor - merged_start : end - merged_start] = data[cursor - rel :]
        # Replace the intersected chunks with the merged one.
        self._buffered += len(merged) - sum(len(c) for c in self._chunks[lo:hi])
        del self._starts[lo:hi]
        del self._chunks[lo:hi]
        self._starts.insert(lo, merged_start)
        self._chunks.insert(lo, merged)

    def _deliver(self, result: ReassemblyResult) -> None:
        """Move contiguous bytes at the head of the buffer into the stream."""
        delivered = bytearray()
        while self._starts and self._starts[0] == self._next:
            chunk = self._chunks.pop(0)
            self._starts.pop(0)
            delivered += chunk
            self._next += len(chunk)
            self._buffered -= len(chunk)
        if delivered:
            self.delivered_total += len(delivered)
            self._history += delivered
            if len(self._history) > self.history_limit:
                del self._history[: len(self._history) - self.history_limit]
            result.delivered = bytes(delivered)
        if self._fin_offset is not None and self._next >= self._fin_offset:
            self.finished = True
            result.finished = True
