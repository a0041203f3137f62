"""IP datagram defragmentation with overlap policies and timeout eviction.

Mirrors the TCP reassembler one layer down: fragments of one datagram are
keyed by (src, dst, protocol, id), overlaps are resolved per policy and
flagged, and the reassembled packet is emitted once the byte range is
complete.  Incomplete datagrams are evicted after ``timeout`` seconds,
modelling the reassembly timer of RFC 791.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..packet import IPv4Packet
from .events import StreamEvent, StreamEventRecord
from .policies import OverlapPolicy, resolve_overlap

DEFAULT_FRAGMENT_TIMEOUT = 30.0
DEFAULT_MAX_DATAGRAM = 65535


@dataclass
class DefragResult:
    """Outcome of feeding one fragment to the defragmenter."""

    packet: IPv4Packet | None = None
    """The reassembled datagram, once complete."""

    events: list[StreamEventRecord] = field(default_factory=list)


@dataclass
class _PartialDatagram:
    """Reassembly state for one in-flight fragmented datagram."""

    ttl: int  # the first fragment's, once it arrives: the datagram's header
    arrival: float
    pieces: list[tuple[int, bytearray]] = field(default_factory=list)  # sorted, disjoint
    total_length: int | None = None  # set once the final fragment arrives

    @property
    def buffered_bytes(self) -> int:
        return sum(len(p) for _, p in self.pieces)


class IpDefragmenter:
    """Defragments IPv4 datagrams across many concurrent flows.

    Parameters
    ----------
    policy:
        Overlap resolution policy (fragment overlap behaviour also varies
        by OS, exactly like TCP segment overlap).
    timeout:
        Seconds an incomplete datagram may wait before eviction.
    tiny_threshold:
        When positive, a non-final fragment carrying fewer payload bytes
        raises ``TINY_FRAGMENT``.
    """

    def __init__(
        self,
        *,
        policy: OverlapPolicy = OverlapPolicy.BSD,
        timeout: float = DEFAULT_FRAGMENT_TIMEOUT,
        tiny_threshold: int = 0,
    ) -> None:
        self.policy = policy
        self.timeout = timeout
        self.tiny_threshold = tiny_threshold
        self._partials: dict[tuple, _PartialDatagram] = {}
        self._buffered = 0  # running sum of the partials' buffered_bytes
        # A lower bound on the partials' arrivals: exact after a scan, and
        # only conservative once a partial completes.  While it is not
        # stale, no partial is, and ``expire`` need not scan.
        self._oldest = float("inf")
        self.evicted_total = 0
        self.reassembled_total = 0

    # -- accounting ------------------------------------------------------

    @property
    def pending_datagrams(self) -> int:
        return len(self._partials)

    @property
    def buffered_bytes(self) -> int:
        """Fragment payload bytes held across all pending datagrams (a
        running counter, updated where fragments are merged or dropped)."""
        return self._buffered

    # -- fragment intake ---------------------------------------------------

    def add(self, packet: IPv4Packet, timestamp: float = 0.0) -> DefragResult:
        """Feed one packet object; passes non-fragments through untouched."""
        if not packet.is_fragment:
            self.expire(timestamp)
            return DefragResult(packet=packet)
        return self.add_fragment(packet.fragment_header, packet.payload, timestamp, packet.ttl)

    def add_fragment(
        self, header: tuple, payload: bytes | memoryview, timestamp: float, ttl: int
    ) -> DefragResult:
        """Feed one fragment: its ``IPv4Packet.fragment_header`` (src, dst,
        protocol, id, byte offset, MF), IP payload (copied in: a caller's
        buffer view is never retained), arrival time and TTL.  The
        completed datagram is the one object built."""
        key = header[:4]
        offset, more = header[4], header[5]
        result = DefragResult()
        self.expire(timestamp)
        if self.tiny_threshold and more and len(payload) < self.tiny_threshold:
            result.events.append(
                StreamEventRecord(StreamEvent.TINY_FRAGMENT, offset, len(payload))
            )
        partial = self._partials.get(key)
        if partial is None:
            partial = _PartialDatagram(ttl=ttl, arrival=timestamp)
            self._partials[key] = partial
            self._oldest = min(self._oldest, timestamp)
        if offset == 0:
            partial.ttl = ttl
        end = offset + len(payload)
        if end > DEFAULT_MAX_DATAGRAM:
            # The classic ping-of-death shape: offset + length overflows.
            result.events.append(
                StreamEventRecord(
                    StreamEvent.OUT_OF_WINDOW, offset, len(payload),
                    detail="fragment exceeds 64KiB datagram",
                )
            )
            return result
        if not more:
            if partial.total_length is not None and partial.total_length != end:
                result.events.append(
                    StreamEventRecord(
                        StreamEvent.INCONSISTENT_FRAGMENT_OVERLAP, end,
                        detail="final fragment moved",
                    )
                )
            partial.total_length = end
        before = partial.buffered_bytes
        self._merge(partial, offset, bytearray(payload), result)
        self._buffered += partial.buffered_bytes - before
        if self._complete(partial):
            result.packet = self._finish(key, partial)
            self.reassembled_total += 1
        return result

    def expire(self, now: float) -> int:
        """Evict datagrams older than the timeout; returns how many.

        Scans the partials only once the oldest arrival is stale, so a
        packet costs O(1) however many datagrams an attacker holds open.
        """
        if not now - self._oldest > self.timeout:
            return 0
        stale = [
            key
            for key, partial in self._partials.items()
            if now - partial.arrival > self.timeout
        ]
        for key in stale:
            self._buffered -= self._partials.pop(key).buffered_bytes
        self._oldest = min(
            (partial.arrival for partial in self._partials.values()), default=float("inf")
        )
        self.evicted_total += len(stale)
        return len(stale)

    # -- internals --------------------------------------------------------

    def _merge(
        self,
        partial: _PartialDatagram,
        offset: int,
        data: bytearray,
        result: DefragResult,
    ) -> None:
        end = offset + len(data)
        retained: list[tuple[int, bytearray]] = []
        for old_start, old_data in partial.pieces:
            old_end = old_start + len(old_data)
            ov_start, ov_end = max(old_start, offset), min(old_end, end)
            if ov_start >= ov_end:
                retained.append((old_start, old_data))
                continue
            old_bytes = old_data[ov_start - old_start : ov_end - old_start]
            new_bytes = data[ov_start - offset : ov_end - offset]
            consistent = bytes(old_bytes) == bytes(new_bytes)
            result.events.append(
                StreamEventRecord(
                    StreamEvent.FRAGMENT_OVERLAP
                    if consistent
                    else StreamEvent.INCONSISTENT_FRAGMENT_OVERLAP,
                    ov_start,
                    ov_end - ov_start,
                    detail=f"policy={self.policy.value}",
                )
            )
            if resolve_overlap(self.policy, old_start, old_end, offset, end):
                # New bytes win the contested region; old keeps only its tails.
                if old_start < offset:
                    retained.append((old_start, old_data[: offset - old_start]))
                if old_end > end:
                    retained.append((end, old_data[end - old_start :]))
            else:
                # Old bytes win; trim the new data over the contested region.
                data[ov_start - offset : ov_end - offset] = old_bytes
                retained.append((old_start, old_data))
        # Drop retained pieces fully covered by the (now policy-resolved) new data.
        pieces = [
            (s, d) for s, d in retained if not (offset <= s and s + len(d) <= end)
        ]
        pieces.append((offset, data))
        pieces.sort(key=lambda item: item[0])
        # Coalesce adjacent/overlapping pieces (overlap content already resolved).
        merged: list[tuple[int, bytearray]] = []
        for start, chunk in pieces:
            if merged and start <= merged[-1][0] + len(merged[-1][1]):
                prev_start, prev_chunk = merged[-1]
                keep = start + len(chunk) - (prev_start + len(prev_chunk))
                if keep > 0:
                    prev_chunk += chunk[len(chunk) - keep :]
            else:
                merged.append((start, chunk))
        partial.pieces = merged

    @staticmethod
    def _complete(partial: _PartialDatagram) -> bool:
        if partial.total_length is None:
            return False
        if len(partial.pieces) != 1:
            return False
        start, data = partial.pieces[0]
        return start == 0 and len(data) >= partial.total_length

    def _finish(self, key: tuple, partial: _PartialDatagram) -> IPv4Packet:
        del self._partials[key]
        self._buffered -= partial.buffered_bytes
        assert partial.total_length is not None
        src, dst, protocol, identification = key
        return IPv4Packet(
            src=src,
            dst=dst,
            protocol=protocol,
            payload=bytes(partial.pieces[0][1][: partial.total_length]),
            ttl=partial.ttl,
            identification=identification,
        )
