"""Sketch-backed flow state for the 1M-flow regime.

The exact backends (dict, :class:`~repro.core.flowtable.FlowTable`)
spend a full table entry on every flow direction, anomalous or not.
At the paper's ~1M-concurrent-connection operating point almost all of
those flows are benign and need nothing but a 4-byte expected sequence
number -- so this backend splits the state three ways:

- **Cold slots** -- a fixed power-of-two ``array('Q')`` where each
  64-bit word packs the expected sequence number (bits 0-31), a 16-bit
  key fingerprint (bits 32-47, zero means empty), and a has-seq flag
  (bit 48).  Direct-mapped by the low bits of the flow hash; a
  colliding flow *recycles* the slot rather than chaining, so memory
  never grows.  Cold slots are keyless: they cannot be enumerated or
  idle-swept, only recycled.
- **A count-min sketch** of per-flow anomaly counters
  (:class:`CountMinSketch`).  Overestimate-only and bucket-wise
  mergeable, so the sharded runtime can fold per-worker sketches into
  one report (the OctoSketch sketch-per-worker / periodic-merge shape).
- **A small exact hot set** -- flows the sketch says have diverted at
  least ``promote_threshold`` times get a real dict entry (promoted on
  first anomaly), LRU-bounded at ``hot_capacity``, and demoted back to
  a cold slot when idle.  Anomalous flows are exactly the ones whose
  monitor state must survive collisions, because they are headed for
  slow-path probation.

Failure modes are asymmetric by construction: a cold-slot *hash*
collision loses the victim's expected sequence number, which re-arms
its monitor in midstream-pickup mode (a missed-divert risk, identical
to a ``FlowTable`` eviction) -- while a *fingerprint* collision inside
one slot (same low bits AND same 16 high bits) can hand a flow another
flow's sequence number, the only source of false diverts.
``benchmarks/bench_state_scale.py`` measures that rate against the
exact-dict oracle and gates it at 1%.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator

from ..hashing import fnv1a_64, mix64
from ..packet import FlowTuple
from .state import FAST_FLOW_STATE_BYTES, FlowState

__all__ = ["CountMinSketch", "SketchBackend"]

_SEQ_MASK = 0xFFFFFFFF
_FP_SHIFT = 32
_FP_MASK = 0xFFFF
_HAS_SEQ_BIT = 1 << 48

#: Count-min cells are 32-bit hardware counters; increments saturate
#: rather than wrap so merged estimates stay overestimate-only.
_CELL_MAX = 0xFFFFFFFF


class CountMinSketch:
    """Fixed-size frequency sketch: overestimate-only, bucket-wise mergeable.

    ``depth`` rows of ``width`` 32-bit counters.  Keys are pre-hashed
    64-bit values (one FNV-1a pass per flow, shared with the slot
    array); per-row indexes are derived with :func:`~repro.hashing.mix64`
    so the rows are pairwise independent without re-hashing the key.
    """

    def __init__(self, width: int = 1 << 14, depth: int = 4) -> None:
        if width <= 0 or width & (width - 1):
            raise ValueError(f"width must be a power of two, got {width}")
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.width = width
        self.depth = depth
        self._mask = width - 1
        self._rows: list[array] = [array("I", bytes(4 * width)) for _ in range(depth)]

    def add(self, key_hash: int, count: int = 1) -> None:
        """Count ``count`` occurrences of the flow hashed to ``key_hash``."""
        for row_index in range(self.depth):
            row = self._rows[row_index]
            cell = mix64(key_hash, row_index) & self._mask
            value = row[cell] + count
            row[cell] = value if value <= _CELL_MAX else _CELL_MAX

    def estimate(self, key_hash: int) -> int:
        """Upper bound on this flow's count (never an underestimate)."""
        best = _CELL_MAX + 1
        for row_index in range(self.depth):
            value = self._rows[row_index][mix64(key_hash, row_index) & self._mask]
            if value < best:
                best = value
        return best

    def merge(self, other: CountMinSketch) -> None:
        """Fold ``other`` into this sketch cell-by-cell (saturating add).

        Sound for count-min: min over rows of (a_i + b_i) is still an
        upper bound on the two true counts combined, so merged shard
        sketches keep the overestimate-only guarantee.
        """
        if (other.width, other.depth) != (self.width, self.depth):
            raise ValueError(
                f"sketch shapes differ: {self.width}x{self.depth} vs "
                f"{other.width}x{other.depth}"
            )
        for mine, theirs in zip(self._rows, other._rows):
            for cell in range(self.width):
                value = mine[cell] + theirs[cell]
                mine[cell] = value if value <= _CELL_MAX else _CELL_MAX

    def copy(self) -> CountMinSketch:
        clone = CountMinSketch.__new__(CountMinSketch)
        clone.width = self.width
        clone.depth = self.depth
        clone._mask = self._mask
        clone._rows = [array("I", row) for row in self._rows]
        return clone

    def total(self) -> int:
        """Sum of one row's cells == total increments (row 0 is exact
        because every add touches each row exactly once)."""
        return sum(self._rows[0])

    def state_bytes(self) -> int:
        return self.width * self.depth * 4

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountMinSketch):
            return NotImplemented
        return (
            self.width == other.width
            and self.depth == other.depth
            and self._rows == other._rows
        )


class SketchBackend:
    """Compact fast-path flow state: cold slots + count-min + exact hot set.

    Implements :class:`~repro.core.state.StateBackend`.  Provisioned
    memory is fixed at construction -- slot array + sketch + hot-set
    capacity -- and never grows with flow count.
    """

    updates_in_place = False

    def __init__(
        self,
        slots: int = 1 << 17,
        hot_capacity: int = 4096,
        *,
        width: int = 1 << 14,
        depth: int = 4,
        promote_threshold: int = 1,
        key_bytes: Callable[[FlowTuple], bytes],
    ) -> None:
        if slots <= 0 or slots & (slots - 1):
            raise ValueError(f"slots must be a power of two, got {slots}")
        if hot_capacity <= 0:
            raise ValueError("hot_capacity must be positive")
        if promote_threshold <= 0:
            raise ValueError("promote_threshold must be positive")
        self.hot_capacity = hot_capacity
        self.promote_threshold = promote_threshold
        self._key_bytes = key_bytes
        self._slots = array("Q", bytes(8 * slots))
        self._slot_mask = slots - 1
        # Insertion order doubles as LRU order: reads re-insert.
        self._hot: dict[FlowTuple, FlowState] = {}
        self._cms = CountMinSketch(width, depth)
        self._occupied = 0  # live cold slots (nonzero fingerprint)
        self.promotions = 0  # cold -> hot (sketch crossed threshold)
        self.demotions = 0  # hot -> cold (idle sweep or hot-set overflow)
        self.slot_recycles = 0  # cold slot overwritten by a different flow
        # One-entry hash memo: a packet touches the same flow several
        # times (get, put, record_anomaly), and the FNV pass over the
        # serialized five-tuple is the expensive part.
        self._memo_key: FlowTuple | None = None
        self._memo_hash = 0

    # -- hashing -----------------------------------------------------------

    def _hash(self, flow: FlowTuple) -> int:
        if flow == self._memo_key:
            return self._memo_hash
        value = fnv1a_64(self._key_bytes(flow))
        self._memo_key = flow
        self._memo_hash = value
        return value

    @staticmethod
    def _fingerprint(key_hash: int) -> int:
        # High 16 bits, disjoint from the slot index (low bits); zero is
        # reserved for "empty slot" so a zero fingerprint is remapped.
        return ((key_hash >> 48) & _FP_MASK) or 1

    # -- cold-slot codec ---------------------------------------------------

    @staticmethod
    def _decode(word: int) -> FlowState:
        expected = word & _SEQ_MASK if word & _HAS_SEQ_BIT else None
        return FlowState(expected_seq=expected)

    def _write_slot(self, key_hash: int, state: FlowState) -> None:
        index = key_hash & self._slot_mask
        fingerprint = self._fingerprint(key_hash)
        old_fp = (self._slots[index] >> _FP_SHIFT) & _FP_MASK
        if old_fp == 0:
            self._occupied += 1
        elif old_fp != fingerprint:
            self.slot_recycles += 1
        word = fingerprint << _FP_SHIFT
        if state.expected_seq is not None:
            word |= (state.expected_seq & _SEQ_MASK) | _HAS_SEQ_BIT
        self._slots[index] = word

    def _read_slot(self, key_hash: int) -> FlowState | None:
        word = self._slots[key_hash & self._slot_mask]
        fingerprint = (word >> _FP_SHIFT) & _FP_MASK
        if fingerprint != self._fingerprint(key_hash):
            # Empty, or another flow's record: this flow has no state.
            # Never steal on read -- a lost record degrades to midstream
            # pickup, never to a fabricated divert.
            return None
        return self._decode(word)

    def _clear_slot(self, key_hash: int) -> FlowState | None:
        index = key_hash & self._slot_mask
        word = self._slots[index]
        fingerprint = (word >> _FP_SHIFT) & _FP_MASK
        if fingerprint != self._fingerprint(key_hash):
            return None
        self._slots[index] = 0
        self._occupied -= 1
        return self._decode(word)

    # -- StateBackend ------------------------------------------------------

    def get(self, flow: FlowTuple) -> FlowState | None:
        state = self._hot.pop(flow, None)
        if state is not None:
            self._hot[flow] = state  # LRU touch
            return state
        return self._read_slot(self._hash(flow))

    def peek(self, flow: FlowTuple) -> FlowState | None:
        state = self._hot.get(flow)
        if state is not None:
            return state
        return self._read_slot(self._hash(flow))

    def put(self, flow: FlowTuple, state: FlowState) -> None:
        if flow in self._hot:
            self._hot.pop(flow)
            self._hot[flow] = state
            return
        key_hash = self._hash(flow)
        if self._cms.estimate(key_hash) >= self.promote_threshold:
            self._promote(flow, state, key_hash)
        else:
            self._write_slot(key_hash, state)

    def _promote(self, flow: FlowTuple, state: FlowState, key_hash: int) -> None:
        self._clear_slot(key_hash)  # no stale cold duplicate
        self._hot[flow] = state
        self.promotions += 1
        if len(self._hot) > self.hot_capacity:
            victim = next(iter(self._hot))  # LRU: oldest insertion
            victim_state = self._hot.pop(victim)
            self._write_slot(self._hash(victim), victim_state)
            self.demotions += 1

    def pop(self, flow: FlowTuple, default: FlowState | None = None) -> FlowState | None:
        state = self._hot.pop(flow, None)
        if state is not None:
            return state
        cleared = self._clear_slot(self._hash(flow))
        return cleared if cleared is not None else default

    def clear(self) -> None:
        """Flush monitor entries.  The anomaly sketch is history, not a
        monitor entry, and survives the flush."""
        self._hot.clear()
        self._slots = array("Q", bytes(8 * (self._slot_mask + 1)))
        self._occupied = 0

    def items(self) -> Iterator[tuple[FlowTuple, FlowState]]:
        """The exact (hot) records only: cold slots are keyless."""
        return iter(self._hot.items())

    def __len__(self) -> int:
        return len(self._hot) + self._occupied

    def record_anomaly(self, flow: FlowTuple) -> None:
        self._cms.add(self._hash(flow))

    def evict_idle(self, now: float, idle_timeout: float) -> int:
        """Demote idle hot flows back to cold slots (they keep their
        expected sequence number, but stop costing an exact entry)."""
        stale = [
            flow
            for flow, state in self._hot.items()
            if now - state.last_seen > idle_timeout
        ]
        for flow in stale:
            state = self._hot.pop(flow)
            self._write_slot(self._hash(flow), state)
            self.demotions += 1
        return len(stale)

    def provisioned_bytes(self) -> int:
        return (
            (self._slot_mask + 1) * 8
            + self._cms.state_bytes()
            + self.hot_capacity * FAST_FLOW_STATE_BYTES
        )

    @property
    def table_evictions(self) -> int:
        return self.slot_recycles

    def sketch_snapshot(self) -> CountMinSketch:
        return self._cms.copy()

    # -- accounting --------------------------------------------------------

    @property
    def hot_entries(self) -> int:
        return len(self._hot)

    @property
    def cold_entries(self) -> int:
        return self._occupied
