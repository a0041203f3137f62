"""Fast-path flow-state backends behind one protocol.

The fast path's monitor needs one tiny record per flow direction (an
expected sequence number plus a last-seen stamp).  *Where* that record
lives is the paper's whole state argument, so the storage is pluggable:

- :class:`DictBackend` -- an unbounded python dict.  Exact, simple, and
  the evaluation oracle; memory grows linearly with concurrent flows.
- :class:`TableBackend` -- the fixed set-associative
  :class:`~repro.core.flowtable.FlowTable` (the hardware-faithful SRAM
  model); exact until full, then per-bucket LRU eviction.
- :class:`~repro.core.sketch.SketchBackend` -- the 1M-flow regime:
  fixed compact slots for cold flows, a count-min sketch of per-flow
  anomaly counters, and a small exact hot set promoted on first
  anomaly.  Constant provisioned memory at any flow count, at the cost
  of a bounded false-divert rate (``benchmarks/bench_state_scale.py``
  measures it).

:class:`FastPath` talks to all three through :class:`StateBackend`, keyed
by the numeric five-tuple, all of it inside ``FastPath.process_columns``:
one ``get``, mutate the returned :class:`FlowState`, one ``put`` where
the backend owes it -- one touch per TCP packet on the dict, whose
``get`` hands back the stored record (only a new one is ``put``), two on
the table (an LRU touch) and the sketch (the one chance a cold slot gets
to persist the update).  ``peek`` is for passive probes
only; its one product caller is ``FastPath.expected_seq`` (the
diversion-time snapshot of a direction that did not just send).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Protocol

from ..packet import FlowTuple
from .flowtable import FlowTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sketch imports us)
    from .sketch import CountMinSketch

__all__ = [
    "FAST_FLOW_STATE_BYTES",
    "DictBackend",
    "FlowState",
    "StateBackend",
    "TableBackend",
]

#: Per-flow-direction fast-path state in a hardware realization:
#: a 12-byte five-tuple fingerprint, a 4-byte expected sequence number,
#: and a flag byte, padded to an 8-byte-aligned table entry.
FAST_FLOW_STATE_BYTES = 24


@dataclass
class FlowState:
    """What the fast path remembers about one flow direction."""

    expected_seq: int | None = None
    last_seen: float = 0.0


class StateBackend(Protocol):
    """Storage contract for the fast path's per-flow monitor records.

    Mapping-shaped on purpose -- ``get``/``put``/``pop``/``items`` --
    plus the accounting hooks the telemetry and benchmarks read.
    """

    updates_in_place: bool
    """``get`` returns the stored record and nothing else is owed: a
    found record needs no write-back ``put``."""

    def get(self, flow: FlowTuple) -> FlowState | None:
        """Active read (the flow just sent a packet); may promote/LRU-touch."""
        ...

    def peek(self, flow: FlowTuple) -> FlowState | None:
        """Passive probe: no LRU promotion, no hit/miss accounting."""
        ...

    def put(self, flow: FlowTuple, state: FlowState) -> None:
        """Write back a (possibly new) record after mutation."""
        ...

    def pop(self, flow: FlowTuple, default: FlowState | None = None) -> FlowState | None:
        """Remove and return the record (dict-compatible default)."""
        ...

    def clear(self) -> None: ...

    def items(self) -> Iterator[tuple[FlowTuple, FlowState]]:
        """Iterate the *exact* records (a compact backend yields only its
        hot set -- cold slots are keyless and self-recycling)."""
        ...

    def __len__(self) -> int: ...

    def record_anomaly(self, flow: FlowTuple) -> None:
        """Note that this flow triggered a divert-worthy anomaly (feeds
        the sketch backend's promotion counters; exact backends ignore it)."""
        ...

    def evict_idle(self, now: float, idle_timeout: float) -> int:
        """Reclaim exact records idle past the timeout; returns the count.
        Exact backends drop the records; the sketch backend *demotes*
        them to cold slots (state survives, the exact entry is freed)."""
        ...

    def provisioned_bytes(self) -> int:
        """State footprint as a hardware design would count it: occupied
        entries for the unbounded dict, full provisioned capacity for the
        fixed-size backends."""
        ...

    @property
    def table_evictions(self) -> int:
        """Records lost to capacity (bucket LRU or cold-slot recycling);
        0 for the unbounded dict."""
        ...

    def sketch_snapshot(self) -> CountMinSketch | None:
        """A copy of the anomaly sketch for cross-shard merging (None for
        exact backends)."""
        ...


def _evict_idle_exact(backend: StateBackend, now: float, idle_timeout: float) -> int:
    """Shared idle sweep for the exact backends: scan and drop."""
    stale = [
        flow for flow, state in backend.items() if now - state.last_seen > idle_timeout
    ]
    for flow in stale:
        backend.pop(flow, None)
    return len(stale)


class DictBackend(dict):  # type: ignore[type-arg]
    """Unbounded exact state: a plain dict with the protocol's extras.

    Subclasses ``dict`` so the hot-path operations (``get``, ``pop``,
    ``items``, ``len``) are the native C implementations -- the protocol
    costs this backend nothing per packet.
    """

    updates_in_place = True
    peek = dict.get  # a dict read has no side effects to suppress

    def put(self, flow: FlowTuple, state: FlowState) -> None:
        self[flow] = state

    def record_anomaly(self, flow: FlowTuple) -> None:
        return None

    def evict_idle(self, now: float, idle_timeout: float) -> int:
        return _evict_idle_exact(self, now, idle_timeout)

    def provisioned_bytes(self) -> int:
        return len(self) * FAST_FLOW_STATE_BYTES

    @property
    def table_evictions(self) -> int:
        return 0

    def sketch_snapshot(self) -> CountMinSketch | None:
        return None


class TableBackend(FlowTable):  # type: ignore[type-arg]
    """Fixed set-associative state (the hardware SRAM model).

    Inherits the table's ``get``/``peek``/``put``/``pop``/``items``;
    adds the protocol's accounting surface.  ``put`` on a resident key
    re-appends within the bucket, which matches the LRU position the
    preceding ``get`` already gave it -- the write-back discipline does
    not perturb replacement order.
    """

    updates_in_place = False

    def __init__(
        self,
        buckets: int,
        ways: int,
        *,
        key_bytes: Callable[[FlowTuple], bytes] | None = None,
    ) -> None:
        super().__init__(buckets, ways, key_bytes=key_bytes)

    def record_anomaly(self, flow: FlowTuple) -> None:
        return None

    def evict_idle(self, now: float, idle_timeout: float) -> int:
        return _evict_idle_exact(self, now, idle_timeout)

    def provisioned_bytes(self) -> int:
        return self.capacity * FAST_FLOW_STATE_BYTES

    @property
    def table_evictions(self) -> int:
        return self.evictions

    def sketch_snapshot(self) -> CountMinSketch | None:
        return None
