"""Flow-level decision tracing: a bounded, sampled flight recorder.

The aggregate counters in :mod:`repro.telemetry.registry` answer "how
much was diverted"; this module answers "why was flow X diverted (or
missed)".  A :class:`FlowTracer` records one small *span* dict per
decision event -- decode routing, fast-path anomaly, divert, AC prescan
hit, slow-path reassembly, alert/confirm, reinstate, evict sweeps,
quarantine -- into a bounded ring, keyed by a flow-consistent trace id.

Design constraints, mirroring the registry's (PR 2 discipline):

1. **Zero cost when disabled.**  Engines default to the shared
   :data:`NULL_TRACER`; every hot-path emission site additionally sits
   behind a single ``_trace_enabled`` check (held by
   ``tests/test_invariants.py::test_trace_emission_is_guarded``), so an
   untraced run pays one boolean test per site and nothing else.
2. **Deterministic.**  Trace ids are 64-bit FNV-1a over the *port-less*
   canonical flow key -- :func:`repro.packet.batch.portless_key_hash`,
   the hash the shard router places by -- so both directions of a connection
   AND every IP fragment of its datagrams share one trace id, and ids
   are identical across platforms and runs.  Span timestamps are packet
   time (never a wall clock), and the sampling decision is a pure
   function of the trace id, so serial and parallel runs of the same
   trace record byte-identical span lists.
3. **Bounded.**  The ring holds ``capacity`` spans; overflow drops the
   oldest and counts it (``len + dropped == recorded``, the journal's
   arithmetic).  Snapshots are therefore cheap enough to ship with
   every supervised delta flush, which is what lets a crashed worker
   generation's traces be salvaged.

Sampling semantics: a flow is traced when ``trace_id % sample == 0``.
Diverted flows are *always* traced -- emission sites on the diversion
path pass ``force=True``, which also pins the flow's trace id so every
subsequent slow-path span of that flow is recorded regardless of the
sampling knob.  The divert→confirm timeline is therefore always
complete even at 1/N sampling; only the benign prefix of the flow may
be thinned.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..packet import FlowKey, FlowTuple, flow_of_tuple
from ..packet.batch import portless_flow_hash, portless_key_hash

__all__ = [
    "NULL_TRACER",
    "TRACE_CAPACITY",
    "FlowTracer",
    "NullTracer",
    "merge_trace_snapshots",
    "span_sort_key",
    "trace_id_of",
]

#: Default bound on the span ring (per tracer, i.e. per shard).
TRACE_CAPACITY = 4096

#: Spans the trace-id cache may hold before being reset (a plain bound,
#: not an LRU: recomputing an id is one FNV pass, correctness is
#: unaffected, and a deterministic clear keeps serial == parallel).
_ID_CACHE_LIMIT = 1 << 16


def trace_id_of(flow: FlowKey) -> int:
    """The flow-consistent 64-bit trace id.

    :func:`~repro.packet.batch.portless_key_hash` of the flow's address
    pair and protocol -- the key the shard router places by -- so IP
    fragments share their connection's trace and both directions agree
    on one id.
    """
    return portless_key_hash(flow.src, flow.dst, flow.protocol)


def span_sort_key(span: dict[str, Any]) -> tuple:
    """The deterministic global span order: (ts, shard, generation, seq).

    The same key the alert merge uses, so a merged trace timeline and
    the merged alert list agree on event order.
    """
    return (span["ts"], span["shard"], span["gen"], span["seq"])


class FlowTracer:
    """Bounded, sampled span recorder for one engine (one shard)."""

    enabled = True

    def __init__(
        self,
        *,
        capacity: int = TRACE_CAPACITY,
        sample: int = 1,
        shard: int = 0,
        generation: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        if sample < 1:
            raise ValueError(f"trace sample must be >= 1, got {sample}")
        self.capacity = capacity
        self.sample = sample
        self.shard = shard
        self.generation = generation
        self._spans: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.recorded = 0
        self.dropped = 0
        self._seq = 0
        self._forced: set[int] = set()
        # Keyed by the *directional* flow as the caller names it (both
        # directions land on the same id), so a cache hit skips
        # canonicalization, the FNV pass, and the hex/str formatting --
        # the per-span hot costs.  A numeric five-tuple never equals a
        # FlowKey, so the batch route's keys and FlowKeys share it safely.
        self._ids: dict[FlowKey | FlowTuple, tuple[int, str, str]] = {}

    def __len__(self) -> int:
        return len(self._spans)

    def _entry(self, flow: FlowKey | FlowTuple) -> tuple[int, str, str]:
        """Cached ``(trace_id, hex_id, str(flow))`` for one direction."""
        entry = self._ids.get(flow)
        if entry is None:
            if len(self._ids) >= _ID_CACHE_LIMIT:
                self._ids.clear()
            if isinstance(flow, FlowKey):
                named, tid = flow, trace_id_of(flow)
            else:
                named = flow_of_tuple(flow)
                tid = portless_flow_hash(flow[0], flow[1], flow[4])
            entry = (tid, f"{tid:016x}", str(named))
            self._ids[flow] = entry
        return entry

    def trace_id(self, flow: FlowKey) -> int:
        """Cached :func:`trace_id_of` (one FNV pass per new flow)."""
        return self._entry(flow)[0]

    def wants(self, flow: FlowKey) -> bool:
        """Would a span for this flow be recorded right now?"""
        tid = self._entry(flow)[0]
        return tid % self.sample == 0 or tid in self._forced

    def is_forced(self, flow: FlowKey) -> bool:
        """True when this flow's trace id was pinned by a ``force=True``
        emission (i.e. the flow was diverted or otherwise marked
        must-trace).  The service load shedder consults this: a flow the
        operator is guaranteed a complete timeline for is never shed."""
        return self._entry(flow)[0] in self._forced

    def record(
        self,
        flow: FlowKey | FlowTuple,
        stage: str,
        event: str,
        ts: float,
        *,
        force: bool = False,
        **fields: Any,
    ) -> None:
        """Record one span for ``flow`` (a FlowKey, or the batch route's
        numeric five-tuple) if it is sampled (or forced).

        ``force=True`` records unconditionally *and* pins the flow's
        trace id, so every later span of the same flow is kept too --
        the "diverted flows are always traced" contract.
        """
        tid, hex_id, flow_str = self._entry(flow)
        if force:
            self._forced.add(tid)
        elif tid % self.sample != 0 and tid not in self._forced:
            return
        self._append(
            {
                "trace": hex_id,
                "ts": ts,
                "shard": self.shard,
                "gen": self.generation,
                "seq": self._seq,
                "stage": stage,
                "event": event,
                "flow": flow_str,
                **fields,
            }
        )

    def record_system(
        self, stage: str, event: str, ts: float = 0.0, **fields: Any
    ) -> None:
        """Record a flow-less span (evict sweeps, quarantine): trace id 0.

        System events are rare (per sweep / per malformed frame, never
        per packet) and always recorded -- sampling applies to flows.
        """
        self._append(
            {
                "trace": f"{0:016x}",
                "ts": ts,
                "shard": self.shard,
                "gen": self.generation,
                "seq": self._seq,
                "stage": stage,
                "event": event,
                "flow": "",
                **fields,
            }
        )

    def _append(self, span: dict[str, Any]) -> None:
        self._seq += 1
        self.recorded += 1
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)

    def spans(self) -> list[dict[str, Any]]:
        return list(self._spans)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump (ships across the worker process boundary)."""
        return {
            "capacity": self.capacity,
            "sample": self.sample,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "forced_flows": len(self._forced),
            "spans": [dict(span) for span in self._spans],
        }


def merge_trace_snapshots(*snapshots: dict[str, Any] | None) -> dict[str, Any]:
    """Fold per-shard (and per-generation) trace snapshots into one.

    Spans are re-sorted by :func:`span_sort_key` -- packet time, then
    shard, then generation, then the tracer's emission sequence -- the
    same deterministic order the alert merge uses, so the merged
    timeline of a parallel run equals the serial run's.  ``recorded`` /
    ``dropped`` / ``forced_flows`` sum; ``capacity`` keeps the largest
    declared ring and ``sample`` the largest (coarsest) knob seen.
    Empty/None snapshots (untraced shards) are skipped.  Lives outside
    the equivalence digest, like the telemetry registry and the sketch.
    """
    merged: dict[str, Any] = {
        "capacity": 0,
        "sample": 1,
        "recorded": 0,
        "dropped": 0,
        "forced_flows": 0,
        "spans": [],
    }
    for snapshot in snapshots:
        if not snapshot:
            continue
        merged["capacity"] = max(merged["capacity"], snapshot.get("capacity", 0))
        merged["sample"] = max(merged["sample"], snapshot.get("sample", 1))
        merged["recorded"] += snapshot.get("recorded", 0)
        merged["dropped"] += snapshot.get("dropped", 0)
        merged["forced_flows"] += snapshot.get("forced_flows", 0)
        merged["spans"].extend(dict(span) for span in snapshot.get("spans", []))
    merged["spans"].sort(key=span_sort_key)
    return merged


class NullTracer:
    """The disabled tracer: every method is a no-op (API parity)."""

    enabled = False
    capacity = 0
    sample = 1
    shard = 0
    generation = 0
    recorded = 0
    dropped = 0

    def __len__(self) -> int:
        return 0

    def trace_id(self, flow: FlowKey) -> int:
        return trace_id_of(flow)

    def wants(self, flow: FlowKey) -> bool:
        return False

    def is_forced(self, flow: FlowKey) -> bool:
        return False

    def record(
        self,
        flow: FlowKey | FlowTuple,
        stage: str,
        event: str,
        ts: float,
        *,
        force: bool = False,
        **fields: Any,
    ) -> None:
        pass

    def record_system(
        self, stage: str, event: str, ts: float = 0.0, **fields: Any
    ) -> None:
        pass

    def spans(self) -> list[dict[str, Any]]:
        return []

    def snapshot(self) -> dict[str, Any]:
        return {}


#: The shared disabled tracer every engine defaults to.
NULL_TRACER = NullTracer()
