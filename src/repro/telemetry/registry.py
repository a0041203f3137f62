"""Dependency-free runtime telemetry: counters, gauges, histograms, journal.

The paper's headline claims are quantitative (state ratio, diversion
fraction, per-stage cycle budgets), so every run should be able to report
them live.  This module is the instrumentation core the IPS engines call
into: a :class:`TelemetryRegistry` holding named metric families, plus a
bounded structured :class:`EventJournal` for discrete events (diversions,
reinstatements, eviction sweeps).

Design constraints, in priority order:

1. **Zero cost when disabled.**  Every engine defaults to the shared
   :data:`NULL_REGISTRY`; its instruments are no-op singletons, and the
   engines additionally guard each timing site on ``registry.enabled``
   so a disabled run never reads the monotonic clock.
2. **No dependencies.**  Pure stdlib; exporters (`export.py`) emit
   Prometheus text format and JSON without a client library.
3. **Fixed bucket edges.**  Histograms pre-declare their edges (the
   Prometheus model), so observation is one bisect + two adds and the
   export is reproducible across runs.

Metric naming follows ``repro_<subsystem>_<name>_<unit>`` (see
DESIGN.md's Telemetry section); label values partition a family into
children, e.g. ``repro_fastpath_anomaly_total{cause="tiny_segment"}``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Iterator, Sequence
from typing import Any

#: Latency bucket edges in nanoseconds (monotonic-clock deltas).  Spans
#: sub-microsecond pure-Python dispatch up to multi-millisecond slow-path
#: reassembly bursts; values above the last edge land in +Inf.
LATENCY_NS_BUCKETS: tuple[float, ...] = (
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
    2_500_000.0,
    10_000_000.0,
    50_000_000.0,
)

#: Size bucket edges in bytes (payload sizes, buffer occupancy).  Edges
#: track wire reality: tiny-segment threshold region, common MTU payloads
#: (1460), and the provisioned 4 KiB reassembly buffer.
SIZE_BYTES_BUCKETS: tuple[float, ...] = (
    0.0,
    8.0,
    16.0,
    32.0,
    64.0,
    128.0,
    256.0,
    512.0,
    1_024.0,
    1_460.0,
    4_096.0,
    16_384.0,
    65_536.0,
)

#: Default bound on the structured event journal.
JOURNAL_CAPACITY = 1024


def _label_key(
    label_names: tuple[str, ...], labels: dict[str, str]
) -> tuple[str, ...]:
    """Validate and order label values against the family's declaration."""
    if set(labels) != set(label_names):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared names {sorted(label_names)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class Counter:
    """A monotonically increasing metric family.

    With no declared label names the family is its own single child and
    ``inc`` applies directly; with label names, call ``labels(...)`` to
    bind (and cache) a child per label-value combination.
    """

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._values: dict[tuple[str, ...], float] = {}
        self._children: dict[tuple[str, ...], _BoundCounter] = {}
        if not self.label_names:
            self._values[()] = 0

    def labels(self, **labels: str) -> "_BoundCounter":
        key = _label_key(self.label_names, labels)
        child = self._children.get(key)
        if child is None:
            self._values.setdefault(key, 0)
            child = _BoundCounter(self._values, key)
            self._children[key] = child
        return child

    def inc(self, amount: float = 1) -> None:
        if self.label_names:
            raise ValueError(f"{self.name} declares labels; use .labels(...)")
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._values[()] += amount

    @property
    def value(self) -> float:
        """Unlabeled value, or the sum across children."""
        return sum(self._values.values())

    def value_for(self, **labels: str) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0)

    def samples(self) -> Iterator[tuple[dict[str, str], float]]:
        for key, value in sorted(self._values.items()):
            yield dict(zip(self.label_names, key)), value


class _BoundCounter:
    """One label-value combination of a :class:`Counter` (hot-path handle)."""

    __slots__ = ("_values", "_key")

    def __init__(self, values: dict[tuple[str, ...], float], key: tuple[str, ...]):
        self._values = values
        self._key = key

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counter cannot decrease")
        self._values[self._key] += amount

    @property
    def value(self) -> float:
        return self._values[self._key]


#: Valid gauge merge modes (how :meth:`TelemetryRegistry.merge` combines
#: two samples of the same gauge child): ``max`` keeps the larger value
#: (peaks, ratios -- the conservative cross-shard view), ``sum`` adds
#: (occupancy and state spread across shared-nothing shards), ``last``
#: lets the merged-in value win (freshest-sample semantics).
GAUGE_MERGE_MODES = ("max", "sum", "last")


class Gauge:
    """A point-in-time value family (occupancy, state bytes, ratios).

    ``merge`` declares how two samples of the same child combine when
    registries are merged (see :data:`GAUGE_MERGE_MODES`); it is part of
    the registration, so every site naming this gauge agrees on it.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        merge: str = "max",
    ) -> None:
        if merge not in GAUGE_MERGE_MODES:
            raise ValueError(
                f"gauge {name} merge mode {merge!r} not in {GAUGE_MERGE_MODES}"
            )
        self.name = name
        self.help = help
        self.merge = merge
        self.label_names = tuple(label_names)
        self._values: dict[tuple[str, ...], float] = {}
        self._children: dict[tuple[str, ...], _BoundGauge] = {}
        if not self.label_names:
            self._values[()] = 0

    def labels(self, **labels: str) -> "_BoundGauge":
        key = _label_key(self.label_names, labels)
        child = self._children.get(key)
        if child is None:
            self._values.setdefault(key, 0)
            child = _BoundGauge(self._values, key)
            self._children[key] = child
        return child

    def set(self, value: float) -> None:
        if self.label_names:
            raise ValueError(f"{self.name} declares labels; use .labels(...)")
        self._values[()] = value

    def inc(self, amount: float = 1) -> None:
        if self.label_names:
            raise ValueError(f"{self.name} declares labels; use .labels(...)")
        self._values[()] += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return sum(self._values.values())

    def value_for(self, **labels: str) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0)

    def samples(self) -> Iterator[tuple[dict[str, str], float]]:
        for key, value in sorted(self._values.items()):
            yield dict(zip(self.label_names, key)), value


class _BoundGauge:
    __slots__ = ("_values", "_key")

    def __init__(self, values: dict[tuple[str, ...], float], key: tuple[str, ...]):
        self._values = values
        self._key = key

    def set(self, value: float) -> None:
        self._values[self._key] = value

    def inc(self, amount: float = 1) -> None:
        self._values[self._key] += amount

    def dec(self, amount: float = 1) -> None:
        self._values[self._key] -= amount

    @property
    def value(self) -> float:
        return self._values[self._key]


class _HistogramChild:
    """Bucket counts + sum/count for one label combination.

    ``observe`` uses Prometheus ``le`` semantics: a value exactly on a
    bucket edge belongs to that edge's bucket (``value <= edge``).
    Per-bucket counts are stored non-cumulative; exporters cumulate.
    """

    __slots__ = ("edges", "bucket_counts", "sum", "count")

    def __init__(self, edges: tuple[float, ...]):
        self.edges = edges
        self.bucket_counts = [0] * (len(edges) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative counts per edge plus +Inf (the Prometheus wire form)."""
        out: list[int] = []
        total = 0
        for n in self.bucket_counts:
            total += n
            out.append(total)
        return out


class Histogram:
    """Fixed-bucket-edge distribution family."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_NS_BUCKETS,
    ) -> None:
        edges = tuple(float(edge) for edge in buckets)
        if not edges:
            raise ValueError(f"histogram {name} needs at least one bucket edge")
        if list(edges) != sorted(set(edges)):
            raise ValueError(f"histogram {name} bucket edges must strictly increase")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.edges = edges
        self._children: dict[tuple[str, ...], _HistogramChild] = {}
        if not self.label_names:
            self._children[()] = _HistogramChild(edges)

    def labels(self, **labels: str) -> _HistogramChild:
        key = _label_key(self.label_names, labels)
        child = self._children.get(key)
        if child is None:
            child = _HistogramChild(self.edges)
            self._children[key] = child
        return child

    def observe(self, value: float) -> None:
        if self.label_names:
            raise ValueError(f"{self.name} declares labels; use .labels(...)")
        self._children[()].observe(value)

    @property
    def count(self) -> int:
        return sum(child.count for child in self._children.values())

    @property
    def sum(self) -> float:
        return sum(child.sum for child in self._children.values())

    def child_for(self, **labels: str) -> _HistogramChild | None:
        return self._children.get(_label_key(self.label_names, labels))

    def samples(self) -> Iterator[tuple[dict[str, str], _HistogramChild]]:
        for key, child in sorted(self._children.items()):
            yield dict(zip(self.label_names, key)), child


class EventJournal:
    """Bounded ring of structured events.

    Each record is a plain dict ``{"ts", "subsystem", "event", **fields}``.
    When full, the oldest record is dropped and ``dropped`` counts it, so
    the journal's total-event arithmetic stays reconcilable:
    ``len(journal) + journal.dropped == journal.recorded``.
    """

    def __init__(self, capacity: int = JOURNAL_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"journal capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.dropped = 0
        self.recorded = 0

    def record(self, subsystem: str, event: str, ts: float = 0.0, **fields: Any) -> None:
        self.recorded += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append({"ts": ts, "subsystem": subsystem, "event": event, **fields})

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[dict[str, Any]]:
        return list(self._events)


class TelemetryRegistry:
    """Named metric families plus one event journal.

    Registration is idempotent: asking for an existing name returns the
    existing family (so harness code can look up what an engine created),
    but re-declaring it with a different kind, label set, or bucket edges
    is an error -- that is always a naming-collision bug.
    """

    enabled = True

    def __init__(self, *, journal_capacity: int = JOURNAL_CAPACITY) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self.journal = EventJournal(journal_capacity)

    def _register(self, cls, name: str, help: str, label_names, **kw):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"{name} already registered as {existing.kind}, not {cls.kind}"
                )
            if existing.label_names != tuple(label_names):
                raise ValueError(
                    f"{name} already registered with labels {existing.label_names}"
                )
            if kw.get("buckets") is not None and tuple(
                float(b) for b in kw["buckets"]
            ) != existing.edges:
                raise ValueError(f"{name} already registered with different buckets")
            if kw.get("merge") is not None and kw["merge"] != existing.merge:
                raise ValueError(
                    f"{name} already registered with merge={existing.merge!r}"
                )
            return existing
        kw = {key: value for key, value in kw.items() if value is not None}
        metric = cls(name, help, label_names, **kw) if kw else cls(name, help, label_names)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, label_names)

    def gauge(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        merge: str | None = None,
    ) -> Gauge:
        """Register (or look up) a gauge.

        ``merge=None`` means "no opinion": a new gauge defaults to
        ``max``, an existing one keeps whatever mode it was declared
        with -- so harness code can look a gauge up without knowing its
        merge rule, while two *explicit* conflicting declarations raise.
        """
        return self._register(Gauge, name, help, label_names, merge=merge)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_NS_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, label_names, buckets=buckets)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def metrics(self) -> list[Counter | Gauge | Histogram]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def merge(self, other) -> "TelemetryRegistry":
        """Fold another registry's metrics and journal into this one.

        Per-metric semantics (the sharded runtime's merge contract, also
        usable to combine registries from entirely separate runs):

        - **counters** add, per label combination;
        - **histograms** add bucket-wise (same declared edges required,
          enforced by registration) plus their sums and counts;
        - **gauges** combine per their declared ``merge`` mode: ``max``
          (default -- peaks, worst-shard ratios), ``sum`` (occupancy
          split across shared-nothing shards), or ``last`` (the
          merged-in sample wins);
        - **journal** events are re-recorded in arrival order (the ring
          stays bounded; events another registry already dropped are
          gone and stay counted only in its own totals).

        Missing families are created with the other registry's
        declaration.  Merging a disabled registry is a no-op.  Returns
        ``self`` so merges chain.
        """
        if not getattr(other, "enabled", False):
            return self
        for metric in other.metrics():
            if isinstance(metric, Counter):
                mine = self.counter(metric.name, metric.help, metric.label_names)
                for labels, value in metric.samples():
                    if value:
                        mine.labels(**labels).inc(value)
            elif isinstance(metric, Gauge):
                mine = self.gauge(
                    metric.name, metric.help, metric.label_names, merge=metric.merge
                )
                for labels, value in metric.samples():
                    key = _label_key(mine.label_names, labels)
                    if key not in mine._values or mine.merge == "last":
                        mine._values[key] = value
                    elif mine.merge == "sum":
                        mine._values[key] += value
                    else:
                        mine._values[key] = max(mine._values[key], value)
            else:
                mine = self.histogram(
                    metric.name, metric.help, metric.label_names, buckets=metric.edges
                )
                for labels, child in metric.samples():
                    target = mine.labels(**labels)
                    for index, count in enumerate(child.bucket_counts):
                        target.bucket_counts[index] += count
                    target.sum += child.sum
                    target.count += child.count
        for event in other.journal.events():
            fields = {
                key: value
                for key, value in event.items()
                if key not in ("ts", "subsystem", "event")
            }
            self.journal.record(
                event["subsystem"], event["event"], ts=event.get("ts", 0.0), **fields
            )
        return self

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump of every family and the journal."""
        counters: dict[str, Any] = {}
        gauges: dict[str, Any] = {}
        histograms: dict[str, Any] = {}
        for metric in self.metrics():
            if isinstance(metric, Counter):
                counters[metric.name] = {
                    "help": metric.help,
                    "label_names": list(metric.label_names),
                    "values": [
                        {"labels": labels, "value": value}
                        for labels, value in metric.samples()
                    ],
                }
            elif isinstance(metric, Gauge):
                gauges[metric.name] = {
                    "help": metric.help,
                    "label_names": list(metric.label_names),
                    "merge": metric.merge,
                    "values": [
                        {"labels": labels, "value": value}
                        for labels, value in metric.samples()
                    ],
                }
            else:
                histograms[metric.name] = {
                    "help": metric.help,
                    "label_names": list(metric.label_names),
                    "bucket_edges": list(metric.edges),
                    "values": [
                        {
                            "labels": labels,
                            "cumulative_counts": child.cumulative(),
                            "sum": child.sum,
                            "count": child.count,
                        }
                        for labels, child in metric.samples()
                    ],
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "journal": {
                "capacity": self.journal.capacity,
                "recorded": self.journal.recorded,
                "dropped": self.journal.dropped,
                "events": self.journal.events(),
            },
        }


class _NullInstrument:
    """One object impersonating every disabled metric family and child."""

    __slots__ = ()

    def labels(self, **_labels: str) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0

    count = 0
    sum = 0.0


class _NullJournal:
    __slots__ = ()
    capacity = 0
    dropped = 0
    recorded = 0

    def record(self, subsystem: str, event: str, ts: float = 0.0, **fields: Any) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def events(self) -> list[dict[str, Any]]:
        return []


_NULL_INSTRUMENT = _NullInstrument()
_NULL_JOURNAL = _NullJournal()


class NullRegistry:
    """The disabled registry: every instrument is a shared no-op singleton.

    Engines hold instrument references obtained at construction, so a
    disabled run's per-packet cost is one ``enabled`` check per guarded
    site (and nothing at all where the call is an unguarded no-op
    method).
    """

    enabled = False
    journal = _NULL_JOURNAL

    def counter(self, name: str, help: str = "", label_names: Sequence[str] = ()):
        return _NULL_INSTRUMENT

    def gauge(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        merge: str | None = None,
    ):
        return _NULL_INSTRUMENT

    def merge(self, other) -> "NullRegistry":
        """Disabled registries absorb nothing (API parity with merge)."""
        return self

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_NS_BUCKETS,
    ):
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def metrics(self) -> list:
        return []

    def snapshot(self) -> dict[str, Any]:
        return {}


#: The shared disabled registry every engine defaults to.
NULL_REGISTRY = NullRegistry()
