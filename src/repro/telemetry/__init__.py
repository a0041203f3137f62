"""Runtime telemetry: metric registry, event journal, and exporters.

Quick tour::

    from repro.telemetry import TelemetryRegistry, to_json, to_prometheus

    tel = TelemetryRegistry()
    ips = SplitDetectIPS(rules, telemetry=tel)
    ips.process_batch(trace)
    ips.refresh_telemetry()          # sample gauges (occupancy, state bytes)
    print(to_prometheus(tel))        # or to_json(tel)

Every engine defaults to :data:`NULL_REGISTRY`, whose instruments are
no-op singletons -- instrumentation then costs one guarded check per
hot-path site.  See DESIGN.md's "Telemetry" section for the metric
naming scheme and how the exported series map to the paper's claims.
"""

from .export import summarize, to_json, to_prometheus, write_telemetry
from .profile import (
    PROFILE_QUANTILES,
    SLOW_FLOW_GAUGE,
    STAGE_HISTOGRAM,
    StageProfiler,
    histogram_quantile,
    stage_profile,
)
from .registry import (
    GAUGE_MERGE_MODES,
    JOURNAL_CAPACITY,
    LATENCY_NS_BUCKETS,
    NULL_REGISTRY,
    SIZE_BYTES_BUCKETS,
    Counter,
    EventJournal,
    Gauge,
    Histogram,
    NullRegistry,
    TelemetryRegistry,
)
from .serve import TelemetryPublisher, TelemetryServer, TelemetrySession
from .trace import (
    NULL_TRACER,
    TRACE_CAPACITY,
    FlowTracer,
    NullTracer,
    merge_trace_snapshots,
    span_sort_key,
    trace_id_of,
)

__all__ = [
    "Counter",
    "EventJournal",
    "FlowTracer",
    "GAUGE_MERGE_MODES",
    "Gauge",
    "Histogram",
    "JOURNAL_CAPACITY",
    "LATENCY_NS_BUCKETS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "PROFILE_QUANTILES",
    "SIZE_BYTES_BUCKETS",
    "SLOW_FLOW_GAUGE",
    "STAGE_HISTOGRAM",
    "StageProfiler",
    "TRACE_CAPACITY",
    "TelemetryPublisher",
    "TelemetryRegistry",
    "TelemetryServer",
    "TelemetrySession",
    "histogram_quantile",
    "merge_trace_snapshots",
    "span_sort_key",
    "stage_profile",
    "summarize",
    "to_json",
    "to_prometheus",
    "trace_id_of",
    "write_telemetry",
]
