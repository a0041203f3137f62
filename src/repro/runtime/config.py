"""Runner configuration shared by the serial and parallel front-ends."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .faults import FaultPlan
from .sharding import ShardPolicy

__all__ = ["Backpressure", "RunnerConfig"]


class Backpressure(enum.Enum):
    """What the feeder does when a shard's bounded queue is full."""

    BLOCK = "block"
    """Wait for the worker: lossless, the reader slows to the pipeline's
    pace (the IPS-on-a-tap equivalent of NIC flow control)."""

    SHED = "shed"
    """Drop the batch and count it: bounded latency, explicit loss --
    what a wire-speed appliance does when a shard falls behind.  Shed
    packets are never examined; the count is the coverage hole."""


@dataclass(frozen=True)
class RunnerConfig:
    """Knobs shared by :class:`SerialRunner` and :class:`ParallelRunner`."""

    batch_size: int = 256
    """Packets per routed batch (also the prescan amortization unit)."""

    shard_policy: ShardPolicy = ShardPolicy.FLOW
    """Shard-key policy; see :mod:`repro.runtime.sharding` (``FLOW`` is
    the only one)."""

    backpressure: Backpressure = Backpressure.BLOCK
    """Full-queue behaviour (parallel runner only; the serial runner is
    synchronous and can never fall behind itself)."""

    queue_depth: int = 8
    """Bounded batches in flight per worker queue."""

    evict_interval: float | None = None
    """Seconds of *packet time* between automatic ``evict_idle`` sweeps
    on each shard.  ``None`` (default) disables the sweeps, preserving
    the historical behaviour where callers evict explicitly."""

    telemetry: bool = False
    """Give each shard its own :class:`TelemetryRegistry` and merge the
    snapshots into the combined report."""

    trace: bool = False
    """Give each shard its own :class:`~repro.telemetry.FlowTracer`
    flight recorder and merge the span buffers into ``report.trace``
    (outside the equivalence digest, like telemetry and the sketch)."""

    trace_sample: int = 1
    """Trace 1-in-N flows (``trace_id % N == 0``); diverted flows are
    always traced regardless.  1 traces everything."""

    trace_capacity: int = 4096
    """Span-ring capacity per shard tracer (oldest spans drop first)."""

    drain_timeout: float = 120.0
    """Seconds the parallel runner waits for a worker to flush its
    queue and report results after the drain sentinel, before declaring
    the run failed."""

    start_method: str | None = None
    """``multiprocessing`` start method (``fork``/``spawn``/...); None
    picks the platform default."""

    max_restarts: int = 0
    """Per-shard restart budget of the parallel runner's supervisor.
    With budget left, a dead, hung or erroring worker is replaced with
    a fresh engine (exponential backoff) and the loss is recorded as a
    :class:`~repro.runtime.report.DegradedInterval`; a shard that spends
    its budget is marked dead and the run still completes, with that
    shard's subsequent traffic counted as lost.  With a budget of 0
    (default) the first failure raises
    :class:`~repro.runtime.parallel.WorkerFailure` as soon as it is
    detected."""

    restart_backoff: float = 0.05
    """Base seconds of the supervisor's exponential restart backoff
    (the n-th restart of a shard waits ``restart_backoff * 2**n``)."""

    heartbeat_interval: float = 0.2
    """Workers flush a result delta (or an idle heartbeat) at least
    this often, bounding both failure-detection latency and how much
    confirmed work a crash can lose."""

    heartbeat_timeout: float = 5.0
    """Seconds of silence after which a worker that is still alive is
    declared hung and killed.  The clock starts at a worker's first
    message (sent once its engine is built), so construction time never
    counts against it."""

    faults: FaultPlan | None = None
    """Deterministic fault-injection plan (tests/chaos CI only); None
    disables every injection point."""

    ingest: str = "object"
    """Accepted and ignored: there is one ingest path.  The field
    survives only because the frozen pipeline ledger still constructs
    ``RunnerConfig(ingest="columnar")``, and goes with the benchmark
    change that drops that spelling."""

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.trace_sample < 1:
            raise ValueError(f"trace_sample must be >= 1, got {self.trace_sample}")
        if self.trace_capacity < 1:
            raise ValueError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )
        if self.evict_interval is not None and self.evict_interval <= 0:
            raise ValueError(
                f"evict_interval must be positive, got {self.evict_interval}"
            )
        if self.drain_timeout <= 0:
            raise ValueError(f"drain_timeout must be positive, got {self.drain_timeout}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.restart_backoff <= 0:
            raise ValueError(
                f"restart_backoff must be positive, got {self.restart_backoff}"
            )
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval, got "
                f"{self.heartbeat_timeout} <= {self.heartbeat_interval}"
            )
