"""Sharded parallel runtime: flow-hashed shared-nothing engine shards.

The paper argues Split-Detect is feasible at 20 Gbps; one Python process
is not.  This package provides the standard scale-out recipe (the
RSS-style design of multi-queue NICs and DPDK pipelines): a
flow-consistent hash partitions traffic across N independent
:class:`~repro.core.SplitDetectIPS` shards, each owning all state for
its flows, and a merge layer reassembles one deterministic report.

Quick tour::

    from repro.runtime import EngineSpec, ParallelRunner, RunnerConfig

    spec = EngineSpec(rules=load_bundled_rules())
    runner = ParallelRunner(spec, workers=4,
                            config=RunnerConfig(telemetry=True))
    report = runner.run(read_trace("big.pcap"))   # streams lazily
    print(report.alerts[:10], report.digest())

- :mod:`~repro.runtime.sharding` -- the fragmentation-safe shard key:
  the port-less symmetric FNV-1a flow hash;
- :class:`SerialRunner` -- same router + merge, one thread, for tests
  and bit-for-bit comparison against :class:`ParallelRunner`;
- :class:`ParallelRunner` -- multiprocessing workers behind bounded
  queues with block/shed backpressure and graceful drain; the feeder
  supervises them (heartbeats, hang and death detection) and
  ``RunnerConfig(max_restarts=N)`` is its restart budget: fresh engine
  plus explicit :class:`DegradedInterval` loss accounting while budget
  lasts, :class:`WorkerFailure` on the first failure at the default 0;
- :mod:`~repro.runtime.faults` -- deterministic, seed-driven fault
  injection (``RunnerConfig(faults=...)`` / the CLI ``--inject`` flag);
- :mod:`~repro.runtime.quarantine` -- malformed frames are counted per
  cause and dropped at the one decode boundary (every source is encoded
  to ``PacketBatch`` columns before a shard sees it), never raised;
- :mod:`~repro.runtime.report` -- deterministic alert ordering, summed
  counters, merged telemetry, and the equivalence digest.
"""

from .batching import iter_batches, rebatch_columns
from .config import Backpressure, RunnerConfig
from .control import ControlMessage
from .faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from .parallel import ParallelRunner, WorkerFailure
from .quarantine import DECODE_ERRORS, Quarantine
from .report import (
    DegradedInterval,
    RuntimeReport,
    ShardDelta,
    ShardReport,
    alert_sort_key,
    equivalence_digest,
    merge_shard_reports,
)
from .serial import SerialRunner
from .sharding import ShardPolicy, ShardRouter
from .spec import EngineSpec
from .worker import ShardProcessor

__all__ = [
    "DECODE_ERRORS",
    "Backpressure",
    "ControlMessage",
    "DegradedInterval",
    "EngineSpec",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "ParallelRunner",
    "Quarantine",
    "RunnerConfig",
    "RuntimeReport",
    "SerialRunner",
    "ShardDelta",
    "ShardPolicy",
    "ShardProcessor",
    "ShardReport",
    "ShardRouter",
    "WorkerFailure",
    "alert_sort_key",
    "equivalence_digest",
    "iter_batches",
    "merge_shard_reports",
    "rebatch_columns",
]
