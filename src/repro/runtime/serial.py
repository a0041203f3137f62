"""The in-process reference runner: router + N shards, one thread.

Same API and same results as :class:`ParallelRunner` -- the router, the
per-shard batch boundaries, and the merge are byte-for-byte the same
code -- without any processes or queues.  Tests and small traces use
this; the parallel runner's correctness argument is "equal to
SerialRunner", and SerialRunner's is "equal to the unsharded engine"
(which the test suite asserts on the evasion gauntlet).
"""

from __future__ import annotations

from collections.abc import Iterable
from time import perf_counter

from ..packet.batch import PacketBatch
from .batching import iter_feed
from .config import RunnerConfig
from .control import ControlMessage
from .quarantine import PacketSource, Quarantine
from .report import RuntimeReport, merge_shard_reports
from .sharding import ShardRouter
from .spec import EngineSpec
from .worker import ShardProcessor

__all__ = ["SerialRunner"]


class SerialRunner:
    """N shared-nothing shards driven synchronously in one process."""

    def __init__(
        self,
        spec: EngineSpec,
        *,
        shards: int = 1,
        config: RunnerConfig | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.spec = spec
        self.shards = shards
        self.config = config or RunnerConfig()
        self.router = ShardRouter(shards, self.config.shard_policy)

    def run(self, packets: "PacketSource | Iterable[PacketBatch]") -> RuntimeReport:
        """Route, process, and merge one packet stream.

        Accepts parsed packets, raw ``(timestamp, bytes)`` records or
        encoded :class:`~repro.packet.batch.PacketBatch` columns (see
        :func:`repro.pcap.read_column_batches`), control messages
        interleaved anywhere, all through the one intake
        (:func:`~repro.runtime.batching.iter_feed`).  Malformed frames
        are quarantined, never raised (see
        :mod:`repro.runtime.quarantine`); row selections share the
        source buffer (no copies -- everything stays in this process).
        Fault injection runs with process-scoped kinds (crash/hang)
        disabled: an in-process shard taking the interpreter down would
        kill the caller, not the shard.
        """
        start = perf_counter()
        processors = [
            ShardProcessor(index, self.spec, self.config, allow_process_faults=False)
            for index in range(self.shards)
        ]
        quarantine = Quarantine()
        batches_routed = 0
        for item in iter_feed(packets, self.config.batch_size, quarantine):
            if isinstance(item, ControlMessage):
                # Broadcast: every shard applies the command at this
                # stream position (same contract as the parallel path).
                for processor in processors:
                    processor.control(item)
                continue
            if self.shards == 1:
                processors[0].feed(item)
                batches_routed += 1
                continue
            for index, rows in enumerate(item.shard_rows(self.router)):
                if rows:
                    processors[index].feed(item.select(rows))
                    batches_routed += 1
        reports = [processor.finish() for processor in processors]
        return merge_shard_reports(
            reports,
            mode="serial",
            workers=self.shards,
            wall_seconds=perf_counter() - start,
            batches_routed=batches_routed,
            quarantined=dict(quarantine.counts),
        )

    # The name the pipeline ledger drives; one method since every source
    # is encoded at the door.
    run_columnar = run
