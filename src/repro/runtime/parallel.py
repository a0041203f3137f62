"""The multiprocessing runner: flow-hashed shards with bounded queues.

Topology: one feeder (this process) routes batches onto N bounded
per-worker queues; each worker owns one shard -- a private engine built
from the shared :class:`EngineSpec` -- and reports a
:class:`ShardReport` back on a results queue at drain time.  There is no
cross-shard communication at all during the run; the flow-consistent
hash (:mod:`repro.runtime.sharding`) is what makes that sound.

Backpressure is explicit: a full queue either blocks the feeder
(lossless, the default) or sheds the batch and counts every dropped
packet (:class:`~repro.runtime.config.Backpressure`).  Shutdown is a
graceful drain -- a sentinel per queue, workers flush everything already
enqueued, then report -- so no in-flight batch is ever lost on the
lossless path.

One failure regime: the feeder doubles as a supervisor.  Workers
heartbeat and flush result deltas (see :mod:`repro.runtime.worker`), and
the feeder looks for a dead, hung or erroring worker once per routed
batch and inside every blocking enqueue.  ``RunnerConfig.max_restarts``
is the per-shard budget for what happens next:

- **budget left**: the worker is replaced with a fresh engine on the
  *same* input queue (exponential backoff), so batches enqueued but not
  yet consumed survive the failure.  Whatever did not survive -- packets
  consumed but never confirmed by a delta, flow state, unflushed alerts
  -- is recorded as a :class:`~repro.runtime.report.DegradedInterval` in
  the merged report; a shard that spends its budget is buried and its
  later traffic counted as lost.  Coverage degrades; it never degrades
  *silently*.
- **a budget of 0** (the default): the first failure raises
  :class:`WorkerFailure` with the reason and the worker's traceback or
  exit code, as soon as it is detected -- appropriate for correctness
  tests, where a failure must be loud.

Known limitation, accepted and documented: a worker that dies while
holding a shared queue's internal lock (mid-``get``/``put``) can wedge
the survivors.  Injected crashes fire between batches and first let the
worker's results-queue writer thread finish, so they are never inside a
queue operation; real mid-pipe deaths additionally trip the heartbeat
timeout, whereupon the run ends with loss accounted rather than hanging
forever (the drain deadline backstops the rest).
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from collections.abc import Iterable, Iterator
from time import monotonic, perf_counter
from typing import Any

from ..packet.batch import PacketBatch
from .batching import iter_feed
from .config import Backpressure, RunnerConfig
from .control import ControlMessage
from .quarantine import PacketSource, Quarantine
from .report import (
    DegradedInterval,
    RuntimeReport,
    ShardDelta,
    ShardReport,
    merge_shard_reports,
)
from .sharding import ShardRouter
from .spec import EngineSpec
from .worker import DRAIN, shard_worker_main

__all__ = ["ParallelRunner", "WorkerFailure"]

#: Seconds between supervisor polls while a blocking put waits on a full
#: queue (a dead worker must not hang the feeder forever).
_PUT_POLL_SECONDS = 0.5

#: Seconds the supervisor's drain loop waits per results-queue read
#: between liveness sweeps.
_DRAIN_POLL_SECONDS = 0.1


class WorkerFailure(RuntimeError):
    """A shard worker died, hung or reported an engine error, and the
    restart budget is 0."""


class _Seat:
    """Supervisor-side state for one shard slot across restarts."""

    def __init__(self, index: int, in_queue: Any, process: Any) -> None:
        self.index = index
        self.in_queue = in_queue
        self.process = process
        self.generation = 0
        self.restarts_used = 0
        self.dead = False
        """Restart budget exhausted: no process, traffic counts as lost."""

        self.finished = False
        """Final ``ok`` report received for the current generation."""

        self.routed_packets = 0
        self.routed_batches = 0
        """Work actually enqueued to this seat (all generations); the
        basis of the loss accounting ``routed - accounted``."""

        self.accounted_packets = 0
        self.accounted_batches = 0
        """Work confirmed by finished generations: final reports plus
        the last delta of each failed generation."""

        self.dead_dropped_packets = 0
        self.dead_dropped_batches = 0
        """Traffic that arrived after the seat died (never enqueued)."""

        self.chunks: list = []
        """Alert chunks flushed by the current generation's deltas."""

        self.last_delta: ShardDelta | None = None
        self.last_seen: float | None = None
        """When the current generation last spoke; ``None`` until its
        first message (engine construction is not silence)."""

        self.reports: list[ShardReport] = []
        """Salvaged partials from failed generations + the final report."""

        self.open_interval: DegradedInterval | None = None
        """The latest failure's interval, until the replacement confirms
        it is processing traffic again (which closes it)."""


class ParallelRunner:
    """N shared-nothing engine shards in worker processes."""

    def __init__(
        self,
        spec: EngineSpec,
        *,
        workers: int,
        config: RunnerConfig | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.workers = workers
        self.config = config or RunnerConfig()
        self.router = ShardRouter(workers, self.config.shard_policy)

    def _spawn(
        self,
        ctx: Any,
        shard: int,
        generation: int,
        in_queue: Any,
        out_queue: Any,
        controls: tuple[ControlMessage, ...],
    ) -> Any:
        process = ctx.Process(
            target=shard_worker_main,
            args=(shard, generation, self.spec, self.config, in_queue, out_queue, controls),
            daemon=True,
            name=f"repro-shard-{shard}-g{generation}",
        )
        process.start()
        return process

    @staticmethod
    def _reap(processes: list[Any], in_queues: list[Any], out_queue: Any) -> None:
        """Leave no zombie process or stuck feeder thread behind.

        Runs on every exit path, successful or not.  Ordering matters:
        nudge blocked workers with a best-effort sentinel, escalate
        join -> terminate -> kill until every child is gone, then drain
        the queues (releasing their background feeder threads, which
        otherwise block forever writing to a full pipe nobody reads) and
        close everything, including the ``Process`` objects themselves.
        """
        for in_queue in in_queues:
            try:
                in_queue.put_nowait(DRAIN)
            except (queue_mod.Full, ValueError, OSError):
                pass
        live = [p for p in processes if p is not None]
        for process in live:
            process.join(timeout=2.0)
        for process in live:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for process in live:
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        for some_queue in [*in_queues, out_queue]:
            while True:
                try:
                    some_queue.get_nowait()
                except (queue_mod.Empty, ValueError, OSError):
                    break
            some_queue.close()
            some_queue.cancel_join_thread()
        for process in live:
            try:
                process.close()
            except ValueError:
                pass  # unkillable straggler; nothing more we can do

    def _split_buckets(self, batch: PacketBatch) -> Iterator[tuple[int, PacketBatch]]:
        """Yield non-empty ``(shard, bucket)`` pairs for one input batch.

        Rows are routed by :meth:`PacketBatch.shard_rows` and compacted
        (fresh buffer holding just the selected records) so a pickle to
        the worker never ships the whole capture file.
        """
        if self.workers == 1:
            yield 0, batch.compact()
            return
        for index, rows in enumerate(batch.shard_rows(self.router)):
            if rows:
                yield index, batch.select(rows).compact()

    def run(self, packets: "PacketSource | Iterable[PacketBatch]") -> RuntimeReport:
        """Route, process in parallel, drain gracefully, merge.

        Accepts what :meth:`SerialRunner.run` accepts, through the same
        intake; malformed frames are quarantined feeder-side rather
        than raised (see :mod:`repro.runtime.quarantine`), and each
        shard's engine consumes its routed column slices directly.
        Raises :class:`WorkerFailure` on the first worker failure when
        ``config.max_restarts`` is 0.
        """
        config = self.config
        ctx = mp.get_context(config.start_method)
        out_queue = ctx.Queue()
        seats: list[_Seat] = []
        for index in range(self.workers):
            in_queue = ctx.Queue(maxsize=config.queue_depth)
            seats.append(
                _Seat(index, in_queue, self._spawn(ctx, index, 0, in_queue, out_queue, ()))
            )
        quarantine = Quarantine()
        degraded: list[DegradedInterval] = []
        restarts = 0
        shed_packets = 0
        shed_batches = 0
        batches_routed = 0
        shed = config.backpressure is Backpressure.SHED
        start = perf_counter()
        # Set when the drain starts; past it, unfinished seats fail.
        drain_deadline: float | None = None
        last_controls: dict[str, ControlMessage] = {}

        def fail_seat(seat: _Seat, reason: str, detail: str) -> None:
            """Salvage the dying generation, then restart or bury the seat."""
            nonlocal restarts
            if config.max_restarts == 0:
                # No budget: the first failure is the run's failure
                # (``_reap`` collects the fleet on the way out).
                raise WorkerFailure(f"shard {seat.index} {reason}: {detail}")
            delta = seat.last_delta
            salvaged_alerts = list(seat.chunks)
            start_ts: float | None = None
            flows_reset = 0
            if delta is not None:
                salvaged = delta.report
                salvaged.alerts = salvaged_alerts
                seat.reports.append(salvaged)
                seat.accounted_packets += salvaged.accounted_packets
                seat.accounted_batches += salvaged.batches
                start_ts = delta.last_ts
                flows_reset = delta.tracked_flows
            interval = DegradedInterval(
                shard=seat.index,
                generation=seat.generation,
                reason=reason,
                start_ts=start_ts,
                flows_reset=flows_reset,
                alerts_salvaged=len(salvaged_alerts),
                detail=detail,
            )
            degraded.append(interval)
            seat.open_interval = interval
            seat.chunks = []
            seat.last_delta = None
            process = seat.process
            if process is not None:
                process.join(timeout=0.5)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
                try:
                    process.close()
                except ValueError:
                    pass
                seat.process = None
            if seat.restarts_used >= config.max_restarts:
                seat.dead = True
                return
            time.sleep(config.restart_backoff * 2**seat.restarts_used)
            seat.restarts_used += 1
            restarts += 1
            seat.generation += 1
            # A replacement builds a fresh engine from the original spec;
            # it is handed the latest control per op so it rejoins the
            # fleet's current rule generation, not the seed's.
            seat.process = self._spawn(
                ctx,
                seat.index,
                seat.generation,
                seat.in_queue,
                out_queue,
                tuple(last_controls[op] for op in sorted(last_controls)),
            )
            seat.last_seen = None
            if drain_deadline is not None:
                # The original sentinel may have died with the old
                # worker; a duplicate is harmless (the replacement stops
                # at the first one it sees).
                enqueue(seat, DRAIN)

        def handle_message(kind: str, shard: int, generation: int, payload: Any) -> None:
            seat = seats[shard]
            if generation != seat.generation or seat.dead or seat.process is None:
                return  # stale chatter from a generation already buried
            seat.last_seen = monotonic()
            if kind == "hb":
                return
            if kind == "delta":
                seat.chunks.extend(payload.report.alerts)
                seat.last_delta = payload
                return
            if kind == "error":
                fail_seat(seat, "error", payload)
                return
            if kind == "ok":
                payload.alerts = seat.chunks + payload.alerts
                seat.reports.append(payload)
                seat.accounted_packets += payload.accounted_packets
                seat.accounted_batches += payload.batches
                seat.chunks = []
                seat.last_delta = None
                seat.finished = True

        def read_messages() -> None:
            """Handle everything the workers have already said."""
            while True:
                try:
                    kind, shard, generation, payload = out_queue.get_nowait()
                except queue_mod.Empty:
                    return
                handle_message(kind, shard, generation, payload)

        def poll() -> None:
            """Read pending worker messages, then sweep for the dead,
            the hung and -- once draining -- the overdue."""
            read_messages()
            now = monotonic()
            for seat in seats:
                if seat.dead or seat.finished or seat.process is None:
                    continue
                if not seat.process.is_alive():
                    # One last read: the worker may have reported (an
                    # error, or even its final ok) and exited cleanly
                    # between our reads.
                    exitcode = seat.process.exitcode
                    read_messages()
                    if seat.finished or seat.dead or seat.process is None:
                        continue
                    if seat.process.is_alive():
                        continue  # a restart replaced it mid-sweep
                    fail_seat(seat, "crash", f"exit code {exitcode}")
                elif (
                    seat.last_seen is not None
                    and now - seat.last_seen > config.heartbeat_timeout
                ):
                    fail_seat(
                        seat,
                        "hang",
                        f"no heartbeat for {config.heartbeat_timeout:g}s",
                    )
                elif drain_deadline is not None and now > drain_deadline:
                    seat.restarts_used = config.max_restarts  # no respawn
                    fail_seat(seat, "drain_loss", "drain deadline passed")

        def enqueue(seat: _Seat, item: "PacketBatch | ControlMessage | None") -> bool:
            """The lossless put: wait for the worker, supervising while
            waiting.  A consumer that dies is replaced right here and
            the put retries against the replacement on the same queue;
            returns False only once the seat is buried, so no enqueue
            can either lose its item to a live seat or hang on a dead one.
            """
            while not seat.dead:
                try:
                    seat.in_queue.put(item, timeout=_PUT_POLL_SECONDS)
                    return True
                except queue_mod.Full:
                    poll()
            return False

        def route(seat: _Seat, bucket: PacketBatch) -> None:
            nonlocal shed_packets, shed_batches, batches_routed
            if shed and not seat.dead:
                try:
                    seat.in_queue.put_nowait(bucket)
                except queue_mod.Full:
                    shed_packets += len(bucket)
                    shed_batches += 1
                    return
            elif not enqueue(seat, bucket):
                # Traffic for a buried seat is counted, never queued.
                seat.dead_dropped_packets += len(bucket)
                seat.dead_dropped_batches += 1
                return
            seat.routed_packets += len(bucket)
            seat.routed_batches += 1
            batches_routed += 1
            interval = seat.open_interval
            if interval is not None and bucket:
                # The replacement generation is taking traffic again;
                # close the coverage gap at this batch's first packet.
                interval.end_ts = bucket.first_ts
                seat.open_interval = None

        interrupted = False
        try:
            try:
                for item in iter_feed(packets, config.batch_size, quarantine):
                    poll()
                    if isinstance(item, ControlMessage):
                        # Controls bypass the shed policy: dropping a
                        # reload would silently split the fleet across
                        # rule generations.  A buried seat is skipped
                        # (its traffic is already accounted as lost).
                        last_controls[item.op] = item
                        for seat in seats:
                            enqueue(seat, item)
                        continue
                    for index, bucket in self._split_buckets(item):
                        route(seats[index], bucket)
            except KeyboardInterrupt:
                # First interrupt: stop feeding and fall through to the
                # sentinel drain for a partial (but loss-accounted)
                # report.  A second interrupt propagates; _reap runs.
                interrupted = True
            # Graceful drain: one sentinel per queue *after* all batches;
            # workers flush everything already enqueued before reporting.
            drain_deadline = monotonic() + config.drain_timeout
            for seat in seats:
                enqueue(seat, DRAIN)
            while any(not (seat.finished or seat.dead) for seat in seats):
                try:
                    kind, shard, generation, payload = out_queue.get(
                        timeout=_DRAIN_POLL_SECONDS
                    )
                except queue_mod.Empty:
                    pass
                else:
                    handle_message(kind, shard, generation, payload)
                poll()
        finally:
            self._reap(
                [seat.process for seat in seats],
                [seat.in_queue for seat in seats],
                out_queue,
            )
        # Close the books: whatever was routed to a seat but never
        # confirmed by any generation is lost -- pin it on the seat's
        # final failure interval (there is one whenever loss is nonzero).
        for seat in seats:
            lost_packets = (
                seat.routed_packets - seat.accounted_packets + seat.dead_dropped_packets
            )
            lost_batches = (
                seat.routed_batches - seat.accounted_batches + seat.dead_dropped_batches
            )
            if lost_packets <= 0 and lost_batches <= 0:
                continue
            seat_intervals = [iv for iv in degraded if iv.shard == seat.index]
            if not seat_intervals:
                # Defensive: loss with no recorded failure should be
                # impossible; surface it rather than swallowing it.
                seat_intervals = [
                    DegradedInterval(
                        shard=seat.index,
                        generation=seat.generation,
                        reason="drain_loss",
                        detail="unaccounted loss with no recorded failure",
                    )
                ]
                degraded.extend(seat_intervals)
            seat_intervals[-1].packets_lost += max(0, lost_packets)
            seat_intervals[-1].batches_lost += max(0, lost_batches)
        return merge_shard_reports(
            [report for seat in seats for report in seat.reports],
            mode="parallel",
            workers=self.workers,
            wall_seconds=perf_counter() - start,
            batches_routed=batches_routed,
            shed_packets=shed_packets,
            shed_batches=shed_batches,
            degraded=degraded,
            worker_restarts=restarts,
            quarantined=dict(quarantine.counts),
            interrupted=interrupted,
        )

    # The name the pipeline ledger binds; one method since every source
    # is encoded at the door.
    run_columnar = run
