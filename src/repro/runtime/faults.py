"""Deterministic, seed-driven fault injection for the sharded runtime.

An IPS that dies on the traffic it is supposed to inspect is itself an
evasion vector, so the runtime's failure handling must be *testable*:
every failure mode the supervisor claims to survive has an injection
point here, triggered at an exact shard-local packet index so a failing
run is reproducible from its :class:`FaultPlan` alone (CI stores the
plan, never a core dump).

A plan is plain frozen data (it rides inside
:class:`~repro.runtime.config.RunnerConfig` across the process boundary,
so SD103's pickling rules apply); the mutable part is the per-worker
:class:`FaultInjector`, which each :class:`~repro.runtime.worker
.ShardProcessor` builds for its own shard and consults once per batch.

Fault kinds:

- ``crash``     -- the worker process dies instantly (``os._exit``), the
  way a segfaulting matcher or an OOM kill looks from the parent: no
  traceback, no status message, queue abandoned mid-stream.
- ``hang``      -- the worker stops consuming but stays alive (lock-up /
  livelock); only heartbeat staleness can detect this.
- ``stall``     -- one long sleep, then normal operation (GC pause, page
  fault storm); must *not* trigger a restart when shorter than the
  heartbeat timeout.
- ``slowdown``  -- every batch from the trigger on sleeps, modelling a
  shard that fell behind (drives queue backpressure).
- ``decode``    -- raises :class:`~repro.packet.errors
  .MalformedPacketError` at the feed boundary, exercising the
  malformed-input quarantine.
- ``skew``      -- offsets the shard's housekeeping clock, exercising
  eviction robustness against bad capture timestamps.

``crash`` and ``hang`` are process-scoped: inside :class:`~repro.runtime
.serial.SerialRunner` (or any in-process harness) they are ignored
rather than taking the caller down with the shard.
"""

from __future__ import annotations

import enum
import os
import random
import sys
import time
from collections.abc import Callable, Sized
from dataclasses import dataclass

from ..packet.errors import MalformedPacketError

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
]

#: Exit status of an injected crash -- distinctive in worker exit codes.
CRASH_EXIT_CODE = 73

#: How long an injected hang sleeps; far beyond any heartbeat timeout,
#: short enough that a supervisor bug cannot wedge CI forever.
HANG_SECONDS = 600.0


class FaultKind(enum.Enum):
    """What an injection point does when its packet index is reached."""

    CRASH = "crash"
    HANG = "hang"
    STALL = "stall"
    SLOWDOWN = "slowdown"
    DECODE_ERROR = "decode"
    CLOCK_SKEW = "skew"


#: Kinds that take the worker process itself down / out of service and
#: are therefore ignored when the shard runs in the caller's process.
PROCESS_FAULTS = frozenset({FaultKind.CRASH, FaultKind.HANG})

#: Kinds whose ``seconds`` field is meaningful.
TIMED_FAULTS = frozenset(
    {FaultKind.STALL, FaultKind.SLOWDOWN, FaultKind.CLOCK_SKEW}
)


@dataclass(frozen=True)
class FaultSpec:
    """One injection point: *kind* fires on *shard* at packet *at*."""

    kind: FaultKind
    shard: int
    at: int
    """Shard-local packet index (0-based, counted over every packet the
    shard is fed, quarantined ones included) at which the fault fires."""

    seconds: float = 0.0
    """Duration (stall/slowdown) or offset (skew); unused otherwise."""

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError(f"fault shard must be >= 0, got {self.shard}")
        if self.at < 0:
            raise ValueError(f"fault packet index must be >= 0, got {self.at}")
        if self.kind in TIMED_FAULTS and self.seconds == 0.0:
            raise ValueError(f"{self.kind.value} fault needs seconds=<non-zero>")

    def describe(self) -> str:
        base = f"{self.kind.value}:shard={self.shard},at={self.at}"
        if self.kind in TIMED_FAULTS:
            base += f",seconds={self.seconds:g}"
        return base


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of injection points (picklable plain data)."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int | None = None
    """The seed this plan was generated from, when it came from
    :meth:`random` -- carried along so a failing chaos run's artifact
    names the one integer needed to reproduce it."""

    @classmethod
    def parse(cls, texts: list[str] | tuple[str, ...]) -> "FaultPlan":
        """Build a plan from ``--inject`` strings.

        Grammar: ``kind:key=value[,key=value...]`` with keys ``shard``
        (default 0), ``at`` (default 0) and ``seconds`` (timed kinds).
        Example: ``crash:shard=1,at=500``.
        """
        specs = []
        kinds = {kind.value: kind for kind in FaultKind}
        for text in texts:
            head, _, tail = text.partition(":")
            head = head.strip().lower()
            if head not in kinds:
                raise ValueError(
                    f"unknown fault kind {head!r}; choose from {sorted(kinds)}"
                )
            fields: dict[str, str] = {}
            if tail.strip():
                for part in tail.split(","):
                    key, eq, value = part.partition("=")
                    if not eq:
                        raise ValueError(f"malformed fault field {part!r} in {text!r}")
                    fields[key.strip()] = value.strip()
            unknown = set(fields) - {"shard", "at", "seconds"}
            if unknown:
                raise ValueError(f"unknown fault fields {sorted(unknown)} in {text!r}")
            try:
                specs.append(
                    FaultSpec(
                        kind=kinds[head],
                        shard=int(fields.get("shard", "0")),
                        at=int(fields.get("at", "0")),
                        seconds=float(fields.get("seconds", "0")),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"bad fault spec {text!r}: {exc}") from None
        return cls(specs=tuple(specs))

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        shards: int,
        max_packet: int = 2000,
        max_faults: int = 3,
    ) -> "FaultPlan":
        """A reproducible chaos plan: 1..max_faults faults from *seed*.

        Durations are kept short (well under any sane heartbeat timeout
        for stalls, a few hundred ms for slowdowns) so chaos runs finish
        in CI time; crashes and hangs dominate the draw because they are
        the modes the supervisor exists for.
        """
        rng = random.Random(seed)
        weighted = [
            FaultKind.CRASH,
            FaultKind.CRASH,
            FaultKind.HANG,
            FaultKind.STALL,
            FaultKind.SLOWDOWN,
            FaultKind.DECODE_ERROR,
            FaultKind.CLOCK_SKEW,
        ]
        specs = []
        for _ in range(rng.randint(1, max_faults)):
            kind = rng.choice(weighted)
            seconds = 0.0
            if kind is FaultKind.STALL:
                seconds = rng.uniform(0.05, 0.4)
            elif kind is FaultKind.SLOWDOWN:
                seconds = rng.uniform(0.005, 0.05)
            elif kind is FaultKind.CLOCK_SKEW:
                seconds = rng.uniform(-3600.0, 3600.0) or 1.0
            specs.append(
                FaultSpec(
                    kind=kind,
                    shard=rng.randrange(shards),
                    at=rng.randrange(max_packet),
                    seconds=seconds,
                )
            )
        return cls(specs=tuple(specs), seed=seed)

    def for_shard(self, shard: int) -> tuple[FaultSpec, ...]:
        """This shard's injection points, ordered by packet index."""
        return tuple(
            sorted(
                (spec for spec in self.specs if spec.shard == shard),
                key=lambda spec: spec.at,
            )
        )

    def describe(self) -> str:
        inner = " ".join(spec.describe() for spec in self.specs) or "<empty>"
        if self.seed is not None:
            return f"seed={self.seed} [{inner}]"
        return inner


class FaultInjector:
    """The mutable per-shard trigger: consulted once per fed batch.

    ``allow_process_faults`` distinguishes a real worker process (where a
    ``crash`` genuinely exits) from an in-process shard, where taking the
    interpreter down would kill the caller, not the shard.
    """

    def __init__(
        self, plan: FaultPlan, shard: int, *, allow_process_faults: bool
    ) -> None:
        self.shard = shard
        self.allow_process_faults = allow_process_faults
        self._pending = list(plan.for_shard(shard))
        self._slowdown = 0.0
        self.clock_skew = 0.0
        """Seconds currently added to the shard's housekeeping clock."""

        self.before_crash: Callable[[], None] | None = None
        """Run just before an injected crash exits.  The worker sets it
        to flush its results queue, whose writes happen on a background
        thread: an injected crash models death *between* queue
        operations, never one that leaves the shared pipe lock held."""

    @property
    def pending(self) -> int:
        return len(self._pending)

    def before_batch(self, packets_seen: int, batch: Sized) -> None:
        """Fire every fault whose index falls inside this batch.

        Called with the shard-local index of the batch's first packet;
        only the batch's length is consulted.  May sleep, raise
        :class:`MalformedPacketError` (quarantined by the caller), or
        -- in a worker process -- never return.
        """
        end = packets_seen + len(batch)
        while self._pending and self._pending[0].at < end:
            self._fire(self._pending.pop(0))
        if self._slowdown:
            time.sleep(self._slowdown)

    def _fire(self, spec: FaultSpec) -> None:
        kind = spec.kind
        if kind in PROCESS_FAULTS and not self.allow_process_faults:
            return
        if kind is FaultKind.CRASH:
            # Simulated hard death: no cleanup, no status message -- the
            # one exit path SD106 cannot see, which is the point.  The
            # stderr line is for humans reading CI logs, not the parent.
            sys.stderr.write(
                f"[fault-injection] shard {self.shard}: crash at packet {spec.at}\n"
            )
            sys.stderr.flush()
            if self.before_crash is not None:
                self.before_crash()
            os._exit(CRASH_EXIT_CODE)
        if kind is FaultKind.HANG:
            time.sleep(HANG_SECONDS)
            return
        if kind is FaultKind.STALL:
            time.sleep(spec.seconds)
            return
        if kind is FaultKind.SLOWDOWN:
            self._slowdown = spec.seconds
            return
        if kind is FaultKind.CLOCK_SKEW:
            self.clock_skew += spec.seconds
            return
        if kind is FaultKind.DECODE_ERROR:
            raise MalformedPacketError(
                f"injected decode fault (shard {self.shard}, packet {spec.at})"
            )
        raise AssertionError(f"unhandled fault kind {kind!r}")
