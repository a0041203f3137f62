"""Adaptive load shedding: drop benign-profile flows first, visibly.

The paper's overload story (Section 6 discipline, extended in PR 4's
overload manager) is that an attacker must never be able to *silence*
the detector: under pressure the engine refuses new diversions before
it drops diverted work.  The service's ingest layer needs the same
shape one level up.  When producers outrun the pipeline -- queue
backlog rising, fast-path p99 blowing its budget -- the shedder starts
dropping packets *before* the ingest buffer overflows randomly, and it
chooses what to drop by the inverse of suspicion:

- a flow the engine has **diverted** is never shed (it is, by
  definition, the traffic the system exists to inspect);
- a flow the flight recorder has **force-pinned** is never shed (the
  operator was promised a complete timeline);
- everything else -- the benign-profile bulk -- is shed by a
  deterministic hash of the port-less canonical flow key, a *fraction*
  of the flow space per level, so one flow is either wholly shed or
  wholly examined while overloaded (per-packet coin flips would feed
  every flow's reassembly half a stream).

Level changes are hysteretic (raise immediately, lower only after
``calm_updates`` consecutive calm signals) so the shed fraction does
not flap with every queue-depth ripple.  Every decision lands in
telemetry (``repro_service_shed_*``) and the flight recorder, and the
shed count is a term of the service's loss accounting identity:
``examined + shed + quarantined + lost == input``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..packet import FlowKey
from ..packet.batch import PacketBatch, ip_u32_to_str, portless_flow_hash

__all__ = ["LoadShedder", "ShedPolicy"]

#: Hash-space resolution of the shed fraction (1 part in 10_000).
_SHED_SCALE = 10_000


@dataclass(frozen=True)
class ShedPolicy:
    """Knobs for the shedder's level ladder and its trigger signals."""

    levels: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)
    """Fraction of the (unprotected) flow space shed at each level;
    level 0 must be 0.0 (no shedding when healthy)."""

    backlog_high: float = 0.75
    """Ingest-buffer fill fraction at which the level steps up."""

    backlog_low: float = 0.25
    """Fill fraction below which an update counts as calm."""

    p99_budget_ns: float = 0.0
    """Fast-path stage p99 latency budget in nanoseconds; 0 disables
    the latency signal (backlog-only shedding)."""

    calm_updates: int = 5
    """Consecutive calm updates required before the level steps down
    (the hysteresis that stops level flapping)."""

    def __post_init__(self) -> None:
        if not self.levels or self.levels[0] != 0.0:
            raise ValueError(f"levels must start at 0.0, got {self.levels}")
        if any(not 0.0 <= level <= 1.0 for level in self.levels):
            raise ValueError(f"levels must be fractions in [0, 1]: {self.levels}")
        if not 0.0 <= self.backlog_low <= self.backlog_high <= 1.0:
            raise ValueError(
                f"need 0 <= backlog_low <= backlog_high <= 1, got "
                f"{self.backlog_low}/{self.backlog_high}"
            )
        if self.calm_updates < 1:
            raise ValueError(f"calm_updates must be >= 1, got {self.calm_updates}")


class LoadShedder:
    """The level state machine plus the per-row shed decision."""

    def __init__(self, policy: ShedPolicy | None = None) -> None:
        self.policy = policy or ShedPolicy()
        self.level = 0
        self.enabled = True
        self._calm_streak = 0
        self.shed_packets = 0
        self.protected_packets = 0
        """Packets that matched the shed hash while protected (diverted
        or force-traced) -- the never-shed invariant, made countable."""

        self.level_changes = 0
        self.last_backlog = 0.0
        self.last_p99_ratio = 0.0

    @property
    def max_level(self) -> int:
        return len(self.policy.levels) - 1

    @property
    def shed_fraction(self) -> float:
        return self.policy.levels[self.level]

    def update(self, *, backlog: float, p99_ns: float = 0.0) -> int:
        """Feed the live signals; returns the (possibly new) level.

        ``backlog`` is the ingest buffer's fill fraction; ``p99_ns`` the
        fast-path stage p99 from the profiler (0 when unknown).  Raise
        is immediate, lower waits out the calm streak.
        """
        policy = self.policy
        self.last_backlog = backlog
        ratio = p99_ns / policy.p99_budget_ns if policy.p99_budget_ns > 0 else 0.0
        self.last_p99_ratio = ratio
        overloaded = backlog >= policy.backlog_high or ratio > 1.0
        calm = backlog <= policy.backlog_low and ratio <= 1.0
        if overloaded and self.level < self.max_level:
            self.level += 1
            self.level_changes += 1
            self._calm_streak = 0
        elif overloaded:
            self._calm_streak = 0
        elif calm and self.level > 0:
            self._calm_streak += 1
            if self._calm_streak >= policy.calm_updates:
                self.level -= 1
                self.level_changes += 1
                self._calm_streak = 0
        elif not calm:
            self._calm_streak = 0
        return self.level

    def _threshold(self) -> float:
        """Shed-space slots below this are shed (0: nothing is)."""
        if not self.enabled:
            return 0.0
        return self.policy.levels[self.level] * _SHED_SCALE

    def shed_rows(
        self, batch: PacketBatch, rows: list[int], *, engine: Any, tracer: Any = None
    ) -> tuple[list[int], list[tuple[int, FlowKey]]]:
        """The shed decision over batch rows: ``(kept, shed)``.

        A row's slot in the shed space is the intern-cached
        :func:`~repro.packet.batch.portless_flow_hash` of its address
        pair and protocol -- the key the shard router places by -- so
        both directions and every packet of a flow share one slot and a
        shed flow is shed wholly.  A flow key is only built for rows
        inside the shed space.  A non-first fragment has no ports to name
        its flow and is always kept.

        The never-shed invariants: a currently-diverted or force-traced
        flow is never shed at any level (counted in
        ``protected_packets``).  Shed rows come back with their flow for
        the caller's counters and trace spans.
        """
        threshold = self._threshold()
        if threshold <= 0:
            return rows, []
        kept: list[int] = []
        shed: list[tuple[int, FlowKey]] = []
        fragflags = batch.fragflags
        for row in rows:
            if fragflags[row] & 0x1FFF:
                kept.append(row)
                continue
            src, dst, proto = batch.src[row], batch.dst[row], batch.proto[row]
            if portless_flow_hash(src, dst, proto) % _SHED_SCALE >= threshold:
                kept.append(row)
                continue
            flow = FlowKey(
                ip_u32_to_str(src),
                ip_u32_to_str(dst),
                batch.sport[row],
                batch.dport[row],
                proto,
            )
            if engine.is_diverted(flow) or (
                tracer is not None and tracer.is_forced(flow)
            ):
                self.protected_packets += 1
                kept.append(row)
            else:
                self.shed_packets += 1
                shed.append((row, flow))
        return kept, shed

    def state(self) -> dict[str, Any]:
        """The /shed body: level, fractions, and the decision counters."""
        return {
            "enabled": self.enabled,
            "level": self.level,
            "max_level": self.max_level,
            "shed_fraction": self.shed_fraction,
            "levels": list(self.policy.levels),
            "shed_packets": self.shed_packets,
            "protected_packets": self.protected_packets,
            "level_changes": self.level_changes,
            "backlog": round(self.last_backlog, 4),
            "p99_ratio": round(self.last_p99_ratio, 4),
        }
