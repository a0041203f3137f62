"""A picklable recipe for building identical engines in every worker.

Worker processes cannot share a live :class:`SplitDetectIPS` (and must
not -- shards are shared-nothing by design), so the runner ships them
this spec and each worker builds its own engine from it.  Everything in
the spec is plain data (rulesets, policies, dataclass configs), so it
crosses process boundaries under both fork and spawn start methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import FastPathConfig, SplitDetectIPS
from ..core.engine import compile_rules, view_rules
from ..signatures import ByteFrequencyModel, RuleSet, SplitPolicy
from ..streams import OverlapPolicy

__all__ = ["EngineSpec"]


@dataclass(frozen=True)
class EngineSpec:
    """Constructor arguments for one :class:`SplitDetectIPS`, as data.

    Mirrors the engine's keyword surface.  Note that per-engine capacity
    knobs (``slow_capacity_flows``, a fixed fast-path flow table) are
    *per shard* once sharded: N shards built from one spec provision N
    times the capacity, which is the point of scaling out -- but it also
    means capacity-limited configurations are not bit-for-bit comparable
    with a single unsharded engine under overload.
    """

    rules: RuleSet
    split_policy: SplitPolicy | None = None
    fast_config: FastPathConfig | None = None
    overlap_policy: OverlapPolicy = OverlapPolicy.BSD
    model: ByteFrequencyModel | None = None
    probation_packets: int = 8
    slow_capacity_flows: int | None = None
    ensemble_policies: tuple[OverlapPolicy, ...] = field(default_factory=tuple)

    def build(
        self,
        telemetry: object | None = None,
        tracer: object | None = None,
    ) -> SplitDetectIPS:
        """Construct a fresh engine (one per shard).  Engines from one spec
        share its compiled tables (compiled by the first build, and again
        once :attr:`rules` changed), not flow state or scan counters."""
        signatures = tuple(self.rules.signatures)
        memo = self.__dict__.get("_compiled")
        if memo is None or memo[0] != signatures:  # the first engine scans the set itself
            compiled = compile_rules(self.rules, self.split_policy, self.model, self.fast_config)
            object.__setattr__(self, "_compiled", (signatures, compiled))  # a memo, not a field
        else:
            compiled = view_rules(memo[1])
        return SplitDetectIPS(
            self.rules,
            split_policy=self.split_policy,
            fast_config=self.fast_config,
            overlap_policy=self.overlap_policy,
            model=self.model,
            probation_packets=self.probation_packets,
            slow_capacity_flows=self.slow_capacity_flows,
            ensemble_policies=self.ensemble_policies,
            telemetry=telemetry,
            tracer=tracer,
            compiled=compiled,
        )

    def __getstate__(self) -> dict:
        """Pickle the recipe alone: each process compiles its own tables."""
        return {name: value for name, value in self.__dict__.items() if name != "_compiled"}
