"""Per-tenant signature sets: one engine pipeline per tenant.

A monitoring point often fronts several customers (or several internal
zones) whose signature needs differ; compiling every tenant's rules into
one automaton makes each tenant pay for all the others' patterns and
makes a per-tenant reload a global event.  This module keeps tenants
*shared-nothing* instead, the same isolation argument as the runtime's
shards: a keyer maps each packet to a tenant, and each tenant owns a
full :class:`~repro.runtime.worker.ShardProcessor` -- its own compiled
AC tables, flow monitor, counters, tracer, and rule generation.
Unmatched traffic falls back to the default tenant, which runs the
service's base ruleset, so no packet is ever uninspected.

Keyers (``--tenant-key``):

- ``dst-ip`` (default) / ``src-ip`` -- fragment-safe: every IP fragment
  carries the address pair, so a fragmented flow lands on one tenant;
- ``dst-port`` -- finer-grained, but **not** fragment-safe (non-first
  fragments carry no transport header and fall back to the default
  tenant); use only where the capture point defragments.

Selectors are exact values for port keyers and addresses *or CIDR
blocks* for IP keyers (``10.0.1.5``, ``10.0.0.0/8``).  Overlapping
selectors resolve to the first tenant declared -- declaration order is
the precedence order, and :meth:`TenantTable.state` exposes the mapping
so an operator can audit it.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Any

from ..packet import IP_PROTO_TCP, IP_PROTO_UDP, TimedPacket
from ..packet.batch import PacketBatch
from ..runtime import RunnerConfig, ShardProcessor
from ..runtime.control import ControlMessage
from ..runtime.spec import EngineSpec
from ..signatures import RuleSet

__all__ = ["DEFAULT_TENANT", "TENANT_KEYERS", "TenantSpec", "TenantTable"]

#: The fallback tenant every unmatched packet lands on.
DEFAULT_TENANT = "default"

#: Valid ``--tenant-key`` values.
TENANT_KEYERS = ("dst-ip", "src-ip", "dst-port")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's declaration: a name, its selectors, and its rules."""

    name: str
    selectors: tuple[str, ...]
    rules: RuleSet
    rules_path: str | None = None
    """Where the rules came from, so a hot reload can re-read them."""


def _parse_networks(selectors: tuple[str, ...]) -> list[tuple[int, int]]:
    """``(network, netmask)`` integer pairs, the form the columns compare."""
    networks = []
    for selector in selectors:
        try:
            network = ipaddress.IPv4Network(selector, strict=False)
        except ValueError as exc:
            raise ValueError(
                f"bad tenant selector {selector!r}: not an IPv4 address or CIDR"
            ) from exc
        networks.append((int(network.network_address), int(network.netmask)))
    return networks


class TenantTable:
    """The keyer plus every tenant's pipeline, default tenant included.

    Pipelines are in-process :class:`ShardProcessor` instances -- the
    exact worker machinery the runners drive -- indexed 0 for the
    default tenant and 1.. per declared tenant, so merged reports and
    trace spans stay attributable per tenant through the existing
    shard-index plumbing.
    """

    def __init__(
        self,
        default_spec: EngineSpec,
        tenants: list[TenantSpec],
        *,
        keyer: str = "dst-ip",
        config: RunnerConfig | None = None,
    ) -> None:
        if keyer not in TENANT_KEYERS:
            raise ValueError(
                f"unknown tenant keyer {keyer!r}: expected one of {TENANT_KEYERS}"
            )
        names = [spec.name for spec in tenants]
        if DEFAULT_TENANT in names:
            raise ValueError(
                f"tenant name {DEFAULT_TENANT!r} is reserved for the fallback"
            )
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.keyer = keyer
        self.config = config or RunnerConfig()
        self.specs = {spec.name: spec for spec in tenants}
        self.default_spec = default_spec
        self.processors: dict[str, ShardProcessor] = {
            DEFAULT_TENANT: ShardProcessor(
                0, default_spec, self.config, allow_process_faults=False
            )
        }
        for index, spec in enumerate(tenants, start=1):
            engine_spec = EngineSpec(
                rules=spec.rules,
                split_policy=default_spec.split_policy,
                fast_config=default_spec.fast_config,
                overlap_policy=default_spec.overlap_policy,
                model=default_spec.model,
                probation_packets=default_spec.probation_packets,
                slow_capacity_flows=default_spec.slow_capacity_flows,
            )
            self.processors[spec.name] = ShardProcessor(
                index, engine_spec, self.config, allow_process_faults=False
            )
        self.packets_by_tenant: dict[str, int] = {
            name: 0 for name in self.processors
        }
        # Match tables, precompiled once per construction/reload.
        if keyer == "dst-port":
            self._ports: dict[int, str] = {}
            for spec in tenants:
                for selector in spec.selectors:
                    port = int(selector)
                    self._ports.setdefault(port, spec.name)
            self._networks: list[tuple[int, int, str]] = []
        else:
            self._ports = {}
            self._networks = []
            for spec in tenants:
                for network, netmask in _parse_networks(spec.selectors):
                    self._networks.append((network, netmask, spec.name))

    def _tenant_of_address(self, address: int) -> str:
        for network, netmask, name in self._networks:
            if address & netmask == network:
                return name
        return DEFAULT_TENANT

    def tenant_of(self, packet: TimedPacket) -> str:
        """The owning tenant's name; :data:`DEFAULT_TENANT` if unmatched.

        The per-packet statement of the keyer; the service routes whole
        batches through :meth:`tenant_rows`, which must agree with this
        row for row (tested)."""
        ip = packet.ip
        if self.keyer == "dst-port":
            if ip.is_fragment and ip.fragment_offset > 0:
                return DEFAULT_TENANT  # no transport header to key on
            if ip.protocol not in (IP_PROTO_TCP, IP_PROTO_UDP):
                return DEFAULT_TENANT
            payload = ip.payload
            if len(payload) < 4:
                return DEFAULT_TENANT
            return self._ports.get(
                int.from_bytes(payload[2:4], "big"), DEFAULT_TENANT
            )
        return self._tenant_of_address(
            int(ipaddress.IPv4Address(ip.dst if self.keyer == "dst-ip" else ip.src))
        )

    def tenant_rows(self, batch: PacketBatch) -> dict[str, list[int]]:
        """Row indices per owning tenant, in row order."""
        if not self.specs:
            return {DEFAULT_TENANT: list(range(len(batch)))}
        rows_by_tenant: dict[str, list[int]] = {}
        if self.keyer == "dst-port":
            ports = self._ports
            fragflags = batch.fragflags
            for row, port in enumerate(batch.dport):
                # A 0 in the column is "port 0" or "no port to read",
                # and a non-first fragment's column holds payload bytes:
                # the per-packet rule decides those rows.
                if port == 0 or fragflags[row] & 0x1FFF:
                    name = self.tenant_of(batch.materialize(row))
                else:
                    name = ports.get(port, DEFAULT_TENANT)
                rows_by_tenant.setdefault(name, []).append(row)
            return rows_by_tenant
        tenant_of_address = self._tenant_of_address
        addresses = batch.dst if self.keyer == "dst-ip" else batch.src
        for row, address in enumerate(addresses):
            rows_by_tenant.setdefault(tenant_of_address(address), []).append(row)
        return rows_by_tenant

    def processor(self, name: str) -> ShardProcessor:
        return self.processors[name]

    def count(self, name: str, packets: int) -> None:
        self.packets_by_tenant[name] += packets

    def reload(
        self, rules_by_tenant: dict[str, RuleSet], *, seq: int = 0
    ) -> dict[str, int]:
        """Swap rule sets per tenant via the worker control protocol.

        Each named tenant's processor gets one ``reload``
        :class:`ControlMessage` applied at its current batch boundary;
        flow state, diverted work, and counters survive (see
        ``SplitDetectIPS.swap_rules``).  Tenants absent from the map
        keep their current rules.  Returns the new rule generation per
        reloaded tenant.
        """
        generations: dict[str, int] = {}
        for name, rules in rules_by_tenant.items():
            processor = self.processors.get(name)
            if processor is None:
                raise KeyError(f"unknown tenant {name!r}")
            processor.control(
                ControlMessage(
                    op="reload", payload={"rules": rules}, seq=seq,
                    fields={"tenant": name},
                )
            )
            generations[name] = processor.engine.rules_generation
        return generations

    def state(self) -> dict[str, Any]:
        """The /tenants body: per-tenant progress and rule generation."""
        tenants: dict[str, Any] = {}
        for name, processor in self.processors.items():
            spec = self.specs.get(name)
            tenants[name] = {
                "packets": self.packets_by_tenant[name],
                "alerts": len(processor.alerts),
                "diverted_flows": len(processor.engine.diversions),
                "rules": len(processor.engine.rules),
                "rules_generation": processor.engine.rules_generation,
                "selectors": list(spec.selectors) if spec else [],
            }
        return {"keyer": self.keyer, "tenants": tenants}
