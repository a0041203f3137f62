"""Flow-consistent shard routing: the RSS of the sharded runtime.

Split-Detect is embarrassingly shardable because *every* piece of
per-flow state -- the fast path's monitor entries, the engine's diverted
set, the slow path's reassembly buffers -- is keyed by the connection.
A hash that sends every packet of a connection (both directions) to the
same shard therefore makes shards fully independent: N shards behind the
router behave bit-for-bit like N isolated engines each seeing its own
slice of the traffic.

The one subtlety is IP fragmentation, the classic RSS pitfall: non-first
fragments carry no transport header, so a port-inclusive hash would tear
a fragmented connection across shards -- the fragments would land on one
shard (port-less hash) while the connection's unfragmented packets land
on another (five-tuple hash).  The engine's behaviour is *not* separable
across that tear: the first fragment diverts the whole connection to the
slow path, so the shard seeing only the unfragmented packets would keep
them on the fast path and the sharded system would stop matching the
unsharded one.  The default :attr:`ShardPolicy.FLOW` key therefore
hashes the canonical flow key with the ports cleared -- src/dst address
pair plus protocol -- which every packet of a connection *and* every
fragment of its datagrams agree on.  :attr:`ShardPolicy.TUPLE5` adds the
canonical port pair for finer balance on fragment-free workloads,
accepting exactly the RSS caveat above.

The hash is 64-bit FNV-1a over a canonical byte serialization: pure
integer arithmetic, so assignments are identical across platforms,
Python builds, and runs (no ``PYTHONHASHSEED`` dependence).
"""

from __future__ import annotations

import enum

from ..hashing import fnv1a_64
from ..packet import FlowKey

__all__ = ["ShardPolicy", "ShardRouter", "shard_key_bytes"]


class ShardPolicy(enum.Enum):
    """Which fields of the flow identity feed the shard hash."""

    FLOW = "flow"
    """Canonical address pair + protocol (fragmentation-safe; every
    packet that can ever share engine state lands on one shard)."""

    TUPLE5 = "tuple5"
    """Canonical five-tuple including ports (finer spreading; fragments
    still fall back to the address pair, so a connection that both
    fragments and sends whole packets may straddle two shards)."""


def shard_key_bytes(flow: FlowKey, *, with_ports: bool) -> bytes:
    """Serialize the direction-insensitive shard identity of a flow.

    Uses :meth:`FlowKey.canonical` so both directions serialize
    identically; the port pair is included only when the policy (and the
    packet -- fragments have no visible ports) allows.
    """
    canonical = flow.canonical()
    if with_ports:
        return (
            f"{canonical.src}|{canonical.dst}|{canonical.src_port}|"
            f"{canonical.dst_port}|{canonical.protocol}"
        ).encode()
    return f"{canonical.src}|{canonical.dst}|{canonical.protocol}".encode()


class ShardRouter:
    """Deterministic packet-to-shard assignment for shared-nothing engines."""

    def __init__(self, shards: int, policy: ShardPolicy = ShardPolicy.FLOW) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.policy = policy

    def shard_of_flow(self, flow: FlowKey, *, fragment: bool = False) -> int:
        """Shard index for a flow key (``fragment`` forces the port-less key)."""
        with_ports = self.policy is ShardPolicy.TUPLE5 and not fragment
        return fnv1a_64(shard_key_bytes(flow, with_ports=with_ports)) % self.shards
