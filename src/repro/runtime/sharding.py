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
a fragmented connection across shards -- the fragments on one shard
(port-less hash), the connection's whole packets on another (five-tuple
hash).  The engine's behaviour is *not* separable across that tear: the
first fragment diverts the whole connection to the slow path, but the
shard seeing only the whole packets never gets the fragments' bytes,
and the sharded system stops matching the unsharded one (THEORY.md's
placement condition has a connection that alerts unsharded and is
silent at two shards).  The shard key is therefore the canonical flow
key with the ports cleared -- src/dst address pair plus protocol --
which every packet of a connection *and* every fragment of its
datagrams agree on, and there is no port-inclusive alternative.

The hash is :func:`repro.packet.batch.portless_key_hash`, the one
serialization of that key (also the trace id and the shed slot; rows
reach it through the intern-cached ``portless_flow_hash``): pure
integer arithmetic, so assignments are identical across platforms,
Python builds, and runs (no ``PYTHONHASHSEED`` dependence).
"""

from __future__ import annotations

import enum

from ..packet import FlowKey
from ..packet.batch import portless_key_hash

__all__ = ["ShardPolicy", "ShardRouter"]


class ShardPolicy(enum.Enum):
    """Which fields of the flow identity feed the shard hash."""

    FLOW = "flow"
    """Canonical address pair + protocol (fragmentation-safe; every
    packet that can ever share engine state lands on one shard)."""


class ShardRouter:
    """Deterministic packet-to-shard assignment for shared-nothing engines."""

    def __init__(self, shards: int, policy: ShardPolicy = ShardPolicy.FLOW) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.policy = policy

    def shard_of_flow(self, flow: FlowKey) -> int:
        """Shard index for a flow key (its ports play no part)."""
        return portless_key_hash(flow.src, flow.dst, flow.protocol) % self.shards
