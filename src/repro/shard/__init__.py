"""Multi-process sharding of the control plane (live and simulated).

The single-asyncio-loop / single-DES-thread architecture validates the
paper's hierarchy argument only up to the single-core wall. This package
breaks the plane across processes in both worlds:

* :mod:`repro.shard.plane` — the live plane: the global controller stays
  in the parent process while each aggregator subtree (leader + pinned
  stages) runs in its own forked :class:`~repro.live.tier.AggregatorTier`,
  talking upstream over the ordinary wire protocol on a per-shard port.
* :mod:`repro.shard.hashing` — deterministic consistent-hash ring that
  pins stages to shards by a digest, not by the per-process ``hash()``.
* :mod:`repro.shard.sim` — partition-parallel DES: one worker process
  per aggregator-subtree group with conservative time-sync at the
  collect/compute/enforce barrier; ``workers=1`` runs today's engine
  byte-identically.
"""

from repro.shard.hashing import ShardRing, pin_stages
from repro.shard.plane import ShardRunResult, ShardedControlPlane, run_live_sharded
from repro.shard.sim import PartitionedSimResult, run_partitioned_hier

__all__ = [
    "PartitionedSimResult",
    "ShardRing",
    "ShardRunResult",
    "ShardedControlPlane",
    "pin_stages",
    "run_live_sharded",
    "run_partitioned_hier",
]
