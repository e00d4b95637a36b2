"""Multi-process sharding of the simulated control plane.

One DES thread validates the paper's hierarchy argument only up to the
single-core wall. :mod:`repro.shard.sim` breaks the simulation across
processes: one worker process per aggregator-subtree group with
conservative time-sync at the collect/compute/enforce barrier;
``workers=1`` runs today's engine byte-identically. The live plane's
multi-process split is the forked aggregator tier of
:class:`~repro.live.harness.LiveHierPlane` (:mod:`repro.live.tier`).
"""

from repro.shard.sim import PartitionedSimResult, run_partitioned_hier

__all__ = ["PartitionedSimResult", "run_partitioned_hier"]
