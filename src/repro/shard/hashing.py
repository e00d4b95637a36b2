"""Deterministic consistent hashing for stage→shard pinning.

Stage ids are pinned to shards by position on a consistent-hash ring
with virtual nodes. Two properties matter here:

* **Determinism across processes.** The digest is :func:`zlib.crc32`
  over UTF-8 bytes, never Python's built-in ``hash`` — per-process
  ``PYTHONHASHSEED`` randomisation would give every run (and any
  process that re-derives the ring) its own partition. The live shard
  plane computes it once in the parent, and each forked shard inherits
  its slice in memory.
* **Stability under resizing.** With ``vnodes`` virtual points per
  shard, growing the worker pool from N to N+1 moves only ~1/(N+1) of
  the stages, so a re-sharded deployment re-homes a bounded slice of
  its fleet instead of reshuffling everything (the same argument as
  Balsam's launcher-to-site pinning).
"""

from __future__ import annotations

import bisect
import zlib
from typing import Dict, List, Sequence

__all__ = ["ShardRing", "pin_stages"]


def _digest(key: str) -> int:
    """Deterministic 32-bit point for ``key`` (process-independent)."""
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class ShardRing:
    """Consistent-hash ring mapping stage ids to shard indices.

    ``vnodes`` virtual points per shard smooth the partition sizes;
    collisions on the ring resolve to the lower shard index so the
    mapping has no insertion-order dependence.
    """

    def __init__(self, n_shards: int, vnodes: int = 64) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {n_shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points: Dict[int, int] = {}
        for shard in range(n_shards):
            for v in range(vnodes):
                point = _digest(f"shard-{shard}#{v}")
                prev = points.get(point)
                if prev is None or shard < prev:
                    points[point] = shard
        self._points = sorted(points)
        self._owner = [points[p] for p in self._points]

    def shard_of(self, stage_id: str) -> int:
        """The shard index owning ``stage_id``."""
        point = _digest(stage_id)
        i = bisect.bisect_right(self._points, point)
        if i == len(self._points):
            i = 0  # wrap: the first point on the ring owns the tail arc
        return self._owner[i]


def pin_stages(
    stage_ids: Sequence[str], n_shards: int, vnodes: int = 64
) -> List[List[str]]:
    """Partition ``stage_ids`` into ``n_shards`` lists by ring position.

    Every shard gets a list (possibly empty); within a shard, stages
    keep their input order so partition contents are reproducible.
    """
    ring = ShardRing(n_shards, vnodes=vnodes)
    partitions: List[List[str]] = [[] for _ in range(n_shards)]
    for stage_id in stage_ids:
        partitions[ring.shard_of(stage_id)].append(stage_id)
    return partitions
