"""Multi-process sharded control plane (parent-side orchestrator).

:class:`ShardedControlPlane` breaks the live control plane out of the
single-asyncio-loop wall: the global controller stays in the parent
process, while each aggregator subtree — a shard leader plus the stages
the consistent-hash ring pins to it — runs in its own forked
:class:`~repro.live.tier.AggregatorTier`, the same child process host
the live hierarchy uses, with the subtree's stages on its stage list.
The trunk between parent and each shard leader is the ordinary wire
protocol over a per-shard-port TCP listener, so everything built for the
live hierarchy (epoch fencing, orphan reservation, topology/rehome,
degraded-cycle accounting) applies unchanged; probes and usage rows
cross the tier's control channel.

Per-shard-port listeners were chosen over an ``SO_REUSEPORT`` shared
port: the global controller addresses one *specific* leader per trunk,
which a kernel-balanced shared accept queue cannot guarantee, and
distinct ports keep the re-home alternates list meaningful. See
DESIGN.md ("Sharded control plane") for the trade-off discussion.

:func:`run_live_sharded` is the one-call runner behind ``repro shard``.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.control_plane import default_policy
from repro.core.cycle import ControlCycle, CycleStats
from repro.core.policies import QoSPolicy
from repro.live.controller_server import LiveHierGlobalController
from repro.live.tier import AggregatorHandle, AggregatorTier
from repro.shard.hashing import pin_stages

__all__ = ["ShardRunResult", "ShardedControlPlane", "run_live_sharded"]


@dataclass
class ShardRunResult:
    """Outcome of a sharded run: cycle timings plus per-shard usage rows."""

    n_stages: int
    n_workers: int
    cycles: List[ControlCycle]
    #: One usage dict per shard process (see
    #: ``ShardedControlPlane._keep_row``): cycles served, rules applied,
    #: NIC bytes, CPU seconds, RSS — the per-process counterpart of the
    #: REMORA tables.
    shard_rows: List[dict] = field(default_factory=list)
    evictions: int = 0
    #: ``os.cpu_count()`` of the host the run executed on — scaling
    #: claims are meaningless without it (a 1-core box cannot show >1x).
    cpu_count: int = 1

    def stats(self, warmup: int = 2) -> CycleStats:
        return CycleStats(
            self.cycles, warmup=min(warmup, max(len(self.cycles) - 1, 0))
        )

    @property
    def rules_applied_total(self) -> int:
        return sum(r.get("rules_applied", 0) for r in self.shard_rows)

    @property
    def degraded_cycles(self) -> int:
        return sum(1 for c in self.cycles if c.degraded)


class ShardedControlPlane:
    """Global controller in-process, one forked tier per shard.

    Lifecycle: :meth:`start` (fork + wait for registration),
    :meth:`run_cycles`, :meth:`shutdown`. :meth:`kill_shard` /
    :meth:`respawn_shard` are the chaos-harness fault hooks,
    :attr:`aggregators` holds each live shard's leader handle (its
    ``pause`` / ``resume``), and :meth:`probe` asks every live tier for its stages' applied
    epoch/limit (invariant checks).
    """

    def __init__(
        self,
        n_stages: int,
        n_workers: int,
        policy: Optional[QoSPolicy] = None,
        collect_timeout_s: Optional[float] = None,
        enforce_timeout_s: Optional[float] = None,
        dead_after_missed: Optional[int] = None,
    ) -> None:
        if n_stages < 1:
            raise ValueError(f"n_stages must be >= 1: {n_stages}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {n_workers}")
        self.n_stages = n_stages
        self.n_workers = n_workers
        self.policy = policy or default_policy(n_stages)
        self.collect_timeout_s = collect_timeout_s
        self.enforce_timeout_s = enforce_timeout_s
        self.dead_after_missed = dead_after_missed
        stage_ids = [f"stage-{i:05d}" for i in range(n_stages)]
        self.partitions = pin_stages(stage_ids, n_workers)
        self.controller: Optional[LiveHierGlobalController] = None
        #: The running tier of each shard, and when it was forked.
        self._tiers: Dict[int, AggregatorTier] = {}
        self._started: Dict[int, float] = {}
        #: One usage row per retired shard process.
        self.shard_rows: List[dict] = []

    # -- lifecycle -----------------------------------------------------------
    async def _fork(self, shard: int) -> None:
        owned = self.partitions[shard]
        tier = AggregatorTier()
        self._started[shard] = time.perf_counter()
        await tier.start(
            [(f"shard-{shard:02d}", len(owned), 0)],
            self.controller.host,
            self.controller.port,
            self.collect_timeout_s,
            self.enforce_timeout_s,
            None,
            stages=[(s, s.replace("stage", "job"), 0) for s in owned],
        )
        self._tiers[shard] = tier

    async def start(self) -> None:
        """Start the global controller, fork every shard, await the tree."""
        self.controller = LiveHierGlobalController(
            self.policy,
            expected_aggregators=self.n_workers,
            collect_timeout_s=self.collect_timeout_s,
            enforce_timeout_s=self.enforce_timeout_s,
            dead_after_missed=self.dead_after_missed,
        )
        await self.controller.start()
        for shard in range(self.n_workers):
            await self._fork(shard)
        await self.controller.wait_for_aggregators()

    async def run_cycles(self, n_cycles: int) -> List[ControlCycle]:
        """Run ``n_cycles`` control cycles across the shard tree."""
        if self.controller is None:
            raise RuntimeError("start() first")
        return await self.controller.run_cycles(n_cycles)

    async def shutdown(self) -> None:
        """Tear the tree down and keep every shard's usage row."""
        if self.controller is not None:
            await self.controller.shutdown()
        for shard in list(self._tiers):
            tier = self._tiers.pop(shard)
            await tier.stop()
            self._keep_row(shard, tier)

    def _keep_row(self, shard: int, tier: AggregatorTier) -> None:
        """Book a retired tier's usage row — the per-process REMORA
        Tables II–IV entry — if it had last words."""
        words = tier.last_words
        if words is None:
            return
        agg_id = f"shard-{shard:02d}"
        leader = words["stats"][0]
        stages = words["stages"].values()
        tx_bytes, rx_bytes, _ = words["obs"]["meters"][agg_id]
        self.shard_rows.append(
            {
                "shard_id": shard,
                "aggregator_id": agg_id,
                "n_stages": len(self.partitions[shard]),
                "cycles_served": leader["cycles_served"],
                "evictions": leader["evictions"],
                "adoptions": leader["adoptions"],
                "rules_applied": sum(s["rules_applied"] for s in stages),
                "rules_stale": sum(s["rules_stale"] for s in stages),
                "cpu_seconds": words["cpu_s"],
                "tx_bytes": tx_bytes,
                "rx_bytes": rx_bytes,
                "elapsed_s": time.perf_counter() - self._started[shard],
                "rss_bytes": words["rss_bytes"],
            }
        )

    # -- chaos hooks ---------------------------------------------------------
    def kill_shard(self, shard: int) -> None:
        """SIGKILL a shard mid-cycle: its subtree vanishes at once.

        The controller sees trunk EOF, evicts the leader, and reserves
        the orphaned stages' shares — exactly the aggregator-failover
        path, now with a real process death behind it.
        """
        tier = self._tiers.pop(shard, None)
        if tier is not None:
            tier.kill()
            self._keep_row(shard, tier)

    async def respawn_shard(self, shard: int, timeout_s: float = 10.0) -> None:
        """Bring a killed shard back with the same pinned partition.

        Waits for the controller to finish evicting the dead leader
        first — a respawn racing its predecessor's session would be
        rejected as a duplicate aggregator id.
        """
        agg_id = f"shard-{shard:02d}"
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while agg_id in self.controller.sessions:
            if loop.time() > deadline:
                raise TimeoutError(f"{agg_id} still registered; cannot respawn")
            await asyncio.sleep(0.02)
        await self._fork(shard)

    @property
    def aggregators(self) -> Dict[int, AggregatorHandle]:
        """Each live shard's leader, by shard (its fault hooks)."""
        return {shard: tier.handles[0] for shard, tier in self._tiers.items()}

    def probe(self) -> Dict[str, dict]:
        """Per-stage applied epoch/limit, by stage id, from every live
        shard."""
        stages: Dict[str, dict] = {}
        for tier in self._tiers.values():
            reply = tier.call("probe")
            if reply is not None:
                stages.update(reply["stages"])
        return stages


def run_live_sharded(
    n_stages: int = 40,
    n_workers: int = 2,
    n_cycles: int = 10,
    policy: Optional[QoSPolicy] = None,
    collect_timeout_s: Optional[float] = None,
    enforce_timeout_s: Optional[float] = None,
) -> ShardRunResult:
    """Run the sharded control plane over localhost TCP and real processes."""
    if n_stages < 1 or n_cycles < 1:
        raise ValueError("n_stages and n_cycles must be >= 1")
    if not 1 <= n_workers <= n_stages:
        raise ValueError("n_workers must be in [1, n_stages]")
    plane = ShardedControlPlane(
        n_stages,
        n_workers,
        policy=policy,
        collect_timeout_s=collect_timeout_s,
        enforce_timeout_s=enforce_timeout_s,
    )

    async def run() -> List[ControlCycle]:
        await plane.start()
        try:
            return await plane.run_cycles(n_cycles)
        finally:
            await plane.shutdown()

    cycles = asyncio.run(run())
    return ShardRunResult(
        n_stages=n_stages,
        n_workers=n_workers,
        cycles=list(cycles),
        shard_rows=list(plane.shard_rows),
        evictions=plane.controller.evictions,
        cpu_count=os.cpu_count() or 1,
    )
