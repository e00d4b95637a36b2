"""Multi-process sharded control plane (parent-side orchestrator).

:class:`ShardedControlPlane` breaks the live control plane out of the
single-asyncio-loop wall: the global controller stays in the parent
process, while each aggregator subtree — a shard leader plus the stages
the consistent-hash ring pins to it — runs in its own spawned worker
process (:mod:`repro.shard.worker`). The trunk between parent and each
shard leader is the ordinary wire protocol over a per-shard-port TCP
listener, so everything built for the live hierarchy (epoch fencing,
orphan reservation, topology/rehome, degraded-cycle accounting) applies
unchanged; the only new machinery is process lifecycle and a control
pipe per worker for probes and usage rows.

Per-shard-port listeners were chosen over an ``SO_REUSEPORT`` shared
port: the global controller addresses one *specific* leader per trunk,
which a kernel-balanced shared accept queue cannot guarantee, and
distinct ports keep the re-home alternates list meaningful. See
DESIGN.md ("Sharded control plane") for the trade-off discussion.

:func:`run_live_sharded` is the one-call runner behind ``repro shard``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.control_plane import default_policy
from repro.core.cycle import ControlCycle, CycleStats
from repro.core.policies import QoSPolicy
from repro.live.controller_server import LiveHierGlobalController
from repro.shard.hashing import pin_stages
from repro.shard.worker import ShardWorkerConfig, run_shard_worker

__all__ = ["ShardRunResult", "ShardedControlPlane", "run_live_sharded"]

_READY_TIMEOUT_S = 30.0


@dataclass
class ShardRunResult:
    """Outcome of a sharded run: cycle timings plus per-shard usage rows."""

    n_stages: int
    n_workers: int
    cycles: List[ControlCycle]
    #: One usage dict per worker (see ``worker._stats_row``): cycles
    #: served, rules applied, NIC bytes, CPU seconds, RSS — the
    #: per-process counterpart of the REMORA tables.
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
    """Global controller in-process, one worker process per shard.

    Lifecycle: :meth:`start` (spawn + wait for registration),
    :meth:`run_cycles`, :meth:`shutdown`. :meth:`kill_shard` /
    :meth:`respawn_shard` are the chaos-harness fault hooks, and
    :meth:`probe` asks every live worker for its stages' applied
    epoch/limit over the control pipes (invariant checks).
    """

    def __init__(
        self,
        n_stages: int,
        n_workers: int,
        policy: Optional[QoSPolicy] = None,
        collect_timeout_s: Optional[float] = None,
        enforce_timeout_s: Optional[float] = None,
        dead_after_missed: Optional[int] = None,
        vnodes: int = 64,
        initial_epoch: int = 0,
    ) -> None:
        if n_stages < 1:
            raise ValueError(f"n_stages must be >= 1: {n_stages}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {n_workers}")
        if initial_epoch < 0:
            raise ValueError(f"initial_epoch must be >= 0: {initial_epoch}")
        self.n_stages = n_stages
        self.n_workers = n_workers
        self.policy = policy or default_policy(n_stages)
        self.collect_timeout_s = collect_timeout_s
        self.enforce_timeout_s = enforce_timeout_s
        self.dead_after_missed = dead_after_missed
        #: Epoch resume floor for planes restored from a durable store:
        #: workers re-register against a controller already above the
        #: last durable epoch, so replayed rules stay fenced out.
        self.initial_epoch = initial_epoch
        stage_ids = [f"stage-{i:05d}" for i in range(n_stages)]
        self.partitions = pin_stages(stage_ids, n_workers, vnodes=vnodes)
        self.controller: Optional[LiveHierGlobalController] = None
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._pipes: Dict[int, object] = {}
        self.shard_rows: List[dict] = []

    # -- lifecycle -----------------------------------------------------------
    def _config_for(self, shard: int) -> ShardWorkerConfig:
        owned = tuple(self.partitions[shard])
        return ShardWorkerConfig(
            shard_id=shard,
            aggregator_id=f"shard-{shard:02d}",
            global_host=self.controller.host,
            global_port=self.controller.port,
            stage_ids=owned,
            job_ids=tuple(s.replace("stage", "job") for s in owned),
            collect_timeout_s=self.collect_timeout_s,
            enforce_timeout_s=self.enforce_timeout_s,
        )

    async def _spawn(self, shard: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=run_shard_worker,
            args=(self._config_for(shard), child_conn),
            name=f"shard-{shard:02d}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[shard] = proc
        self._pipes[shard] = parent_conn
        reply = await self._recv(shard, timeout_s=_READY_TIMEOUT_S)
        if reply is None or reply[0] != "ready":
            raise RuntimeError(f"shard {shard} failed to start: {reply!r}")

    async def _recv(self, shard: int, timeout_s: float):
        """Await one pipe message from a worker without blocking the loop."""
        conn = self._pipes.get(shard)
        if conn is None:
            return None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while loop.time() < deadline:
            if conn.poll():
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    return None
            await asyncio.sleep(0.01)
        return None

    async def start(self) -> None:
        """Start the global controller, spawn every shard, await the tree."""
        self.controller = LiveHierGlobalController(
            self.policy,
            expected_aggregators=self.n_workers,
            collect_timeout_s=self.collect_timeout_s,
            enforce_timeout_s=self.enforce_timeout_s,
            dead_after_missed=self.dead_after_missed,
            initial_epoch=self.initial_epoch,
        )
        await self.controller.start()
        for shard in range(self.n_workers):
            await self._spawn(shard)
        await self.controller.wait_for_aggregators()

    async def run_cycles(self, n_cycles: int) -> List[ControlCycle]:
        """Run ``n_cycles`` control cycles across the shard tree."""
        if self.controller is None:
            raise RuntimeError("start() first")
        return await self.controller.run_cycles(n_cycles)

    async def shutdown(self) -> None:
        """Tear the tree down and harvest every worker's usage row."""
        if self.controller is not None:
            await self.controller.shutdown()
        for shard in list(self._procs):
            await self._reap(shard, timeout_s=5.0)

    async def _reap(self, shard: int, timeout_s: float) -> None:
        """Collect the final stats row, then join (or kill) the process."""
        conn = self._pipes.get(shard)
        if conn is not None:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            reply = await self._recv(shard, timeout_s=timeout_s)
            while reply is not None and reply[0] != "stats":
                reply = await self._recv(shard, timeout_s=timeout_s)
            if reply is not None:
                self.shard_rows.append(reply[1])
            del self._pipes[shard]
            conn.close()
        proc = self._procs.pop(shard, None)
        if proc is not None:
            proc.join(timeout=timeout_s)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=timeout_s)

    # -- chaos hooks ---------------------------------------------------------
    def kill_shard(self, shard: int) -> None:
        """SIGKILL a worker mid-cycle: its subtree vanishes at once.

        The controller sees trunk EOF, evicts the leader, and reserves
        the orphaned stages' shares — exactly the aggregator-failover
        path, now with a real process death behind it.
        """
        proc = self._procs.pop(shard, None)
        conn = self._pipes.pop(shard, None)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        if conn is not None:
            conn.close()

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
        await self._spawn(shard)

    async def probe(self, timeout_s: float = 5.0) -> Dict[int, dict]:
        """Per-stage applied epoch/limit from every live worker."""
        out: Dict[int, dict] = {}
        for shard in list(self._pipes):
            conn = self._pipes[shard]
            try:
                conn.send(("probe",))
            except (BrokenPipeError, OSError):
                continue
            reply = await self._recv(shard, timeout_s=timeout_s)
            if reply is not None and reply[0] == "probe_reply":
                out[shard] = reply[1]
        return out


async def _run_sharded(
    n_stages: int,
    n_workers: int,
    n_cycles: int,
    **kwargs,
) -> ShardRunResult:
    plane = ShardedControlPlane(n_stages, n_workers, **kwargs)
    await plane.start()
    try:
        cycles = await plane.run_cycles(n_cycles)
    finally:
        await plane.shutdown()
    return ShardRunResult(
        n_stages=n_stages,
        n_workers=n_workers,
        cycles=list(cycles),
        shard_rows=list(plane.shard_rows),
        evictions=plane.controller.evictions,
        cpu_count=os.cpu_count() or 1,
    )


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
    return asyncio.run(
        _run_sharded(
            n_stages,
            n_workers,
            n_cycles,
            policy=policy,
            collect_timeout_s=collect_timeout_s,
            enforce_timeout_s=enforce_timeout_s,
        )
    )
