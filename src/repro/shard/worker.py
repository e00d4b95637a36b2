"""Shard worker process: one aggregator subtree on its own core.

:func:`run_shard_worker` is the ``multiprocessing`` spawn target for one
live shard. Inside the worker a private asyncio loop hosts a
:class:`~repro.live.aggregator_server.LiveAggregator` — the *shard
leader*, listening on its own per-shard ephemeral port — plus every
:class:`~repro.live.stage_client.LiveVirtualStage` pinned to the shard
by the consistent-hash ring. The leader registers upstream with the
parent process's global controller over the normal wire protocol, so
the global controller cannot tell a shard worker from an in-process
aggregator.

The parent talks to the worker over a ``multiprocessing`` pipe:

========  =============================  ==================================
request   reply                          purpose
========  =============================  ==================================
(implicit)  ``("ready", shard, port)``   sent once the leader is listening
``("probe",)``  ``("probe_reply", {...})``  per-stage applied epoch/limit
``("stop",)``   ``("stats", {...})``     drain usage row, then exit
========  =============================  ==================================

The worker also exits (shipping its ``stats`` row) when the upstream
trunk closes — the controller's ``shutdown`` frame tears the whole tree
down without any pipe traffic, and a killed parent never leaves orphan
workers behind.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ShardWorkerConfig", "run_shard_worker"]

#: Pipe poll period inside the worker loop (seconds). Coarse on purpose:
#: probes are a chaos-harness convenience, not a hot path.
_POLL_S = 0.02


@dataclass(frozen=True)
class ShardWorkerConfig:
    """Everything a spawned shard worker needs, picklable by design.

    ``multiprocessing``'s spawn start method pickles this across the
    process boundary, so every field is a plain value — no sockets, no
    loops, no lambdas.
    """

    shard_id: int
    aggregator_id: str
    global_host: str
    global_port: int
    stage_ids: Tuple[str, ...]
    job_ids: Tuple[str, ...]
    collect_timeout_s: Optional[float] = None
    enforce_timeout_s: Optional[float] = None
    demand: Tuple[float, float] = (1000.0, 200.0)

    def __post_init__(self) -> None:
        if len(self.stage_ids) != len(self.job_ids):
            raise ValueError("stage_ids and job_ids lengths differ")


def run_shard_worker(config: ShardWorkerConfig, conn) -> None:
    """Spawn-target: run one shard subtree until shutdown.

    ``conn`` is the worker end of a duplex ``multiprocessing.Pipe``.
    Must stay a top-level importable so the spawn start method can
    resolve it by qualified name in the child.
    """
    asyncio.run(_worker_main(config, conn))


async def _worker_main(config: ShardWorkerConfig, conn) -> None:
    from repro.live.aggregator_server import LiveAggregator
    from repro.live.stage_client import LiveVirtualStage
    from repro.obs.procfs import ComponentUsageMeter, read_rss_bytes

    started = time.perf_counter()
    meter = ComponentUsageMeter(config.aggregator_id)
    leader = LiveAggregator(
        config.aggregator_id,
        config.global_host,
        config.global_port,
        expected_stages=len(config.stage_ids),
        collect_timeout_s=config.collect_timeout_s,
        enforce_timeout_s=config.enforce_timeout_s,
        usage_meter=meter,
    )
    await leader.start()
    stages = [
        LiveVirtualStage(
            leader.host,
            leader.port,
            stage_id=stage_id,
            job_id=job_id,
            demand=config.demand,
        )
        for stage_id, job_id in zip(config.stage_ids, config.job_ids)
    ]
    stage_tasks = [asyncio.create_task(s.run()) for s in stages]
    leader_task = asyncio.create_task(leader.run())
    conn.send(("ready", config.shard_id, leader.port))
    try:
        while not leader_task.done():
            if conn.poll():
                request = conn.recv()
                kind = request[0] if request else None
                if kind == "probe":
                    conn.send(("probe_reply", _probe(stages)))
                elif kind == "stop":
                    break
            await asyncio.sleep(_POLL_S)
    finally:
        leader._stop.set()
        for task in stage_tasks:
            task.cancel()
        leader_task.cancel()
        await asyncio.gather(leader_task, *stage_tasks, return_exceptions=True)
        elapsed = max(time.perf_counter() - started, 1e-9)
        try:
            conn.send(("stats", _stats_row(config, leader, stages, meter,
                                           elapsed, read_rss_bytes())))
            conn.close()
        except (BrokenPipeError, OSError):
            pass  # parent died first; nothing left to report to


def _probe(stages) -> dict:
    """Per-stage enforcement state, keyed by stage id."""
    return {
        s.stage_id: {
            "applied_epoch": s.applied_epoch,
            "applied_limit": s.applied_limit,
            "rules_applied": s.rules_applied,
        }
        for s in stages
    }


def _stats_row(config, leader, stages, meter, elapsed_s, rss_bytes) -> dict:
    """The shard's usage row: the per-process REMORA Tables II–IV entry."""
    return {
        "shard_id": config.shard_id,
        "aggregator_id": config.aggregator_id,
        "n_stages": len(stages),
        "cycles_served": leader.cycles_served,
        "evictions": leader.evictions,
        "adoptions": leader.adoptions,
        "rules_applied": sum(s.rules_applied for s in stages),
        "rules_stale": sum(s.rules_ignored_stale for s in stages),
        "cpu_seconds": meter.cpu_seconds,
        "tx_bytes": meter.tx_bytes,
        "rx_bytes": meter.rx_bytes,
        "elapsed_s": elapsed_s,
        "rss_bytes": rss_bytes,
    }
