"""Partition-parallel DES: one worker process per aggregator subtree.

The control cycle already provides a natural conservative-time barrier:
between the global controller's collect fan-out and its rule-batch
fan-out, the aggregator subtrees exchange **no** events with each other.
That makes the hierarchical simulation embarrassingly partitionable —
each subtree (aggregator + its stage partition + their links) can
advance on its own :class:`~repro.simnet.engine.Environment` in its own
process, as long as every subtree re-synchronises with the global
controller's clock at the collect and enforce phase boundaries. No
anti-messages, no rollback: the barrier *is* the sync protocol.

``workers=1`` does not approximate anything: it runs today's
single-process :class:`~repro.core.control_plane.HierarchicalControlPlane`
engine directly, so the golden-trace suite pins it byte-identical to the
seed simulator (see ``tests/shard/test_sim_partitioned.py``).

``workers>1`` composes the cycle from the workers' subtree timings and
the global controller's own serial costs, charged from the same
:class:`~repro.core.costs.CostModel` fields the in-process
:class:`~repro.core.controller.GlobalController` charges:

* collect = fan-out tx + slowest subtree's collect + per-reply rx,
* compute = the global controller's own compute half over the union of
  demand vectors (charged at the hier per-stage rate, once per axis),
* enforce = rule build + batch tx + slowest subtree's distribute + acks.

Cross-process state travels as **rows**, the DES trunk's own form:
stage ids cross the pipe once, in each worker's ``ready`` message (every
subtree's partition order and job ids), and the parent registers them in
its compute half's columns; per cycle a worker replies with ``(data,
meta, answered)`` vectors per subtree, which the parent scatters with one
``observe_rows`` through that subtree's rows, and enforce ships each
worker one ``(2, n)`` limit array aligned to its canonical stage order
instead of pickling a stage→limit dict to every worker.

Taking the *maximum* subtree time at each barrier is the conservative
synchronisation rule: the composed clock never runs ahead of any
partition, so causality across the barrier cannot be violated.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.compute import GlobalCompute
from repro.core.control_plane import (
    ControlPlaneConfig,
    HierarchicalControlPlane,
    default_policy,
)
from repro.core.costs import CostModel, FRONTERA_COST_MODEL
from repro.core.cycle import ControlCycle, CycleStats
from repro.core.policies import QoSPolicy
from repro.core.registry import partition_stages
from repro.core.slots import SlotLedger

__all__ = ["PartitionedSimResult", "run_partitioned_hier"]


@dataclass
class PartitionedSimResult:
    """Cycle records plus how the simulation was partitioned."""

    n_stages: int
    n_aggregators: int
    workers: int
    cycles: List[ControlCycle] = field(default_factory=list)

    def stats(self, warmup: int = 1) -> CycleStats:
        return CycleStats(
            self.cycles, warmup=min(warmup, max(len(self.cycles) - 1, 0))
        )


@dataclass(frozen=True)
class _SubtreeSpec:
    """Picklable recipe for one worker's slice of the aggregator tier."""

    worker_index: int
    #: ``(agg_id, stage_ids)`` per aggregator assigned to this worker.
    subtrees: Tuple[Tuple[str, Tuple[str, ...]], ...]
    stages_per_host: int
    costs: CostModel
    demand: Tuple[float, float]


class _SubtreeSim:
    """One worker's private DES: its aggregators, stages, and a driver.

    The driver endpoint plays the global controller's network position,
    so subtree timings include the trunk-link latency and the
    aggregator-side costs exactly as the monolithic engine charges them.
    """

    def __init__(self, spec: _SubtreeSpec) -> None:
        from repro.core.controller import AggregatorController, ChildChannel
        from repro.dataplane.virtual_stage import ConstantSource, VirtualStage
        from repro.simnet.engine import Environment
        from repro.simnet.topology import build_cluster

        self.spec = spec
        self.env = Environment()
        self.cluster = build_cluster(self.env, 0)
        cm = spec.costs
        driver_host = self.cluster.add_host(name=f"driver-{spec.worker_index}")
        self.cluster.network.reserve_system_slots(driver_host, 8)
        self.driver = self.cluster.network.attach(driver_host, "driver")
        self.links: List[Tuple[str, object, object]] = []  # (agg_id, conn, agg)
        for agg_id, stage_ids in spec.subtrees:
            agg_host = self.cluster.add_host(name=agg_id)
            self.cluster.network.reserve_system_slots(agg_host, 8)
            agg_endpoint = self.cluster.network.attach(agg_host, agg_id)
            agg = AggregatorController(
                self.env, agg_host, agg_endpoint, agg_id, costs=cm
            )
            stage_hosts: Dict[int, object] = {}
            for i, stage_id in enumerate(stage_ids):
                h = i // spec.stages_per_host
                if h not in stage_hosts:
                    stage_hosts[h] = self.cluster.add_host(
                        name=f"{agg_id}-stagehost-{h:04d}"
                    )
                stage = VirtualStage(
                    self.env,
                    stage_id,
                    stage_id.replace("stage", "job"),
                    source=ConstantSource(*spec.demand),
                    costs=cm,
                )
                endpoint = self.cluster.network.attach(stage_hosts[h], stage_id)
                stage.bind(endpoint)
                conn = self.cluster.network.connect(agg_endpoint, endpoint)
                agg.add_stage(
                    stage_id,
                    stage.job_id,
                    ChildChannel(stage_id, "stage", conn, agg_endpoint),
                )
            agg.start()
            trunk = self.cluster.network.connect(self.driver, agg_endpoint)
            self.links.append((agg_id, trunk, agg))

    def _advance_to(self, t: float) -> None:
        """Conservative sync: jump this partition's clock to barrier ``t``."""
        if t > self.env.now:
            def wait():
                yield self.env.timeout(t - self.env.now)
            self.env.run(self.env.process(wait(), name="barrier"))

    def orders(self) -> List[Tuple[str, Tuple[str, ...], Tuple[str, ...]]]:
        """``(agg_id, stage_ids, job_ids)`` per subtree: the order every
        per-cycle vector of that subtree is laid out in."""
        return [
            (agg_id, agg.stage_ids, tuple(agg.stage_jobs[s] for s in agg.stage_ids))
            for agg_id, _trunk, agg in self.links
        ]

    def collect(self, epoch: int, barrier_t: float):
        """Fan ``agg_collect_req`` out, gather the subtrees' rows; time it.

        Returns ``(elapsed, [(data, meta, answered) per subtree])`` in
        spec order — contiguous vectors pickle as single buffers.
        """
        cm = self.spec.costs
        self._advance_to(barrier_t)
        started = self.env.now
        index = {agg.endpoint.name: i for i, (_, _, agg) in enumerate(self.links)}
        replies: List[Optional[tuple]] = [None] * len(self.links)

        def drive():
            for _, trunk, _agg in self.links:
                trunk.send(self.driver, "agg_collect_req", epoch,
                           cm.agg_request_bytes)
            got = 0
            while got < len(self.links):
                msg = yield self.driver.recv()
                if msg.kind != "agg_metrics_reply":
                    continue
                _, merged = msg.payload
                replies[index[msg.sender]] = (
                    merged.data_iops, merged.metadata_iops, merged.answered
                )
                got += 1

        self.env.run(self.env.process(drive(), name="driver.collect"))
        return self.env.now - started, replies

    def enforce(self, epoch: int, limits: np.ndarray,
                barrier_t: float) -> float:
        """Ship per-aggregator rule batches, await acks; time it.

        ``limits`` is ``(2, n)``, data over metadata, aligned to this
        worker's canonical stage order — its subtrees' partitions in spec
        order, which is exactly the order ``agg.stage_ids`` yields.
        """
        cm = self.spec.costs
        self._advance_to(barrier_t)
        started = self.env.now
        limits.flags.writeable = False

        def drive():
            sent = 0
            offset = 0
            for _agg_id, trunk, agg in self.links:
                n = agg.n_stages
                part = slice(offset, offset + n)
                offset += n
                trunk.send(
                    self.driver,
                    "rule_batch",
                    (epoch, limits[0, part], limits[1, part]),
                    cm.rule_batch_header_bytes + n * cm.rule_batch_entry_bytes,
                )
                sent += 1
            got = 0
            while got < sent:
                msg = yield self.driver.recv()
                if msg.kind == "batch_ack":
                    got += 1

        self.env.run(self.env.process(drive(), name="driver.enforce"))
        return self.env.now - started


def _run_sim_worker(spec: _SubtreeSpec, conn) -> None:
    """Worker body: serve collect/enforce barriers for one partition."""
    sim = _SubtreeSim(spec)
    conn.send(("ready", spec.worker_index, sim.orders()))
    while True:
        cmd = conn.recv()
        if cmd[0] == "collect":
            _, epoch, barrier_t = cmd
            elapsed, replies = sim.collect(epoch, barrier_t)
            conn.send(("collected", elapsed, replies))
        elif cmd[0] == "enforce":
            _, epoch, limits, barrier_t = cmd
            elapsed = sim.enforce(epoch, limits, barrier_t)
            conn.send(("enforced", elapsed))
        elif cmd[0] == "stop":
            conn.close()
            return


def run_partitioned_hier(
    n_stages: int,
    n_aggregators: int,
    n_cycles: int,
    workers: int = 1,
    costs: CostModel = FRONTERA_COST_MODEL,
    policy: Optional[QoSPolicy] = None,
    stages_per_host: int = 50,
    demand: Tuple[float, float] = (1000.0, 200.0),
) -> PartitionedSimResult:
    """Simulate the hierarchical plane, optionally across processes.

    With ``workers=1`` this *is* the existing engine (byte-identical
    event order). With ``workers>1`` each worker owns a contiguous group
    of aggregator subtrees on its own Environment and the cycle is
    composed at the collect/compute/enforce barrier under conservative
    time-sync; per-cycle phase latencies land in the same
    :class:`~repro.core.cycle.ControlCycle` records either way.
    """
    if n_stages < 1 or n_cycles < 1:
        raise ValueError("n_stages and n_cycles must be >= 1")
    if not 1 <= n_aggregators <= n_stages:
        raise ValueError("n_aggregators must be in [1, n_stages]")
    if not 1 <= workers <= n_aggregators:
        raise ValueError("workers must be in [1, n_aggregators]")
    policy = policy or default_policy(n_stages)
    if workers == 1:  # today's engine, verbatim: the golden-trace anchor
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(
                n_stages=n_stages, stages_per_host=stages_per_host,
                policy=policy, costs=costs,
            ),
            n_aggregators,
        )
        plane.env.run(plane.global_controller.run_cycles(n_cycles))
        return PartitionedSimResult(
            n_stages, n_aggregators, 1, list(plane.global_controller.cycles)
        )

    stage_ids = [f"stage-{i:05d}" for i in range(n_stages)]
    partitions = partition_stages(stage_ids, n_aggregators)
    subtrees = [
        (f"aggregator-{a:02d}", tuple(owned))
        for a, owned in enumerate(partitions)
    ]
    groups = partition_stages([t[0] for t in subtrees], workers)
    by_id = dict(subtrees)

    # Fork, not spawn: a spawned worker re-imports the caller's
    # ``__main__``, which a script without a main guard cannot survive.
    ctx = multiprocessing.get_context("fork")
    pipes, procs = [], []
    try:
        for w, agg_ids in enumerate(groups):
            spec = _SubtreeSpec(
                worker_index=w,
                subtrees=tuple((a, by_id[a]) for a in agg_ids),
                stages_per_host=stages_per_host,
                costs=costs,
                demand=demand,
            )
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_run_sim_worker,
                args=(spec, child_conn),
                name=f"simshard-{w}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            pipes.append(parent_conn)
            procs.append(proc)
        # The global controller's compute half, its columns laid out in
        # the workers' canonical order (their ``ready`` messages).
        core = GlobalCompute(
            policy, None, alpha=1.0, enforce_changed_only=False,
            rule_change_tolerance=0.0, initial_epoch=0, demand_clamp=None,
        )
        columns = core.columns
        subtree_rows: List[List[np.ndarray]] = []
        for conn in pipes:
            ready = conn.recv()
            if ready[0] != "ready":
                raise RuntimeError(f"sim worker failed to start: {ready!r}")
            rows = []
            for _agg_id, sids, jids in ready[2]:
                columns.register_many(sids, jids)
                rows.append(columns.rows_for(sids))
            subtree_rows.append(rows)

        cm = costs
        mean_part = n_stages / n_aggregators
        worker_rows = [np.concatenate(rows) for rows in subtree_rows]
        now = 0.0
        for _ in range(n_cycles):
            epoch = core.begin_cycle()
            started = now
            # ---- collect: serial fan-out, parallel subtrees, serial rx ----
            tx_s = n_aggregators * cm.tx_request_s
            for conn in pipes:
                conn.send(("collect", epoch, started + tx_s))
            slowest = 0.0
            for conn, rows in zip(pipes, subtree_rows):
                kind, elapsed, replies = conn.recv()
                assert kind == "collected"
                slowest = max(slowest, elapsed)
                for part_rows, (data, meta, answered) in zip(rows, replies):
                    columns.observe_rows(
                        part_rows[answered], data[answered], meta[answered]
                    )
            rx_s = n_aggregators * (
                cm.rx_agg_reply_fixed_s + mean_part * cm.rx_agg_entry_s
            )
            collect_s = tx_s + slowest + rx_s
            now = started + collect_s

            # ---- compute: the brain over the union, at hier rates ----
            _, differentiated, grant = core.allocate()
            per_stage_s = cm.psfa_per_stage_hier_s
            if differentiated:
                per_stage_s *= 2
            compute_s = cm.compute_fixed_s + columns.n_active * per_stage_s
            now += compute_s

            # ---- enforce: rule build + batch tx, parallel subtrees, acks ----
            build_tx_s = (
                n_stages * cm.rule_build_hier_s
                + n_aggregators * cm.tx_batch_s
            )
            for conn, rows in zip(pipes, worker_rows):
                limits = SlotLedger.gather(grant, rows)
                if not differentiated:
                    limits[1] = np.inf
                conn.send(("enforce", epoch, limits, now + build_tx_s))
            slowest = 0.0
            for conn in pipes:
                kind, elapsed = conn.recv()
                assert kind == "enforced"
                slowest = max(slowest, elapsed)
            enforce_s = build_tx_s + slowest + n_aggregators * cm.rx_agg_ack_s
            now += enforce_s

            core.cycles.append(
                ControlCycle(
                    epoch=epoch,
                    started_at=started,
                    collect_s=collect_s,
                    compute_s=compute_s,
                    enforce_s=enforce_s,
                    n_stages=n_stages,
                )
            )
    finally:
        for conn in pipes:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()

    return PartitionedSimResult(
        n_stages=n_stages,
        n_aggregators=n_aggregators,
        workers=workers,
        cycles=core.cycles,
    )
