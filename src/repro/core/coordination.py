"""Coordinated flat control planes (paper §VI, future work).

The paper's Discussion proposes *flat designs with multiple controllers
that coordinate their actions ... while maintaining global visibility*.
:class:`PeerController` implements one such design:

1. **collect** — each peer collects metrics from its own stage partition
   (parallel across peers, like aggregators);
2. **exchange** — peers broadcast per-job demand summaries to every other
   peer and wait for all counterpart summaries (the coordination step —
   this is the new cost a hierarchy does not pay);
3. **compute** — every peer runs the control algorithm over the *global*
   demand vector (own stages in detail, remote jobs as totals), so all
   peers derive consistent allocations deterministically;
4. **enforce** — each peer pushes rules to its own partition only.

The exchange doubles as a barrier: a peer cannot start computing epoch
*e* before every other peer has finished collecting epoch *e*, so the
plane-level cycle latency is the slowest peer's path. The exchange is
folded into the *collect* phase when reporting, mirroring how the paper
attributes pre-compute communication.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

import numpy as np

from repro.core.algorithms.base import ControlAlgorithm
from repro.core.algorithms.psfa import PSFA
from repro.core.columnar import StageColumns
from repro.core.controller import ChildChannel, _Fan
from repro.core.costs import CostModel, FRONTERA_COST_MODEL
from repro.core.cycle import ControlCycle
from repro.core.policies import QoSPolicy
from repro.core.registry import StageRegistry, StageRecord
from repro.obs.spans import NullSpanTracer
from repro.simnet.engine import Environment, Process
from repro.simnet.node import SimHost
from repro.simnet.transport import Connection, Endpoint

__all__ = ["PeerController", "merge_peer_cycles"]


class PeerController(_Fan):
    """One member of a coordinated flat control plane: a fan over its own
    stage partition (one slot each) plus the peer exchange."""

    def __init__(
        self,
        env: Environment,
        host: SimHost,
        endpoint: Endpoint,
        peer_id: str,
        policy: QoSPolicy,
        algorithm: Optional[ControlAlgorithm] = None,
        costs: CostModel = FRONTERA_COST_MODEL,
        span_tracer=None,
    ) -> None:
        super().__init__(env, host, endpoint, costs, peer_id)
        self.tracer = span_tracer if span_tracer is not None else NullSpanTracer()
        self.peer_id = peer_id
        self.policy = policy
        self.algorithm = algorithm or PSFA()
        self.registry = StageRegistry()
        self.peer_connections: Dict[str, Connection] = {}
        self.cycles: List[ControlCycle] = []
        #: Last accepted total demand (data + metadata) per own stage.
        self.latest_demand: Dict[str, float] = {}
        self.remote_job_demand: Dict[str, float] = {}
        self.epoch = 0
        # Summaries from faster peers can land while this peer is still
        # collecting or enforcing; park them instead of dropping.
        self.defer_kinds = {"peer_summary"}
        host.allocate(costs.global_fixed_mem)

    # -- membership -----------------------------------------------------------
    def add_stage(self, stage_id: str, job_id: str, channel: ChildChannel) -> None:
        self.registry.register(
            StageRecord(stage_id, job_id, channel.endpoint.host.name, self.env.now)
        )
        self._add_child(channel)
        self.host.allocate(self.costs.flat_per_stage_mem)

    def add_peer(self, peer_id: str, connection: Connection) -> None:
        self.peer_connections[peer_id] = connection
        self.host.allocate(self.costs.per_agg_mem_at_global)

    # -- main loop -----------------------------------------------------------
    def run_cycles(self, n_cycles: int) -> Process:
        if n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1: {n_cycles}")
        if not self.peer_connections:
            raise RuntimeError("coordinated peer with no peers; use FlatControlPlane")
        return self.env.process(self._run(n_cycles), name=f"{self.peer_id}.loop")

    def _run(self, n_cycles: int) -> Generator:
        for _ in range(n_cycles):
            yield from self._cycle()

    def _cycle(self) -> Generator:
        self.epoch += 1
        epoch = self.epoch
        cm = self.costs
        started = self.env.now

        # ---- collect (own partition) ----
        ledger = self._relayout()
        yield from self._fan_collect(epoch, None)
        data, meta = np.frombuffer(ledger.data), np.frombuffer(ledger.meta)
        # A sample the columns would refuse leaves the stage at
        # last-known demand.
        taken = ledger.end_collect() & StageColumns.valid_reports(data, meta)
        for slot in np.flatnonzero(taken).tolist():
            self.latest_demand[ledger.ids[slot]] = ledger.data[slot] + ledger.meta[slot]

        # ---- exchange (summary broadcast + barrier) ----
        own_jobs: Dict[str, float] = {}
        for stage_id in self.registry.stage_ids:
            demand = self.latest_demand.get(stage_id)
            if demand is None:
                continue
            job_id = self.registry.job_of(stage_id)
            own_jobs[job_id] = own_jobs.get(job_id, 0.0) + demand
        summary_size = (
            cm.agg_reply_header_bytes + len(own_jobs) * cm.agg_reply_entry_bytes
        )
        for peer_id, conn in self.peer_connections.items():
            yield self._execute(cm.tx_batch_s)
            conn.send(self.endpoint, "peer_summary", (epoch, own_jobs), summary_size)

        remote: Dict[str, float] = {}

        def on_summary(msg) -> None:
            _, jobs = msg.payload
            for job_id, demand in jobs.items():
                remote[job_id] = remote.get(job_id, 0.0) + demand

        mean_jobs = max(len(own_jobs), 1)
        yield from self._await_replies(
            len(self.peer_connections),
            epoch,
            {
                "peer_summary": cm.rx_agg_reply_fixed_s
                + mean_jobs * cm.rx_agg_entry_s
            },
            on_summary,
        )
        self.remote_job_demand = remote
        t_collect = self.env.now - started

        # ---- compute (global vector, deterministic ordering) ----
        compute_started = self.env.now
        own_job_ids = self.registry.job_ids
        remote_job_ids = sorted(j for j in remote if j not in set(own_job_ids))
        all_jobs = own_job_ids + remote_job_ids
        demand = np.array(
            [own_jobs.get(j, remote.get(j, 0.0)) for j in all_jobs]
        )
        weights = self.policy.weights(all_jobs)
        guarantees = self.policy.guarantees(all_jobs)
        result = self.algorithm.allocate(
            demand, weights, self.policy.allocatable_iops, guarantees
        )
        alloc_of = dict(zip(all_jobs, result.allocations))
        yield self._execute(
            cm.compute_fixed_s
            + len(self.children) * cm.psfa_per_stage_s
            + len(remote_job_ids) * cm.psfa_per_stage_hier_s
        )
        t_compute = self.env.now - compute_started

        # ---- enforce (own partition) ----
        enforce_started = self.env.now
        limits: Dict[str, float] = {}
        for job_id in own_job_ids:
            stage_ids = self.registry.stages_of(job_id)
            demands = np.array([self.latest_demand.get(s, 0.0) for s in stage_ids])
            total = demands.sum()
            grant = alloc_of.get(job_id, 0.0)
            if total > 0:
                shares = grant * demands / total
            else:
                shares = np.full(len(stage_ids), grant / max(len(stage_ids), 1))
            limits.update(zip(stage_ids, shares))

        sent = yield from self._send_rules(
            self._stages,
            epoch,
            [float(limits.get(stage_id, 0.0)) for stage_id in ledger.ids],
            None,
            cm.rule_build_s + cm.tx_rule_s,
        )
        yield from self._await_replies(
            sent,
            epoch,
            {"rule_ack": cm.rx_ack_s},
        )
        t_enforce = self.env.now - enforce_started

        self.host.charge(
            cm.bg_fixed_s + len(self.children) * cm.bg_per_stage_direct_s
        )
        self.cycles.append(
            ControlCycle(
                epoch=epoch,
                started_at=started,
                collect_s=t_collect,
                compute_s=t_compute,
                enforce_s=t_enforce,
                n_stages=len(self.children),
            )
        )
        if self.tracer.enabled:
            self.cycles[-1].emit_spans(self.tracer)


def merge_peer_cycles(
    per_peer: List[List[ControlCycle]],
) -> List[ControlCycle]:
    """Plane-level cycles: per-epoch element-wise maximum across peers.

    The summary exchange makes peers rendezvous each epoch, so the slowest
    peer's phase durations bound the plane's effective control latency.
    """
    if not per_peer or not all(per_peer):
        return []
    n_epochs = min(len(cycles) for cycles in per_peer)
    merged: List[ControlCycle] = []
    for e in range(n_epochs):
        rows = [cycles[e] for cycles in per_peer]
        merged.append(
            ControlCycle(
                epoch=rows[0].epoch,
                started_at=min(r.started_at for r in rows),
                collect_s=max(r.collect_s for r in rows),
                compute_s=max(r.compute_s for r in rows),
                enforce_s=max(r.enforce_s for r in rows),
                n_stages=sum(r.n_stages for r in rows),
            )
        )
    return merged
