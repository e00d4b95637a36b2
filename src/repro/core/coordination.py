"""Coordinated flat control planes (paper §VI, future work).

The paper's Discussion proposes *flat designs with multiple controllers
that coordinate their actions ... while maintaining global visibility*.
:class:`PeerController` implements one such design: a flat
:class:`~repro.core.controller.GlobalController` over its own stage
partition — the same collect, columns, compute and enforce — whose
collect phase ends with a summary exchange:

1. **collect** — each peer collects metrics from its own partition
   (parallel across peers, like aggregators) into its columns;
2. **exchange** — peers send every other peer their per-job demand
   (data, metadata) and wait for all counterpart summaries (the
   coordination step — the new cost a hierarchy does not pay). What the
   others hold of each job lands in one *reserved* row per job: in the
   compute's gather, never sent a rule;
3. **compute** — every peer runs the brain over the same global job
   totals (a job split across peers included) and keeps its own stages'
   share of each job's grant;
4. **enforce** — each peer pushes rules to its own partition only.

The exchange doubles as a barrier: a peer cannot start computing epoch
*e* before every other peer has finished collecting epoch *e*, so the
plane-level cycle latency is the slowest peer's path. The exchange is
folded into the *collect* phase when reporting, mirroring how the paper
attributes pre-compute communication.
"""

from __future__ import annotations

from typing import Dict, Generator, List

import numpy as np

from repro.core.controller import GlobalController
from repro.core.cycle import ControlCycle
from repro.simnet.transport import Connection

__all__ = ["PeerController", "merge_peer_cycles"]

#: Id prefix of the rows holding the other peers' part of a job.
_REMOTE = "peers:"


class PeerController(GlobalController):
    """One member of a coordinated flat control plane: a flat global
    controller over its partition plus the peer summary exchange."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.peer_connections: Dict[str, Connection] = {}
        # Summaries from faster peers can land while this peer is still
        # collecting or enforcing; park them instead of dropping.
        self.defer_kinds = {"peer_summary"}

    def add_peer(self, peer_id: str, connection: Connection) -> None:
        self.peer_connections[peer_id] = connection
        self.host.allocate(self.costs.per_agg_mem_at_global)

    def _exchange(self, epoch: int) -> Generator:
        """Broadcast this partition's per-job demand, wait for every
        peer's, and write the others' part of each job into its reserved
        row. Returns the compute seconds the remote jobs cost."""
        cm = self.costs
        cols = self.columns
        job_ids, job_index = cols.job_view()
        n_jobs = len(job_ids)
        data = np.bincount(job_index, cols.data_active(), n_jobs).tolist()
        meta = np.bincount(job_index, cols.meta_active(), n_jobs).tolist()
        # A job none of whose stages has reported yet is not summarised.
        held = np.bincount(job_index, cols.seen_active(), n_jobs).tolist()
        summary = {
            job: (data[j], meta[j]) for j, job in enumerate(job_ids) if held[j]
        }
        size = cm.agg_reply_header_bytes + len(summary) * cm.agg_reply_entry_bytes
        for conn in self.peer_connections.values():
            yield self._execute(cm.tx_batch_s)
            conn.send(self.endpoint, "peer_summary", (epoch, summary), size)

        remote: Dict[str, List[float]] = {}

        def on_summary(msg) -> None:
            for job, (job_data, job_meta) in msg.payload[1].items():
                total = remote.setdefault(job, [0.0, 0.0])
                total[0] += job_data
                total[1] += job_meta

        yield from self._await_replies(
            len(self.peer_connections),
            epoch,
            {
                "peer_summary": cm.rx_agg_reply_fixed_s
                + max(len(summary), 1) * cm.rx_agg_entry_s
            },
            on_summary,
        )
        for row_id in list(cols.reserved):
            if row_id[len(_REMOTE):] not in remote:
                cols.evict(row_id)
        for job in sorted(remote):
            if _REMOTE + job not in cols:
                cols.register(_REMOTE + job, job)
                cols.reserve(_REMOTE + job)
        cols.observe_many(
            [_REMOTE + job for job in remote],
            [total[0] for total in remote.values()],
            [total[1] for total in remote.values()],
        )
        return len(remote.keys() - set(job_ids)) * cm.psfa_per_stage_hier_s


def merge_peer_cycles(
    per_peer: List[List[ControlCycle]],
) -> List[ControlCycle]:
    """Plane-level cycles: per-epoch element-wise maximum across peers.

    The summary exchange makes peers rendezvous each epoch, so the slowest
    peer's phase durations bound the plane's effective control latency;
    an epoch is degraded if any peer's was (missing stages add up).
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
                n_missing=sum(r.n_missing for r in rows),
                timed_out=any(r.timed_out for r in rows),
            )
        )
    return merged
