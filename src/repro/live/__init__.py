"""A real (non-simulated) deployment of the control plane.

Everything in :mod:`repro.core` above the transport is reused — the
compute phase (:class:`~repro.core.compute.ColumnarCompute`: per-job
demand, weights and floors, the brain, the split back to stages), the
policy model, rule/metric semantics — but here the controller and the
virtual stages are genuine asyncio TCP services exchanging length-prefixed
messages over localhost. This validates that the control plane is real
software, and lets a laptop reproduce the *small-N* end of Fig. 4 with
wall-clock latencies (the paper's 50-node point runs in a few ms of real
time per cycle; absolute values differ from Frontera's, shapes hold).

The live plane carries the same failure semantics as the simulated one
(paper §VI): phase deadlines with partial collect, dead-session
eviction, stage reconnect with backoff, and fault hooks on the stages
and the aggregators' handles themselves (``kill`` / ``pause`` /
``resume``; :mod:`repro.live.faults` adds a timed stall and a flaky
socket). On top of
that ride the control-tree fault-tolerance mechanisms: aggregator
failover with stage re-homing (topology/``rehome`` frames,
alternate-address rotation in the stage client, and the adopting
aggregator's next ``partition`` frame — the trunk's per-cycle frames are
packed vectors that name no stage, so an aggregator announces its
partition's order once per membership change) and a hot standby for the
global controller (:mod:`repro.live.failover`; composed with its stages
as :class:`~repro.live.harness.LiveFlatPair`) driven by the simulated
plane's own takeover rule, :class:`~repro.core.failover.StandbyRule`.

Entry point: :func:`~repro.live.harness.run_live` (``repro live``; the
``examples/live_cluster.py`` script), over the planes in
:mod:`repro.live.harness`.
"""

from repro.live.failover import LiveHotStandby
from repro.live.faults import flaky_socket
from repro.live.harness import (
    LiveFlatPair,
    LiveRunResult,
    run_live,
)

__all__ = [
    "LiveFlatPair",
    "LiveHotStandby",
    "LiveRunResult",
    "flaky_socket",
    "run_live",
]
