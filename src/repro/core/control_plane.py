"""Deployable control-plane designs: flat, hierarchical, coordinated-flat.

This module wires controllers, virtual stages, hosts, and the network into
the exact deployments the paper evaluates:

* :class:`FlatControlPlane` (Fig. 2) — one global controller on its own
  compute node, directly connected to every stage. Bounded by the node's
  2,500-connection limit.
* :class:`HierarchicalControlPlane` (Fig. 3) — a global controller over
  ``n_aggregators`` aggregator controllers (each on its own node), each
  owning a disjoint partition of stages. Supports three-level trees and
  §VI decision offloading.
* :class:`CoordinatedFlatControlPlane` (§VI) — K peer controllers, each
  owning a partition, exchanging per-cycle summaries to retain global
  visibility without a root.

Stage placement follows the paper's methodology: ``stages_per_host``
virtual stages are co-located per simulated compute node (50 in the
study), but controllers treat each stage as if it were its own node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.algorithms.base import ControlAlgorithm
from repro.core.algorithms.psfa import PSFA
from repro.core.controller import AggregatorController, ChildChannel, GlobalController
from repro.core.coordination import PeerController, merge_peer_cycles
from repro.core.costs import CostModel, FRONTERA_COST_MODEL
from repro.core.cycle import CycleStats
from repro.core.policies import QoSPolicy
from repro.core.registry import partition_stages
from repro.dataplane.virtual_stage import STRESS_SOURCE, MetricSource, VirtualStage
from repro.monitoring.remora import RemoraReport, RemoraSession
from repro.obs.spans import SpanRecord, SpanTracer, sim_clock
from repro.simnet.engine import Environment
from repro.simnet.link import Link
from repro.simnet.node import SimHost
from repro.simnet.topology import Cluster, build_cluster
from repro.simnet.transport import Endpoint

__all__ = [
    "ControlPlaneConfig",
    "CoordinatedFlatControlPlane",
    "FlatControlPlane",
    "HierarchicalControlPlane",
]


def default_policy(n_stages: int) -> QoSPolicy:
    """The stress-test policy: uniform weights, capacity scaled to N.

    Capacity is ~60 % of aggregate stage demand so PSFA always has real
    work to do (some jobs saturated, some demand-limited).
    """
    return QoSPolicy(pfs_capacity_iops=max(n_stages, 1) * 750.0)


@dataclass
class ControlPlaneConfig:
    """Everything needed to stand up a control plane deployment.

    ``job_of(i)`` maps stage index to job id; the default gives each stage
    its own job, matching the paper's one-stage-per-node stress setup.
    ``source_factory(stage_id)`` builds each stage's metric source; the
    default hands every stage the one shared
    :data:`~repro.dataplane.virtual_stage.STRESS_SOURCE`.
    """

    n_stages: int
    stages_per_host: int = 50
    policy: Optional[QoSPolicy] = None
    algorithm: Optional[ControlAlgorithm] = None
    costs: CostModel = FRONTERA_COST_MODEL
    link: Optional[Link] = None
    max_connections_per_host: int = 2500
    collect_timeout_s: Optional[float] = None
    enforce_changed_only: bool = False
    rule_change_tolerance: float = 0.0
    metrics_alpha: float = 1.0
    #: Record every control cycle as spans (sim-clock domain) exportable
    #: with :func:`repro.obs.chrome_trace.export_chrome_trace`.
    trace_spans: bool = False
    job_of: Callable[[int], str] = field(default=lambda i: f"job-{i:05d}")
    source_factory: Callable[[str], MetricSource] = field(
        default=lambda stage_id: STRESS_SOURCE
    )
    stage_cls: type = VirtualStage

    def __post_init__(self) -> None:
        if self.n_stages < 1:
            raise ValueError(f"n_stages must be >= 1: {self.n_stages}")
        if self.stages_per_host < 1:
            raise ValueError(
                f"stages_per_host must be >= 1: {self.stages_per_host}"
            )
        if self.policy is None:
            self.policy = default_policy(self.n_stages)
        if self.algorithm is None:
            self.algorithm = PSFA()


class _DeployedPlane:
    """Common deployment state and measurement plumbing."""

    def __init__(self, env: Environment, cluster: Cluster, config: ControlPlaneConfig):
        self.env = env
        self.cluster = cluster
        self.config = config
        self.stages: List[VirtualStage] = []
        self.stage_hosts: List[SimHost] = []
        self.controller_hosts: Dict[str, SimHost] = {}
        self.global_controller: Optional[GlobalController] = None
        self.aggregators: List[AggregatorController] = []
        self.remora: Optional[RemoraSession] = None
        #: Root span tracer (sim clock) when ``config.trace_spans`` is set;
        #: controllers trace onto per-component tracks sharing its list.
        self.span_tracer: Optional[SpanTracer] = (
            SpanTracer(
                clock=sim_clock(env), track="global-ctrl", clock_domain="sim"
            )
            if config.trace_spans
            else None
        )

    @property
    def spans(self) -> List[SpanRecord]:
        """All spans recorded so far (empty unless ``trace_spans``)."""
        return self.span_tracer.spans if self.span_tracer is not None else []

    def _tracer_for(self, track: str):
        return (
            self.span_tracer.for_track(track)
            if self.span_tracer is not None
            else None
        )

    # -- construction helpers ------------------------------------------------
    def _build_stages(self) -> None:
        """Create stage hosts and attach one virtual stage per stage id."""
        cfg = self.config
        n_hosts = math.ceil(cfg.n_stages / cfg.stages_per_host)
        for h in range(n_hosts):
            host = self.cluster.add_host(name=f"stagehost-{h:04d}")
            self.stage_hosts.append(host)
        for i in range(cfg.n_stages):
            host = self.stage_hosts[i // cfg.stages_per_host]
            stage_id = f"stage-{i:05d}"
            stage = cfg.stage_cls(
                self.env,
                stage_id,
                cfg.job_of(i),
                source=cfg.source_factory(stage_id),
                costs=cfg.costs,
            )
            stage.attach(self.cluster.network, host, stage_id)
            self.stages.append(stage)

    def _connect_stages(self, controller, stages: Iterable[VirtualStage]) -> None:
        """Connect ``controller`` to each of ``stages`` in order, one
        connection and one channel per stage."""
        network, endpoint = self.cluster.network, controller.endpoint
        for stage in stages:
            conn = network.connect(endpoint, stage.endpoint)
            controller.add_stage(
                stage.stage_id,
                stage.job_id,
                ChildChannel(stage.stage_id, "stage", conn, endpoint),
            )

    def _global_controller(
        self,
        host_name: str,
        service: str,
        system_slots: int = 8,
        cls: type = GlobalController,
        **kwargs,
    ) -> GlobalController:
        """A global controller (or a ``cls`` of one) on a node of its own,
        configured from :attr:`config` (``kwargs`` add to that)."""
        config = self.config
        host = self._controller_host(host_name, system_slots)
        return cls(
            self.env,
            host,
            self.cluster.network.attach(host, service),
            policy=config.policy,
            algorithm=config.algorithm,
            costs=config.costs,
            collect_timeout_s=config.collect_timeout_s,
            **kwargs,
        )

    def _controller_host(self, name: str, system_slots: int = 8) -> SimHost:
        """A dedicated node for a controller.

        ``system_slots`` extra connection slots cover control-channel
        links between controllers (uplinks, peer mesh); the stage-facing
        limit stays at ``max_connections_per_host``.
        """
        host = self.cluster.add_host(name=name)
        self.cluster.network.reserve_system_slots(host, system_slots)
        self.controller_hosts[name] = host
        return host

    # -- running ------------------------------------------------------------------
    def run_stress(self, n_cycles: int) -> None:
        """Run ``n_cycles`` back-to-back control cycles, metering the
        controller hosts."""
        if self.global_controller is None:
            raise RuntimeError("plane not built")
        self.remora = RemoraSession(self.env, dict(self.controller_hosts))
        self.remora.start()
        proc = self.global_controller.run_cycles(n_cycles)
        self.env.run(proc)
        self.remora.stop()

    def stats(self, warmup: int = 1) -> CycleStats:
        """Cycle-latency statistics measured at the global controller."""
        if self.global_controller is None:
            raise RuntimeError("plane not built")
        return self.global_controller.stats(warmup=warmup)

    def resource_report(self) -> RemoraReport:
        """Per-controller CPU/memory/network usage (Tables II–IV)."""
        if self.remora is None:
            raise RuntimeError("run_stress() first")
        return self.remora.report()


class FlatControlPlane(_DeployedPlane):
    """Single global controller directly managing every stage (Fig. 2)."""

    @classmethod
    def build(
        cls,
        config: ControlPlaneConfig,
        env: Optional[Environment] = None,
    ) -> "FlatControlPlane":
        env = env or Environment()
        cluster = build_cluster(
            env,
            0,
            link=config.link,
            max_connections_per_host=config.max_connections_per_host,
        )
        plane = cls(env, cluster, config)
        plane._build_stages()

        # No control-channel links in the flat design: the stage-facing
        # connection limit applies in full (this is Observation #2).
        controller = plane._global_controller(
            "global-ctrl",
            "controller",
            system_slots=0,
            enforce_changed_only=config.enforce_changed_only,
            rule_change_tolerance=config.rule_change_tolerance,
            metrics_alpha=config.metrics_alpha,
            span_tracer=plane._tracer_for("global-ctrl"),
        )
        # One connection per stage: this is where the 2,500-connection
        # NIC limit bites (ConnectionLimitExceeded beyond it).
        plane._connect_stages(controller, plane.stages)
        plane.global_controller = controller
        return plane


class HierarchicalControlPlane(_DeployedPlane):
    """Global controller + aggregator level(s) (Fig. 3).

    ``levels=2`` is the paper's design (global → aggregators → stages).
    ``levels=3`` inserts a second aggregator tier: the global controller
    talks to ``n_aggregators`` top aggregators, each of which manages
    ``fanout`` sub-aggregators that own the stage partitions.
    """

    @classmethod
    def build(
        cls,
        config: ControlPlaneConfig,
        n_aggregators: int,
        env: Optional[Environment] = None,
        decision_offload: bool = False,
        levels: int = 2,
        fanout: int = 2,
    ) -> "HierarchicalControlPlane":
        if n_aggregators < 1:
            raise ValueError(f"n_aggregators must be >= 1: {n_aggregators}")
        if levels not in (2, 3):
            raise ValueError(f"levels must be 2 or 3: {levels}")
        env = env or Environment()
        cluster = build_cluster(
            env,
            0,
            link=config.link,
            max_connections_per_host=config.max_connections_per_host,
        )
        plane = cls(env, cluster, config)
        plane._build_stages()
        stage_jobs = {s.stage_id: s.job_id for s in plane.stages}
        network = cluster.network

        controller = plane._global_controller(
            "global-ctrl",
            "controller",
            decision_offload=decision_offload,
            enforce_changed_only=config.enforce_changed_only,
            rule_change_tolerance=config.rule_change_tolerance,
            metrics_alpha=config.metrics_alpha,
            span_tracer=plane._tracer_for("global-ctrl"),
        )

        def aggregator(agg_id: str) -> AggregatorController:
            host = plane._controller_host(agg_id)
            return AggregatorController(
                env,
                host,
                network.attach(host, agg_id),
                agg_id,
                costs=config.costs,
                policy=config.policy if decision_offload else None,
                algorithm=PSFA() if decision_offload else None,
                span_tracer=plane._tracer_for(agg_id),
                collect_timeout_s=config.collect_timeout_s,
            )

        def uplink(
            parent: Endpoint, agg: AggregatorController, part: Sequence[VirtualStage]
        ) -> ChildChannel:
            return ChildChannel(
                agg.agg_id,
                "aggregator",
                network.connect(parent, agg.endpoint),
                parent,
                stage_ids=tuple(s.stage_id for s in part),
            )

        # Each partition is a contiguous run of plane.stages; at three
        # levels its aggregator owns ``fanout`` sub-aggregators instead.
        for a, part in enumerate(partition_stages(plane.stages, n_aggregators)):
            agg = aggregator(f"aggregator-{a:02d}")
            if levels == 3 and len(part) >= fanout:
                for j, sub_part in enumerate(partition_stages(part, fanout)):
                    sub = aggregator(f"{agg.agg_id}.{j}")
                    plane._connect_stages(sub, sub_part)
                    sub.start()
                    plane.aggregators.append(sub)
                    agg.add_child_aggregator(uplink(agg.endpoint, sub, sub_part), stage_jobs)
            else:
                plane._connect_stages(agg, part)
            agg.start()
            plane.aggregators.append(agg)
            controller.add_aggregator(uplink(controller.endpoint, agg, part), stage_jobs)
        plane.global_controller = controller
        return plane


class CoordinatedFlatControlPlane(_DeployedPlane):
    """K coordinating peer controllers, each owning a stage partition (§VI).

    Each cycle every peer collects its partition, exchanges per-job demand
    summaries with all other peers, runs the control algorithm over the
    *global* job totals, and enforces rules on its own partition. The
    plane's cycle latency is the slowest peer's (they rendezvous on the
    summary exchange).
    """

    def __init__(self, env, cluster, config):
        super().__init__(env, cluster, config)
        self.peers: List[PeerController] = []

    @classmethod
    def build(
        cls,
        config: ControlPlaneConfig,
        n_controllers: int,
        env: Optional[Environment] = None,
    ) -> "CoordinatedFlatControlPlane":
        if n_controllers < 2:
            raise ValueError(
                f"a coordinated plane needs >= 2 controllers: {n_controllers}"
            )
        env = env or Environment()
        cluster = build_cluster(
            env,
            0,
            link=config.link,
            max_connections_per_host=config.max_connections_per_host,
        )
        plane = cls(env, cluster, config)
        plane._build_stages()
        partitions = partition_stages(plane.stages, n_controllers)

        for k, part in enumerate(partitions):
            peer = plane._global_controller(
                f"peer-ctrl-{k:02d}",
                f"peer-{k:02d}",
                system_slots=max(8, n_controllers),
                cls=PeerController,
                name=f"peer-{k:02d}",
                span_tracer=plane._tracer_for(f"peer-ctrl-{k:02d}"),
            )
            plane._connect_stages(peer, part)
            plane.peers.append(peer)

        # Full mesh between peers for the summary exchange.
        for i in range(len(plane.peers)):
            for j in range(i + 1, len(plane.peers)):
                a, b = plane.peers[i], plane.peers[j]
                conn = cluster.network.connect(a.endpoint, b.endpoint)
                a.add_peer(b.name, conn)
                b.add_peer(a.name, conn)
        return plane

    def run_stress(self, n_cycles: int) -> None:
        self.remora = RemoraSession(self.env, dict(self.controller_hosts))
        self.remora.start()
        procs = [p.run_cycles(n_cycles) for p in self.peers]
        for proc in procs:
            self.env.run(proc)
        self.remora.stop()

    def stats(self, warmup: int = 1) -> CycleStats:
        """Plane-level stats: per-epoch maximum across peers."""
        merged = merge_peer_cycles([p.cycles for p in self.peers])
        return CycleStats(merged, warmup=min(warmup, max(len(merged) - 1, 0)))
