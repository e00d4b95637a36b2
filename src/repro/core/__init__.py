"""The SDS control plane under study.

This package implements the paper's contribution: Cheferd-style storage
control planes in two architectures —

* :class:`~repro.core.control_plane.FlatControlPlane` — a single global
  controller directly managing every data-plane stage (paper Fig. 2);
* :class:`~repro.core.control_plane.HierarchicalControlPlane` — a global
  controller above a layer of aggregator controllers, each owning a
  disjoint partition of stages (paper Fig. 3);

plus the *future-work* designs §VI sketches:

* :class:`~repro.core.control_plane.CoordinatedFlatControlPlane` — peer
  controllers that partition the stages and exchange summaries to keep
  global visibility;
* decision offloading — aggregators running PSFA locally over a capacity
  budget granted by the global controller;
* a hot-standby global controller (:mod:`repro.core.failover`): one
  takeover rule, :class:`~repro.core.failover.StandbyRule`, whose DES
  shell is :class:`~repro.core.failover.HotStandby` (the live plane's,
  :class:`repro.live.failover.LiveHotStandby`).

The control algorithm is **PSFA** (proportional sharing without false
allocation, :mod:`repro.core.algorithms.psfa`), executed every control
cycle over metrics collected from all stages, producing enforcement rules
pushed back to the stages.
"""

from repro.core.adaptive import AdaptivePeriodController
from repro.core.control_plane import (
    ControlPlaneConfig,
    CoordinatedFlatControlPlane,
    FlatControlPlane,
    HierarchicalControlPlane,
)
from repro.core.failover import FailoverEvent, HotStandby, StandbyRule, attach_standby
from repro.core.cycle import ControlCycle, CycleStats, PhaseBreakdown
from repro.core.metrics import AggregatedMetrics, StageMetrics
from repro.core.policies import (
    DemandBoundPolicy,
    PolicyError,
    PriorityClass,
    QoSPolicy,
)
from repro.core.rules import EnforcementRule

__all__ = [
    "AdaptivePeriodController",
    "AggregatedMetrics",
    "ControlCycle",
    "ControlPlaneConfig",
    "CoordinatedFlatControlPlane",
    "CycleStats",
    "DemandBoundPolicy",
    "EnforcementRule",
    "FailoverEvent",
    "FlatControlPlane",
    "HierarchicalControlPlane",
    "HotStandby",
    "PhaseBreakdown",
    "PolicyError",
    "PriorityClass",
    "QoSPolicy",
    "StageMetrics",
    "StandbyRule",
    "attach_standby",
]
