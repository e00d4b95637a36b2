"""Discrete-event simulation substrate for HPC clusters.

``repro.simnet`` is a from-scratch, SimPy-flavoured discrete-event
simulation (DES) kernel plus the cluster-specific models built on top of
it: hosts with CPU cost accounting, network links with latency and
bandwidth, connection-limited transports, and tree topologies.

The SDS control planes in :mod:`repro.core` run unmodified protocol logic
over this substrate; every request, reply, and enforcement rule is a
simulated message, so latency breakdowns and resource usage are *measured*
from the simulation rather than predicted analytically.

Public API
----------
:class:`~repro.simnet.engine.Environment`
    The simulation kernel (clock + event queue + processes).
:class:`~repro.simnet.node.SimHost`
    A compute node with CPU-core accounting.
:class:`~repro.simnet.link.Link`
    A latency/bandwidth network link.
:class:`~repro.simnet.transport.Network`
    Message routing with per-NIC connection limits.
:func:`~repro.simnet.topology.build_cluster`
    Construct a cluster of hosts wired through a network.
"""

from repro.simnet.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.simnet.link import DelayModel, FixedDelay, Link, NormalJitterDelay
from repro.simnet.node import SimHost
from repro.simnet.resources import PriorityResource, Resource, Store
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import Cluster, DragonflyTopology, build_cluster
from repro.simnet.transport import (
    Connection,
    ConnectionLimitExceeded,
    ConnectionPool,
    Message,
    Network,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Cluster",
    "Connection",
    "ConnectionLimitExceeded",
    "ConnectionPool",
    "DelayModel",
    "DragonflyTopology",
    "Environment",
    "Event",
    "FixedDelay",
    "Interrupt",
    "Link",
    "Message",
    "Network",
    "NormalJitterDelay",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Resource",
    "SimHost",
    "SimulationError",
    "Store",
    "Timeout",
    "build_cluster",
]
