"""Cluster topologies: hosts, racks, and hop-count resolution.

Frontera's compute fabric is a two-level HDR InfiniBand fat tree: nodes
connect to leaf switches (one per rack section), leaves connect to spine
switches. For latency purposes the interesting quantity is the *hop count*
between two hosts:

* same host → 0 hops (loopback, used when co-locating virtual stages);
* same rack → 2 hops (node → leaf → node);
* different racks → 4 hops (node → leaf → spine → leaf → node).

A three-level tree (for >100k-node systems such as Fugaku) adds a core
layer, giving 6 hops across top-level pods.

:class:`Cluster` packages hosts + a :class:`~repro.simnet.transport.Network`
wired with the topology's hop resolver, and is the object all higher layers
build against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.simnet.engine import Environment
from repro.simnet.link import Link
from repro.simnet.node import SimHost
from repro.simnet.transport import Network

__all__ = ["Cluster", "DragonflyTopology", "FatTreeTopology", "build_cluster"]

#: Nodes per rack on Frontera (dense CS500 racks).
DEFAULT_RACK_SIZE = 56


class FatTreeTopology:
    """Hop-count model for an ``levels``-level fat tree.

    ``levels=2`` is the Frontera case (leaf + spine). ``levels=3`` adds a
    core layer with ``pods_per_core`` leaf groups per pod.
    """

    def __init__(
        self,
        rack_size: int = DEFAULT_RACK_SIZE,
        levels: int = 2,
        racks_per_pod: int = 16,
    ) -> None:
        if rack_size < 1:
            raise ValueError(f"rack_size must be >= 1: {rack_size}")
        if levels not in (2, 3):
            raise ValueError(f"levels must be 2 or 3: {levels}")
        if racks_per_pod < 1:
            raise ValueError(f"racks_per_pod must be >= 1: {racks_per_pod}")
        self.rack_size = int(rack_size)
        self.levels = int(levels)
        self.racks_per_pod = int(racks_per_pod)
        self._rack_of: Dict[str, int] = {}

    def place(self, host: SimHost, index: int) -> None:
        """Record the rack of ``host`` given its cluster index."""
        self._rack_of[host.name] = index // self.rack_size

    def hops(self, a: SimHost, b: SimHost) -> int:
        """Hop count between two placed hosts."""
        if a is b:
            return 0
        rack_a = self._rack_of.get(a.name)
        rack_b = self._rack_of.get(b.name)
        if rack_a is None or rack_b is None:
            # Unplaced host (e.g. an external service): assume worst case.
            return 4 if self.levels == 2 else 6
        if rack_a == rack_b:
            return 2
        if self.levels == 2:
            return 4
        pod_a = rack_a // self.racks_per_pod
        pod_b = rack_b // self.racks_per_pod
        return 4 if pod_a == pod_b else 6


class Cluster:
    """A set of hosts wired through a network with a shared topology."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        topology: FatTreeTopology,
    ) -> None:
        self.env = env
        self.network = network
        self.topology = topology
        self.hosts: List[SimHost] = []
        self._by_name: Dict[str, SimHost] = {}

    def add_host(
        self,
        name: Optional[str] = None,
        cores: int = 56,
        memory_bytes: int = 192 * 2**30,
    ) -> SimHost:
        """Create, place, and register a new host."""
        index = len(self.hosts)
        host = SimHost(
            self.env,
            name or f"node-{index:05d}",
            cores=cores,
            memory_bytes=memory_bytes,
        )
        if host.name in self._by_name:
            raise ValueError(f"duplicate host name: {host.name!r}")
        self.topology.place(host, index)
        self.hosts.append(host)
        self._by_name[host.name] = host
        return host

    def host(self, index_or_name) -> SimHost:
        """Look a host up by integer index or by name."""
        if isinstance(index_or_name, int):
            return self.hosts[index_or_name]
        return self._by_name[index_or_name]

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self):
        return iter(self.hosts)


def build_cluster(
    env: Environment,
    n_hosts: int,
    link: Optional[Link] = None,
    max_connections_per_host: int = 2500,
    rack_size: int = DEFAULT_RACK_SIZE,
    levels: int = 2,
    cores: int = 56,
) -> Cluster:
    """Construct a cluster of ``n_hosts`` identical hosts.

    The returned cluster's network resolves hop counts through a fat-tree
    topology; additional special-purpose hosts (controllers) can be added
    afterwards with :meth:`Cluster.add_host`.
    """
    if n_hosts < 0:
        raise ValueError(f"n_hosts must be >= 0: {n_hosts}")
    topology = FatTreeTopology(rack_size=rack_size, levels=levels)
    network = Network(
        env,
        link=link,
        max_connections_per_host=max_connections_per_host,
        hop_resolver=topology.hops,
    )
    cluster = Cluster(env, network, topology)
    for _ in range(n_hosts):
        cluster.add_host(cores=cores)
    return cluster


class DragonflyTopology:
    """Hop-count model for a dragonfly fabric (Slingshot-class systems).

    Frontier and Aurora run HPE Slingshot dragonflies: routers form
    all-to-all *groups*, groups connect all-to-all through global links.
    Minimal routing gives:

    * same host → 0 hops;
    * same router → 2 hops (host → router → host);
    * same group → 3 hops (one local link);
    * different groups → 5 hops (local + global + local).

    Interchangeable with :class:`FatTreeTopology` wherever a
    ``hops(a, b)`` resolver is expected::

        topo = DragonflyTopology(hosts_per_router=16, routers_per_group=32)
        net = Network(env, hop_resolver=topo.hops)
    """

    def __init__(
        self,
        hosts_per_router: int = 16,
        routers_per_group: int = 32,
    ) -> None:
        if hosts_per_router < 1:
            raise ValueError(f"hosts_per_router must be >= 1: {hosts_per_router}")
        if routers_per_group < 1:
            raise ValueError(f"routers_per_group must be >= 1: {routers_per_group}")
        self.hosts_per_router = int(hosts_per_router)
        self.routers_per_group = int(routers_per_group)
        self._router_of: Dict[str, int] = {}

    def place(self, host: SimHost, index: int) -> None:
        """Record the router of ``host`` given its cluster index."""
        self._router_of[host.name] = index // self.hosts_per_router

    def hops(self, a: SimHost, b: SimHost) -> int:
        """Minimal-route hop count between two placed hosts."""
        if a is b:
            return 0
        router_a = self._router_of.get(a.name)
        router_b = self._router_of.get(b.name)
        if router_a is None or router_b is None:
            return 5  # unplaced: assume cross-group worst case
        if router_a == router_b:
            return 2
        if router_a // self.routers_per_group == router_b // self.routers_per_group:
            return 3
        return 5
