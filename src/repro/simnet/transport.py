"""Connection-oriented message transport over the simulated fabric.

The paper's key architectural constraint lives here: a Frontera node's
networking stack sustained at most **2,500 concurrent connections**, which
is what forces the hierarchical design beyond 2,500 stages. The
:class:`ConnectionPool` enforces exactly that limit and raises
:class:`ConnectionLimitExceeded` when a flat controller attempts to
oversubscribe — the benches assert this behaviour.

Model
-----
* A :class:`~repro.simnet.node.SimHost` exposes named :class:`Endpoint`\\ s
  (e.g. ``"controller"``, ``"stage-42"``).
* :meth:`Network.connect` opens a persistent, bidirectional
  :class:`Connection` between two endpoints, consuming one slot in each
  host's :class:`ConnectionPool` (like a TCP/RDMA QP pair).
* :meth:`Connection.send` delivers a :class:`Message` after the link's
  transfer time; delivery invokes the destination endpoint's handler (for
  reactive actors such as virtual stages) or enqueues into its inbox (for
  process-style actors such as controllers).

Every byte is counted on both NICs, which is where the MB/s columns of
Tables II–IV come from.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.simnet.engine import Environment, Event, SimulationError
from repro.simnet.link import Link
from repro.simnet.node import SimHost
from repro.simnet.resources import Store

__all__ = [
    "Connection",
    "ConnectionLimitExceeded",
    "ConnectionPool",
    "Endpoint",
    "Message",
    "Network",
]

#: Frontera-observed per-node concurrent connection ceiling (paper §IV-A).
FRONTERA_CONNECTION_LIMIT = 2500


class ConnectionLimitExceeded(RuntimeError):
    """A host ran out of connection slots (paper: 2,500 per node)."""


class Message:
    """A unit of communication between two endpoints.

    A plain ``__slots__`` class rather than a dataclass: one instance is
    built per simulated message, which makes construction cost part of
    the kernel's events/sec budget. Treat instances as immutable.
    """

    __slots__ = (
        "kind",
        "payload",
        "size_bytes",
        "sender",
        "recipient",
        "sent_at",
        "seq",
    )

    def __init__(
        self,
        kind: str,
        payload: Any,
        size_bytes: int,
        sender: str,
        recipient: str,
        sent_at: float,
        seq: int,
    ) -> None:
        size_bytes = int(size_bytes)
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.sender = sender
        self.recipient = recipient
        self.sent_at = sent_at
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(kind={self.kind!r}, size_bytes={self.size_bytes}, "
            f"sender={self.sender!r}, recipient={self.recipient!r}, "
            f"sent_at={self.sent_at!r}, seq={self.seq})"
        )


class ConnectionPool:
    """Tracks open connections for one host and enforces the NIC limit."""

    def __init__(self, host: SimHost, max_connections: int) -> None:
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1: {max_connections}")
        self.host = host
        self.max_connections = int(max_connections)
        self.open_connections = 0

    @property
    def available(self) -> int:
        return self.max_connections - self.open_connections

    def acquire(self) -> None:
        if self.open_connections >= self.max_connections:
            raise ConnectionLimitExceeded(
                f"host {self.host.name!r} at its connection limit "
                f"({self.max_connections}); a flat controller cannot manage "
                "more stages than this — use a hierarchical design"
            )
        self.open_connections += 1

    def release(self) -> None:
        if self.open_connections <= 0:
            raise SimulationError("connection pool release underflow")
        self.open_connections -= 1


class Endpoint:
    """A named attachment point for a service on a host.

    Reactive actors register a ``handler(message, connection)`` callback;
    process-style actors ``yield endpoint.recv()`` (or per-connection
    ``connection.recv(endpoint)``).
    """

    def __init__(self, env: Environment, host: SimHost, name: str) -> None:
        self.env = env
        self.host = host
        self.name = name
        self.inbox: Store = Store(env)
        self.handler: Optional[Callable[[Message, "Connection"], None]] = None
        self.connections: Dict[str, "Connection"] = {}

    def set_handler(self, handler: Callable[[Message, "Connection"], None]) -> None:
        """Deliver future messages by callback instead of the inbox."""
        self.handler = handler

    def recv(self) -> Event:
        """Event firing with the next message delivered to this endpoint."""
        return self.inbox.get()

    def _deliver(self, message: Message, connection: "Connection") -> None:
        nic = self.host.nic
        nic.rx_bytes += message.size_bytes
        nic.rx_messages += 1
        if self.handler is not None:
            self.handler(message, connection)
        else:
            self.inbox.put(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Endpoint {self.name} on {self.host.name}>"


class Connection:
    """A persistent bidirectional channel between two endpoints."""

    __slots__ = ("network", "a", "b", "closed", "_seq", "_earliest_delivery", "_hops")

    def __init__(self, network: "Network", a: Endpoint, b: Endpoint) -> None:
        self.network = network
        self.a = a
        self.b = b
        self.closed = False
        self._seq = 0
        # Per-direction FIFO guard: jitter may not reorder a flow.
        self._earliest_delivery = {a.name: 0.0, b.name: 0.0}
        # Topologies are static for a connection's lifetime, so the hop
        # count is resolved once here instead of per message.
        self._hops = network.hop_resolver(a.host, b.host)

    def peer_of(self, endpoint: Endpoint) -> Endpoint:
        if endpoint is self.a:
            return self.b
        if endpoint is self.b:
            return self.a
        raise SimulationError(f"{endpoint!r} is not part of {self!r}")

    def send(
        self,
        sender: Endpoint,
        kind: str,
        payload: Any = None,
        size_bytes: int = 0,
        extra_delay: float = 0.0,
    ) -> Message:
        """Transmit a message from ``sender`` to the other endpoint.

        Returns the message object immediately; delivery happens after
        ``extra_delay`` (sender-side service time, e.g. a stage preparing
        its reply) plus the link transfer time. Messages on one connection
        are delivered in FIFO order (the fabric does not reorder within a
        flow).
        """
        if extra_delay < 0:
            raise ValueError(f"negative extra_delay: {extra_delay}")
        if self.closed:
            raise SimulationError("send() on a closed connection")
        if sender is self.a:
            recipient = self.b
        elif sender is self.b:
            recipient = self.a
        else:
            raise SimulationError(f"{sender!r} is not part of {self!r}")
        self._seq = seq = self._seq + 1
        network = self.network
        message = Message(
            kind,
            payload,
            size_bytes,
            sender.name,
            recipient.name,
            network.env._now,
            seq,
        )
        network._transmit(sender, recipient, message, self, extra_delay)
        return message

    def close(self) -> None:
        """Release the connection slots on both hosts."""
        if self.closed:
            return
        self.closed = True
        self.network._release(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Connection {self.a.name} <-> {self.b.name}>"


class Network:
    """The fabric: endpoints, connections, links, and delivery.

    ``hop_resolver(host_a, host_b)`` returns the hop count between two
    hosts; topologies provide it. The default treats all distinct host
    pairs as 3 hops (leaf-spine-leaf), which matches a two-level fat tree.
    """

    def __init__(
        self,
        env: Environment,
        link: Optional[Link] = None,
        max_connections_per_host: int = FRONTERA_CONNECTION_LIMIT,
        hop_resolver: Optional[Callable[[SimHost, SimHost], int]] = None,
        nic_bandwidth_Bps: Optional[float] = None,
    ) -> None:
        if nic_bandwidth_Bps is not None and nic_bandwidth_Bps <= 0:
            raise ValueError(
                f"nic_bandwidth_Bps must be positive: {nic_bandwidth_Bps}"
            )
        self.env = env
        self.link = link or Link()
        self.max_connections_per_host = int(max_connections_per_host)
        self.hop_resolver = hop_resolver or (
            lambda a, b: 0 if a is b else 3
        )
        #: Optional per-host NIC serialization: when set, all of a host's
        #: transmissions (and receptions) share one ``nic_bandwidth_Bps``
        #: pipe, so a controller blasting thousands of rules — or an
        #: incast of thousands of replies — queues at the NIC. ``None``
        #: (default) folds NIC time into the link model, which the
        #: Frontera calibration shows is accurate for control-plane-sized
        #: messages (see the NIC ablation bench).
        self.nic_bandwidth_Bps = nic_bandwidth_Bps
        self._nic_tx_free: Dict[str, float] = {}
        self._nic_rx_free: Dict[str, float] = {}
        self._pools: Dict[str, ConnectionPool] = {}
        self._endpoints: Dict[str, Endpoint] = {}
        self.messages_sent = 0
        self.bytes_sent = 0

    # -- wiring -------------------------------------------------------------
    def pool_of(self, host: SimHost) -> ConnectionPool:
        pool = self._pools.get(host.name)
        if pool is None:
            pool = ConnectionPool(host, self.max_connections_per_host)
            self._pools[host.name] = pool
        return pool

    def reserve_system_slots(self, host: SimHost, n: int) -> None:
        """Raise ``host``'s connection budget by ``n`` slots.

        The Frontera 2,500-connection ceiling is observed on the
        stage-facing RPC server; control-channel links between controllers
        (an aggregator's uplink to the global controller) ride separately.
        Deployments call this for controller hosts so an aggregator can own
        a full 2,500-stage partition *plus* its uplink — matching the
        paper, which runs exactly 2,500 stages per aggregator.
        """
        if n < 0:
            raise ValueError(f"negative slot reservation: {n}")
        pool = self.pool_of(host)
        pool.max_connections += n

    def attach(self, host: SimHost, service: str) -> Endpoint:
        """Create a uniquely named endpoint for ``service`` on ``host``."""
        name = f"{host.name}/{service}"
        if name in self._endpoints:
            raise SimulationError(f"endpoint {name!r} already attached")
        endpoint = Endpoint(self.env, host, name)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        return self._endpoints[name]

    def connect(self, a: Endpoint, b: Endpoint) -> Connection:
        """Open a connection, consuming one slot on each host.

        Raises :class:`ConnectionLimitExceeded` if either side is full; on
        failure no slot is leaked.
        """
        if a is b:
            raise SimulationError("cannot connect an endpoint to itself")
        pool_a = self.pool_of(a.host)
        pool_b = self.pool_of(b.host)
        pool_a.acquire()
        if pool_b is not pool_a:
            try:
                pool_b.acquire()
            except ConnectionLimitExceeded:
                pool_a.release()
                raise
        connection = Connection(self, a, b)
        a.connections[b.name] = connection
        b.connections[a.name] = connection
        return connection

    def _release(self, connection: Connection) -> None:
        self.pool_of(connection.a.host).release()
        if connection.b.host is not connection.a.host:
            self.pool_of(connection.b.host).release()
        connection.a.connections.pop(connection.b.name, None)
        connection.b.connections.pop(connection.a.name, None)

    # -- delivery -------------------------------------------------------------
    def _transmit(
        self,
        sender: Endpoint,
        recipient: Endpoint,
        message: Message,
        connection: Connection,
        extra_delay: float = 0.0,
    ) -> None:
        # Per-message hot path: NIC counters and the link formula are
        # inlined and the delivery is one slotted ``Delivery`` — this
        # function dominates flat-sweep profiles. The time arithmetic
        # (``now + (when - now)``) matches ``call_at`` exactly so event
        # timestamps stay bit-identical.
        size = message.size_bytes
        nic = sender.host.nic
        nic.tx_bytes += size
        nic.tx_messages += 1
        self.messages_sent += 1
        self.bytes_sent += size
        link = self.link
        delay = (
            link.hop_latency * connection._hops
            + size / link.bandwidth
            + link.jitter.sample()
        )
        env = self.env
        now = env._now
        departure = now + extra_delay
        if self.nic_bandwidth_Bps is not None:
            wire_time = size / self.nic_bandwidth_Bps
            # Sender-side serialization: one shared transmit pipe per host.
            tx_free = self._nic_tx_free.get(sender.host.name, 0.0)
            departure = max(departure, tx_free) + wire_time
            self._nic_tx_free[sender.host.name] = departure
            when = departure + delay
            # Receiver-side incast: replies queue at the destination NIC.
            rx_free = self._nic_rx_free.get(recipient.host.name, 0.0)
            when = max(when, rx_free + wire_time)
            self._nic_rx_free[recipient.host.name] = when
        else:
            when = departure + delay
        # Enforce per-direction FIFO: a later message on the same flow never
        # overtakes an earlier one even under jitter.
        floor = connection._earliest_delivery[recipient.name]
        if when < floor:
            when = floor
        connection._earliest_delivery[recipient.name] = when
        env.deliver(when - now, recipient, message, connection)
