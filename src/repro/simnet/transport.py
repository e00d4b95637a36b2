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
  (e.g. ``"controller"``, ``"stage-42"``). A virtual stage *is* an
  endpoint, a subclass that :meth:`Network.register` files under its
  ``host/stage-id`` name, so a stage needs no attachment object apart
  from itself.
* :meth:`Network.connect` opens a persistent, bidirectional
  :class:`Connection` between two endpoints, consuming one slot in each
  host's :class:`ConnectionPool` (like a TCP/RDMA QP pair).
* :meth:`Connection.send` delivers a :class:`Message` after the link's
  transfer time (:meth:`Network.send_many` sends a fan-out burst the same
  way, in one call); delivery calls the destination's ``_deliver``. A
  plain endpoint invokes its handler when one is set, or enqueues into
  its inbox (for process-style actors such as controllers); a virtual
  stage overrides ``_deliver`` and answers in place, unless a handler
  set on it (a fault injector's black hole) takes the message first. A
  message whose connection closes while it is in flight is dropped at
  delivery.
* An endpoint builds its inbox when a process first receives from it, so
  a virtual stage never holds one. It keeps no registry of its
  connections either: a delivered message names the connection it came
  over (``message.via``), and the answer goes back on that.

Every byte is counted on both NICs, which is where the MB/s columns of
Tables II–IV come from.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.simnet.engine import NORMAL, Environment, Event, Message, SimulationError
from repro.simnet.link import DelayModel, Link
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


_INF = float("inf")
_new = object.__new__


class ConnectionLimitExceeded(RuntimeError):
    """A host ran out of connection slots (paper: 2,500 per node)."""


class ConnectionPool:
    """Tracks open connections for one host and enforces the NIC limit."""

    def __init__(self, host: SimHost, max_connections: int) -> None:
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1: {max_connections}")
        self.host = host
        self.max_connections = int(max_connections)
        self.open_connections = 0

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
    process-style actors ``yield endpoint.recv()``. The inbox those
    receive from is built on first use, so a handler endpoint holds its
    name, host and handler and nothing else. Subclasses (a virtual
    stage) may override :meth:`_deliver` to serve messages themselves.
    """

    __slots__ = ("env", "host", "name", "handler", "_inbox")

    def __init__(self, env: Environment, host: SimHost, name: str) -> None:
        self.env = env
        self.host = host
        self.name = name
        self.handler: Optional[Callable[[Message, "Connection"], None]] = None
        self._inbox: Optional[Store] = None

    @property
    def inbox(self) -> Store:
        """The queue :meth:`recv` reads, built on first use."""
        if self._inbox is None:
            self._inbox = Store(self.env)
        return self._inbox

    def set_handler(self, handler: Callable[[Message, "Connection"], None]) -> None:
        """Deliver future messages by callback instead of the inbox."""
        self.handler = handler

    def recv(self) -> Event:
        """Event firing with the next message delivered to this endpoint."""
        return self.inbox.get()

    def _deliver(self, message: Message, connection: "Connection") -> None:
        if connection.closed:
            return  # closed while in flight: lost with the connection
        nic = self.host.nic
        nic.rx_bytes += message.size_bytes
        nic.rx_messages += 1
        if self.handler is not None:
            self.handler(message, connection)
            return
        # Store.put without its dispatch call: a waiting getter means an
        # empty inbox, so the message goes straight to the oldest getter.
        inbox = self._inbox
        if inbox is None:
            inbox = self.inbox
        if len(inbox.items) >= inbox.capacity:
            raise SimulationError(f"Store overflow (capacity={inbox.capacity})")
        if inbox._getters:
            inbox._getters.pop(0).succeed(message)
        else:
            inbox.items.append(message)


class Connection:
    """A persistent bidirectional channel between two endpoints."""

    __slots__ = (
        "network", "a", "b", "closed", "_seq", "_floor_a", "_floor_b", "_hops"
    )

    def __init__(self, network: "Network", a: Endpoint, b: Endpoint) -> None:
        self.network = network
        self.a = a
        self.b = b
        self.closed = False
        self._seq = 0
        # Per-direction FIFO guard (latest delivery time to a, to b):
        # jitter may not reorder a flow.
        self._floor_a = 0.0
        self._floor_b = 0.0
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

        The per-message hot path, in one frame: NIC counters, the link
        formula, the optional NIC serialisation, the FIFO floor, and the
        message — a recycled one when the engine's pool has one, every
        slot written — pushed as its own queue entry. The key's time is
        ``now + (when - now)``, as ``call_at`` computes it, so event
        timestamps stay bit-identical.
        """
        if not 0.0 <= extra_delay < _INF:
            raise ValueError(f"extra_delay must be finite and >= 0: {extra_delay!r}")
        if self.closed:
            raise SimulationError("send() on a closed connection")
        if sender is self.a:
            recipient, to_b = self.b, True
        elif sender is self.b:
            recipient, to_b = self.a, False
        else:
            raise SimulationError(f"{sender!r} is not part of {self!r}")
        if size_bytes.__class__ is not int:
            size_bytes = int(size_bytes)
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        network = self.network
        env = network.env
        now = env._now
        nic = sender.host.nic
        nic.tx_bytes += size_bytes
        nic.tx_messages += 1
        network.messages_sent += 1
        network.bytes_sent += size_bytes
        link = network.link
        delay = link.hop_latency * self._hops + size_bytes / link.bandwidth
        jitter = link.jitter
        if jitter.__class__ is not DelayModel:  # the base model adds 0.0
            delay += jitter.sample()
        departure = now + extra_delay
        nic_bandwidth = network.nic_bandwidth_Bps
        if nic_bandwidth is None:
            when = departure + delay
        else:
            wire_time = size_bytes / nic_bandwidth
            # Sender-side serialization: one shared transmit pipe per host.
            tx_free = network._nic_tx_free
            departure = max(departure, tx_free.get(sender.host.name, 0.0)) + wire_time
            tx_free[sender.host.name] = departure
            # Receiver-side incast: replies queue at the destination NIC.
            rx_free = network._nic_rx_free
            when = max(
                departure + delay, rx_free.get(recipient.host.name, 0.0) + wire_time
            )
            rx_free[recipient.host.name] = when
        if to_b:
            if when < self._floor_b:
                when = self._floor_b
            self._floor_b = when
        else:
            if when < self._floor_a:
                when = self._floor_a
            self._floor_a = when
        self._seq = seq = self._seq + 1
        pool = env._message_pool
        message = pool.pop() if pool else _new(Message)
        message.kind = kind
        message.payload = payload
        message.size_bytes = size_bytes
        message.sender = sender.name
        message.recipient = recipient.name
        message.sent_at = now
        message.seq = seq
        message.target = recipient
        message.via = self
        env._push(now + (when - now), NORMAL, message)
        return message

    def close(self) -> None:
        """Release the connection slots on both hosts."""
        if self.closed:
            return
        self.closed = True
        self.network._release(self)


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
        if nic_bandwidth_Bps is not None and not 0 < nic_bandwidth_Bps < _INF:
            raise ValueError(
                f"nic_bandwidth_Bps must be positive and finite: {nic_bandwidth_Bps}"
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

    # -- transmit -----------------------------------------------------------
    def send_many(
        self,
        links: Sequence[Tuple[Connection, Endpoint]],
        kind: str,
        payloads: Sequence[Any],
        size_bytes: Union[int, Sequence[int]],
    ) -> None:
        """Transmit a burst: one ``kind`` message per ``(connection,
        sender)`` link, with the link's entry of ``payloads``.

        ``size_bytes`` is every message's size, or one size per link. The
        burst is the same sends, in order, as :meth:`Connection.send` with
        no ``extra_delay`` — the same NIC counters, jitter draws, NIC
        serialisation, FIFO floors, sequence numbers and heap keys, bit
        for bit — with the sizes, every link and the link constants
        checked and read once: a burst that raises has sent nothing. The
        network's counters move once per burst.
        """
        n = len(links)
        if len(payloads) != n:
            raise ValueError(f"{len(payloads)} payloads for {n} links")
        if hasattr(size_bytes, "__len__"):
            sizes = [s if s.__class__ is int else int(s) for s in size_bytes]
            if len(sizes) != n:
                raise ValueError(f"{len(sizes)} sizes for {n} links")
        else:
            size = size_bytes if size_bytes.__class__ is int else int(size_bytes)
            sizes = [size] * n
        if sizes and min(sizes) < 0:
            raise ValueError(f"negative message size: {min(sizes)}")
        for connection, sender in links:
            if connection.closed:
                raise SimulationError("send() on a closed connection")
            if sender is not connection.a and sender is not connection.b:
                raise SimulationError(f"{sender!r} is not part of {connection!r}")
        env = self.env
        push = env._push
        buckets = env._buckets
        pool = env._message_pool
        pop = pool.pop
        last = None
        now = env._now
        link = self.link
        hop_latency = link.hop_latency
        bandwidth = link.bandwidth
        jitter = link.jitter
        sample = None if jitter.__class__ is DelayModel else jitter.sample
        nic_bandwidth = self.nic_bandwidth_Bps
        tx_free = self._nic_tx_free
        rx_free = self._nic_rx_free
        for (connection, sender), payload, size in zip(links, payloads, sizes):
            if sender is connection.a:
                recipient, to_b = connection.b, True
            else:
                recipient, to_b = connection.a, False
            nic = sender.host.nic
            nic.tx_bytes += size
            nic.tx_messages += 1
            delay = hop_latency * connection._hops + size / bandwidth
            if sample is not None:
                delay += sample()
            if nic_bandwidth is None:
                when = now + delay
            else:
                wire_time = size / nic_bandwidth
                departure = max(now, tx_free.get(sender.host.name, 0.0)) + wire_time
                tx_free[sender.host.name] = departure
                when = max(
                    departure + delay, rx_free.get(recipient.host.name, 0.0) + wire_time
                )
                rx_free[recipient.host.name] = when
            if to_b:
                if when < connection._floor_b:
                    when = connection._floor_b
                connection._floor_b = when
            else:
                if when < connection._floor_a:
                    when = connection._floor_a
                connection._floor_a = when
            connection._seq = seq = connection._seq + 1
            message = pop() if pool else _new(Message)
            message.kind = kind
            message.payload = payload
            message.size_bytes = size
            message.sender = sender.name
            message.recipient = recipient.name
            message.sent_at = now
            message.seq = seq
            message.target = recipient
            message.via = connection
            # A burst's messages mostly share a key: append to the bucket
            # the last push opened or found (see Environment._push).
            key_time = now + (when - now)
            if key_time == last:
                bucket.append(message)
            else:
                push(key_time, NORMAL, message)
                bucket = buckets[key_time, NORMAL]
                last = key_time
        self.messages_sent += n
        self.bytes_sent += sum(sizes)

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
        return self.register(Endpoint(self.env, host, f"{host.name}/{service}"))

    def register(self, endpoint: Endpoint) -> Endpoint:
        """Attach ``endpoint`` — built elsewhere, as a virtual stage is —
        under its name, which must be unique."""
        name = endpoint.name
        if name in self._endpoints:
            raise SimulationError(f"endpoint {name!r} already attached")
        self._endpoints[name] = endpoint
        return endpoint

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
        return Connection(self, a, b)

    def _release(self, connection: Connection) -> None:
        self.pool_of(connection.a.host).release()
        if connection.b.host is not connection.a.host:
            self.pool_of(connection.b.host).release()
