"""Shared-resource primitives for the DES kernel.

These mirror the SimPy resource family:

* :class:`Resource` — ``capacity`` slots, FIFO queueing. Used for CPU cores
  on :class:`~repro.simnet.node.SimHost` and NIC serialization.
* :class:`PriorityResource` — like :class:`Resource` but the queue orders by
  (priority, fifo). Used by the PFS admission model so high-QoS jobs can
  jump the line.
* :class:`Store` — a FIFO object queue with blocking ``get``. Backs
  per-connection message inboxes in :mod:`repro.simnet.transport`.

All request/get/put objects are events; processes ``yield`` them and may
cancel while queued (``Request.cancel()``), which is exercised by the
failure-injection tests.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, List, Optional, Tuple

from repro.simnet.engine import Environment, Event, SimulationError

__all__ = ["PriorityResource", "Request", "Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._key: Optional[Tuple[int, int]] = None

    def cancel(self) -> None:
        """Withdraw a queued request. No-op if already granted."""
        if not self.triggered:
            self.resource._withdraw(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` identical slots with FIFO hand-off.

    Usage from a process::

        req = cpu.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            cpu.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.users: List[Request] = []
        self._waiting: List[Tuple[Tuple[int, int], Request]] = []
        self._seq = count()

    # -- queue discipline (overridden by PriorityResource) -----------------
    def _key_for(self, request: Request) -> Tuple[int, int]:
        return (0, next(self._seq))

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self, priority=priority)
        req._key = self._key_for(req)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed(req)
        else:
            heapq.heappush(self._waiting, (req._key, req))
        return req

    def release(self, request: Request) -> None:
        """Return a slot. Granting order is FIFO (or priority order)."""
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError("release() of a request that holds no slot")
        self._grant_next()

    def _withdraw(self, request: Request) -> None:
        self._waiting = [(k, r) for (k, r) in self._waiting if r is not request]
        heapq.heapify(self._waiting)

    def _grant_next(self) -> None:
        while self._waiting and len(self.users) < self.capacity:
            _key, req = heapq.heappop(self._waiting)
            self.users.append(req)
            req.succeed(req)


class PriorityResource(Resource):
    """A :class:`Resource` whose queue orders by (priority, arrival).

    Lower ``priority`` values are served first, matching the convention of
    the QoS policy classes in :mod:`repro.core.policies`.
    """

    def _key_for(self, request: Request) -> Tuple[int, int]:
        return (request.priority, next(self._seq))


class _StoreGet(Event):
    __slots__ = ("store",)

    def __init__(self, env: Environment, store: "Store") -> None:
        super().__init__(env)
        self.store = store

    def cancel(self) -> None:
        """Withdraw this get if it has not been satisfied yet."""
        if not self.triggered:
            try:
                self.store._getters.remove(self)
            except ValueError:
                pass


class Store:
    """FIFO object queue with blocking ``get`` and bounded ``put``.

    ``put`` is non-blocking below ``capacity`` and raises when full
    (transport inboxes size themselves generously and treat overflow as a
    modelling error rather than silently dropping messages).
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._getters: List[_StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Append ``item``, waking the oldest blocked getter if any."""
        if len(self.items) >= self.capacity:
            raise SimulationError(f"Store overflow (capacity={self.capacity})")
        self.items.append(item)
        self._dispatch()

    def get(self) -> _StoreGet:
        """Event firing with the oldest item (cancellable while pending)."""
        ev = _StoreGet(self.env, self)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        while self._getters and self.items:
            getter = self._getters.pop(0)
            getter.succeed(self.items.pop(0))

    def drain(self) -> List[Any]:
        """Remove and return all queued items without blocking."""
        items, self.items = self.items, []
        return items
