"""Discrete-event simulation kernel.

A small, deterministic, SimPy-flavoured event loop. The design goals are:

* **Determinism** — given the same seed streams, two runs produce identical
  event orderings. Ties on the clock are broken by (priority, insertion
  sequence), never by object identity.
* **Process-style modelling** — simulation actors are plain Python
  generators that ``yield`` events (:class:`Timeout`, :class:`Event`,
  other :class:`Process` objects, or :class:`AllOf`/:class:`AnyOf`
  compositions) and are resumed when those events fire.
* **No dependencies** — the kernel uses only ``heapq`` and ``itertools``,
  keeping the hot loop cheap enough to push hundreds of thousands of
  events per second in CPython.

The public surface mirrors a stripped-down SimPy: ``Environment.process``,
``Environment.timeout``, ``Environment.event``, ``Environment.run``,
``Process.interrupt`` (``Process.stop`` runs one at once between runs).
This is the substrate the whole reproduction runs on, so it is tested
exhaustively (see ``tests/simnet/test_engine.py``).

Dispatch
--------
Events are dispatched in ``(time, priority, insertion order)`` order.
The queue holds one *bucket* per ``(time, priority)`` key — a deque of
the events due then, the events themselves, oldest first — and the heap
holds one entry per bucket, not per event; only a heap entry draws a
sequence number. A control cycle's fan-out bursts put thousands of
messages on a few hundred instants, so most pushes are one dict lookup
and one append. Every scheduled event, a zero-delay one included, goes
through :meth:`Environment._push`; there is no separate zero-delay path.
:meth:`Environment.run` takes events from the head bucket and drops its
heap entry and key when it empties, before dispatching the last event,
so an event scheduled at the same instant by that dispatch opens a fresh
bucket behind it. A processed :class:`Timeout` whose only remaining
reference is the loop itself (checked via ``sys.getrefcount``) is
recycled into a free-list and handed back by :meth:`Environment.timeout`
instead of a fresh allocation; a recycled event joins the back of its
bucket like a new one, so ordering is unaffected. Delivered
:class:`Message`\\ s are recycled by the same rule into a second
free-list (see below). The golden-trace test
in ``tests/simnet/test_engine.py`` pins the loop to a delivery trace
captured on the original one-event-per-call kernel.

A simulated message is not an :class:`Event`: a :class:`Message` is its
own queue entry. :meth:`repro.simnet.transport.Connection.send` (and
``Network.send_many``, per message of a burst) pushes it under the key an
event scheduled with the same delay would get, and the
loop calls ``message.target._deliver(message, message.via)`` when it comes
up — no callback list, no closure, no second object. It counts as one
processed event. Messages are nearly every event of a control cycle, so
one object per send is what keeps the cyclic collector from running
every few hundred messages.

Nor is it a fresh object per send, once a simulation is warm. A
delivered message that nothing references any more goes back to
``Environment._message_pool``, and the transport's sends take from it
before they allocate. The loop applies the timeout pool's refcount rule
right after delivery — a reactive handler that did not keep the message
frees it there — and :meth:`Environment.recycle` applies it to a batch a
process drained from an inbox, once it has read it. A message that is
still held anywhere (a caller of ``send``, a deferred list, a handler's
log) is never reused, so recycling cannot alias a live message.
"""

from __future__ import annotations

import heapq
import inspect
import sys
from collections import deque
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Message",
    "Process",
    "SimulationError",
    "Timeout",
]

#: Default priority for scheduled events. Lower fires first at equal time.
NORMAL = 1
#: Priority used for events that must fire before normal ones at the same
#: simulated instant (e.g. process resumption after an interrupt).
URGENT = 0

#: Upper bound on the per-environment :class:`Timeout` free-list. Beyond
#: this the simulation is churning more concurrent timers than the pool
#: helps with, and retired events are left to the garbage collector.
_TIMEOUT_POOL_CAP = 4096
#: Upper bound on the per-environment :class:`Message` free-list: above
#: the most messages a 10,000-stage, 4-aggregator cycle has in flight at
#: once, so such a cycle allocates none once warm.
_MESSAGE_POOL_CAP = 16384

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, yielding non-events, ...)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt`` so the
    interrupted process can decide how to react (e.g. a controller failure
    event in the dependability experiments).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when given a value (or
    exception) and scheduled on the environment queue, and is *processed*
    once its callbacks have run. Processes waiting on the event are resumed
    with the event's value; if the event *failed*, the exception is thrown
    into them instead.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_processed")

    _PENDING = object()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[list] = []
        self._value: Any = Event._PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the queue."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def value(self) -> Any:
        """The event's value (or the exception, if it failed)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        Waiting processes get the exception thrown into them. If nobody is
        waiting when the event is processed, the exception propagates out of
        :meth:`Environment.run` to avoid silently swallowed failures.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay=0.0, priority=priority)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # NaN too
            raise ValueError(f"timeout delay must be >= 0: {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env._schedule(self, delay=self.delay, priority=NORMAL)


class _ConditionBase(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: tuple = tuple(events)
        for ev in self.events:
            if not isinstance(ev, Event):
                raise SimulationError(f"condition members must be events: {ev!r}")
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._on_member(ev)
            else:
                ev.callbacks.append(self._on_member)

    def _collect(self) -> dict:
        """Values of all processed member events, in declaration order."""
        # Slot access instead of the triggered/ok/value properties: this
        # runs once per condition fire, over every member, inside the
        # collect-phase hot loop.
        return {
            i: ev._value
            for i, ev in enumerate(self.events)
            if ev._processed and ev._ok
        }


class AllOf(_ConditionBase):
    """Fires once *all* member events have fired.

    The value is a dict mapping member index to member value. If any member
    fails, the condition fails immediately with that exception.
    """

    __slots__ = ()

    def _on_member(self, event: Event) -> None:
        if self._value is not Event._PENDING:  # already triggered
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(_ConditionBase):
    """Fires as soon as *any* member event fires (or fails)."""

    __slots__ = ()

    def _on_member(self, event: Event) -> None:
        if self._value is not Event._PENDING:  # already triggered
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Message:
    """One simulated message, and its own entry on the event queue.

    Re-exported as ``repro.simnet.transport.Message``;
    :meth:`~repro.simnet.transport.Connection.send` fills the slots in
    directly instead of calling the constructor. Dispatch calls
    ``target._deliver(message, via)``: ``target`` is the receiving
    endpoint, ``via`` the connection. Nothing can wait on a message, so
    it carries no callbacks, value or state flags.

    A message is immutable while anyone holds it. Once delivered and
    referenced by nothing, the engine drops its ``payload``, ``target``
    and ``via`` and keeps the object for a later send to fill in again
    (:meth:`Environment.recycle`): keep a message, not just its fields,
    for as long as you read it.
    """

    __slots__ = (
        "kind",
        "payload",
        "size_bytes",
        "sender",
        "recipient",
        "sent_at",
        "seq",
        "target",
        "via",
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
        target: Any = None,
        via: Any = None,
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.sender = sender
        self.recipient = recipient
        self.sent_at = sent_at
        self.seq = seq
        self.target = target
        self.via = via


class Process(Event):
    """A generator-driven simulation actor.

    The process *is itself an event* that fires when the generator returns
    (value = the generator's return value) or raises (the process event
    fails). This lets processes wait on each other with ``yield other``.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator: {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current simulated instant. Until
        # then the process waits on its bootstrap (:meth:`stop` runs it).
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed(priority=URGENT)
        self._waiting_on: Optional[Event] = bootstrap

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is an error; interrupting a process
        that is waiting detaches it from the waited-on event (the event may
        still fire later — the process simply no longer cares).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        trigger = Event(self.env)
        trigger.callbacks.append(self._resume_interrupt)
        trigger._value = Interrupt(cause)
        trigger._ok = False
        self.env._schedule(trigger, delay=0.0, priority=URGENT)

    def stop(self, cause: Any) -> None:
        """:meth:`interrupt` the process, at once if the environment is idle.

        Inside :meth:`Environment.run` this is :meth:`interrupt`: the
        interrupt is queued at the current instant. Between runs it does
        now what the next run would do first: start the generator if it
        never started, then throw the :class:`Interrupt` into it (or, if
        the process's wake-up is already queued, queue it behind). Nothing
        queued holds the process or its generator afterwards, so an actor
        whose process is stopped and which is then dropped is freed by
        reference counting. Every simulated delivery and timestamp is the
        same; the run processes one event fewer, the interrupt's trigger.
        """
        if self.env._running:
            self.interrupt(cause)
            return
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if inspect.getgeneratorstate(self._generator) == inspect.GEN_CREATED:
            bootstrap = self._waiting_on
            self._detach()
            self._resume(bootstrap)
        if self._waiting_on is None:
            # It yielded an event that had already fired, so its wake-up
            # is queued: the interrupt must follow it, as in a run.
            if not self.triggered:
                self.interrupt(cause)
            return
        trigger = Event(self.env)
        trigger._value = Interrupt(cause)
        trigger._ok = False
        self._resume_interrupt(trigger)

    # -- internal resumption ----------------------------------------------
    def _detach(self) -> None:
        target = self._waiting_on
        if target is not None and not target.processed:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # already removed / never attached
                pass
            # Withdraw cancellable claims (queue gets, resource requests)
            # so an interrupted process does not black-hole the item or
            # slot it was waiting for.
            cancel = getattr(target, "cancel", None)
            if cancel is not None and not target.triggered:
                cancel()
        self._waiting_on = None

    def _resume_interrupt(self, trigger: Event) -> None:
        if self.triggered:  # finished in the meantime; interrupt is moot
            return
        self._detach()
        self._resume(trigger)

    def _resume(self, event: Event) -> None:
        # This is the generator-dispatch hot path: one call per process
        # wakeup, invoked directly as the waited-on event's callback.
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            self.fail(exc, priority=URGENT)
            return

        if type(target) is not Timeout and not isinstance(target, Event):
            message = (
                f"process {self.name!r} yielded a non-event: {target!r}. "
                "Yield Timeout/Event/Process/AllOf/AnyOf instances."
            )
            try:
                self._generator.throw(SimulationError(message))
            except StopIteration as stop:
                self.succeed(stop.value, priority=URGENT)
            except BaseException as exc:
                self.fail(exc, priority=URGENT)
            return
        env = self.env
        if target.env is not env:
            raise SimulationError("yielded event belongs to another environment")

        if target._processed:
            # Already fired: resume immediately (same instant, urgent).
            trigger = Event(env)
            trigger.callbacks.append(self._resume)
            trigger._ok = target._ok
            trigger._value = target._value
            env._schedule(trigger, delay=0.0, priority=URGENT)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)


class Environment:
    """The simulation kernel: clock, event queue, and process scheduler.

    Typical usage::

        env = Environment()

        def ping(env):
            yield env.timeout(1.0)
            return "pong"

        proc = env.process(ping(env))
        env.run()
        assert env.now == 1.0 and proc.value == "pong"
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Heap of ``(when, priority, seq, bucket)``, one per live bucket;
        #: ``(when, priority)`` is unique among them, so ``seq`` and the
        #: bucket are never compared.
        self._queue: list = []
        #: ``(when, priority)`` → deque of the events due then, oldest
        #: first.
        self._buckets: dict = {}
        self._seq = count()
        #: Number of events processed so far (for tests and stats).
        self.processed_events = 0
        self._timeout_pool: list = []
        #: Delivered messages nothing references, for the transport's
        #: sends to fill in again (see :meth:`recycle`).
        self._message_pool: list = []
        #: True while :meth:`run` dispatches (:meth:`Process.stop`).
        self._running = False

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction ------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        pool = self._timeout_pool
        if pool:
            if not delay >= 0:  # NaN too
                raise ValueError(f"timeout delay must be >= 0: {delay!r}")
            # Pool invariants: callbacks is an already-cleared list,
            # _ok and _scheduled are True (a Timeout is born triggered
            # and can never fail), so only the varying fields reset.
            ev = pool.pop()
            ev._processed = False
            ev._value = value
            if delay.__class__ is not float:
                delay = float(delay)
            ev.delay = delay
            self._push(self._now + delay, NORMAL, ev)
            return ev
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when every member has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first member fires."""
        return AnyOf(self, events)

    def recycle(self, messages: list) -> None:
        """Empty ``messages``, returning each delivered :class:`Message`
        in it that nothing else references to the message pool.

        The rule :meth:`run` applies after a delivery, for a batch a
        process drained from an inbox: call it once the batch has been
        read and every other list of its messages dropped, and whatever
        was kept (parked for a later phase, logged) stays untouched.
        """
        pool = self._message_pool
        room = _MESSAGE_POOL_CAP - len(pool)
        getrefcount = sys.getrefcount
        for msg in messages:
            # 3: ``messages``, this loop's name and getrefcount's argument.
            if room > 0 and getrefcount(msg) == 3 and msg.__class__ is Message:
                msg.payload = msg.target = msg.via = None
                pool.append(msg)
                room -= 1
        messages.clear()

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._push(self._now + delay, priority, event)

    def _push(self, when: float, priority: int, event: Any) -> None:
        """Queue ``event`` (or a :class:`Message`) at ``when``: behind
        everything already due at ``(when, priority)``. Until :meth:`run`
        next dispatches, appending to ``_buckets[when, priority]`` after
        a push there is another push (a send burst relies on it)."""
        key = (when, priority)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
            _heappush(self._queue, (when, priority, next(self._seq), bucket))
        bucket.append(event)

    def call_at(
        self, when: float, callback: Callable[[], None], priority: int = NORMAL
    ) -> Event:
        """Run ``callback()`` at absolute simulated time ``when``.

        Returns the underlying event (useful for tests). ``when`` must not be
        in the past, nor NaN.
        """
        if not when >= self._now:  # NaN too
            raise SimulationError(
                f"call_at({when}) is not at or after now ({self._now})"
            )
        ev = Event(self)
        ev.callbacks.append(lambda _ev: callback())
        ev._ok = True
        ev._value = None
        self._schedule(ev, delay=when - self._now, priority=priority)
        return ev

    # -- main loop ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(
        self,
        until: Optional[float | Event] = None,
        max_events: Optional[int] = None,
    ) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (re-raising its exception if it failed).

        ``max_events`` is a runaway guard: processing more than this many
        events in this call raises :class:`SimulationError` instead of
        spinning forever (zero-delay loops and immortal processes are the
        classic DES footguns — see the token-bucket clamp in
        ``repro.dataplane.stage`` for one we hit).
        """
        if max_events is not None and max_events < 1:
            raise SimulationError(f"max_events must be >= 1: {max_events}")
        queue = self._queue
        buckets = self._buckets
        pop = _heappop
        getrefcount = sys.getrefcount
        pool = self._timeout_pool
        message = Message
        message_pool = self._message_pool
        processed = self.processed_events
        limit = (
            float("inf") if max_events is None else processed + max_events
        )
        sentinel: Optional[Event] = None
        horizon: Optional[float] = None
        if until is not None:
            if isinstance(until, Event):
                sentinel = until
            else:
                horizon = float(until)
                if not horizon >= self._now:  # NaN too
                    raise SimulationError(
                        f"run(until={horizon}) is not at or after now ({self._now})"
                    )
        now = self._now
        self._running = True
        try:
            while True:
                if not queue or (sentinel is not None and sentinel._processed):
                    break
                # -- the oldest event of the head bucket --
                when, prio, _seq, bucket = queue[0]
                if when != now:
                    if horizon is not None and when > horizon:
                        break
                    now = self._now = when
                # ``event`` is the loop's only reference by recycle time.
                event = bucket.popleft()
                if not bucket:
                    pop(queue)
                    del buckets[when, prio]
                # -- dispatch --
                processed += 1
                if event.__class__ is message:
                    event.target._deliver(event, event.via)
                    if (
                        getrefcount(event) == 2
                        and len(message_pool) < _MESSAGE_POOL_CAP
                    ):
                        # Delivered, and neither kept by a handler nor
                        # queued in an inbox: the timeout pool's rule.
                        event.payload = event.target = event.via = None
                        message_pool.append(event)
                else:
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            for callback in callbacks:
                                callback(event)
                    elif not event._ok:
                        # A failed event nobody waits for: surface it loudly.
                        raise event._value
                    if (
                        type(event) is Timeout
                        and len(pool) < _TIMEOUT_POOL_CAP
                        and getrefcount(event) == 2
                    ):
                        # Refcount 2 = this loop's local plus getrefcount's
                        # argument: nothing else can observe the event
                        # again. Recycle it *and* its callbacks list: the
                        # list is detached above, so clearing it here saves
                        # one list allocation per pooled timeout.
                        if callbacks:
                            callbacks.clear()
                        event.callbacks = callbacks
                        pool.append(event)
                if processed > limit:
                    raise SimulationError(
                        f"run() exceeded max_events={max_events} at "
                        f"t={self._now}; likely a zero-delay loop or an "
                        "immortal process"
                    )
        finally:
            self._running = False
            self.processed_events = processed
        if sentinel is not None:
            if not sentinel._processed:
                raise SimulationError(
                    "event queue drained before the awaited event fired"
                )
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value
        if horizon is not None:
            self._now = horizon
        return None
