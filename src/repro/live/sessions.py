"""Server-side session plumbing shared by the live controllers.

A :class:`Session` owns one connected peer's
:class:`~repro.live.protocol.FrameLink`. Inbound frames reach it as
synchronous callbacks from the link's read path — there is no reader
task and no inbox queue — and are routed on the spot: a frame matching
the phase the session is *armed* for goes straight to that phase's
``on_reply``; an out-of-band kind lands in :attr:`Session.oob`; anything
else is stale. A packed-kind frame arrives as a record tuple led by
``kind, epoch``, any other as its message dict (see
:class:`~repro.live.protocol.FrameLink`).

Outbound, a phase's one frame per session is written through
(:meth:`Session.send`: already encoded, straight to the link); the
outbox (:meth:`Session.feed` / :meth:`Session.flush`) is for bursts of
several frames, trunk batches and anything that may need shedding.

:func:`gather_replies` is the phase wait: one counting barrier per
phase instead of one task per session. It arms every session with the
``(kind, epoch)`` it expects and resolves a single future on the last
arrival, the deadline's one ``call_later``, or a dead socket — reporting
which sessions produced nothing, which is how the controllers implement
partial collect/enforce (paper §VI dependability, live counterpart of
the simulated ``collect_timeout_s``).

:class:`SessionHost` is the listener side: what the stage fan and the
hierarchical controller both do to turn a connection into a registered
session, and to drop it when its socket dies.
"""

from __future__ import annotations

import asyncio
import contextlib
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.guard.shed import BoundedOutbox
from repro.live import pump
from repro.live.codec import frame_packer
from repro.live.protocol import FrameLink, accept_backlog, encode, encode_into
from repro.obs.spans import NullSpanTracer

__all__ = [
    "PhaseDriver",
    "Session",
    "SessionClosed",
    "SessionHost",
    "StageSession",
    "collect_request",
    "gather_replies",
    "send_phase",
]


class SessionClosed(ConnectionError):
    """The peer's socket reached EOF or errored; the session is dead."""


class _ReplyBarrier:
    """Countdown over the sessions armed for one phase's replies."""

    __slots__ = ("kind", "epoch", "on_reply", "pending", "done", "expired")

    def __init__(self, kind: str, epoch: int, on_reply, pending: int, done) -> None:
        self.kind = kind
        self.epoch = epoch
        self.on_reply = on_reply
        #: Armed sessions that have neither replied nor died.
        self.pending = pending
        self.done: asyncio.Future = done
        self.expired = False

    def arrived(self, session: "Session", message) -> None:
        """``session``'s reply is here: run ``on_reply``, count it off."""
        try:
            if self.on_reply is not None:
                self.on_reply(session, message)
            session._armed = None
        except SessionClosed:
            pass  # stays armed, i.e. missing
        except Exception as exc:
            if not self.done.done():
                self.done.set_exception(exc)
            return
        self.count_off()

    def count_off(self) -> None:
        self.pending -= 1
        if self.pending == 0 and not self.done.done():
            self.done.set_result(None)

    def expire(self) -> None:
        self.expired = True
        if not self.done.done():
            self.done.set_result(None)


class Session:
    """One connected peer: its link, outbound buffer and frame routing.

    ``meter`` is an optional :class:`repro.obs.procfs.ComponentUsageMeter`;
    when set, every framed byte written to or received from this peer is
    charged to the owning controller's NIC columns.

    ``oob_kinds`` names frame kinds that are *out-of-band*: not replies to
    any phase request (e.g. a ``partition`` frame announcing an
    aggregator's new stage order). They are diverted into :attr:`oob`, never counted stale; the
    session owner reads and clears :attr:`oob` at a convenient boundary
    (e.g. cycle start).

    A frame that is neither the armed phase's reply nor out-of-band — a
    late reply after a deadline, a duplicate — is counted in
    :attr:`stale_messages` exactly once and dropped. One that arrives
    while *no* phase is armed (a reply that beat the barrier because a
    flush waited out back-pressure) is held and judged when the next
    phase arms: never lost if early, never matching a newer epoch if late.

    ``max_outbox_bytes`` bounds the outbox that :meth:`feed` fills:
    frames fed as *sheddable* (rule batches — superseded by the next
    epoch) are dropped oldest-first once the buffer exceeds the bound, so
    a peer that stops reading cannot grow controller memory without
    limit. Non-sheddable frames (collect requests, acks) are never
    dropped. A shed batch simply surfaces as a missing ack, which the
    degraded-cycle machinery already handles — but only when the enforce
    phase has a deadline (``enforce_timeout_s``), so bounded outboxes
    should be enabled together with phase deadlines. Frames written
    through with :meth:`send` never enter the outbox.
    """

    def __init__(
        self,
        peer_id: str,
        link: FrameLink,
        meter=None,
        max_outbox_bytes: Optional[int] = None,
    ) -> None:
        self.peer_id = peer_id
        self.link = link
        self.meter = meter
        self.connected = not link.lost
        #: Frames buffered by :meth:`feed` since the last :meth:`flush`.
        self.pending_frames = 0
        #: Bounded (or not) coalescing buffer; owns the shed counters.
        self.outbox = BoundedOutbox(max_outbox_bytes)
        #: Frame kinds routed to :attr:`oob` instead of a phase.
        self.oob_kinds: frozenset = frozenset()
        #: Out-of-band frames, in arrival order (owner drains).
        self.oob: list = []
        #: Frames dropped because they were for a finished epoch or an
        #: unexpected kind (late replies after a deadline, duplicates).
        self.stale_messages = 0
        #: On-wire bytes exchanged with this peer (frames incl. headers).
        self.tx_bytes = 0
        self.rx_bytes = 0
        #: The slot its owner keeps this session in (-1: none yet) — a
        #: stage's place in its fan's order, i.e. where its reply lands
        #: in the demand arrays and its limit sits in a batch.
        self.row = -1
        self._armed: Optional[_ReplyBarrier] = None
        # Frames that arrived while no phase was armed (see class doc).
        self._early: list = []
        link.on_frame = self._on_frame
        link.on_lost = self._mark_dead

    # -- inbound -------------------------------------------------------------
    def _on_frame(self, message, nbytes: int) -> None:
        self.rx_bytes += nbytes
        if self.meter is not None:
            self.meter.add_rx(nbytes)
        self._route(message)

    def _route(self, message) -> None:
        barrier = self._armed
        if message.__class__ is tuple:  # packed-kind record
            kind, epoch = message[0], message[1]
        else:
            kind, epoch = message["kind"], message.get("epoch")
        if barrier is not None and kind == barrier.kind and epoch == barrier.epoch:
            barrier.arrived(self, message)
        elif kind in self.oob_kinds:
            self.oob.append(message)
        elif barrier is None:
            self._early.append(message)
        else:
            self.stale_messages += 1

    def _mark_dead(self, exc: Optional[Exception] = None) -> None:
        """The socket is gone (also the link's ``on_lost`` callback)."""
        if self.connected:
            self.connected = False
            if self._armed is not None:
                self._armed.count_off()  # stays armed, i.e. missing

    def _arm(self, barrier: _ReplyBarrier) -> None:
        self._armed = barrier
        if self._early:
            early, self._early = self._early, []
            for message in early:
                self._route(message)
        if not self.connected and self._armed is barrier:
            barrier.count_off()  # dead before the phase began

    # -- outbound ------------------------------------------------------------
    def feed(self, message: dict, sheddable: bool = False) -> int:
        """Buffer one frame for the socket without writing; returns its size.

        The write side of frame coalescing, for a peer that gets several
        frames at once (or one that may need shedding): they gather in
        an in-memory buffer, then :meth:`flush` hands the whole burst to
        the socket in a *single* write (asyncio issues an eager ``send``
        syscall per write call, so per-frame writes defeat batching). A
        lone, already-encoded frame goes through :meth:`send` instead.
        Raises :class:`SessionClosed` on a dead socket; write errors
        surface at flush time. ``sheddable`` marks the frame droppable
        under outbox pressure (rule batches only — see the class
        docstring).

        Encodes straight into the outbox buffer (``encode_into`` via
        ``BoundedOutbox.push_with``): the frame never exists as its own
        ``bytes`` object, and :meth:`flush` later materializes the whole
        phase as one contiguous write burst.
        """
        if not self.connected:
            raise SessionClosed(f"{self.peer_id}: session closed")
        size = self.outbox.push_with(
            lambda buf: encode_into(buf, message), sheddable
        )
        self.pending_frames = self.outbox.pending_frames
        return size

    def feed_frame(self, frame: bytes, sheddable: bool = False) -> int:
        """Buffer an already-encoded frame (e.g. from a rule cache).

        tx accounting (:attr:`tx_bytes`, the NIC meter) is deferred to
        the write — bytes that never reach the socket must not show up
        in REMORA traffic rows.
        """
        if not self.connected:
            raise SessionClosed(f"{self.peer_id}: session closed")
        self.outbox.push(frame, sheddable=sheddable)
        self.pending_frames = self.outbox.pending_frames
        return len(frame)

    def send(self, frame: bytes) -> None:
        """Write one already-encoded frame through to the link, now.

        The per-phase path: no outbox hop, no copy, no coroutine.
        Anything fed earlier goes out first, so per-socket order is feed
        order. The frame's bytes are charged to :attr:`tx_bytes` and the
        NIC meter only once the link accepted them; a link that refuses
        marks the session dead and raises :class:`SessionClosed`. Never
        waits: a caller writing to many peers checks ``link.paused``
        (as :func:`send_phase` does) before writing more.
        """
        if self.pending_frames:
            self._write_burst()
        self._write(frame)

    def _write(self, data: bytes) -> None:
        try:
            # Looked up per call: repro.live.faults replaces the attribute.
            self.link.write(data)
        except (ConnectionError, OSError) as exc:
            self._mark_dead()
            raise SessionClosed(f"{self.peer_id}: {exc}") from exc
        nbytes = len(data)
        self.tx_bytes += nbytes
        if self.meter is not None:
            self.meter.add_tx(nbytes)

    def _write_burst(self) -> None:
        """Hand everything fed so far to the link in one write.

        Once the link accepts the burst its bytes are charged to
        :attr:`tx_bytes` and the NIC meter and :attr:`pending_frames`
        resets. If it refuses, the session is dead: nothing is charged
        and :attr:`pending_frames` keeps the count of frames that were
        dropped with it.
        """
        burst = self.outbox.drain()
        if not burst:
            if self.link.lost:
                self._mark_dead()
                raise SessionClosed(f"{self.peer_id}: connection lost")
            return
        self._write(burst)
        self.pending_frames = 0

    async def flush(self, timeout_s: Optional[float] = None) -> None:
        """Write the frames buffered by :meth:`feed` as one burst.

        A plain ``transport.write``; suspends only while the link's
        ``pause_writing`` is in force (the peer is not reading and the
        transport's buffer is past its high-water mark), so that a
        controller writing to thousands of peers cannot outrun one of
        them without bound — and then for at most ``timeout_s``, after
        which the link may still be paused (the caller checks). Raises
        :class:`SessionClosed` on a dead socket.
        """
        self._write_burst()
        if self.link.paused:
            try:
                await self.link.drain(timeout_s)
            except (ConnectionError, OSError) as exc:
                self._mark_dead()
                raise SessionClosed(f"{self.peer_id}: {exc}") from exc

    def post(self, message: dict) -> None:
        """Write one out-of-phase control frame now (shutdown, topology).

        Never waits for back-pressure: these frames are rare and small,
        and their callers include synchronous link callbacks. Raises
        :class:`SessionClosed` on a dead socket.
        """
        self.feed(message)
        self._write_burst()

    def abort(self) -> None:
        """Cut the socket without flushing (declared dead, process kill)."""
        self.link.abort()

    def close(self) -> None:
        """Close the socket once pending writes have been flushed."""
        self._mark_dead()
        self.link.close()


class StageSession(Session):
    """Server-side state for one connected stage (controller or aggregator)."""

    def __init__(self, stage_id: str, job_id: str, link, meter=None) -> None:
        super().__init__(stage_id, link, meter=meter)
        self.job_id = job_id
        #: ``pack_rule(epoch, limit, metadata_limit | None)`` -> this
        #: stage's ``rule`` frame.
        self.pack_rule = frame_packer("rule", stage_id)
        #: ``(epoch, limit, metadata limit | None)`` of the newest rule
        #: handed to :meth:`send_rule`.
        self.rule: Optional[tuple] = None

    @property
    def stage_id(self) -> str:
        return self.peer_id

    def send_rule(self) -> None:
        """Write :attr:`rule` through as this stage's ``rule`` frame."""
        self.send(self.pack_rule(*self.rule))


_pack_collect_req = frame_packer("collect_req")


def collect_request(epoch: int) -> Callable[[Session], None]:
    """``feed`` for a collect phase: ``collect_req`` at ``epoch`` to all.

    The frame names nobody, so it is packed once and the same ``bytes``
    written through to every session.
    """
    frame = _pack_collect_req(epoch)

    def feed(session: Session) -> None:
        session.send(frame)

    return feed


async def send_phase(
    sessions: Iterable[Session],
    feed: Callable[[Session], object],
    timeout_s: Optional[float],
) -> Tuple[List[Session], List[Session], List[Session]]:
    """Send one phase's frames; returns ``(sent, dead, stalled)``.

    ``feed(session)`` writes that session's frame through
    (:meth:`Session.send`) or buffers a burst (:meth:`Session.feed`),
    plus any bookkeeping that must only happen once the frames were
    accepted. A session is flushed — and back-pressure waited out —
    only if ``feed`` left something queued or the link is paused.

    With ``timeout_s`` set, those waits share one deadline, ``timeout_s``
    after the phase began: a session whose link is still paused past it
    is ``stalled`` — connected, its frames handed to the transport, but
    no longer waited for — and every later session still gets its own.
    """
    sent: List[Session] = []
    dead: List[Session] = []
    stalled: List[Session] = []
    if timeout_s is not None:
        loop_time = asyncio.get_running_loop().time
        deadline = loop_time() + timeout_s
    for session in sessions:
        try:
            feed(session)
            if session.pending_frames or session.link.paused:
                if timeout_s is None:
                    await session.flush()
                else:
                    await session.flush(max(deadline - loop_time(), 0.0))
                    if session.link.paused:
                        stalled.append(session)
                        continue
            sent.append(session)
        except SessionClosed:
            dead.append(session)
    return sent, dead, stalled


async def gather_replies(
    sessions: Sequence[Session],
    kind: str,
    epoch: int,
    on_reply: Optional[Callable[[Session, object], None]],
    timeout_s: Optional[float],
) -> Tuple[List[Session], bool]:
    """Wait for one ``kind`` frame at ``epoch`` from every session.

    ``on_reply(session, message)`` runs synchronously as each reply is
    parsed off the wire (``None``: the arrival alone counts). Returns
    ``(missing, timed_out)``: the sessions that produced no reply — their
    socket died, or the deadline fired before they answered — and
    whether the deadline fired at all. With
    ``timeout_s=None`` a dead socket still counts its session off, so a
    killed peer cannot hang the phase; only a silent-but-connected peer
    blocks, as in the seed. An ``on_reply`` that raises
    :class:`SessionClosed` leaves its session missing; any other
    exception propagates to the caller.
    """
    if not sessions:
        return [], False
    loop = asyncio.get_running_loop()
    barrier = _ReplyBarrier(
        kind, epoch, on_reply, len(sessions), loop.create_future()
    )
    timer = None
    try:
        for session in sessions:
            session._arm(barrier)
        if timeout_s is not None and not barrier.done.done():
            timer = loop.call_later(timeout_s, barrier.expire)
        await barrier.done
    finally:
        if timer is not None:
            timer.cancel()
        missing = []
        for session in sessions:
            if session._armed is barrier:
                session._armed = None
                missing.append(session)
    return missing, barrier.expired


class PhaseDriver:
    """What every owner of sessions does per phase: send, wait, evict.

    Mixin for the controllers and the stage fan; expects ``sessions``
    (id -> session), ``meter``, ``tracer`` and ``_evict(session)``.
    """

    def _cpu(self):
        """CPU-attribution context for synchronous critical sections."""
        return self.meter.cpu() if self.meter is not None else contextlib.nullcontext()

    def _close_sessions(self, farewell: Optional[dict] = None) -> None:
        """Close every session, each after a last ``farewell`` frame if given."""
        for session in list(self.sessions.values()):
            if farewell is not None:
                with contextlib.suppress(SessionClosed):
                    session.post(farewell)
            session.close()
        self.sessions.clear()

    async def _phase(
        self, sessions, feed, kind, epoch, on_reply, timeout_s, span=None
    ):
        """One request/reply phase: ``feed(session)`` sends the request,
        ``on_reply`` consumes the ``kind`` frame at ``epoch``. Returns
        ``(absent, timed_out)`` — every session without a reply (refused
        the request, died, stopped reading past the deadline, or missed
        it replying); dead ones are evicted. ``timeout_s`` bounds the
        send half's waits on paused links and, separately, the reply wait.

        ``span`` names the phase (``"collect"``, ``"enforce"``): while
        the tracer is enabled every answered session gets one
        ``<span>_rpc`` span on its own track, send to reply, under it.
        Sends and replies only stamp two arrays by the session's slot;
        the spans are emitted once, after the phase — and with the
        tracer off the whole of it costs this one branch.
        """
        emit = None
        if span is not None and self.tracer.enabled:
            feed, on_reply, emit = self._stamped(sessions, feed, on_reply)
        with self._cpu():
            sent, refused, stalled = await send_phase(sessions, feed, timeout_s)
        for session in refused:
            self._evict(session)
        missing, timed_out = await gather_replies(
            sent, kind, epoch, on_reply, timeout_s
        )
        for session in missing:
            if not session.connected:
                self._evict(session)
        if emit is not None:
            emit(span, epoch)
        return refused + stalled + missing, timed_out or bool(stalled)

    def _stamped(self, sessions, feed, on_reply):
        """``(feed, on_reply, emit)`` for a traced phase (see :meth:`_phase`)."""
        tracer = self.tracer
        now = tracer.now
        n_slots = 1 + max((s.row for s in sessions), default=-1)
        t_sent = array("d", bytes(8 * n_slots))
        t_back = array("d", bytes(8 * n_slots))

        def stamped_feed(session: Session) -> None:
            feed(session)
            t_sent[session.row] = now()

        def stamped_reply(session: Session, reply) -> None:
            if on_reply is not None:
                on_reply(session, reply)
            t_back[session.row] = now()

        def emit(span: str, epoch: int) -> None:
            for session in sessions:
                back = t_back[session.row]
                if back:
                    sent = t_sent[session.row]
                    tracer.for_track(session.peer_id).emit(
                        span + "_rpc", sent, back - sent, parent=span, epoch=epoch
                    )

        return stamped_feed, stamped_reply, emit


#: The ack of a registration that carries no fields (every flat one).
_REGISTERED = encode({"kind": "registered"})


class SessionHost(PhaseDriver):
    """A listener and the sessions registered through it: hello
    validation and rejection, eviction (with the shed counts of the
    evicted carried over) and teardown, for whoever accepts children —
    the stage fan, the hierarchical controller.

    Holds what every such owner is configured with — address, phase
    deadlines, the observability handles, the per-session outbox bound —
    and expects the registration hooks below from the subclass.
    """

    #: ``kind`` a registering hello carries (set by subclasses).
    _register_kind: str

    def __init__(
        self,
        expected: int,
        host: str,
        port: int,
        collect_timeout_s: Optional[float],
        enforce_timeout_s: Optional[float],
        span_tracer,
        usage_meter,
        metrics,
        session_outbox_bytes: Optional[int],
        role: str,
    ) -> None:
        for name, value in (
            ("collect_timeout_s", collect_timeout_s),
            ("enforce_timeout_s", enforce_timeout_s),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive: {value}")
        self._expected = expected
        self.host = host
        self.port = port
        self.collect_timeout_s = collect_timeout_s
        self.enforce_timeout_s = (
            enforce_timeout_s if enforce_timeout_s is not None else collect_timeout_s
        )
        self.tracer = span_tracer if span_tracer is not None else NullSpanTracer()
        self.meter = usage_meter
        self.metrics = metrics
        #: Per-session outbound-buffer bound (bytes); None = unbounded.
        #: Only enable together with phase deadlines — a shed rule means
        #: a missing ack, which needs ``enforce_timeout_s`` to resolve.
        self.session_outbox_bytes = session_outbox_bytes
        # Instruments resolved once — registry lookups (label-key sort +
        # dict walk) are too slow for a per-cycle hot path.
        if metrics is not None:
            self._m_cycles = metrics.counter(
                "repro_cycles_total", "control cycles completed", role=role
            )
            self._m_evictions = metrics.counter(
                "repro_evictions_total",
                "sessions dropped after their socket died",
                role=role,
            )
        self.sessions: Dict[str, Session] = {}
        #: Bumped by every registration and eviction.
        self.membership = 0
        #: Sessions evicted because their socket died mid-cycle.
        self.evictions = 0
        #: Registrations rejected (duplicate id, malformed hello).
        self.registrations_rejected = 0
        # Frames shed by sessions evicted since (monotone).
        self._outbox_shed_evicted = 0
        #: The :func:`repro.live.pump.listen` listener while started.
        self._server = None
        self._all_registered = asyncio.Event()
        if expected == 0:  # a hot spare: nothing to wait for
            self._all_registered.set()

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Start listening; ``self.port`` holds the bound port."""
        # Every expected child may connect in the same instant (a
        # harness starting its fleet, a mass re-home): size the accept
        # queue for that, not for asyncio's default of 100, or the
        # overflow strands half-open registrations for a TCP RTO wave.
        self._server = pump.listen(
            FrameLink.accepting(self._on_hello),
            self.host,
            self.port,
            accept_backlog(self._expected),
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Tell children to stop, flush the frames, and close the server."""
        self._close_sessions({"kind": "shutdown"})
        if self._server is not None:
            self._server.close()

    def kill(self) -> None:
        """Die abruptly: abort every child socket, stop listening.

        The live counterpart of killing the process — children see EOF
        (not a ``shutdown`` frame) and their reconnect loops rotate to
        alternate addresses (the hot standby, a peer aggregator).
        """
        for session in list(self.sessions.values()):
            session.abort()
        if self._server is not None:
            self._server.close()

    @property
    def outbox_frames_shed(self) -> int:
        """Frames shed across all sessions, living and evicted (monotone)."""
        return self._outbox_shed_evicted + sum(
            s.outbox.frames_shed for s in self.sessions.values()
        )

    # -- registration -------------------------------------------------------
    def _on_hello(self, link: FrameLink, hello: dict) -> None:
        if not self._server.sockets:
            # Accepted before kill() / shutdown(), greeted after: nobody
            # is home, and a registration now would be served by the dead.
            link.abort()
            return
        if hello.get("kind") != self._register_kind:
            self._on_other_hello(link, hello)
            return
        error = self._hello_error(hello)
        if error is not None:
            self.registrations_rejected += 1
            link.write(encode({"kind": "register_error", "reason": error}))
            link.close()
            return
        # From here on the session owns the link: every later frame goes
        # through its routing, in the same parse pass as this hello.
        session = self._make_session(hello, link)
        session.outbox.max_bytes = self.session_outbox_bytes
        self.sessions[session.peer_id] = session
        self.membership += 1
        self._welcome(session)
        if len(self.sessions) >= self._expected:
            self._all_registered.set()

    def _evict(self, session: Session) -> None:
        """Drop a dead session so its id can register again."""
        if self.sessions.get(session.peer_id) is session:
            del self.sessions[session.peer_id]
            self.membership += 1
            self.evictions += 1
            self._outbox_shed_evicted += session.outbox.frames_shed
            if self.metrics is not None:
                self._m_evictions.inc()
            self._on_evicted(session)
        session.close()

    # Subclass hooks ---------------------------------------------------------
    def _welcome(self, session: Session, **ack_fields) -> None:
        """Answer an accepted hello (subclasses add fields, bookkeeping)."""
        session.link.write(
            encode({"kind": "registered", **ack_fields}) if ack_fields else _REGISTERED
        )

    def _on_evicted(self, session: Session) -> None:
        """Bookkeeping hook after a session is dropped."""

    def _on_other_hello(self, link: FrameLink, hello: dict) -> None:
        """A hello of another kind: shown out unless a subclass knows it."""
        link.close()
