"""Live virtual stage: an asyncio TCP client serving metric requests.

Mirrors :class:`repro.dataplane.virtual_stage.VirtualStage` over real
sockets: register with the controller, then answer ``collect_req`` with
metrics and ``rule`` with an ack, applying the epoch staleness check.

Dependability: while ``reconnect`` is on (it starts on) a stage whose
connection drops — killed socket, controller eviction, restart — retries
with exponential backoff plus jitter and *re-registers*, so it is picked
up again by the controller's next cycle. A rejected registration (e.g.
its old session has not been evicted yet) is retried the same way. That
loop is :class:`_Dialer`, and an aggregator's trunk to the global
controller runs the same one: stages and aggregators rejoin alike.

Re-homing (paper §VI dependability): a stage may know *alternate*
controller addresses — passed at construction (``alternates``) or learnt
mid-session from a ``rehome`` frame sent by its aggregator once the
global controller has broadcast the tree topology. A failed connection
attempt (or a controller that goes silent past ``controller_timeout_s``
while the socket stays open) rotates to the next address instead of
spinning on a dead endpoint, so the stages of a dead aggregator migrate
to its surviving peers within a couple of backoff steps. The epoch
staleness check (:attr:`applied_epoch` survives reconnects) fences any
late rules from the previous home.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import List, Optional, Sequence, Tuple

from repro.guard.backoff import full_jitter
from repro.live import pump
from repro.live.codec import frame_packer
from repro.live.protocol import FrameLink, encode

__all__ = ["LiveVirtualStage"]


class _Dialer:
    """The client side of membership, for a stage and for an
    aggregator's trunk alike: connect → hello → ``registered`` verdict →
    serve → re-dial. A subclass brings ``_hello()`` (the registering
    frame, a dict), the link callback ``_on_frame(message, nbytes)``
    (which hands a session's first frame to :meth:`_on_ack`) and
    ``_serve()``, awaited while a session lasts: it returns once
    :meth:`_end_session` has run.

    Backoff between attempts has *full jitter*: the ``k``-th consecutive
    failure computes the exponential ceiling ``min(max, base *
    factor**(k-1))`` and sleeps a uniform draw below it from the module
    RNG, which decorrelates a mass-evicted fleet (a schedule every client
    computes alike is a thundering herd at each rung). A failed attempt
    rotates to the next known address. Retries go on until :meth:`stop`.
    """

    __slots__ = (
        "addresses", "_addr_index", "reconnect", "backoff_base_s", "backoff_factor",
        "backoff_max_s", "connects", "reconnects", "registrations_rejected",
        "consecutive_failures", "failovers", "_stop", "_link", "_registered",
        "_ended", "_registered_addr", "_last_silent",
    )

    def __init__(
        self, host: str, port: int, alternates=None,
        backoff_base_s: float = 0.05, backoff_factor: float = 2.0,
        backoff_max_s: float = 2.0,
    ) -> None:
        if backoff_base_s <= 0 or backoff_max_s <= 0:
            raise ValueError("backoff delays must be positive")
        if backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1: {backoff_factor}")
        self.addresses: List[Tuple[str, int]] = [(host, int(port))] + [
            (h, int(p)) for h, p in (alternates or [])
        ]
        self._addr_index = 0
        #: Re-dial after a session ends; off, :meth:`run` returns instead.
        self.reconnect = True
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.backoff_max_s = backoff_max_s
        #: Successful registrations (1 on a fault-free run).
        self.connects = 0
        #: Successful registrations after the first (i.e. recoveries).
        self.reconnects = 0
        self.registrations_rejected = 0
        #: Failed attempts since the last successful registration — the
        #: backoff schedule's input, reset to 0 the moment a
        #: ``registered`` ack lands (observable for regression tests).
        self.consecutive_failures = 0
        #: Successful registrations at a *different* address than the
        #: previous home (i.e. completed re-homes / failovers).
        self.failovers = 0
        self._stop = asyncio.Event()
        #: The current connection; :meth:`kill` aborts it, and its
        #: ``write`` is the seam :mod:`repro.live.faults` wraps.
        self._link: Optional[FrameLink] = None
        self._registered = False
        self._ended: Optional[asyncio.Future] = None
        self._registered_addr: Optional[Tuple[str, int]] = None
        #: The session just ended went silent (not refused, not lost).
        self._last_silent = False

    @property
    def host(self) -> str:
        """Host of the listener currently targeted."""
        return self.addresses[self._addr_index][0]

    @property
    def port(self) -> int:
        """Port of the listener currently targeted."""
        return self.addresses[self._addr_index][1]

    def stop(self) -> None:
        """Ask the serve/re-dial loop to exit."""
        self._stop.set()
        self._end_session()

    def kill(self) -> None:
        """Abort the current connection without flushing (process kill).

        With ``reconnect`` enabled the loop later re-dials, modelling a
        crashed-and-restarted process.
        """
        link = self._link
        if link is not None:
            link.abort()

    def _rotate_address(self) -> None:
        """Advance to the next known address (wraps around)."""
        if len(self.addresses) > 1:
            self._addr_index = (self._addr_index + 1) % len(self.addresses)

    def _backoff_delay(self, attempt: int) -> float:
        """Full-jitter delay before retry ``attempt`` (testable, no I/O)."""
        return full_jitter(
            attempt, self.backoff_base_s, self.backoff_factor, self.backoff_max_s
        )

    async def run(self) -> None:
        """Connect, register, and serve; re-dials with backoff if enabled."""
        while not self._stop.is_set():
            self._last_silent = False
            try:
                registered = await self._serve_once()
            except (ConnectionError, OSError):
                registered = False
            if not self.reconnect or self._stop.is_set():
                return
            if registered:
                # Backoff was reset the moment registration succeeded
                # (consecutive_failures == 0); one base delay before
                # reconnecting. A home that went *silent* (socket open,
                # no frames for a silence bound) is as dead as a refused
                # one — rotate away instead of re-joining it.
                attempt = 1
                if self._last_silent:
                    self._rotate_address()
            else:
                self.consecutive_failures += 1
                attempt = self.consecutive_failures
                self._rotate_address()
            delay = self._backoff_delay(attempt)
            try:
                await asyncio.wait_for(self._stop.wait(), timeout=delay)
                return
            except asyncio.TimeoutError:
                pass

    async def _serve_once(self) -> bool:
        """One connect → register → serve pass.

        Connects, sends the hello, then awaits ``_serve()``: the
        ``registered`` ack arrives through the link's frame callback.
        Returns True once registration succeeded, even if the connection
        later dropped (so a spell of healthy service resets the backoff);
        raises on connection errors before the hello is out. A
        :meth:`stop` that came while the connect was in flight had no
        session to end: the new connection is closed unannounced.
        """
        link = FrameLink(self._on_frame, self._end_session)
        await pump.connect(link, self.host, self.port)
        if self._stop.is_set():
            link.close()
            return False
        self._link = link
        self._registered = False
        self._ended = asyncio.get_running_loop().create_future()
        try:
            link.write(encode(self._hello()))
            await self._serve()
            return self._registered
        finally:
            self._link = None
            link.close()

    def _end_session(self, exc: Optional[Exception] = None) -> None:
        """End the session ``_serve`` serves (also the link's ``on_lost``)."""
        ended = self._ended
        if ended is not None and not ended.done():
            ended.set_result(None)

    def _on_ack(self, ack) -> None:
        """First frame of a session: the registration verdict."""
        if ack.__class__ is tuple or ack["kind"] != "registered":
            self.registrations_rejected += 1
            self._end_session()
            return
        self.connects += 1
        if self.connects > 1:
            self.reconnects += 1
        self.consecutive_failures = 0
        addr = self.addresses[self._addr_index]
        if self._registered_addr is not None and addr != self._registered_addr:
            self.failovers += 1
        self._registered_addr = addr
        self._registered = True


class LiveVirtualStage(_Dialer):
    """One stage endpoint; run with ``await stage.run()`` as a task.

    Parameters
    ----------
    backoff_base_s / backoff_factor / backoff_max_s:
        Full-jitter backoff between reconnect attempts (see
        :class:`_Dialer`).
    alternates:
        Extra ``(host, port)`` controller addresses to rotate through
        when the current home fails (dead aggregator, dead primary). A
        ``rehome`` frame from the controller replaces this list.
    controller_timeout_s:
        Declare the current home silent (and rotate) when no frame
        arrives for this long while the socket stays open — the stalled
        aggregator / stalled-primary case, which EOF never surfaces.
        ``None`` (the default) sets no bound: a stage does not know its
        controller's cycle period, so any bound it picked could fire
        between cycles of a healthy plane.
    """

    # A plane holds thousands: past 29 attributes CPython stops sharing
    # the instance dict's keys, and 45 cost 1.6 KB a stage. ``__dict__``
    # stays for whatever a test or a fault patches onto one instance.
    __slots__ = (
        "controller_timeout_s", "stage_id", "job_id", "demand", "applied_epoch",
        "applied_limit", "applied_metadata_limit", "requests_served",
        "rules_applied", "rules_ignored_stale", "rehomes_received",
        "silence_timeouts", "_paused", "_backlog", "_watchdog", "_heard_at",
        "_pack_metrics", "_pack_ack", "__dict__",
    )

    def __init__(
        self,
        host: str,
        port: int,
        stage_id: str,
        job_id: str,
        demand: Tuple[float, float] = (1000.0, 200.0),
        backoff_base_s: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max_s: float = 2.0,
        alternates: Optional[Sequence[Tuple[str, int]]] = None,
        controller_timeout_s: Optional[float] = None,
    ) -> None:
        if controller_timeout_s is not None and not 0 < controller_timeout_s < math.inf:
            raise ValueError(
                f"controller_timeout_s must be positive and finite: {controller_timeout_s}"
            )
        super().__init__(
            host, port, alternates, backoff_base_s, backoff_factor, backoff_max_s
        )
        self.controller_timeout_s = controller_timeout_s
        self.stage_id = stage_id
        self.job_id = job_id
        self.demand = demand
        self.applied_epoch = -1
        self.applied_limit: Optional[float] = None
        #: Metadata-axis limit from the newest applied rule; ``inf``
        #: (unlimited) until one arrives, and whenever the policy does
        #: not differentiate the axes.
        self.applied_metadata_limit: float = float("inf")
        self.requests_served = 0
        self.rules_applied = 0
        self.rules_ignored_stale = 0
        #: ``rehome`` frames accepted (alternate-address updates).
        self.rehomes_received = 0
        #: Homes declared silent via ``controller_timeout_s``.
        self.silence_timeouts = 0
        self._paused = False
        #: Frames that arrived while paused, served on :meth:`resume`.
        self._backlog: list = []
        self._watchdog: Optional[asyncio.TimerHandle] = None
        #: When the last frame arrived (``time.monotonic``; watchdog input).
        self._heard_at = 0.0
        # This stage's two reply frames, ids pre-bound (``(epoch,
        # data_iops, metadata_iops)`` / ``(epoch)`` -> bytes).
        self._pack_metrics = frame_packer("metrics_reply", stage_id, job_id)
        self._pack_ack = frame_packer("rule_ack", stage_id)

    # -- fault-injection hooks -------------------------------------------------
    def pause(self) -> None:
        """Freeze request handling (stall): socket open, no replies."""
        self._paused = True

    def resume(self) -> None:
        """Resume handling after :meth:`pause`; the backlog is served."""
        self._paused = False
        self._heard_at = time.monotonic()
        while self._backlog and not self._paused and self._link is not None:
            self._serve_frame(self._backlog.pop(0))

    # -- the dial loop's hooks -------------------------------------------------
    def _hello(self) -> dict:
        return {"kind": "register", "stage_id": self.stage_id, "job_id": self.job_id}

    async def _serve(self) -> None:
        """Sleep while the link's callbacks serve the session, the silence
        watchdog armed if there is a bound."""
        self._heard_at = time.monotonic()
        if self.controller_timeout_s is not None:
            self._watchdog = asyncio.get_running_loop().call_later(
                self.controller_timeout_s, self._check_silence
            )
        try:
            await self._ended
        finally:
            self._backlog.clear()
            if self._watchdog is not None:
                self._watchdog.cancel()
                self._watchdog = None

    def _check_silence(self) -> None:
        """Silence watchdog: one timer; frames only stamp ``_heard_at``.

        Fires at most once per ``controller_timeout_s``, then sleeps out
        the remainder or declares the home silent (a paused stage is not
        listening, so it passes no verdict).
        """
        timeout = self.controller_timeout_s
        idle = 0.0 if self._paused else time.monotonic() - self._heard_at
        if idle < timeout:
            self._watchdog = asyncio.get_running_loop().call_later(
                timeout - idle, self._check_silence
            )
            return
        self._watchdog = None
        self.silence_timeouts += 1
        self._last_silent = True
        self._end_session()

    def _accept_rehome(self, message: dict) -> None:
        """Adopt an alternate-address list (rehome frame or registered ack).

        The current home stays first so rotation only leaves it on
        failure; duplicates of the current address are dropped. An
        outside frame: a list that is not ``[str host, int port]`` pairs
        throughout is ignored whole.
        """
        alternates = message.get("alternates")
        if not isinstance(alternates, list) or not all(
            isinstance(a, list)
            and len(a) == 2
            and isinstance(a[0], str)
            and a[1].__class__ is int
            and 0 <= a[1] <= 65535
            for a in alternates
        ):
            return
        current = self.addresses[self._addr_index]
        self.addresses = [current] + [
            (h, p) for h, p in alternates if (h, p) != current
        ]
        self._addr_index = 0
        self.rehomes_received += 1

    def _on_frame(self, message, nbytes: int) -> None:
        if self._watchdog is not None:
            self._heard_at = time.monotonic()
        if not self._registered:
            self._on_ack(message)
        elif self._paused:
            self._backlog.append(message)
        else:
            self._serve_frame(message)

    def _on_ack(self, ack) -> None:
        super()._on_ack(ack)
        if self._registered:
            self._accept_rehome(ack)

    def _reply(self, frame: bytes) -> None:
        link = self._link
        if link is None:
            return
        try:
            link.write(frame)
        except (ConnectionError, OSError):
            self._end_session()  # connection lost after a healthy registration

    def _serve_frame(self, message) -> None:
        if message.__class__ is tuple:  # packed-kind record
            try:
                kind, epoch, limit, metadata_limit = message
            except ValueError:
                return  # a trunk vector aimed at a stage: ignored
            if kind == "collect_req":
                self.requests_served += 1
                data_iops, metadata_iops = self.demand
                self._reply(self._pack_metrics(epoch, data_iops, metadata_iops))
            elif kind == "rule":
                if epoch > self.applied_epoch:
                    self.applied_epoch = epoch
                    self.applied_limit = limit
                    self.applied_metadata_limit = metadata_limit
                    self.rules_applied += 1
                else:
                    self.rules_ignored_stale += 1
                self._reply(self._pack_ack(epoch))
            return  # a reply kind aimed at a stage: ignored
        kind = message["kind"]
        if kind == "rehome":
            self._accept_rehome(message)
        elif kind == "shutdown":
            self.stop()
        # Unknown kinds ignored (passive endpoint, like the simulated stage).
