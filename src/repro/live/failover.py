"""Hot-standby failover for the *live* global controller (paper §VI).

:class:`~repro.core.failover.StandbyRule` as asyncio tasks. The primary
streams heartbeats over a :class:`~repro.live.protocol.FrameLink` dialled
through :func:`repro.live.pump.connect`; the standby controller feeds each
beat, and the stream closing, into the rule (its ``watch``). A watchdog
task asks the rule four times an interval. At takeover it fences the
primary as a process kill would, resumes the standby at ``resume_epoch``
and waits for the stages: they hold one connection, with the standby's
address in their ``alternates``, so when the primary's sockets die their
reconnect loops rotate to the standby and re-register.
:class:`~repro.live.harness.LiveFlatPair` composes the whole pair.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from repro.core.failover import FailoverEvent, StandbyRule
from repro.live import pump
from repro.live.controller_server import LiveGlobalController
from repro.live.protocol import FrameLink, encode
from repro.obs.spans import NullSpanTracer

__all__ = ["LiveHotStandby"]

#: How long a standby waits for the stages to re-register after a takeover.
STAGE_TIMEOUT_S = 10.0


class LiveHotStandby:
    """Couples a primary and a standby :class:`LiveGlobalController`, both
    listening before :meth:`start`. The standby accepts registrations and
    heartbeats but runs no cycles until it takes over. The clock is
    ``time.perf_counter``, the controllers' cycle clock."""

    def __init__(
        self,
        primary: LiveGlobalController,
        standby: LiveGlobalController,
        heartbeat_interval_s: float = 0.05,
        missed_heartbeats: int = 3,
        span_tracer=None,
        metrics=None,
    ) -> None:
        if primary is standby:
            raise ValueError("primary and standby must be distinct controllers")
        self.rule = standby.watch = StandbyRule(heartbeat_interval_s, missed_heartbeats)
        self.primary = primary
        self.standby = standby
        self.tracer = span_tracer if span_tracer is not None else NullSpanTracer()
        self.failover: Optional[FailoverEvent] = None
        self._m_takeovers = metrics.counter(
            "repro_failover_takeovers_total",
            "standby takeovers after primary-controller loss",
            role="standby",
        ) if metrics is not None else None
        self._link = FrameLink()
        self._primary_up = True
        self._cycle: Optional[asyncio.Future] = None
        self._hb_task: Optional[asyncio.Task] = None
        self._watch_task: Optional[asyncio.Task] = None

    async def start(self) -> None:
        """Open the heartbeat stream and start the watchdog."""
        self.rule.watch(time.perf_counter())
        await pump.connect(self._link, self.standby.host, self.standby.port)
        self._hb_task = asyncio.create_task(self._heartbeat())
        self._watch_task = asyncio.create_task(self._watchdog())

    async def stop(self) -> None:
        """Stop the watchdog first, so the stream closing after it is no
        takeover, then the heartbeats."""
        tasks = [t for t in (self._watch_task, self._hb_task, self._cycle) if t is not None]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._link.close()

    def kill_primary(self) -> None:
        """Stop the primary as a process kill would (failure injection, and
        the takeover's fence): the cycle it is in, the heartbeat stream,
        its child sockets and its listener go at once, so stages rotate
        to the standby."""
        self._primary_up = False
        for task in (self._cycle, self._hb_task):
            if task is not None:
                task.cancel()
        self._link.abort()
        self.primary.kill()

    @property
    def active_controller(self) -> LiveGlobalController:
        """Whoever is currently (or was last) driving control cycles."""
        return self.standby if self.standby.cycles else self.primary

    async def run_cycles(self, n_cycles: int) -> None:
        """Run ``n_cycles`` cycles on whoever holds control: the primary
        while it is up, else the standby once it took over (it reruns a
        cycle the primary died in). :meth:`start` first."""
        for _ in range(n_cycles):
            if self._primary_up:
                cycle = self._cycle = asyncio.ensure_future(self.primary.run_cycles(1))
                try:
                    await asyncio.wait((cycle,))
                except asyncio.CancelledError:
                    cycle.cancel()
                    raise
                if not cycle.cancelled():
                    cycle.result()
                    continue
            await self._watch_task
            await self.standby.run_cycles(1)
            if self.failover is None:
                self.failover = self.rule.event(time.perf_counter())

    async def _heartbeat(self) -> None:
        try:
            while True:
                self._link.write(encode({"kind": "heartbeat", "epoch": self.primary.epoch}))
                await asyncio.sleep(self.rule.interval_s)
        except ConnectionError:
            pass  # standby gone; nothing left to reassure

    async def _watchdog(self) -> None:
        rule = self.rule
        while not rule.due(time.perf_counter()):
            await asyncio.sleep(rule.interval_s / 4.0)
        with self.tracer.span("takeover") as args:
            if self._primary_up:
                self.kill_primary()  # the fence: it stops before we resume
            self.standby.epoch = rule.take_over(time.perf_counter(), self.primary.epoch)
            args["last_primary_epoch"] = rule.taken[1]
            args["resumed_epoch"] = self.standby.epoch + 1
            await self.standby.wait_for_stages(timeout_s=STAGE_TIMEOUT_S)
        if self._m_takeovers is not None:
            self._m_takeovers.inc()
