"""Hot-standby failover for the *live* global controller (paper §VI).

The asyncio/TCP port of :mod:`repro.core.failover`, with the same
semantics and the same bound: the primary streams heartbeats (carrying
its latest epoch) to the standby over a dedicated connection; the
standby declares the primary dead after ``missed_heartbeats`` silent
intervals — or immediately when the primary's task dies under it — and
resumes control cycles from ``last_primary_epoch + EPOCH_SLACK``, so
stage-side epoch fencing accepts standby rules and discards any late
primary traffic. The QoS-adaptation gap is therefore bounded by
``heartbeat_interval_s × missed_heartbeats`` plus one control cycle
(which, on the live plane, also absorbs the stages' reconnect backoff).

Unlike the simulator — where the standby holds pre-established
connections to every stage — live stages hold *one* connection, built
with the standby's address in their ``alternates`` list
(:class:`~repro.live.stage_client.LiveVirtualStage`): when the primary's
sockets die, the stages' reconnect loops rotate to the standby and
re-register, typically well inside the heartbeat silence budget.

Usage::

    primary = LiveGlobalController(policy, expected_stages=n)
    standby = LiveGlobalController(policy, expected_stages=n)
    await primary.start(); await standby.start()
    stages = [LiveVirtualStage(primary.host, primary.port, ...,
                               alternates=[(standby.host, standby.port)])
              for ...]
    hot = LiveHotStandby(primary, standby, heartbeat_interval_s=0.05)
    ... stages connect; await primary.wait_for_stages() ...
    cycles = await hot.run_protected(n_cycles)   # survives kill_primary()
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.core.cycle import ControlCycle
from repro.core.failover import EPOCH_SLACK
from repro.live.controller_server import LiveGlobalController
from repro.live.protocol import write_message
from repro.obs.spans import NullSpanTracer

__all__ = ["LiveFailoverEvent", "LiveHotStandby"]


@dataclass(frozen=True)
class LiveFailoverEvent:
    """Record of a live take-over decision (monotonic wall seconds).

    ``gap_s`` is the measured QoS-adaptation gap: from the kill (or the
    last heartbeat, if the primary died without :meth:`kill_primary`)
    until the standby's first control cycle completed.
    """

    time: float
    last_primary_epoch: int
    resumed_epoch: int
    gap_s: float


class LiveHotStandby:
    """Couples a primary and a standby :class:`LiveGlobalController`.

    Both controllers must be listening before :meth:`run_protected`. The
    standby stays passive — it accepts registrations and heartbeats but
    runs no cycles — until the primary goes silent past the budget.
    """

    def __init__(
        self,
        primary: LiveGlobalController,
        standby: LiveGlobalController,
        heartbeat_interval_s: float = 0.05,
        missed_heartbeats: int = 3,
        span_tracer=None,
        metrics=None,
    ) -> None:
        if heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat interval must be positive: {heartbeat_interval_s}"
            )
        if missed_heartbeats < 1:
            raise ValueError(f"missed_heartbeats must be >= 1: {missed_heartbeats}")
        if primary is standby:
            raise ValueError("primary and standby must be distinct controllers")
        self.primary = primary
        self.standby = standby
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.missed_heartbeats = int(missed_heartbeats)
        self.tracer = span_tracer if span_tracer is not None else NullSpanTracer()
        self.failover: Optional[LiveFailoverEvent] = None
        self.heartbeats_sent = 0
        self.killed_at: Optional[float] = None
        self._m_takeovers = None
        if metrics is not None:
            self._m_takeovers = metrics.counter(
                "repro_failover_takeovers_total",
                "standby takeovers after primary-controller loss",
                role="standby",
            )
        self._primary_task: Optional[asyncio.Task] = None
        self._hb_task: Optional[asyncio.Task] = None
        self._hb_writer: Optional[asyncio.StreamWriter] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Open the heartbeat channel (run_protected calls this lazily)."""
        _reader, writer = await asyncio.open_connection(
            self.standby.host, self.standby.port
        )
        self._hb_writer = writer
        await write_message(
            writer, {"kind": "heartbeat", "epoch": self.primary.epoch}
        )
        self.heartbeats_sent += 1
        self._hb_task = asyncio.create_task(self._heartbeat())

    def kill_primary(self) -> None:
        """Crash the primary mid-run (failure injection).

        Everything a process kill would take down goes at once: the cycle
        task, the heartbeat stream, the primary's child sockets, and its
        listening socket (so stages rotate to the standby).
        """
        self.killed_at = time.monotonic()
        if self._primary_task is not None:
            self._primary_task.cancel()
        if self._hb_task is not None:
            self._hb_task.cancel()
        writer = self._hb_writer
        if writer is not None and writer.transport is not None:
            writer.transport.abort()
        self.primary.kill()

    @property
    def active_controller(self) -> LiveGlobalController:
        """Whoever is currently (or was last) driving control cycles."""
        return self.standby if self.failover is not None else self.primary

    # -- main loop -----------------------------------------------------------
    async def run_protected(
        self,
        n_cycles: int,
        cycle_period_s: float = 0.0,
        stage_timeout_s: float = 10.0,
    ) -> List[ControlCycle]:
        """Run ``n_cycles`` cycles with failover protection.

        Returns the combined cycle records (primary's, then — after a
        take-over — the standby's). ``cycle_period_s`` paces the cycles
        (0 = back-to-back, the stress mode).
        """
        if n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1: {n_cycles}")
        if self._hb_writer is None:
            await self.start()
        self._primary_task = asyncio.create_task(
            self._paced_cycles(self.primary, n_cycles, cycle_period_s)
        )
        silence_budget = self.heartbeat_interval_s * self.missed_heartbeats
        poll_s = self.heartbeat_interval_s / 4.0
        started = time.monotonic()
        try:
            while True:
                await asyncio.sleep(poll_s)
                task = self._primary_task
                crashed = task.done() and (
                    task.cancelled() or task.exception() is not None
                )
                if task.done() and not crashed:
                    return self._all_cycles()
                last_beat = self.standby.last_heartbeat_at or started
                silent_for = time.monotonic() - last_beat
                if not crashed and silent_for < silence_budget:
                    continue
                remaining = n_cycles - len(self.primary.cycles)
                if remaining > 0:
                    await self._take_over(
                        remaining, cycle_period_s, stage_timeout_s
                    )
                return self._all_cycles()
        finally:
            await self._stop_heartbeats()

    # -- internals -------------------------------------------------------------
    def _all_cycles(self) -> List[ControlCycle]:
        return list(self.primary.cycles) + list(self.standby.cycles)

    async def _paced_cycles(
        self, controller: LiveGlobalController, n_cycles: int, period_s: float
    ) -> None:
        for _ in range(n_cycles):
            await controller.run_cycles(1)
            if period_s > 0:
                await asyncio.sleep(period_s)

    async def _take_over(
        self, remaining: int, cycle_period_s: float, stage_timeout_s: float
    ) -> None:
        # Resume above the highest epoch the primary is known to have
        # used: stages accept standby rules, late primary rules are
        # fenced by the stages' staleness checks.
        last_known = max(self.standby.last_primary_epoch, self.primary.epoch)
        self.standby.epoch = last_known + EPOCH_SLACK
        origin = (
            self.killed_at
            if self.killed_at is not None
            else (self.standby.last_heartbeat_at or time.monotonic())
        )
        with self.tracer.span("takeover", last_primary_epoch=last_known) as args:
            await self.standby.wait_for_stages(timeout_s=stage_timeout_s)
            await self.standby.run_cycles(1)
            args["resumed_epoch"] = self.standby.epoch
        gap_s = time.monotonic() - origin
        self.failover = LiveFailoverEvent(
            time=time.monotonic(),
            last_primary_epoch=last_known,
            resumed_epoch=last_known + EPOCH_SLACK + 1,
            gap_s=gap_s,
        )
        if self._m_takeovers is not None:
            self._m_takeovers.inc()
        if remaining > 1:
            await self._paced_cycles(self.standby, remaining - 1, cycle_period_s)

    async def _heartbeat(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.heartbeat_interval_s)
                await write_message(
                    self._hb_writer,
                    {"kind": "heartbeat", "epoch": self.primary.epoch},
                )
                self.heartbeats_sent += 1
        except (ConnectionError, OSError):
            pass  # standby gone; nothing left to reassure

    async def _stop_heartbeats(self) -> None:
        if self._hb_task is not None:
            self._hb_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._hb_task
            self._hb_task = None
        writer = self._hb_writer
        if writer is not None:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            self._hb_writer = None
