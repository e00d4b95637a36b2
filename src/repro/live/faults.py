"""Live fault injection: kill, stall, and flaky-socket wrappers.

The live counterpart of :mod:`repro.core.failures` — the same fault
menagerie, but inflicted on real asyncio TCP endpoints instead of
simulated actors:

* :func:`kill_stage` — abort the stage's socket mid-flight (SIGKILL /
  node loss). The controller sees EOF and evicts the session; with the
  stage's reconnect loop enabled the "restarted" process re-registers
  after backoff.
* :func:`stall_stage` — freeze the stage's reply loop for a window
  without closing the socket (GC pause, overloaded node, network
  partition with a live TCP session). Only a ``collect_timeout_s``
  lets cycles make progress past a stalled stage.
* :func:`flaky_socket` — wrap the stage's current connection so it
  aborts after N more frames are written, exercising mid-phase
  connection loss (enforce-time and collect-time eviction paths).
* :func:`kill_aggregator` — abort every socket of a live aggregator
  (upstream and stage-facing) and close its server: the global
  controller orphans the partition and the stages re-home to surviving
  aggregators via their alternate-address rotation.
* :func:`stall_aggregator` — freeze an aggregator's upstream frame
  handling for a window without closing any socket; the global
  controller's ``dead_after_missed`` health check declares it dead, and
  the stages' ``controller_timeout_s`` silence watchdogs rotate away.
* :class:`LiveFaultLog` — wall-clock record of injected events, for
  assertions, mirroring :class:`repro.core.failures.FailureLog`.

The two aggregator faults take a :class:`~repro.live.aggregator_server.
LiveAggregator` or a :class:`~repro.live.tier.AggregatorHandle` — a
``LiveHierPlane``'s aggregators run in its tier process, and the handle's
``kill`` / ``pause`` / ``resume`` have taken effect there when they
return.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.live.aggregator_server import LiveAggregator
from repro.live.stage_client import LiveVirtualStage
from repro.live.tier import AggregatorHandle

#: What the aggregator faults act on: the server, or its tier handle.
Aggregator = Union[LiveAggregator, AggregatorHandle]

__all__ = [
    "FlakySocket",
    "LiveFaultEvent",
    "LiveFaultLog",
    "flaky_socket",
    "kill_aggregator",
    "kill_stage",
    "stall_aggregator",
    "stall_stage",
]


@dataclass(frozen=True)
class LiveFaultEvent:
    """One injected fault or recovery (wall-clock seconds)."""

    time: float
    target: str
    action: str  # "kill" | "stall" | "resume" | "flaky"


@dataclass
class LiveFaultLog:
    """Chronological record of injected live faults."""

    events: List[LiveFaultEvent] = field(default_factory=list)

    def record(self, target: str, action: str) -> None:
        self.events.append(LiveFaultEvent(time.monotonic(), target, action))

    def kills(self) -> List[LiveFaultEvent]:
        return [e for e in self.events if e.action == "kill"]

    def stalls(self) -> List[LiveFaultEvent]:
        return [e for e in self.events if e.action == "stall"]


def kill_stage(
    stage: LiveVirtualStage,
    restart: bool = True,
    log: Optional[LiveFaultLog] = None,
) -> LiveFaultLog:
    """Abort ``stage``'s connection right now (simulated process kill).

    With ``restart`` (default) the stage's reconnect loop brings it back
    with backoff + re-registration; with ``restart=False`` it stays dead
    (the serve loop exits instead of retrying).
    """
    log = log if log is not None else LiveFaultLog()
    if not restart:
        stage.reconnect = False
    stage.kill()
    log.record(stage.stage_id, "kill")
    return log


async def stall_stage(
    stage: LiveVirtualStage,
    duration_s: float,
    log: Optional[LiveFaultLog] = None,
) -> LiveFaultLog:
    """Freeze ``stage``'s reply loop for ``duration_s`` seconds.

    The socket stays open, so the controller sees silence rather than
    EOF: without a phase timeout the cycle blocks; with one, the stage
    goes missing and rides at last-known demand. On resume, the stage
    serves its backlog — late replies are drained as stale by epoch
    checks on the controller side.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive: {duration_s}")
    log = log if log is not None else LiveFaultLog()
    stage.pause()
    log.record(stage.stage_id, "stall")
    try:
        await asyncio.sleep(duration_s)
    finally:
        stage.resume()
        log.record(stage.stage_id, "resume")
    return log


def kill_aggregator(
    aggregator: Aggregator,
    log: Optional[LiveFaultLog] = None,
) -> LiveFaultLog:
    """Kill ``aggregator`` right now (simulated controller-node loss).

    Upstream and stage-facing sockets are aborted and the listening
    socket is closed: the global controller sees EOF and orphans the
    partition; the stages see EOF, then connection-refused on retry, and
    rotate to the alternates learnt from ``rehome`` frames. A killed
    aggregator does not come back.
    """
    log = log if log is not None else LiveFaultLog()
    aggregator.kill()
    log.record(aggregator.aggregator_id, "kill")
    return log


async def stall_aggregator(
    aggregator: Aggregator,
    duration_s: float,
    log: Optional[LiveFaultLog] = None,
) -> LiveFaultLog:
    """Freeze ``aggregator``'s frame handling for ``duration_s`` seconds.

    All sockets stay open, so both neighbours see silence rather than
    EOF: the global controller needs ``collect_timeout_s`` (to degrade
    past it) and ``dead_after_missed`` (to declare it dead); the stages
    need ``controller_timeout_s`` to rotate away from it. On resume the
    backlog is served — late replies are drained as stale upstream, and
    late rules are fenced by the stages' epoch checks.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive: {duration_s}")
    log = log if log is not None else LiveFaultLog()
    aggregator.pause()
    log.record(aggregator.aggregator_id, "stall")
    try:
        await asyncio.sleep(duration_s)
    finally:
        aggregator.resume()
        log.record(aggregator.aggregator_id, "resume")
    return log


class FlakySocket:
    """A link's ``write`` that aborts the connection after N more writes.

    Models a failing NIC/link: traffic flows, then the connection dies
    mid-phase. Reads pass through untouched; the failure surfaces as a
    ``ConnectionResetError`` on the writing side and an EOF on the peer.
    """

    def __init__(self, link, fail_after_writes: int) -> None:
        if fail_after_writes < 0:
            raise ValueError(f"negative fail_after_writes: {fail_after_writes}")
        self._link = link
        self._write = link.write
        self.fail_after_writes = fail_after_writes
        self.writes = 0

    def write(self, data: bytes) -> None:
        if self.writes >= self.fail_after_writes:
            self._link.abort()
            raise ConnectionResetError("flaky socket: injected write failure")
        self.writes += 1
        self._write(data)


def flaky_socket(
    stage: LiveVirtualStage,
    fail_after_writes: int,
    log: Optional[LiveFaultLog] = None,
) -> LiveFaultLog:
    """Make ``stage``'s *current* connection fail after N more replies.

    Wraps the link's write seam; the wrapper lasts until the connection
    dies, and the reconnected session (if the stage retries) uses a
    clean link again.
    """
    log = log if log is not None else LiveFaultLog()
    link = stage._link
    if link is None:
        raise RuntimeError(f"stage {stage.stage_id} is not connected")
    link.write = FlakySocket(link, fail_after_writes).write
    log.record(stage.stage_id, "flaky")
    return log
