"""Live fault injection: a timed stall, and a socket that fails after N
writes.

The live counterpart of :mod:`repro.core.failures`. Kills need no
wrapper: they are the targets' own hooks —
:meth:`~repro.live.stage_client.LiveVirtualStage.kill` (abort the
stage's socket; with ``reconnect`` on, its dial loop re-registers after
backoff) and an :class:`~repro.live.tier.AggregatorHandle`'s ``kill``,
which has taken effect in the aggregator tier when it returns. What is
injected here:

* :func:`stall` — ``pause`` a stage or an aggregator handle (replies
  frozen, socket open, so the collect deadline leaves it behind at
  last-known demand) for some seconds, then ``resume`` it;
* :func:`flaky_socket` — wrap the stage's current connection so it
  aborts after N more frames are written, exercising mid-phase
  connection loss (enforce-time and collect-time eviction paths).
"""

from __future__ import annotations

import asyncio

from repro.live.stage_client import LiveVirtualStage

__all__ = ["FlakySocket", "flaky_socket", "stall"]


async def stall(target, seconds: float) -> None:
    """Pause ``target`` (a stage or an aggregator handle) for
    ``seconds``; it resumes even if the stall is cancelled."""
    target.pause()
    try:
        await asyncio.sleep(seconds)
    finally:
        target.resume()


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


def flaky_socket(stage: LiveVirtualStage, fail_after_writes: int) -> None:
    """Make ``stage``'s *current* connection fail after N more replies.

    Wraps the link's write seam; the wrapper lasts until the connection
    dies, and the reconnected session (if the stage retries) uses a
    clean link again.
    """
    link = stage._link
    if link is None:
        raise RuntimeError(f"stage {stage.stage_id} is not connected")
    link.write = FlakySocket(link, fail_after_writes).write
