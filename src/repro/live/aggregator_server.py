"""Live aggregator controller: the hierarchical design over real TCP.

A :class:`LiveAggregator` is a :class:`~repro.live.fan.StageFan` plus an
uplink: simultaneously a server (stages connect to it and register,
exactly as they would to a flat controller) and a client (it registers
upstream with the global controller once its partition is complete).
Everything stage-facing — registration, eviction, the slot order, the
two fan-out / fan-in phases — is the fan's; what is written here is the
trunk. Per control cycle it

1. receives ``agg_collect_req`` from the global controller,
2. fans ``collect_req`` out to its stages and gathers replies,
3. replies upstream with one packed ``agg_metrics_reply`` carrying the
   whole partition's two demand vectors,
4. receives a ``rule_batch`` (two limit vectors), forwards per-stage
   ``rule`` messages, gathers acks, and acknowledges the batch.

This is the same state machine as the simulated
:class:`~repro.core.controller.AggregatorController`, over sockets.

The trunk's vectors name no stage. The aggregator owns its partition's
*order* — which stage each vector slot is — and ships it upstream only
when it changes: the hello carries generation 0, and a membership change
(a stage evicted, adopted, or back on a fresh socket) is announced by one
``partition`` frame (``generation``, ``stage_ids``, ``job_ids``) written
ahead of the next ``agg_metrics_reply``, however many stages came and
went since the last one. Every vector frame carries the generation it is
laid out for; a ``rule_batch`` for an order this aggregator does not
hold forwards nothing and is still acked.

Failure semantics mirror the live global controller: a stage whose
socket dies is evicted (and may re-register); with ``collect_timeout_s``
set, slow stages are left behind at their last-known demand and the
upstream reply reports how many were missing (``n_missing``), so the
global controller's degraded-cycle accounting spans the whole hierarchy.

Re-homing support (paper §VI dependability): the aggregator advertises
its listen address in the upstream hello; the global controller answers
every membership change with a ``topology`` frame listing all live
aggregators, which this aggregator fans out to its stages as ``rehome``
frames (peer addresses rotated per stage, so a dead aggregator's
partition spreads across the survivors instead of dog-piling one). A
stage that registers *after* the upstream link is up is an adoption —
an orphan fleeing a dead peer — and is announced upstream in the next
``partition`` frame so the global controller re-homes its bookkeeping.
With ``expected_stages=0`` the aggregator starts as a hot spare: it
registers upstream immediately with an empty partition and exists only
to adopt orphans. On upstream loss without an explicit ``shutdown``
frame the aggregator *releases* its stages (closes their sockets without
telling them to stop) so they re-home through their reconnect loops.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.live import pump
from repro.live.codec import pack_rows
from repro.live.fan import StageFan
from repro.live.protocol import FrameLink, encode
from repro.live.sessions import SessionClosed, StageSession

__all__ = ["LiveAggregator"]


class LiveAggregator(StageFan):
    """One aggregator: serves a stage partition, reports upstream."""

    def __init__(
        self,
        aggregator_id: str,
        global_host: str,
        global_port: int,
        expected_stages: int,
        host: str = "127.0.0.1",
        port: int = 0,
        collect_timeout_s: Optional[float] = None,
        enforce_timeout_s: Optional[float] = None,
        span_tracer=None,
        usage_meter=None,
        metrics=None,
        session_outbox_bytes: Optional[int] = None,
    ) -> None:
        if expected_stages < 0:
            raise ValueError(f"expected_stages must be >= 0: {expected_stages}")
        # The fan's slot order — the session behind each slot of a trunk
        # vector — goes upstream under its generation whenever it moves;
        # its ledger's two demand arrays are the ``agg_metrics_reply``'s
        # vectors.
        super().__init__(
            expected_stages,
            host,
            port,
            collect_timeout_s,
            enforce_timeout_s,
            span_tracer,
            usage_meter,
            metrics,
            session_outbox_bytes,
            "aggregator",
        )
        self.aggregator_id = aggregator_id
        self.global_host = global_host
        self.global_port = global_port
        self.expected_stages = expected_stages
        #: Live peer aggregators ``(host, port)`` from the last topology
        #: frame, excluding this aggregator — the stages' rehome targets.
        self.peer_addresses: List[Tuple[str, int]] = []
        #: ``rehome`` frames pushed to stages.
        self.rehomes_sent = 0
        self._stop = asyncio.Event()
        self._paused = asyncio.Event()
        self._paused.set()
        #: The upstream link while registered with the global controller.
        self._up: Optional[FrameLink] = None
        # Upstream frames parsed but not yet handled by :meth:`run`, and
        # the future it sleeps on while that queue is empty.
        self._up_frames: Deque[dict] = deque()
        self._up_wake: Optional[asyncio.Future] = None
        self._killed = False

    def _write_up(self, frame: bytes) -> None:
        """Write an upstream frame, charging its bytes to this aggregator."""
        self._up.write(frame)
        if self.meter is not None:
            self.meter.add_tx(len(frame))

    def _send_up(self, message: dict) -> None:
        self._write_up(encode(message))

    def _on_up_frame(self, message, nbytes: int) -> None:
        if self.meter is not None:
            self.meter.add_rx(nbytes)
        if message.__class__ is tuple and message[0] != "rule_batch":
            return  # not a packed kind a controller sends: nothing to serve
        self._up_frames.append(message)
        self._wake_run()

    def _wake_run(self, exc: Optional[Exception] = None) -> None:
        """Resume :meth:`run` (also the upstream link's ``on_lost``)."""
        wake = self._up_wake
        if wake is not None and not wake.done():
            wake.set_result(None)

    async def _next_up(self):
        """The next upstream frame, or ``None`` once the link is lost."""
        while not self._up_frames:
            if self._up.lost:
                return None
            self._up_wake = asyncio.get_running_loop().create_future()
            await self._up_wake
        return self._up_frames.popleft()

    # -- fault-injection hooks (see repro.live.faults) -----------------------
    def kill(self) -> None:
        """Die abruptly: abort every socket, stop listening (process kill).

        The global controller sees EOF and orphans this partition; the
        stages see EOF (then connection-refused on retry) and rotate to
        the alternate aggregators they learnt from ``rehome`` frames.
        """
        self._killed = True
        if self._up is not None:
            self._up.abort()
        super().kill()

    def pause(self) -> None:
        """Stall: stop handling upstream frames; sockets stay open."""
        self._paused.clear()

    def resume(self) -> None:
        """Resume after :meth:`pause`; the backlog is then served."""
        self._paused.set()

    # -- re-homing ------------------------------------------------------------
    def _alternates_for(self, index: int) -> List[List[object]]:
        """Peer addresses rotated by ``index`` (spread re-homed stages)."""
        peers = self.peer_addresses
        if not peers:
            return []
        k = index % len(peers)
        return [[h, p] for h, p in peers[k:] + peers[:k]]

    def _apply_topology(self, aggregators: List[dict]) -> None:
        """Adopt a topology frame: remember peers, re-arm every stage."""
        self.peer_addresses = [
            (a["host"], a["port"])
            for a in aggregators
            # An outside frame: an entry that is not an address is skipped.
            if isinstance(a, dict)
            and isinstance(a.get("host"), str)
            and a.get("port").__class__ is int
            and a.get("aggregator_id") != self.aggregator_id
        ]
        for i, stage_id in enumerate(sorted(self.sessions)):
            session = self.sessions[stage_id]
            try:
                session.post(
                    {"kind": "rehome", "alternates": self._alternates_for(i)}
                )
                self.rehomes_sent += 1
            except SessionClosed:
                self._evict(session)

    # -- lifecycle ----------------------------------------------------------
    def _welcome(self, session: StageSession) -> None:
        # Late joiners get the current alternate list with the ack, so a
        # re-homed orphan is immediately armed against *this* home dying.
        fields = {}
        if self.peer_addresses:
            fields["alternates"] = self._alternates_for(len(self.sessions) - 1)
        super()._welcome(session, **fields)

    async def run(self, stage_timeout_s: float = 30.0) -> None:
        """Register upstream once the partition is complete, then serve."""
        up = FrameLink(self._on_up_frame, self._wake_run)
        try:
            await asyncio.wait_for(
                self._all_registered.wait(), timeout=stage_timeout_s
            )
            await pump.connect(up, self.global_host, self.global_port)
            self._up = up
            self.reorder()  # generation 0
            self._send_up(
                {
                    "kind": "register_aggregator",
                    "aggregator_id": self.aggregator_id,
                    **self.order_ids(),
                    "host": self.host,
                    "port": self.port,
                },
            )
            ack = await self._next_up()
            if ack is None:
                return
            if ack["kind"] != "registered":
                raise RuntimeError(f"unexpected registration reply: {ack}")
            while not self._stop.is_set():
                message = await self._next_up()
                if message is None:
                    break
                await self._paused.wait()
                await self._handle(message)
        finally:
            self._up = None
            self._up_frames.clear()
            # Deliberate shutdown: take the stages down with us. Upstream
            # lost (global death, our kill): *release* them — close their
            # sockets without a shutdown frame so their reconnect loops
            # re-home them to live aggregators.
            if self._server is not None:
                self._server.close()
            self._close_sessions(
                {"kind": "shutdown"} if self._stop.is_set() else None
            )
            self.ledger.relayout(())  # closed with the rest: nothing to keep alive
            up.close()

    async def _handle(self, message) -> None:
        if message.__class__ is tuple:
            await self._distribute(message)
            return
        kind = message["kind"]
        if kind == "agg_collect_req":
            epoch = message.get("epoch")
            if epoch.__class__ is int:  # else: not a frame a controller sends
                await self._collect(epoch)
        elif kind == "topology":
            aggregators = message.get("aggregators")
            self._apply_topology(aggregators if isinstance(aggregators, list) else [])
        elif kind == "shutdown":
            self._stop.set()

    # -- cycle halves ---------------------------------------------------------
    async def _collect(self, epoch: int) -> None:
        started = self.tracer.now()
        if self.metrics is not None:
            self._m_cycles.inc()
        # The one point the order moves: whatever came and went since the
        # last collect costs one ``partition`` frame, written ahead of the
        # reply laid out for it (TCP keeps them in that order).
        if self.order_stale:
            self.reorder()
            self._send_up(
                {
                    "kind": "partition",
                    "aggregator_id": self.aggregator_id,
                    "generation": self.ledger.generation,
                    **self.order_ids(),
                }
            )
        absent, _ = await self.collect(epoch, self.collect_timeout_s)
        # Report the full partition upstream — absent stages ride at their
        # last-known demand and are counted so the global controller's
        # degraded-cycle accounting sees through the aggregation.
        with self._cpu():
            self._write_up(
                pack_rows(
                    "agg_metrics_reply", epoch, self.ledger.generation,
                    self.ledger.data, self.ledger.meta, n_missing=len(absent),
                )
            )
        if self.tracer.enabled:
            self.tracer.emit(
                "collect", started, self.tracer.now() - started,
                parent="cycle", epoch=epoch, n_missing=len(absent),
            )

    async def _distribute(self, batch: tuple) -> None:
        _, epoch, generation, _, limits, meta_limits = batch
        started = self.tracer.now()
        n_rules = 0
        # An outside frame: vectors laid out for an order this aggregator
        # does not hold name nobody — nothing to forward, still acked.
        if generation == self.ledger.generation and len(limits) == len(self.ledger):
            _, _, n_rules = await self.distribute(
                epoch, limits, meta_limits, self.enforce_timeout_s
            )
        with self._cpu():
            self._send_up(
                {
                    "kind": "batch_ack",
                    "epoch": epoch,
                    "aggregator_id": self.aggregator_id,
                },
            )
        if self.tracer.enabled:
            self.tracer.emit(
                "enforce", started, self.tracer.now() - started,
                parent="cycle", epoch=epoch, n_rules=n_rules,
            )
