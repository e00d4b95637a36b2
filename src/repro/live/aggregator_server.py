"""Live aggregator controller: the hierarchical design over real TCP.

A :class:`LiveAggregator` is a :class:`~repro.live.fan.StageFan` plus an
uplink: a server (stages register with it exactly as with a flat
controller) and a client (once its partition is complete it registers
with the global controller through the stages' own dial loop). The fan
does everything stage-facing; what is written here is the trunk. Per
control cycle it

1. receives ``agg_collect_req`` from the global controller,
2. fans ``collect_req`` out to its stages and gathers replies,
3. replies upstream with one packed ``agg_metrics_reply`` carrying the
   whole partition's two demand vectors,
4. receives a ``rule_batch`` (two limit vectors), forwards per-stage
   ``rule`` messages, gathers acks, and acknowledges the batch —

the simulated :class:`~repro.core.controller.AggregatorController`'s
state machine, over sockets.

The trunk's vectors name no stage. The aggregator owns its partition's
*order* — which stage each vector slot is — and ships it upstream only
when it changes: the hello carries the order and its generation (0 on a
first join), and a membership change (a stage evicted, adopted, or back
on a fresh socket) is announced by one ``partition`` frame
(``generation``, ``stage_ids``, ``job_ids``) written ahead of the next
``agg_metrics_reply``. Every vector frame carries the generation it is
laid out for; a ``rule_batch`` for an order this aggregator does not
hold forwards nothing and is still acked.

Failure semantics mirror the live global controller: a stage whose
socket dies is evicted (and may re-register); past the phase deadline
(configured, else the partition's, which a global controller deriving
its own waits out on top of the tree's) slow stages are left at their
last-known demand and the reply reports how many were missing
(``n_missing``), so degraded-cycle accounting spans the tree.

Re-homing (paper §VI dependability): the aggregator advertises its
listen address in its hello; the global controller answers every
membership change with a ``topology`` frame listing all live
aggregators, which this aggregator fans out to its stages as ``rehome``
frames (peers rotated per stage, so a dead aggregator's partition
spreads across the survivors). A stage that registers once the trunk is
up is an adoption, announced in the next ``partition`` frame. With
``expected_stages=0`` the aggregator is a hot spare: it registers at
once with an empty partition and exists only to adopt orphans.

An aggregator rejoins the way a stage does: one whose trunk is lost keeps
its listener and stage sessions, re-dials with the stages' backoff
(:class:`~repro.live.stage_client._Dialer`) and re-registers under its id
with the stages still connected. A ``shutdown`` frame or ``stop()`` ends
it and its stages; ``kill()`` ends it for good.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import List, Optional, Tuple

from repro.live.codec import pack_rows
from repro.live.fan import StageFan
from repro.live.protocol import encode
from repro.live.sessions import SessionClosed, StageSession
from repro.live.stage_client import _Dialer

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
        #: Live peer aggregators ``(host, port)`` from the last topology
        #: frame, excluding this aggregator — the stages' rehome targets.
        self.peer_addresses: List[Tuple[str, int]] = []
        #: ``rehome`` frames pushed to stages.
        self.rehomes_sent = 0
        self._paused = asyncio.Event()
        self._paused.set()
        #: The uplink to the global controller: a dial loop like a stage's.
        self._trunk = _Trunk(self, global_host, global_port)
        self._killed = False

    def _write_up(self, frame: bytes) -> None:
        """Write an upstream frame, charging its bytes to this aggregator."""
        self._trunk._link.write(frame)
        if self.meter is not None:
            self.meter.add_tx(len(frame))

    def _send_up(self, message: dict) -> None:
        self._write_up(encode(message))

    # -- fault-injection hooks (see repro.live.faults) -----------------------
    def kill(self) -> None:
        """Die abruptly: abort every socket, stop listening (process kill).

        The global controller sees EOF and orphans this partition; the
        stages see EOF (then connection-refused on retry) and rotate to
        the alternate aggregators they learnt from ``rehome`` frames. A
        killed aggregator stays down: its trunk is never re-dialled.
        """
        self._killed = True
        self._trunk.kill()
        self.stop()
        super().kill()

    def stop(self) -> None:
        """End the trunk's dial loop, connected or not; :meth:`run` then
        tells the stages to stop, as on a ``shutdown`` frame."""
        self._trunk.stop()

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

    async def run(self) -> None:
        """Register upstream once the partition is complete, then serve
        the trunk — re-dialling it whenever it is lost — until a
        ``shutdown`` frame, :meth:`stop` or :meth:`kill`."""
        events = (self._all_registered, self._trunk._stop)
        waits = [asyncio.ensure_future(event.wait()) for event in events]
        try:
            await asyncio.wait(waits, return_when=asyncio.FIRST_COMPLETED)
            await self._trunk.run()  # at once over if stopped meanwhile
        finally:
            for wait in waits:
                wait.cancel()
            # Shut down: take the stages down with us. Killed: every
            # socket is already aborted.
            if self._server is not None:
                self._server.close()
            self._close_sessions(None if self._killed else {"kind": "shutdown"})
            self.ledger.relayout(())  # closed with the rest: nothing to keep alive

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
            self.stop()

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
        absent, _ = await self.collect(epoch, self._deadlines()[0])
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
                epoch, limits, meta_limits, self._deadlines()[1]
            )
        with self._cpu():
            self._send_up(
                {"kind": "batch_ack", "epoch": epoch, "aggregator_id": self.aggregator_id}
            )
        if self.tracer.enabled:
            self.tracer.emit(
                "enforce", started, self.tracer.now() - started,
                parent="cycle", epoch=epoch, n_rules=n_rules,
            )


class _Trunk(_Dialer):
    """An aggregator's uplink: the stages' dial loop, whose hello is the
    partition and whose sessions serve the controller's frames one at a
    time, in order (a collect or an enforce waits on stages)."""

    def __init__(self, agg: LiveAggregator, host: str, port: int) -> None:
        super().__init__(host, port)
        self._agg = agg
        #: This session's frames, then ``None`` once it has ended.
        self._frames: asyncio.Queue = asyncio.Queue()

    def _hello(self) -> dict:
        """The aggregator, its address and its order, laid out afresh
        without the dead — a dead stage listed on a re-join could take it
        back from a home that already announced it."""
        agg = self._agg
        for session in [s for s in agg.sessions.values() if not s.connected]:
            agg._evict(session)
        agg.reorder()
        return {
            "kind": "register_aggregator",
            "aggregator_id": agg.aggregator_id,
            "generation": agg.ledger.generation,
            **agg.order_ids(),
            "host": agg.host,
            "port": agg.port,
        }

    def _on_frame(self, message, nbytes: int) -> None:
        meter = self._agg.meter
        if meter is not None:
            meter.add_rx(nbytes)
        if not self._registered:
            self._on_ack(message)
        elif message.__class__ is not tuple or message[0] == "rule_batch":
            self._frames.put_nowait(message)
        # else: not a packed kind a controller sends, nothing to serve

    def _end_session(self, exc: Optional[Exception] = None) -> None:
        super()._end_session(exc)
        self._frames.put_nowait(None)

    async def _serve(self) -> None:
        frames = self._frames = asyncio.Queue()
        agg = self._agg
        while (message := await frames.get()) is not None:
            await agg._paused.wait()
            if self._ended.done():
                return  # lost while paused: the backlog answers nobody
            with contextlib.suppress(ConnectionError):
                await agg._handle(message)
