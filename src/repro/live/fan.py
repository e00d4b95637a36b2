"""The stage-facing half of a live control cycle.

Whoever talks to stages — the flat controller directly, an aggregator on
behalf of the hierarchical one (the aggregator layer of the paper's
Fig. 6) — is a :class:`StageFan`: the flat
:class:`~repro.live.controller_server.LiveGlobalController` is a fan plus
the compute phase, a :class:`~repro.live.aggregator_server.LiveAggregator`
a fan plus an uplink. It is the only class in :mod:`repro.live` that
accepts a ``register`` hello.

On top of :class:`~repro.live.sessions.SessionHost` (listener,
registration, eviction) the fan keeps a
:class:`~repro.core.slots.SlotLedger` — the DES controllers keep the
same one — whose children are its sessions: which session sits in which
slot of the per-slot demand arrays, and what was last shipped to each.
The order is id-sorted and moves only in :meth:`StageFan.reorder`, which
the owner calls at the one point of its cycle where it may (just ahead
of a collect, when ``order_stale``); a session evicted since keeps its
slot, dead and at last-known demand, until then, and a session that
registers under a departed one's id is a new child with nothing shipped
to it. Per cycle, :meth:`StageFan.collect` fans ``collect_req`` out and
lands every reply in its slot, and :meth:`StageFan.distribute` turns
one limit per slot into ``rule`` frames and gathers the acks. Both
report which sessions produced nothing — partial collect / enforce,
paper §VI dependability — and never raise for a dead or silent stage.
A stage absent from an epoch's collect is still written that epoch's
rule, but its ack is not waited for: one silent stage costs a cycle one
deadline, not one per phase.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.slots import SlotLedger
from repro.live.protocol import FrameLink, hello_error
from repro.live.sessions import (
    SessionClosed,
    SessionHost,
    StageSession,
    collect_request,
    phase_deadline_s,
)

__all__ = ["StageFan"]

_INF = float("inf")


class StageFan(SessionHost):
    """Stage sessions, their slot order and the two per-cycle phases."""

    _register_kind = "register"

    def __init__(self, expected_stages: int, *host_config) -> None:
        super().__init__(expected_stages, *host_config)
        #: The slots: one session each, their last-known demand (replies
        #: land in ``ledger.data`` / ``ledger.meta``) and shipped record.
        self.ledger = SlotLedger()
        self._ordered_at = self.membership
        #: ``(epoch, sessions absent from that epoch's collect)``.
        self._missed: Tuple[int, frozenset] = (-1, frozenset())

    # -- registration ---------------------------------------------------------
    def _hello_error(self, hello: dict) -> Optional[str]:
        error = hello_error(hello, ids=("stage_id", "job_id"))
        if error is None and hello["stage_id"] in self.sessions:
            error = f"stage_id already registered: {hello['stage_id']}"
        return error

    def _make_session(self, hello: dict, link: FrameLink) -> StageSession:
        # A re-registering stage gets a fresh session — and, at the next
        # reorder, a slot nothing was ever shipped to.
        return StageSession(hello["stage_id"], hello["job_id"], link, meter=self.meter)

    def _derived_deadline_s(self) -> float:
        """The rule over the slots: the stages the fan's phases cover."""
        return phase_deadline_s(len(self.ledger))

    @property
    def order_stale(self) -> bool:
        """Membership changed since the order was laid out."""
        return self._ordered_at != self.membership

    # -- the order ------------------------------------------------------------
    def reorder(self) -> None:
        """Lay the live sessions out in id order under the ledger's next
        generation (the first is 0); each one's slot state moves with it."""
        order = [self.sessions[s] for s in sorted(self.sessions)]
        self.ledger.relayout([(s, (s.stage_id,)) for s in order])
        for slot, session in enumerate(order):
            session.row = slot
        self._ordered_at = self.membership

    def order_ids(self) -> Dict[str, List[str]]:
        """The order's ids, the way a hello or ``partition`` frame spells them."""
        return {
            "stage_ids": list(self.ledger.ids),
            "job_ids": [s.job_id for s in self.ledger.children],
        }

    def _seated(self, session: StageSession) -> bool:
        """Whether ``session`` is still the one registered under its id
        (an evicted one keeps its slot until the next reorder)."""
        return self.sessions.get(session.stage_id) is session

    # -- cycle halves ---------------------------------------------------------
    async def collect(
        self, epoch: int, timeout_s: float
    ) -> Tuple[List[StageSession], bool]:
        """Ask every slot's stage for its demand; replies land in
        the ledger's ``data`` / ``meta``. Returns ``(absent, timed_out)``
        — an absent stage's slot keeps its last-known demand, and
        :meth:`distribute` at ``epoch`` does not wait for its ack."""
        data, meta = self.ledger.data, self.ledger.meta

        def on_reply(s: StageSession, reply: tuple) -> None:
            row = s.row
            data[row] = reply[2]
            meta[row] = reply[3]

        absent, timed_out = await self._phase(
            self.ledger.children, collect_request(epoch),
            "metrics_reply", epoch, on_reply, timeout_s, span="collect",
        )
        self._missed = (epoch, frozenset(absent))
        return absent, timed_out

    async def distribute(
        self,
        epoch: int,
        limits: np.ndarray,
        meta_limits: Optional[np.ndarray],
        timeout_s: float,
    ) -> Tuple[List[StageSession], bool, int]:
        """Ship slot ``i``'s stage the rule ``limits[i]`` (and
        ``meta_limits[i]``); returns ``(absent, timed_out, rules sent)``.

        A slot that is not a finite, non-negative limit on every axis it
        carries — ``NaN`` is how a caller says "no rule for this slot" —
        or whose session is gone gets no frame and is not waited for.
        Rules are written through: the next epoch supersedes one a
        stalled stage never reads, and its missing ack resolves through
        the deadline. A stage absent from this epoch's collect is written
        its rule — it learns its limit if it comes back — but is absent
        here too without being waited for.
        """
        missed_epoch, missed = self._missed
        if missed_epoch != epoch:
            missed = ()
        targets: List[StageSession] = []
        unawaited: List[StageSession] = []
        for session, limit, meta in zip(
            self.ledger.children,
            limits.tolist(),
            repeat(None) if meta_limits is None else meta_limits.tolist(),
        ):
            if (
                0.0 <= limit < _INF
                and (meta is None or 0.0 <= meta < _INF)
                and session.connected
            ):
                session.rule = (epoch, limit, meta)
                (unawaited if session in missed else targets).append(session)
        for session in unawaited:
            try:
                session.send_rule()
            except SessionClosed:
                self._evict(session)
        absent, timed_out = await self._phase(
            targets, StageSession.send_rule,
            "rule_ack", epoch, None, timeout_s, span="enforce",
        )
        return unawaited + absent, timed_out, len(unawaited) + len(targets)
