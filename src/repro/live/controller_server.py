"""Live global controller: an asyncio TCP server running control cycles.

The simulated :class:`~repro.core.controller.GlobalController`'s
collect → compute → enforce loop, timed with the wall clock, on the
*same* compute half (:class:`~repro.core.compute.GlobalCompute`): both
live controllers run one cycle, ``_LiveControllerBase._cycle``, and
differ only in who talks to the stages — its ``_membership`` /
``_collect`` / ``_enforce`` steps. The flat controller does: it is a
:class:`~repro.live.fan.StageFan`, its one local partition. The
hierarchical one talks to aggregators, each a fan of its own behind a
trunk. Either way every partition's demand is scattered into the columns
through its aligned rows, the compute runs once, and every partition's
rules are gathered back out through the same rows.

Failure semantics match the simulated plane (paper §VI dependability):

* Every reply-gathering phase has a deadline — ``collect_timeout_s`` /
  ``enforce_timeout_s``, else :func:`~repro.live.sessions.phase_deadline_s`
  of the stages it covers — so a silent child costs a deadline, never
  the loop. A cycle that misses replies proceeds on partial metrics
  (absent stages at their last-known demand) and records the damage in
  :class:`~repro.core.cycle.ControlCycle`'s ``n_missing`` / ``timed_out``.
* A session whose socket dies (EOF, reset) is *evicted* at once.
* Evicted ids become free again, so a restarted stage — or an aggregator
  whose trunk was cut — re-registers through its dial loop and is
  picked up by the next cycle.

Observability (``repro.obs``): pass ``span_tracer`` to record every
cycle as a ``cycle`` span with ``collect``/``compute``/``enforce``
children plus per-session RPC spans; pass ``usage_meter`` to charge
framed bytes and synchronous CPU sections to this controller's Tables
II–IV row; pass ``metrics`` (a registry) for Prometheus counters and
latency histograms.

The flat controller runs in a process of its own, as the paper's sits
alone on its node (Table II): :class:`LiveGlobalController` forks a
:mod:`repro.live.tier` child that runs an
:class:`InProcessGlobalController`, the class a caller builds directly
when it needs the controller in its own process (the hot-standby pair).
"""

from __future__ import annotations

import asyncio
import base64
import inspect
import time
from array import array
from collections.abc import Mapping
from dataclasses import astuple
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.algorithms.base import ControlAlgorithm
from repro.core.compute import GlobalCompute
from repro.core.cycle import ControlCycle
from repro.core.failover import StandbyRule
from repro.core.policies import QoSPolicy
from repro.core.slots import SlotLedger
from repro.live.codec import pack_rows
from repro.live.fan import StageFan
from repro.live.protocol import FrameLink, hello_error
from repro.live.sessions import (
    Session,
    SessionClosed,
    SessionHost,
    StageSession,
    phase_deadline_s,
)
from repro.live.tier import CALL_TIMEOUT_S, SessionCounters, Tier, TierMember

__all__ = ["InProcessGlobalController", "LiveGlobalController", "LiveHierGlobalController"]

#: Consecutive collect epochs an aggregator may miss before it is
#: declared dead (its trunk cut, its stages orphaned until it re-joins).
_DEAD_AFTER_MISSED = 2


class _LiveControllerBase(SessionHost, GlobalCompute):
    """What both designs share on top of hosting sessions: the compute
    half, the one cycle and the standby's heartbeat intake. A design
    brings the cycle's transport steps: ``_membership`` (before the epoch
    moves), ``_collect`` and ``_enforce``."""

    #: Role label used on metric series ("global" | "hier-global").
    _role = "global"
    #: Whether ``last_allocations`` (and ``n_stages``) list reserved rows.
    _lists_reserved = False

    def __init__(
        self, expected: int, policy: QoSPolicy,
        algorithm: Optional[ControlAlgorithm], enforce_changed_only: bool,
        rule_change_tolerance: float, initial_epoch: int, degradation,
        demand_clamp, *host_config,
    ) -> None:
        """``host_config`` is the session host's, up to its role. A
        controller booted from a durable store starts above its last
        durable epoch, so stage-side fencing discards pre-crash rules."""
        GlobalCompute.__init__(
            self, policy, algorithm, alpha=1.0,
            enforce_changed_only=enforce_changed_only,
            rule_change_tolerance=rule_change_tolerance,
            initial_epoch=initial_epoch, demand_clamp=demand_clamp,
        )
        super().__init__(expected, *host_config, self._role)
        metrics = self.metrics
        #: Optional :class:`repro.guard.DegradationLadder` — fed each
        #: cycle's degraded flag; its multipliers tighten the collect
        #: deadline and (at the top rung) force changed-only enforcement.
        #: Share ONE instance across controller generations (restarts) so
        #: the ladder's streaks survive the processes it protects.
        self.degradation = degradation
        # (stage ids, data limits) of the newest compute phase, in step.
        self._last_grants: tuple = ((), ())
        #: Standby side (see repro.live.failover): the takeover rule a
        #: primary's heartbeat stream feeds; ``None`` shows beats out.
        self.watch: Optional[StandbyRule] = None
        if metrics is not None:
            role = self._role
            self._m_degraded = metrics.counter(
                "repro_degraded_cycles_total",
                "cycles run on partial metrics or past a deadline",
                role=role,
            )
            self._m_missing = metrics.counter(
                "repro_missing_replies_total",
                "child replies missing across cycles",
                role=role,
            )
            self._m_sessions = metrics.gauge(
                "repro_sessions", "currently registered children", role=role
            )
            self._m_cycle_seconds = metrics.histogram(
                "repro_cycle_seconds", "end-to-end control cycle latency", role=role
            )
            self._m_phase_seconds = {
                phase: metrics.histogram(
                    "repro_phase_seconds",
                    "per-phase control cycle latency",
                    role=role,
                    phase=phase,
                )
                for phase in ("collect", "compute", "enforce")
            }
            self._m_outbox_shed = metrics.gauge(
                "repro_outbox_frames_shed",
                "frames shed from bounded session outboxes (cumulative)",
                role=role,
            )
            self._m_outbox_pending = metrics.gauge(
                "repro_outbox_pending_bytes",
                "bytes currently buffered across session outboxes",
                role=role,
            )
            self._m_degradation_level = metrics.gauge(
                "repro_degradation_level",
                "graceful-degradation ladder rung (0 = normal)",
                role=role,
            )
            self._m_demand_clamped = metrics.gauge(
                "repro_demand_clamped_iops",
                "reported demand trimmed by the trust clamp (cumulative)",
                role=role,
            )
            self._m_suppressed = metrics.counter(
                "repro_rules_suppressed_total",
                "unchanged rules withheld by changed-only enforcement",
                role=role,
            )

    def _record_cycle(self, cycle: ControlCycle) -> None:
        """Append the record and emit its spans/metrics (obs enabled)."""
        self.cycles.append(cycle)
        if self.tracer.enabled:
            cycle.emit_spans(
                self.tracer, n_missing=cycle.n_missing, timed_out=cycle.timed_out
            )
        if self.degradation is not None:
            self.degradation.observe(cycle.degraded)
        if self.metrics is not None:
            self._m_cycles.inc()
            if cycle.degraded:
                self._m_degraded.inc()
            if cycle.n_missing:
                self._m_missing.inc(cycle.n_missing)
            self._m_sessions.set(len(self.sessions))
            self._m_cycle_seconds.observe(cycle.total_s)
            for phase in ("collect", "compute", "enforce"):
                self._m_phase_seconds[phase].observe(cycle.phase(phase))
            self._m_outbox_shed.set(self.outbox_frames_shed)
            self._m_outbox_pending.set(
                sum(s.outbox.pending_bytes for s in self.sessions.values())
            )
            if self.degradation is not None:
                self._m_degradation_level.set(self.degradation.level)
            if self.demand_clamp is not None:
                self._m_demand_clamped.set(self.demand_clamp.clamped_iops_total)

    @property
    def last_allocations(self) -> Dict[str, float]:
        """Last computed data allocation per stage id (chaos invariant
        probe); built on demand so the cycle itself pays nothing for it."""
        return dict(zip(*self._last_grants))

    def _suppressed(self, withheld: int) -> None:
        super()._suppressed(withheld)
        if self.metrics is not None:
            self._m_suppressed.inc(withheld)

    # -- the control loop -----------------------------------------------------
    async def run_cycles(self, n_cycles: int) -> List[ControlCycle]:
        """Run ``n_cycles`` back-to-back cycles; returns their records."""
        if n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1: {n_cycles}")
        for _ in range(n_cycles):
            await self._cycle()
        return self.cycles

    async def _cycle(self) -> None:
        self._membership()
        epoch = self.begin_cycle()
        started = time.perf_counter()

        # ---- collect (partial on deadline, dead children evicted; the
        # degradation ladder tightens the deadline) ----
        ladder = self.degradation
        timeout, enforce_timeout = self._deadlines()
        if ladder is not None:
            timeout *= ladder.collect_timeout_multiplier
        missing, timed_out = await self._collect(epoch, timeout)
        t_collect = time.perf_counter() - started

        # ---- compute (a reserved row — a stage out of the tree still
        # enforcing its last rule — keeps its share, so the others are
        # never over-allocated) ----
        compute_started = time.perf_counter()
        with self._cpu():
            limits, differentiated, grant = self.allocate()
            stage_ids = self.columns.active_ids()
            if self._lists_reserved:
                stage_ids += tuple(self.columns.reserved)
            self._last_grants = (stage_ids, limits.tolist())
        t_compute = time.perf_counter() - compute_started

        # ---- enforce (the ladder's top rung forces changed-only) ----
        enforce_started = time.perf_counter()
        forced = ladder is not None and ladder.force_changed_only
        n_missing, phase_timed_out = await self._enforce(
            epoch, grant, differentiated, forced, missing, enforce_timeout
        )
        t_enforce = time.perf_counter() - enforce_started

        self._record_cycle(
            ControlCycle(
                epoch=epoch,
                started_at=started,
                collect_s=t_collect,
                compute_s=t_compute,
                enforce_s=t_enforce,
                n_stages=len(stage_ids),
                n_missing=n_missing,
                timed_out=timed_out or phase_timed_out,
            )
        )

    @property
    def stale_messages(self) -> int:
        """Frames dropped as stale across all live sessions."""
        return sum(s.stale_messages for s in self.sessions.values())

    # -- standby-side heartbeat intake --------------------------------------
    def _on_other_hello(self, link: FrameLink, hello: dict) -> None:
        """A hello that registers nobody: a primary's heartbeat stream,
        fed to this standby's rule, or a stranger, who is shown out."""
        watch = self.watch
        if hello.get("kind") != "heartbeat" or watch is None:
            link.close()
            return
        link.on_frame = self._on_heartbeat
        link.on_lost = lambda exc: watch.lost(time.perf_counter())
        self._on_heartbeat(hello, 0)

    def _on_heartbeat(self, message, nbytes: int) -> None:
        """One frame of a primary's heartbeat stream (this side is standby)."""
        if message.__class__ is not dict or message["kind"] != "heartbeat":
            return
        epoch = message.get("epoch", 0)
        if isinstance(epoch, int):  # else not a beat a primary sends: no credit
            self.watch.beat(time.perf_counter(), epoch)

    @property
    def orphans(self) -> Dict[str, str]:
        """Stages out of the tree holding a reserved row (at last-known
        demand, through the clamp), id -> job id: a dead aggregator's
        partition until re-homed, an evicted flat stage in its grace."""
        job_of = self.columns.job_of
        return {stage_id: job_of(stage_id) for stage_id in self.columns.reserved}


class InProcessGlobalController(_LiveControllerBase, StageFan):
    """Flat-design controller over real TCP connections, in the caller's
    process: a :class:`~repro.live.fan.StageFan` (its one, local
    partition) plus the compute phase. :class:`LiveGlobalController` runs
    one in a child process of its own.

    Usage::

        ctrl = InProcessGlobalController(policy, expected_stages=50)
        await ctrl.start()                 # begins listening; port assigned
        ... stages connect ...
        await ctrl.wait_for_stages()
        cycles = await ctrl.run_cycles(20)
        await ctrl.shutdown()

    ``collect_timeout_s`` / ``enforce_timeout_s`` bound the collect and
    enforce phases (``enforce_timeout_s`` defaults to the collect value);
    left out, each cycle derives both from its stage count.

    ``evicted_grace_cycles`` keeps an evicted stage's share *reserved*
    (its last demand still participates in PSFA, no rule shipped) for
    that many cycles: a killed-but-restarting stage keeps enforcing its
    last rule, so redistributing its share immediately would oversubscribe
    the PFS until it re-registers. 0 (default) redistributes immediately,
    the seed behaviour.

    ``n_missing`` counts *stages*: those absent in collect, those whose
    report the columns refused, and those absent in enforce, each once.
    """

    def __init__(
        self,
        policy: QoSPolicy,
        expected_stages: int,
        algorithm: Optional[ControlAlgorithm] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        collect_timeout_s: Optional[float] = None,
        enforce_timeout_s: Optional[float] = None,
        evicted_grace_cycles: int = 0,
        enforce_changed_only: bool = False,
        rule_change_tolerance: float = 0.0,
        initial_epoch: int = 0,
        span_tracer=None,
        usage_meter=None,
        metrics=None,
        degradation=None,
        demand_clamp=None,
        session_outbox_bytes: Optional[int] = None,
    ) -> None:
        if expected_stages < 1:
            raise ValueError(f"expected_stages must be >= 1: {expected_stages}")
        if evicted_grace_cycles < 0:
            raise ValueError(
                f"evicted_grace_cycles must be >= 0: {evicted_grace_cycles}"
            )
        super().__init__(
            expected_stages, policy, algorithm, enforce_changed_only,
            rule_change_tolerance, initial_epoch, degradation, demand_clamp,
            host, port, collect_timeout_s, enforce_timeout_s, span_tracer,
            usage_meter, metrics, session_outbox_bytes,
        )
        self.expected_stages = expected_stages
        self.evicted_grace_cycles = evicted_grace_cycles

    async def wait_for_stages(self, timeout_s: float = 30.0) -> None:
        """Block until every expected stage has registered."""
        await asyncio.wait_for(self._all_registered.wait(), timeout=timeout_s)

    def _welcome(self, session: StageSession) -> None:
        super()._welcome(session)
        # Always a new tail row — the position the session just took in
        # the (insertion-ordered) session dict.
        self.register_row(session.stage_id, session.job_id)

    def _on_evicted(self, session: StageSession) -> None:
        if self.evicted_grace_cycles > 0:
            self.columns.reserve(
                session.stage_id, self.epoch + self.evicted_grace_cycles
            )
        else:
            self.columns.evict(session.stage_id)

    # -- the cycle's transport steps --------------------------------------------
    def _membership(self) -> None:
        if self.order_stale:
            self.reorder()

    async def _collect(self, epoch: int, timeout_s: float) -> Tuple[Set[int], bool]:
        """Collect into the slots, then one scatter through the aligned
        rows. Returns the slots without fresh metrics (absent, or their
        report refused: they ride at last-known demand) and whether the
        phase timed out."""
        absent, timed_out = await self.collect(epoch, timeout_s)
        missing = {s.row for s in absent}
        ledger = self.ledger
        with self._cpu():
            _, refused = ledger.observe(
                self.columns, ledger.aligned_rows(self.columns, self._seated)
            )
            missing.update(refused.tolist())
        return missing, timed_out

    async def _enforce(
        self, epoch: int, grant: np.ndarray, differentiated: bool,
        forced: bool, missing: Set[int], timeout_s: float,
    ) -> Tuple[int, bool]:
        """Rules to the slots (a withheld one: no frame, the stage keeps
        its cached rule). ``n_missing`` counts a slot missing in collect
        or without an ack once."""
        ledger = self.ledger
        with self._cpu():
            batch, ship, _ = self.partition_batch(
                grant, ledger, ledger.aligned_rows(self.columns, self._seated),
                forced,
            )
        absent, timed_out, _ = await self.distribute(
            epoch, batch[0], batch[1] if differentiated else None, timeout_s
        )
        ledger.record(ship, batch, epoch)
        missing.update(s.row for s in absent)
        return len(missing), timed_out


class _TierController(TierMember, InProcessGlobalController):
    """The flat controller as its tier runs it."""

    #: The stage ids of the last grants answered, and their generation.
    _ids: tuple = ()
    _ids_gen = 0

    def __init__(self, tier, *args, **kwargs) -> None:
        super().__init__(tier, *args, **kwargs)
        self._stopped = asyncio.Event()
        self._cycling = asyncio.Lock()  # a call its caller gave up on runs out first

    async def run(self) -> None:
        await self._stopped.wait()
        await self.shutdown()

    def stop(self) -> None:
        """Have :meth:`run` shut the controller down and return."""
        self._stopped.set()

    async def cycles_reply(self, n_cycles: int, ids_gen: int) -> dict:
        """Run ``n_cycles``; answer with their records, the counters and the
        grants: limits as one packed vector, and the stage ids they go
        to whenever the caller's (generation ``ids_gen``) are not these."""
        async with self._cycling:
            first = len(self.cycles)
            await self.run_cycles(n_cycles)
        ids, limits = self._last_grants
        reply = {
            "cycles": [astuple(c) for c in self.cycles[first:]],
            "limits": base64.b64encode(array("d", limits).tobytes()).decode("ascii"),
            "counts": [
                self.evictions, self.outbox_frames_shed,
                self.rules_suppressed, self.stale_messages,
            ],
        }
        if ids != self._ids:
            self._ids, self._ids_gen = ids, self._ids_gen + 1
        if ids_gen != self._ids_gen:
            reply["ids"], reply["ids_gen"] = ids, self._ids_gen
        return reply


class _TierSessions(Mapping):
    """The forked controller's stage sessions: ``len()`` is the count the
    tier pushes (no call), the counters come from one call on first use."""

    def __init__(self, tier: Optional[Tier]) -> None:
        self._tier = tier
        self._read: Optional[Dict[str, SessionCounters]] = None

    def _rows(self) -> Dict[str, SessionCounters]:
        if self._read is None:
            reply = self._tier.call("stats") if self._tier is not None else None
            rows = reply["stats"]["sessions"] if reply is not None else {}
            self._read = {peer: SessionCounters(*row) for peer, row in rows.items()}
        return self._read

    def __len__(self) -> int:
        return self._tier.registered if self._tier is not None else 0

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows())

    def __getitem__(self, stage_id: str) -> SessionCounters:
        return self._rows()[stage_id]


class LiveGlobalController:
    """The flat controller as a process of its own: built and used as
    :class:`InProcessGlobalController` is, but :meth:`start` forks a
    :mod:`repro.live.tier` child that runs one, on its own loop and core.
    Cycle records, counters and metrics come with each ``run_cycles``
    answer; spans and usage (CPU and memory from the child's ``/proc``)
    when the child exits."""

    def __init__(self, *args, **kwargs) -> None:
        arguments = self._arguments = (
            inspect.signature(InProcessGlobalController).bind(*args, **kwargs).arguments
        )
        # The arguments are checked in three constructors (compute,
        # session host, controller): building one here — without the
        # observability and clamp the child's attaches, so it registers
        # nothing — refuses what the child's would, and keeps its settings.
        probe = InProcessGlobalController(**dict(
            arguments, span_tracer=None, usage_meter=None, metrics=None, demand_clamp=None
        ))
        self.host = probe.host
        self.port = probe.port
        self.expected_stages = probe.expected_stages
        self._timeouts = (probe.collect_timeout_s, probe.enforce_timeout_s)
        tracer = arguments.get("span_tracer")
        if tracer is not None and not tracer.enabled:
            tracer = None
        self._track = tracer.track if tracer is not None else None
        meter = arguments.get("usage_meter")
        self._obs = SimpleNamespace(
            tracer=tracer, usage=meter and meter.session, registry=arguments.get("metrics")
        )
        self._meter = meter.name if self._obs.usage is not None else None
        self._tier: Optional[Tier] = None
        #: Every cycle's record, as the child shipped it.
        self.cycles: List[ControlCycle] = []
        self.evictions = 0
        self.outbox_frames_shed = 0
        self.rules_suppressed = 0
        self.stale_messages = 0
        self._ids: tuple = ()
        self._ids_gen = 0
        self._limits = array("d")

    @property
    def pid(self) -> Optional[int]:
        """The child's pid while it runs."""
        return self._tier.pid if self._tier is not None else None

    async def start(self) -> None:
        """Fork the controller; return once it listens (``host`` / ``port``)."""
        if self._tier is not None:
            raise RuntimeError("already started")
        arguments, track, meter = self._arguments, self._track, self._meter

        async def build(tier) -> List[_TierController]:
            ctrl = _TierController(tier, **dict(
                arguments, span_tracer=tier.tracer_for(track),
                usage_meter=tier.meter_for(meter), metrics=tier.registry,
            ))
            await ctrl.start()
            return [ctrl]

        tier = Tier(self._obs)
        [(self.host, self.port)] = await tier.fork([meter] if meter else [], build)
        self._tier = tier

    async def wait_for_stages(self, timeout_s: float = 30.0) -> None:
        """Block until every expected stage has registered."""
        if self._tier is None:
            raise RuntimeError("start() first")
        await self._tier.wait_members(self.expected_stages, timeout_s)

    @property
    def sessions(self) -> _TierSessions:
        """Registered stage id -> that session's counters."""
        return _TierSessions(self._tier)

    async def run_cycles(self, n_cycles: int) -> List[ControlCycle]:
        """Run ``n_cycles`` back-to-back cycles in the child; returns every
        record so far. Raises ``RuntimeError`` if the child is gone."""
        if n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1: {n_cycles}")
        if self._tier is None:
            raise RuntimeError("start() first")
        # The most the cycles may take: each phase waits at most its
        # deadline twice (paused sends, then replies).
        derived = phase_deadline_s(max(self.expected_stages, self._tier.registered))
        phase_s = max(t or derived for t in self._timeouts)
        reply = await self._tier.acall(
            "run_cycles", CALL_TIMEOUT_S + 4 * n_cycles * phase_s,
            n=n_cycles, ids_gen=self._ids_gen,
        )
        self.cycles.extend(ControlCycle(*row) for row in reply["cycles"])
        if "ids" in reply:
            self._ids, self._ids_gen = tuple(reply["ids"]), reply["ids_gen"]
        self._limits = array("d", base64.b64decode(reply["limits"]))
        (
            self.evictions, self.outbox_frames_shed,
            self.rules_suppressed, self.stale_messages,
        ) = reply["counts"]
        return self.cycles

    @property
    def last_allocations(self) -> Dict[str, float]:
        """Last computed data allocation per stage id, built on read."""
        return dict(zip(self._ids, self._limits))

    async def shutdown(self) -> None:
        """Tell the stages to stop, close the listener, reap the child."""
        tier, self._tier = self._tier, None
        if tier is None:
            return
        await tier.stop(grace_s=2.0)
        if tier.last_stats:
            final = tier.last_stats[0]
            self.evictions, self.outbox_frames_shed = final["evictions"], final["shed"]


def _order_error(message: dict) -> Optional[str]:
    """Why an outside frame's ``generation`` / ``stage_ids`` / ``job_ids``
    (a hello's, a ``partition`` frame's) do not spell a partition order
    the trunk's vectors can name, or ``None``."""
    error = hello_error(message, id_lists=("stage_ids", "job_ids"))
    if error is not None:
        return error
    generation = message.get("generation")
    if generation.__class__ is not int or not 0 <= generation <= 0xFFFFFFFF:
        return "generation must be an integer in 0-4294967295"
    stage_ids = message["stage_ids"]
    if len(stage_ids) != len(message["job_ids"]):
        return "stage_ids and job_ids lengths differ"
    if len(set(stage_ids)) != len(stage_ids):
        return "stage_ids repeat"
    return None


class _AggregatorSession(Session):
    """Server-side state for one registered aggregator."""

    def __init__(self, aggregator_id, link, listen_host, listen_port, meter=None) -> None:
        super().__init__(aggregator_id, link, meter=meter)
        #: The aggregator's partition, one slot per stage id in the order
        #: its trunk vectors are laid out as of :attr:`generation` (the
        #: hello is generation 0; every ``partition`` frame replaces
        #: both), with the shipped record changed-only enforcement diffs
        #: against. A stage listed here may since have been homed on
        #: another aggregator: who owns a stage is the controller's
        #: ``_home``, not this order.
        self.ledger = SlotLedger()
        self.generation = 0
        #: Advertised stage-facing listen address (what topology
        #: broadcasts list as a re-home target).
        self.listen_host: str = listen_host
        self.listen_port: int = listen_port
        #: Stages the aggregator itself reported missing last cycle.
        self.last_missing = 0
        #: Consecutive collect epochs without a reply (health signal).
        self.missed_epochs = 0

    @property
    def aggregator_id(self) -> str:
        return self.peer_id


class LiveHierGlobalController(_LiveControllerBase):
    """Hierarchical-design global controller over real TCP.

    Talks only to :class:`~repro.live.aggregator_server.LiveAggregator`
    instances; runs the same PSFA computation over the union of their
    partitions and ships per-aggregator rule batches — the live
    counterpart of the paper's Fig. 3 deployment. ``n_missing`` on a
    degraded cycle counts *stages* without fresh metrics: orphaned stages
    awaiting re-home, every stage of a partition whose reply could not be
    read, plus stages the aggregators themselves reported missing.

    The trunk's per-cycle frames are vectors that name no stage
    (:mod:`repro.live.codec`): each aggregator owns its partition's order
    and announces it once per change, under a generation number, in its
    hello and then in ``partition`` frames. A reply whose generation or
    length is not the one this controller holds for its sender is not
    read at all — the whole partition rides at last-known demand and is
    counted missing — and no batch is laid out for any other order.

    Aggregator fault tolerance (paper §VI): an aggregator is dead on a
    dead socket (EOF/reset) or after two consecutive collect epochs
    without a reply (stalled but connected: its trunk is then cut). Its
    stages become *orphans*: still enforcing their last rules, so their
    last-known demand stays in the PSFA input (their share is reserved,
    and stage-side epoch fencing discards any late rule from the dead
    aggregator). One that re-dials is re-admitted as a stage is, homing
    the stages its hello lists. On every membership change the controller
    broadcasts a ``topology`` frame of the aggregators' advertised
    addresses so each re-arms its stages with ``rehome`` alternates, and
    the adopting aggregator's next ``partition`` frame (out-of-band:
    applied at cycle start or just ahead of the reply behind it) moves
    orphans onto their new home — observable as ``stage_rehomes_total`` /
    ``orphaned_stages`` metrics and ``aggregator_dead``/``rehome`` span
    events on the controller track. A stage an aggregator stops listing
    (evicted down there) is held as an orphan until a partition lists it.
    """

    _register_kind = "register_aggregator"

    _role = "hier-global"
    _lists_reserved = True

    def __init__(
        self,
        policy: QoSPolicy,
        expected_aggregators: int,
        algorithm: Optional[ControlAlgorithm] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        collect_timeout_s: Optional[float] = None,
        enforce_timeout_s: Optional[float] = None,
        enforce_changed_only: bool = False,
        rule_change_tolerance: float = 0.0,
        initial_epoch: int = 0,
        span_tracer=None,
        usage_meter=None,
        metrics=None,
        degradation=None,
        demand_clamp=None,
        session_outbox_bytes: Optional[int] = None,
    ) -> None:
        if expected_aggregators < 1:
            raise ValueError(
                f"expected_aggregators must be >= 1: {expected_aggregators}"
            )
        super().__init__(
            expected_aggregators, policy, algorithm, enforce_changed_only,
            rule_change_tolerance, initial_epoch, degradation, demand_clamp,
            host, port, collect_timeout_s, enforce_timeout_s, span_tracer,
            usage_meter, metrics, session_outbox_bytes,
        )
        self.expected_aggregators = expected_aggregators
        #: Which aggregator each homed stage sits behind. A stage has one
        #: home (the partition that listed it last) or, orphaned, none.
        self._home: Dict[str, _AggregatorSession] = {}
        #: Orphans moved onto a live aggregator (completed re-homes).
        self.rehomes = 0
        #: Aggregators declared dead via the missed-epoch health check.
        self.aggregators_declared_dead = 0
        self._topology_dirty = False
        #: This cycle's aggregators, in slot order.
        self._order: List[_AggregatorSession] = []
        if metrics is not None:
            self._m_rehomes = metrics.counter(
                "repro_stage_rehomes_total",
                "orphaned stages adopted by a surviving aggregator",
                role=self._role,
            )
            self._m_orphans = metrics.gauge(
                "repro_orphaned_stages",
                "stages currently without a live aggregator",
                role=self._role,
            )

    async def wait_for_aggregators(self, timeout_s: float = 30.0) -> None:
        """Block until every expected aggregator has registered."""
        await asyncio.wait_for(self._all_registered.wait(), timeout=timeout_s)

    def _hello_error(self, hello: dict) -> Optional[str]:
        error = hello_error(hello, ids=("aggregator_id",)) or _order_error(hello)
        if error is not None:
            return error
        # The address goes out in every topology broadcast, where a stage
        # refuses a whole alternate list over one entry that is none.
        host, port = hello.get("host"), hello.get("port")
        if not isinstance(host, str) or not host:
            return "host must be a non-empty string"
        if port.__class__ is not int or not 0 <= port <= 65535:
            return "port must be an integer in 0-65535"
        aggregator_id = hello["aggregator_id"]
        if aggregator_id in self.sessions:
            return f"aggregator_id already registered: {aggregator_id}"
        return None

    def _make_session(self, hello: dict, link: FrameLink) -> _AggregatorSession:
        session = _AggregatorSession(
            hello["aggregator_id"], link, hello["host"], hello["port"], meter=self.meter
        )
        # Its hello's order (a first join or a re-join, either of which
        # may be adopting orphans).
        self._set_partition(
            session, hello["generation"], hello["stage_ids"], hello["job_ids"]
        )
        # A new order arrives between cycles or just ahead of the reply
        # laid out for it; keep it out of the phase routing so it is
        # never dropped as stale.
        session.oob_kinds = frozenset({"partition"})
        return session

    def _welcome(self, session: _AggregatorSession) -> None:
        """A (re)joining aggregator may have adopted orphans; re-arm all."""
        super()._welcome(session)
        self._broadcast_topology()

    @property
    def n_stages(self) -> int:
        return len(self._home)

    def _derived_deadline_s(self) -> float:
        """The homed stages' rule plus the largest partition's: an aggregator
        answering for a silent stage at its own deadline lands inside this one."""
        largest = max((len(s.ledger) for s in self.sessions.values()), default=0)
        return phase_deadline_s(self.n_stages) + phase_deadline_s(largest)

    # -- membership / re-homing ----------------------------------------------
    def _on_evicted(self, session: _AggregatorSession) -> None:
        """A dead aggregator orphans every stage homed on it. (Its diff
        record dies with the session: an in-flight batch may have died
        with the socket, and whoever adopts the stages re-ships.)"""
        n_orphaned = 0
        for stage_id in session.ledger.ids:
            if self._home.get(stage_id) is session:
                del self._home[stage_id]
                n_orphaned += self.columns.reserve(stage_id)
        self._topology_dirty = True
        if self.metrics is not None:
            self._m_orphans.set(len(self.columns.reserved))
        if self.tracer.enabled:
            now = self.tracer.now()
            self.tracer.emit(
                "aggregator_dead", now, 0.0,
                aggregator=session.peer_id, orphans=n_orphaned,
            )

    def _adopt(self, session: _AggregatorSession, stage_id: str, job_id: str) -> None:
        """Home ``stage_id`` on ``session``, releasing any prior owner."""
        prior = self._home.get(stage_id)
        if prior is not None:
            prior.ledger.invalidate()  # its slot for the stage goes blank
        was_orphan = stage_id in self.columns.reserved
        if was_orphan or stage_id not in self.columns:
            # First sight, or an orphan coming home (its reservation is
            # released into the new row, demand and trust included).
            self.register_row(stage_id, job_id)
        self._home[stage_id] = session
        if was_orphan or prior is not None:
            self.rehomes += 1
            if self.metrics is not None:
                self._m_rehomes.inc()
                self._m_orphans.set(len(self.columns.reserved))
            if self.tracer.enabled:
                now = self.tracer.now()
                self.tracer.emit(
                    "rehome", now, 0.0, stage=stage_id, to=session.peer_id
                )

    def _set_partition(
        self,
        session: _AggregatorSession,
        generation: int,
        stage_ids: List[str],
        job_ids: List[str],
    ) -> None:
        """Take ``session``'s newly announced order.

        Every stage it lists is homed on it; one it used to list and no
        longer does (evicted down there, still enforcing its last rule)
        is held as an orphan until some partition lists it again. The
        diff record starts over: a stage behind a new order may be a
        restarted process with no applied rule, so the next enforce
        ships the whole partition.
        """
        home = self._home
        listed = set(stage_ids)
        for stage_id in session.ledger.ids:
            if stage_id not in listed and home.get(stage_id) is session:
                del home[stage_id]
                self.columns.reserve(stage_id)
        session.generation = generation
        session.ledger = SlotLedger()
        session.ledger.relayout([(stage_id, (stage_id,)) for stage_id in stage_ids])
        for stage_id, job_id in zip(stage_ids, job_ids):
            if home.get(stage_id) is not session:
                self._adopt(session, stage_id, job_id)
        if self.metrics is not None:
            self._m_orphans.set(len(self.columns.reserved))

    def _apply_partitions(self, session: _AggregatorSession) -> None:
        """Apply the ``partition`` frames ``session`` queued out-of-band."""
        pending, session.oob = session.oob, []
        for message in pending:
            # An outside frame: one that does not spell an order is
            # skipped whole. The session keeps the generation it holds,
            # so the vectors behind the bad frame are refused too.
            if _order_error(message) is None:
                self._set_partition(
                    session, message["generation"], message["stage_ids"],
                    message["job_ids"],
                )

    def _partition_rows(self, session: _AggregatorSession) -> np.ndarray:
        """The column row behind each slot of ``session``'s order; -1
        where the stage is not (or no longer) homed on it — what a reply
        is scattered through and a batch gathered through."""
        home = self._home
        return session.ledger.aligned_rows(
            self.columns, lambda stage_id: home.get(stage_id) is session
        )

    def _broadcast_topology(self) -> None:
        """Tell every aggregator who its live peers are (rehome targets)."""
        self._topology_dirty = False
        entries = [
            {
                "aggregator_id": s.aggregator_id,
                "host": s.listen_host,
                "port": s.listen_port,
            }
            for s in self.sessions.values()
        ]
        for session in list(self.sessions.values()):
            try:
                session.post({"kind": "topology", "aggregators": entries})
            except SessionClosed:
                # Its death is handled by the cycle path; don't recurse.
                pass

    # -- the cycle's transport steps --------------------------------------------
    def _membership(self) -> None:
        """Orders announced since the last cycle move orphans onto their
        new homes, a changed tree is re-broadcast so every stage's
        alternate list stays current, and the cycle's aggregators are
        laid out in id order."""
        for session in list(self.sessions.values()):
            if session.oob:
                self._apply_partitions(session)
        if self._topology_dirty:
            self._broadcast_topology()
        self._order = [self.sessions[a] for a in sorted(self.sessions)]
        for slot, session in enumerate(self._order):
            session.row = slot

    async def _collect(self, epoch: int, timeout_s: float) -> Tuple[int, bool]:
        """Collect via the aggregators, then their health. Returns the
        stages without fresh metrics — those an answering aggregator could
        not report, every homed stage of a silent one, every orphan — and
        whether the phase timed out."""
        sessions = self._order
        columns = self.columns

        def feed_request(s: _AggregatorSession) -> None:
            s.feed({"kind": "agg_collect_req", "epoch": epoch})

        def on_agg_reply(s: _AggregatorSession, reply: tuple) -> None:
            _, _, generation, flagged, data, metadata = reply
            if s.oob:  # the order this reply is laid out for, just ahead of it
                self._apply_partitions(s)
            aligned = self._partition_rows(s)
            if generation != s.generation or len(data) != len(aligned):
                # Not laid out for the order this controller holds: the
                # whole partition rides at last-known demand.
                s.last_missing = int(np.count_nonzero(aligned >= 0))
            else:
                # One vectorized scatter per reply. A slot that is not
                # this aggregator's to report is skipped; a value the
                # columns reject leaves its stage at last-known demand.
                # Missing = those plus the stages the aggregator flagged
                # as silent.
                s.last_missing = flagged + columns.observe_rows(
                    aligned, data, metadata
                )

        absent, timed_out = await self._phase(
            sessions, feed_request, "agg_metrics_reply", epoch, on_agg_reply,
            timeout_s, span="collect",
        )
        # Health: consecutive silent epochs mark a connected-but-dead
        # aggregator (stall, partition) for declaration. Every stage still
        # homed on a silent one is missing; a dead one's are orphans by
        # now (one evicted this very cycle included), counted as such.
        n_missing = 0
        for s in sessions:
            if s not in absent:
                s.missed_epochs = 0
                n_missing += s.last_missing
                continue
            s.missed_epochs += 1
            if (
                s.missed_epochs >= _DEAD_AFTER_MISSED
                and self.sessions.get(s.aggregator_id) is s
            ):
                # Declared dead: cut the trunk loose (it may re-dial).
                self.aggregators_declared_dead += 1
                s.abort()
                self._evict(s)
            n_missing += int(np.count_nonzero(self._partition_rows(s) >= 0))
        return n_missing + len(columns.reserved), timed_out

    async def _enforce(
        self, epoch: int, grant: np.ndarray, differentiated: bool,
        forced: bool, n_missing: int, timeout_s: float,
    ) -> Tuple[int, bool]:
        """One rule batch per aggregator (a withheld rule is left out; the
        batch still goes out, its ack paces the phase)."""

        def feed_batch(s: _AggregatorSession) -> None:
            batch, ship, _ = self.partition_batch(
                grant, s.ledger, self._partition_rows(s), forced
            )
            # Sheddable like flat-plane rules: the next epoch's batch
            # supersedes this one, and the missing batch_ack resolves
            # through the enforce deadline.
            s.feed_frame(
                pack_rows(
                    "rule_batch", epoch, s.generation,
                    batch[0], batch[1] if differentiated else None,
                ),
                sheddable=True,
            )
            s.ledger.record(ship, batch, epoch)

        _, timed_out = await self._phase(
            [s for s in self._order if s.connected], feed_batch,
            "batch_ack", epoch, None, timeout_s, span="enforce",
        )
        return n_missing, timed_out
