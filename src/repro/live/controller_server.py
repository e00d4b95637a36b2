"""Live global controller: an asyncio TCP server running control cycles.

The same collect → compute → enforce loop as the simulated
:class:`~repro.core.controller.GlobalController`, timed with the
wall clock and executing the *same* PSFA implementation
(:class:`repro.core.algorithms.psfa.PSFA`) over the collected demand.

Failure semantics match the simulated plane (paper §VI dependability):

* ``collect_timeout_s`` / ``enforce_timeout_s`` put a deadline on each
  reply-gathering phase. A cycle that misses replies proceeds on partial
  metrics — absent stages fall back to their last-known demand — and
  records the damage in :class:`~repro.core.cycle.ControlCycle` via the
  ``n_missing`` / ``timed_out`` fields.
* A session whose socket dies (EOF, reset) is *evicted* instead of
  poisoning the cycle; even without a timeout configured, the cycle
  completes over the survivors rather than hanging forever.
* Evicted stage ids become free again, so a restarted stage re-registers
  (see :class:`~repro.live.stage_client.LiveVirtualStage`'s reconnect
  loop) and is picked up by the next cycle.

Observability (``repro.obs``): pass ``span_tracer`` to record every
cycle as a ``cycle`` span with ``collect``/``compute``/``enforce``
children plus per-session RPC spans; pass ``usage_meter`` to charge
framed bytes and synchronous CPU sections to this controller's Tables
II–IV row; pass ``metrics`` (a registry) for Prometheus counters and
latency histograms.
"""

from __future__ import annotations

import asyncio
import copy
import time
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.algorithms.base import ControlAlgorithm
from repro.core.algorithms.psfa import PSFA
from repro.core.columnar import StageColumns
from repro.core.cycle import ControlCycle
from repro.core.policies import QoSPolicy
from repro.live import pump
from repro.live.codec import pack_rows
from repro.live.protocol import (
    FrameLink,
    accept_backlog,
    encode,
    hello_error,
)
from repro.live.sessions import (
    PhaseDriver,
    Session,
    SessionClosed,
    StageSession,
    collect_request,
)
from repro.obs.spans import NullSpanTracer

__all__ = ["LiveGlobalController", "LiveHierGlobalController"]


class _LiveControllerBase(PhaseDriver):
    """Registration, eviction, and teardown shared by both designs."""

    #: ``kind`` a valid hello frame must carry (set by subclasses).
    _register_kind = "register"

    #: Role label used on metric series ("global" | "hier-global").
    _role = "global"

    def __init__(
        self,
        policy: QoSPolicy,
        algorithm: Optional[ControlAlgorithm],
        host: str,
        port: int,
        collect_timeout_s: Optional[float],
        enforce_timeout_s: Optional[float],
        enforce_changed_only: bool,
        rule_change_tolerance: float,
        initial_epoch: int,
        span_tracer=None,
        usage_meter=None,
        metrics=None,
        degradation=None,
        demand_clamp=None,
        session_outbox_bytes: Optional[int] = None,
    ) -> None:
        if initial_epoch < 0:
            raise ValueError(f"initial_epoch must be >= 0: {initial_epoch}")
        if rule_change_tolerance < 0:
            raise ValueError(
                f"negative rule change tolerance: {rule_change_tolerance}"
            )
        for name, value in (
            ("collect_timeout_s", collect_timeout_s),
            ("enforce_timeout_s", enforce_timeout_s),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive: {value}")
        self.host = host
        self.port = port
        self.policy = policy
        self.algorithm = algorithm or PSFA()
        #: Separate algorithm instance for the metadata axis when the
        #: policy differentiates: a stateful brain (PID) must not have
        #: its loop state corrupted by alternating axes through one
        #: instance. Stateless brains don't care; PADLL-style brains are
        #: driven through ``allocate_axes`` instead.
        self.metadata_algorithm = copy.deepcopy(self.algorithm)
        self.collect_timeout_s = collect_timeout_s
        self.enforce_timeout_s = (
            enforce_timeout_s if enforce_timeout_s is not None else collect_timeout_s
        )
        #: Ship only rules whose limit moved by more than
        #: ``rule_change_tolerance`` (relative) since the last one sent —
        #: the live counterpart of the sim's changed-only enforce ablation.
        #: Suppressed stages keep enforcing their cached rule-epoch (flat:
        #: no frame at all; hier: the entry is left out of the
        #: ``rule_batch``, which still goes out — its ack paces the phase).
        self.enforce_changed_only = enforce_changed_only
        self.rule_change_tolerance = rule_change_tolerance
        self.rules_suppressed = 0
        #: Per-stage demand store (flat float64 columns, one row per
        #: stage): replies are written into rows, compute gathers with a
        #: fancy index, and a stage that left the tree but still enforces
        #: its last rule keeps a *reserved* row.
        self.columns = StageColumns()
        self.tracer = span_tracer if span_tracer is not None else NullSpanTracer()
        self.meter = usage_meter
        self.metrics = metrics
        #: Optional :class:`repro.guard.DegradationLadder` — fed each
        #: cycle's degraded flag; its multipliers tighten the collect
        #: deadline and (at the top rung) force changed-only enforcement.
        #: Share ONE instance across controller generations (restarts) so
        #: the ladder's streaks survive the processes it protects.
        self.degradation = degradation
        #: Optional :class:`repro.guard.DemandClamp` — caps each reported
        #: demand at a multiple of that stage's observed usage before
        #: PSFA runs ("no false allocation" against demand liars). Also
        #: share one instance across generations.
        self.demand_clamp = demand_clamp
        if demand_clamp is not None:
            demand_clamp.attach(self.columns)
        #: Per-session outbound-buffer bound (bytes); None = unbounded.
        #: Only enable together with phase deadlines — a shed rule means
        #: a missing ack, which needs ``enforce_timeout_s`` to resolve.
        self.session_outbox_bytes = session_outbox_bytes
        #: Shed counts carried over from evicted sessions (monotone).
        self._outbox_shed_evicted = 0
        self._outbox_shed_bytes_evicted = 0
        self.sessions: Dict[str, Session] = {}
        self.cycles: List[ControlCycle] = []
        # Boot-from-store resume floor: a controller restored from a
        # durable store starts above its last durable epoch so stage-side
        # fencing accepts its rules and discards any pre-crash stragglers.
        self.epoch = initial_epoch
        #: Sessions evicted because their socket died mid-cycle.
        self.evictions = 0
        #: Registrations rejected (duplicate id, malformed hello).
        self.registrations_rejected = 0
        # (stage ids, data limits) of the newest compute phase, in step.
        self._last_grants: tuple = ((), ())
        #: Standby-side heartbeat intake (see repro.live.failover): a
        #: primary controller connects with a ``heartbeat`` hello and
        #: streams epochs; the watchdog reads these fields.
        self.last_heartbeat_at: Optional[float] = None
        self.last_primary_epoch = 0
        self.heartbeats_received = 0
        #: The :func:`repro.live.pump.listen` listener while started.
        self._server = None
        self._all_registered = asyncio.Event()
        # Instruments resolved once — registry lookups (label-key sort +
        # dict walk) are too slow for a per-cycle hot path.
        if metrics is not None:
            role = self._role
            self._m_cycles = metrics.counter(
                "repro_cycles_total", "control cycles completed", role=role
            )
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
            self._m_evictions = metrics.counter(
                "repro_evictions_total",
                "sessions dropped after their socket died",
                role=role,
            )
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

    def _record_cycle(self, cycle: ControlCycle, started: float) -> None:
        """Append the record and emit its spans/metrics (obs enabled)."""
        self.cycles.append(cycle)
        tracer = self.tracer
        if tracer.enabled:
            t = started
            for phase in ("collect", "compute", "enforce"):
                dur = cycle.phase(phase)
                tracer.emit(phase, t, dur, parent="cycle", epoch=cycle.epoch)
                t += dur
            tracer.emit(
                "cycle",
                started,
                cycle.total_s,
                epoch=cycle.epoch,
                n_stages=cycle.n_stages,
                n_missing=cycle.n_missing,
                timed_out=cycle.timed_out,
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

    @property
    def outbox_frames_shed(self) -> int:
        """Frames shed across all sessions, living and evicted (monotone)."""
        return self._outbox_shed_evicted + sum(
            s.outbox.frames_shed for s in self.sessions.values()
        )

    @property
    def outbox_bytes_shed(self) -> int:
        return self._outbox_shed_bytes_evicted + sum(
            s.outbox.bytes_shed for s in self.sessions.values()
        )

    def _effective_collect_timeout(self) -> Optional[float]:
        """Collect deadline after the degradation ladder's tightening."""
        timeout = self.collect_timeout_s
        if timeout is not None and self.degradation is not None:
            timeout *= self.degradation.collect_timeout_multiplier
        return timeout

    def _effective_changed_only(self) -> bool:
        """Changed-only enforcement, forced at the ladder's top rung."""
        if self.degradation is not None and self.degradation.force_changed_only:
            return True
        return self.enforce_changed_only

    # -- control loop (shared halves) ---------------------------------------
    async def run_cycles(self, n_cycles: int) -> List[ControlCycle]:
        """Run ``n_cycles`` back-to-back cycles; returns their records."""
        if n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1: {n_cycles}")
        for _ in range(n_cycles):
            await self._cycle()
        return self.cycles

    def _register_row(self, stage_id: str, job_id: str) -> None:
        """Give a stage that joined the tree its (live) row."""
        row = self.columns.register(stage_id, job_id)
        if self.demand_clamp is not None:
            self.demand_clamp.inherit(stage_id, row)

    def _allocate(self, rows: np.ndarray):
        """Gather ``rows``' demand and weights and run the brain(s) over
        them: ``(data limits, metadata limits | None)``, one entry per row.

        With a trust clamp, a reported demand is only believed up to a
        multiple of what the stage has been using. The clamp scores
        *total* demand, so a trimmed report shrinks both axes by the
        same ratio (the liar's split is preserved, its magnitude is
        not), and the cycle's grants are folded back into the scores.
        """
        policy = self.policy
        clamp = self.demand_clamp
        columns = self.columns
        data = columns.data[rows]
        meta = columns.meta[rows]
        weights = columns.stage_weights(policy, rows)
        if clamp is not None:
            reported = data + meta
            believed = clamp.clamp(rows, reported)
            trimmed = believed < reported
            if trimmed.any():
                ratio = np.divide(
                    believed, reported, out=np.ones_like(reported), where=trimmed
                )
                data, meta = data * ratio, meta * ratio
        meta_limits = None
        if not policy.differentiated:
            limits = self.algorithm.allocate(
                data + meta, weights, policy.allocatable_iops
            ).allocations
        else:
            axes = getattr(self.algorithm, "allocate_axes", None)
            if axes is not None:
                data_result, meta_result = axes(
                    data,
                    meta,
                    weights,
                    policy.allocatable_iops,
                    policy.allocatable_metadata_iops,
                )
            else:
                data_result = self.algorithm.allocate(
                    data, weights, policy.allocatable_iops
                )
                meta_result = self.metadata_algorithm.allocate(
                    meta, weights, policy.allocatable_metadata_iops
                )
            limits, meta_limits = data_result.allocations, meta_result.allocations
        if clamp is not None:
            clamp.observe(
                rows, reported, limits if meta_limits is None else limits + meta_limits
            )
        return limits, meta_limits

    def _suppress(self, previous: Optional[tuple], limit, meta_limit) -> bool:
        """Changed-only verdict for one rule against the last one shipped.

        ``previous`` is ``(rule-epoch, data limit, metadata limit)``.
        Unchanged within tolerance on every axis: the stage keeps
        enforcing its cached rule-epoch and the suppression is counted.
        """
        if previous is None:
            return False
        tolerance = self.rule_change_tolerance
        prev_limit, prev_meta = previous[1], previous[2]
        if abs(limit - prev_limit) > tolerance * max(abs(prev_limit), 1e-9):
            return False
        if meta_limit is None or prev_meta is None:
            if meta_limit is not prev_meta:
                return False
        elif abs(meta_limit - prev_meta) > tolerance * max(abs(prev_meta), 1e-9):
            return False
        self.rules_suppressed += 1
        if self.metrics is not None:
            self._m_suppressed.inc()
        return True

    def _suppress_rows(self, shipped: np.ndarray, limits: np.ndarray) -> np.ndarray:
        """:meth:`_suppress` over a whole partition: the mask of rows
        whose rule is withheld, counted the same.

        Both arguments are ``(2, n)``: data limits over metadata limits,
        ``NaN`` where there is none (``shipped``: nothing shipped yet, or
        shipped without a metadata limit; ``limits``: no rule for this
        row, or an undifferentiated policy). A ``NaN`` never compares
        within tolerance, so a first rule always ships and a row without
        a rule is never counted.
        """
        with np.errstate(invalid="ignore"):  # inf - inf
            same = np.abs(limits - shipped) <= self.rule_change_tolerance * (
                np.maximum(np.abs(shipped), 1e-9)
            )
        withheld = same[0] & (same[1] | (np.isnan(limits[1]) & np.isnan(shipped[1])))
        n = int(np.count_nonzero(withheld))
        if n:
            self.rules_suppressed += n
            if self.metrics is not None:
                self._m_suppressed.inc(n)
        return withheld

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

        The live counterpart of killing the controller process — children
        see EOF (not a ``shutdown`` frame) and their reconnect loops
        rotate to alternate addresses (e.g. the hot standby).
        """
        for session in list(self.sessions.values()):
            session.abort()
        if self._server is not None:
            self._server.close()

    @property
    def stale_messages(self) -> int:
        """Frames dropped as stale across all live sessions."""
        return sum(s.stale_messages for s in self.sessions.values())

    # -- registration -------------------------------------------------------
    def _on_hello(self, link: FrameLink, hello: dict) -> None:
        if not self._server.sockets:
            # Accepted before kill() / shutdown(), greeted after: nobody
            # is home, and a registration now would be served by the dead.
            link.abort()
            return
        if hello.get("kind") == "heartbeat":
            link.on_frame = self._on_heartbeat
            self._on_heartbeat(hello, 0)
            return
        if hello.get("kind") != self._register_kind:
            link.close()
            return
        error = self._validate_hello(hello)
        if error is not None:
            self._reject(link, error)
            return
        # From here on the session owns the link: every later frame goes
        # through its routing, in the same parse pass as this hello.
        session = self._make_session(hello, link)
        self.sessions[session.peer_id] = session
        link.write(encode({"kind": "registered"}))
        if len(self.sessions) >= self._expected:
            self._all_registered.set()
        self._after_register(session)

    def _on_heartbeat(self, message, nbytes: int) -> None:
        """One frame of a primary's heartbeat stream (this side is standby)."""
        if message.__class__ is not dict or message["kind"] != "heartbeat":
            return
        epoch = message.get("epoch", 0)
        if not isinstance(epoch, int):
            return  # not a beat a primary sends: no liveness credit
        self.last_heartbeat_at = time.monotonic()
        self.last_primary_epoch = max(self.last_primary_epoch, epoch)
        self.heartbeats_received += 1

    def _after_register(self, session: Session) -> None:
        """Hook run after a child registers (hier: topology broadcast)."""

    def _reject(self, link: FrameLink, reason: str) -> None:
        """Refuse a registration: error reply, then close the connection."""
        self.registrations_rejected += 1
        link.write(encode({"kind": "register_error", "reason": reason}))
        link.close()

    def _evict(self, session: Session) -> None:
        """Drop a dead session so its id can register again."""
        if self.sessions.get(session.peer_id) is session:
            del self.sessions[session.peer_id]
            self.evictions += 1
            self._outbox_shed_evicted += session.outbox.frames_shed
            self._outbox_shed_bytes_evicted += session.outbox.bytes_shed
            if self.metrics is not None:
                self._m_evictions.inc()
            self._on_evicted(session)
        session.close()

    # Subclass hooks ---------------------------------------------------------
    def _on_evicted(self, session: Session) -> None:
        """Bookkeeping hook after a session is dropped (subclasses)."""

    def _validate_hello(self, hello: dict) -> Optional[str]:
        raise NotImplementedError

    def _make_session(self, hello: dict, link: FrameLink) -> Session:
        raise NotImplementedError

    @property
    def _expected(self) -> int:
        raise NotImplementedError


class LiveGlobalController(_LiveControllerBase):
    """Flat-design controller over real TCP connections.

    Usage::

        ctrl = LiveGlobalController(policy, expected_stages=50)
        await ctrl.start()                 # begins listening; port assigned
        ... stages connect ...
        await ctrl.wait_for_stages()
        cycles = await ctrl.run_cycles(20)
        await ctrl.shutdown()

    ``collect_timeout_s`` / ``enforce_timeout_s`` bound the collect and
    enforce phases; ``enforce_timeout_s`` defaults to the collect value.

    ``evicted_grace_cycles`` keeps an evicted stage's share *reserved*
    (its last demand still participates in PSFA, no rule shipped) for
    that many cycles: a killed-but-restarting stage keeps enforcing its
    last rule, so redistributing its share immediately would oversubscribe
    the PFS until it re-registers. 0 (default) redistributes immediately,
    the seed behaviour.
    """

    _register_kind = "register"

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
            policy,
            algorithm,
            host,
            port,
            collect_timeout_s,
            enforce_timeout_s,
            enforce_changed_only,
            rule_change_tolerance,
            initial_epoch,
            span_tracer=span_tracer,
            usage_meter=usage_meter,
            metrics=metrics,
            degradation=degradation,
            demand_clamp=demand_clamp,
            session_outbox_bytes=session_outbox_bytes,
        )
        self.expected_stages = expected_stages
        self.evicted_grace_cycles = evicted_grace_cycles

    async def wait_for_stages(self, timeout_s: float = 30.0) -> None:
        """Block until every expected stage has registered."""
        await asyncio.wait_for(self._all_registered.wait(), timeout=timeout_s)

    def _on_evicted(self, session: Session) -> None:
        if self.evicted_grace_cycles > 0:
            self.columns.reserve(
                session.peer_id, self.epoch + self.evicted_grace_cycles
            )
        else:
            self.columns.evict(session.peer_id)

    def _after_register(self, session: Session) -> None:
        # Always a new tail row — the position the session just took in
        # the (insertion-ordered) session dict.
        self._register_row(session.peer_id, session.job_id)

    def _validate_hello(self, hello: dict) -> Optional[str]:
        error = hello_error(hello, ids=("stage_id", "job_id"))
        if error is None and hello["stage_id"] in self.sessions:
            error = f"stage_id already registered: {hello['stage_id']}"
        return error

    def _make_session(self, hello: dict, link: FrameLink) -> StageSession:
        session = StageSession(
            hello["stage_id"], hello["job_id"], link, meter=self.meter
        )
        session.outbox.max_bytes = self.session_outbox_bytes
        return session

    @property
    def _expected(self) -> int:
        return self.expected_stages

    # -- control loop -----------------------------------------------------------
    async def _cycle(self) -> None:
        self.epoch += 1
        epoch = self.epoch
        columns = self.columns
        # Cycle start is the one safe point to drop and renumber rows.
        # The gather is frozen here with the session list it mirrors
        # (live rows are in session-dict order; reservations follow):
        # mid-cycle evictions only tombstone or reserve rows, values stay
        # readable, so compute sees exactly this stage set at last-known
        # demand.
        columns.release_expired(epoch)
        columns.maybe_compact()
        sessions: List[StageSession] = list(self.sessions.values())
        rows = columns.gather_rows()
        started = time.perf_counter()
        missing_ids: Set[str] = set()
        tracer = self.tracer
        tracing = tracer.enabled
        sent_at: Dict[str, float] = {}

        # ---- collect (partial on deadline, evict dead sockets) ----
        send_request = collect_request(epoch)

        def traced_request(s: StageSession) -> None:
            send_request(s)
            sent_at[s.stage_id] = tracer.now()

        observe = columns.observe

        def on_reply(s: StageSession, reply: tuple) -> None:
            if not observe(s.peer_id, reply[2], reply[3]):
                missing_ids.add(s.peer_id)  # rejected: rides at last-known
            if tracing:
                t0 = sent_at.get(s.stage_id, started)
                tracer.for_track(s.stage_id).emit(
                    "collect_rpc", t0, tracer.now() - t0,
                    parent="collect", epoch=epoch,
                )

        absent, timed_out = await self._phase(
            sessions, traced_request if tracing else send_request,
            "metrics_reply", epoch, on_reply, self._effective_collect_timeout(),
        )
        missing_ids.update(s.stage_id for s in absent)
        t_collect = time.perf_counter() - started

        # ---- compute (the real PSFA; absent stages at last-known demand;
        # graced departures still hold their share — they are out there
        # enforcing their last rule) ----
        compute_started = time.perf_counter()
        with self._cpu():
            limits, meta_limits = self._allocate(rows)
            # One C pass to Python floats; reservations sit past the
            # sessions and get no rule.
            limits = limits[: len(sessions)].tolist()
            meta_limits = (
                meta_limits[: len(sessions)].tolist()
                if meta_limits is not None
                else [None] * len(sessions)
            )
            self._last_grants = ([s.peer_id for s in sessions], limits)
        t_compute = time.perf_counter() - compute_started

        # ---- enforce ----
        enforce_started = time.perf_counter()
        #: Sessions a rule goes out to this epoch, their ``rule`` set.
        targets: List[StageSession] = []
        with self._cpu():
            changed_only = self._effective_changed_only()
            for s, limit, meta_limit in zip(sessions, limits, meta_limits):
                if not s.connected:
                    continue
                if changed_only and self._suppress(s.rule, limit, meta_limit):
                    continue  # no frame on the wire, no ack expected
                s.rule = (epoch, limit, meta_limit)
                targets.append(s)

        # Rules are written through: the next epoch supersedes one a
        # stalled peer never reads, and its missing ack is absorbed by
        # the degraded path.
        def traced_rule(s: StageSession) -> None:
            s.send_rule()
            sent_at[s.stage_id] = tracer.now()

        def traced_ack(s: StageSession, ack: tuple) -> None:
            t0 = sent_at.get(s.stage_id, enforce_started)
            tracer.for_track(s.stage_id).emit(
                "enforce_rpc", t0, tracer.now() - t0,
                parent="enforce", epoch=epoch,
            )

        absent, phase_timed_out = await self._phase(
            targets,
            traced_rule if tracing else StageSession.send_rule,
            "rule_ack", epoch, traced_ack if tracing else None,
            self.enforce_timeout_s,
        )
        missing_ids.update(s.stage_id for s in absent)
        t_enforce = time.perf_counter() - enforce_started

        self._record_cycle(
            ControlCycle(
                epoch=epoch,
                started_at=started,
                collect_s=t_collect,
                compute_s=t_compute,
                enforce_s=t_enforce,
                n_stages=len(sessions),
                n_missing=len(missing_ids),
                timed_out=timed_out or phase_timed_out,
            ),
            started,
        )


def _order_error(message: dict) -> Optional[str]:
    """Why an outside frame's ``stage_ids`` / ``job_ids`` (a hello's, a
    ``partition`` frame's) do not spell a partition order, or ``None``."""
    error = hello_error(message, id_lists=("stage_ids", "job_ids"))
    if error is not None:
        return error
    stage_ids = message["stage_ids"]
    if len(stage_ids) != len(message["job_ids"]):
        return "stage_ids and job_ids lengths differ"
    if len(set(stage_ids)) != len(stage_ids):
        return "stage_ids repeat"
    return None


class _AggregatorSession(Session):
    """Server-side state for one registered aggregator."""

    def __init__(self, aggregator_id, stage_ids, job_ids, link, meter=None) -> None:
        super().__init__(aggregator_id, link, meter=meter)
        #: The aggregator's partition in the order its trunk vectors are
        #: laid out as of :attr:`generation` (the hello is generation 0;
        #: every ``partition`` frame replaces all three). A stage listed
        #: here may since have been homed on another aggregator: who owns
        #: a stage is the controller's ``_home``, not this list.
        self.stage_ids: List[str] = list(stage_ids)
        self.job_ids: List[str] = list(job_ids)
        self.generation = 0
        #: ``(2, n)`` data over metadata limits last put on the wire per
        #: slot (``NaN``: none) — what changed-only enforcement diffs
        #: against. Reset with the order, gone with the session.
        self.shipped = np.empty((2, 0))
        #: The controller's cached row view of the partition.
        self.view: Optional[tuple] = None
        #: Advertised stage-facing listen address (None = not advertised;
        #: the aggregator is then invisible to topology broadcasts).
        self.listen_host: Optional[str] = None
        self.listen_port: Optional[int] = None
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
    hello (generation 0) and then in ``partition`` frames. A reply whose
    generation or length is not the one this controller holds for its
    sender is not read at all — the whole partition rides at last-known
    demand and is counted missing — and no batch is ever laid out for an
    order other than the one last announced.

    Aggregator fault tolerance (paper §VI): the controller tracks every
    aggregator's health over two signals — a dead socket (EOF/reset) and
    ``dead_after_missed`` consecutive collect epochs without a reply (a
    stalled-but-connected aggregator). A dead aggregator's stages become
    *orphans*: still enforcing their last rules, so their last-known
    demand stays in the PSFA input (their share is reserved, never
    redistributed, and epoch fencing on the stage side discards any late
    rules from the dead aggregator). Aggregators advertise their listen
    address at registration; on every membership change the controller
    broadcasts a ``topology`` frame so each aggregator re-arms its stages
    with ``rehome`` alternates, and the adopting aggregator's next
    ``partition`` frame (out-of-band: applied at cycle start or just
    ahead of the reply behind it) moves orphans onto their new home —
    observable as ``stage_rehomes_total`` / ``orphaned_stages`` metrics
    and ``aggregator_dead``/``rehome`` span events on the controller
    track. A stage an aggregator stops listing (evicted down there) is
    held as an orphan too, until some partition lists it again.
    """

    _register_kind = "register_aggregator"

    _role = "hier-global"

    def __init__(
        self,
        policy: QoSPolicy,
        expected_aggregators: int,
        algorithm: Optional[ControlAlgorithm] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        collect_timeout_s: Optional[float] = None,
        enforce_timeout_s: Optional[float] = None,
        dead_after_missed: Optional[int] = None,
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
        if dead_after_missed is not None and dead_after_missed < 1:
            raise ValueError(
                f"dead_after_missed must be >= 1: {dead_after_missed}"
            )
        super().__init__(
            policy,
            algorithm,
            host,
            port,
            collect_timeout_s,
            enforce_timeout_s,
            enforce_changed_only,
            rule_change_tolerance,
            initial_epoch,
            span_tracer=span_tracer,
            usage_meter=usage_meter,
            metrics=metrics,
            degradation=degradation,
            demand_clamp=demand_clamp,
            session_outbox_bytes=session_outbox_bytes,
        )
        self.expected_aggregators = expected_aggregators
        self.dead_after_missed = dead_after_missed
        #: Which aggregator each homed stage sits behind. A stage has one
        #: home (the partition that listed it last) or, orphaned, none.
        self._home: Dict[str, _AggregatorSession] = {}
        #: Orphans moved onto a live aggregator (completed re-homes).
        self.rehomes = 0
        #: Aggregators declared dead via the missed-epoch health check.
        self.aggregators_declared_dead = 0
        self._topology_dirty = False
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

    def _validate_hello(self, hello: dict) -> Optional[str]:
        error = hello_error(hello, ids=("aggregator_id",)) or _order_error(hello)
        if error is not None:
            return error
        port = hello.get("port")
        if port is not None and not isinstance(port, int):
            return "port must be an integer"
        aggregator_id = hello["aggregator_id"]
        if aggregator_id in self.sessions:
            return f"aggregator_id already registered: {aggregator_id}"
        return None

    def _make_session(self, hello: dict, link: FrameLink) -> _AggregatorSession:
        session = _AggregatorSession(
            hello["aggregator_id"],
            hello["stage_ids"],
            hello["job_ids"],
            link,
            meter=self.meter,
        )
        session.outbox.max_bytes = self.session_outbox_bytes
        if hello.get("host") is not None and hello.get("port") is not None:
            session.listen_host = str(hello["host"])
            session.listen_port = int(hello["port"])
        # A new order arrives between cycles or just ahead of the reply
        # laid out for it; keep it out of the phase routing so it is
        # never dropped as stale.
        session.oob_kinds = frozenset({"partition"})
        return session

    @property
    def _expected(self) -> int:
        return self.expected_aggregators

    @property
    def n_stages(self) -> int:
        return len(self._home)

    # -- membership / re-homing ----------------------------------------------
    @property
    def orphans(self) -> Dict[str, str]:
        """Stages whose aggregator died, id -> job id, until re-homed.

        Each holds a *reserved* row: last-known demand (through the
        clamp — an orphaned liar would otherwise hold its absurd last
        report against the whole budget) stays in the PSFA input.
        """
        job_of = self.columns.job_of
        return {stage_id: job_of(stage_id) for stage_id in self.columns.reserved}

    def _on_evicted(self, session: Session) -> None:
        """A dead aggregator orphans every stage homed on it. (Its diff
        record dies with the session: an in-flight batch may have died
        with the socket, and whoever adopts the stages re-ships.)"""
        n_orphaned = 0
        for stage_id in session.stage_ids:
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
            prior.view = None  # its slot for the stage goes blank
        was_orphan = stage_id in self.columns.reserved
        if was_orphan or stage_id not in self.columns:
            # First sight, or an orphan coming home (its reservation is
            # released into the new row, demand and trust included).
            self._register_row(stage_id, job_id)
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
        for stage_id in session.stage_ids:
            if stage_id not in listed and home.get(stage_id) is session:
                del home[stage_id]
                self.columns.reserve(stage_id)
        session.stage_ids, session.job_ids = stage_ids, job_ids
        session.generation = generation
        session.view = None
        session.shipped = np.full((2, len(stage_ids)), np.nan)
        for stage_id, job_id in zip(stage_ids, job_ids):
            if home.get(stage_id) is not session:
                self._adopt(session, stage_id, job_id)
        if self.metrics is not None:
            self._m_orphans.set(len(self.columns.reserved))

    def _after_register(self, session: Session) -> None:
        """A (re)joining aggregator may be adopting orphans; re-arm all."""
        self._set_partition(session, 0, session.stage_ids, session.job_ids)
        self._broadcast_topology()

    def _apply_partitions(self, session: _AggregatorSession) -> None:
        """Apply the ``partition`` frames ``session`` queued out-of-band."""
        pending, session.oob = session.oob, []
        for message in pending:
            generation = message.get("generation")
            # An outside frame: one that does not spell an order is
            # skipped whole. The session keeps the generation it holds,
            # so the vectors behind the bad frame are refused too.
            if (
                generation.__class__ is int
                and 0 <= generation <= 0xFFFFFFFF
                and _order_error(message) is None
            ):
                self._set_partition(
                    session, generation, message["stage_ids"], message["job_ids"]
                )

    def _partition_view(self, session: _AggregatorSession) -> tuple:
        """``(aligned rows, owned ids, owned rows)`` of one partition.

        ``aligned`` has the column row of every slot of the aggregator's
        order, -1 where the stage is not (or no longer) homed on it —
        what a reply is scattered through and a batch gathered through.
        The other two are the same without those blanks, for compute.
        Cached until rows are renumbered or homes change.
        """
        view = session.view
        generation = self.columns.generation
        if view is None or view[0] != generation:
            home, row_of = self._home, self.columns.row_of
            stage_ids = session.stage_ids
            aligned = np.array(
                [row_of(i) if home.get(i) is session else -1 for i in stage_ids],
                dtype=np.intp,
            )
            owned = aligned >= 0
            if owned.all():
                view = (generation, aligned, stage_ids, aligned)
            else:
                view = (
                    generation,
                    aligned,
                    [i for i, ours in zip(stage_ids, owned.tolist()) if ours],
                    aligned[owned],
                )
            session.view = view
        return view[1:]

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
            if s.listen_host is not None
        ]
        for session in list(self.sessions.values()):
            try:
                session.post({"kind": "topology", "aggregators": entries})
            except SessionClosed:
                # Its death is handled by the cycle path; don't recurse.
                pass

    def _declare_dead(self, session: _AggregatorSession) -> None:
        """Health verdict: too many missed epochs — cut the socket loose."""
        self.aggregators_declared_dead += 1
        session.abort()
        self._evict(session)

    async def _cycle(self) -> None:
        # Membership first: orders announced since the last cycle move
        # orphans onto their new homes, and a changed tree is re-broadcast
        # so every stage's alternate list stays current.
        for session in list(self.sessions.values()):
            if session.oob:
                self._apply_partitions(session)
        if self._topology_dirty:
            self._broadcast_topology()
        self.epoch += 1
        epoch = self.epoch
        columns = self.columns
        # Cycle start is the one safe point to renumber rows.
        columns.maybe_compact()
        sessions: List[_AggregatorSession] = [
            self.sessions[a] for a in sorted(self.sessions)
        ]
        started = time.perf_counter()
        n_missing = 0
        tracer = self.tracer
        sent_at: Dict[str, float] = {}

        # ---- collect (via aggregators) ----
        def feed_request(s: _AggregatorSession) -> None:
            s.feed({"kind": "agg_collect_req", "epoch": epoch})
            if tracer.enabled:
                sent_at[s.aggregator_id] = tracer.now()

        def on_agg_reply(s: _AggregatorSession, reply: tuple) -> None:
            _, _, generation, flagged, data, metadata = reply
            if s.oob:  # the order this reply is laid out for, just ahead of it
                self._apply_partitions(s)
            aligned, owned_ids, _ = self._partition_view(s)
            if generation != s.generation or len(data) != len(aligned):
                # Not laid out for the order this controller holds: the
                # whole partition rides at last-known demand.
                s.last_missing = len(owned_ids)
            else:
                # One vectorized scatter per reply. A slot that is not
                # this aggregator's to report is skipped; a value the
                # columns reject leaves its stage at last-known demand.
                # Missing = those plus the stages the aggregator flagged
                # as silent.
                s.last_missing = flagged + columns.observe_rows(
                    aligned, data, metadata
                )
            if tracer.enabled:
                t0 = sent_at.get(s.aggregator_id, started)
                tracer.for_track(s.aggregator_id).emit(
                    "collect_rpc", t0, tracer.now() - t0,
                    parent="collect", epoch=epoch,
                )

        absent, timed_out = await self._phase(
            sessions, feed_request, "agg_metrics_reply", epoch, on_agg_reply,
            self._effective_collect_timeout(),
        )
        # Health: consecutive silent epochs mark a connected-but-dead
        # aggregator (stall, partition) for declaration.
        for s in sessions:
            if s in absent:
                s.missed_epochs += 1
            else:
                s.missed_epochs = 0
                n_missing += s.last_missing
        if self.dead_after_missed is not None:
            for s in sessions:
                if (
                    s.missed_epochs >= self.dead_after_missed
                    and self.sessions.get(s.aggregator_id) is s
                ):
                    self._declare_dead(s)
        t_collect = time.perf_counter() - started

        # ---- compute (PSFA over all partitions, last-known for absent;
        # orphans keep their reserved share so survivors are never
        # over-allocated while a dead aggregator's stages still enforce
        # their last rules) ----
        compute_started = time.perf_counter()
        with self._cpu():
            stage_ids: List[str] = []
            parts: List[np.ndarray] = []
            for s in sessions:
                if self.sessions.get(s.aggregator_id) is s:
                    _, owned_ids, owned_rows = self._partition_view(s)
                    stage_ids.extend(owned_ids)
                    parts.append(owned_rows)
                # else: evicted above; its stages are orphans
            stage_ids.extend(columns.reserved)
            parts.append(columns.rows_for(tuple(columns.reserved)))
            rows = np.concatenate(parts)
            limits, meta_limits = self._allocate(rows)
            self._last_grants = (stage_ids, limits.tolist())
            # Limits by column row, data over metadata, ``NaN`` where
            # there is none — and one spare ``NaN`` column at the end, so
            # that row -1 (a slot that is not ours) reads "no rule".
            n_rows = int(rows.max()) + 1 if rows.size else 0
            grant = np.full((2, n_rows + 1), np.nan)
            grant[0, rows] = limits
            if meta_limits is not None:
                grant[1, rows] = meta_limits
        # Orphans are out there without fresh metrics (an aggregator
        # evicted this very cycle just turned its stages into orphans).
        n_missing += len(columns.reserved)
        t_compute = time.perf_counter() - compute_started

        # ---- enforce (rule batches) ----
        enforce_started = time.perf_counter()
        changed_only = self._effective_changed_only()

        def feed_batch(s: _AggregatorSession) -> None:
            aligned = self._partition_view(s)[0]
            # One gather through the partition's rows. A stage adopted
            # since compute has a row but no limit yet: like a slot that
            # is not ours, it waits for the next cycle's rules.
            batch = grant[:, np.where(aligned < n_rows, aligned, -1)]
            ship = ~np.isnan(batch[0])
            if changed_only:
                ship &= ~self._suppress_rows(s.shipped, batch)
                batch = np.where(ship, batch, np.nan)  # left out of the batch
            # Sheddable like flat-plane rules: the next epoch's batch
            # supersedes this one, and the missing batch_ack resolves
            # through the enforce deadline.
            s.feed_frame(
                pack_rows(
                    "rule_batch", epoch, s.generation,
                    batch[0], None if meta_limits is None else batch[1],
                ),
                sheddable=True,
            )
            # Commit the diff record only for rules that actually went
            # on the wire (an evicted batch must re-ship).
            s.shipped = np.where(ship, batch, s.shipped)
            if tracer.enabled:
                sent_at[s.aggregator_id] = tracer.now()

        def on_batch_ack(s: _AggregatorSession, message: dict) -> None:
            if tracer.enabled:
                t0 = sent_at.get(s.aggregator_id, enforce_started)
                tracer.for_track(s.aggregator_id).emit(
                    "enforce_rpc", t0, tracer.now() - t0,
                    parent="enforce", epoch=epoch,
                )

        _, phase_timed_out = await self._phase(
            [s for s in sessions if s.connected], feed_batch,
            "batch_ack", epoch, on_batch_ack, self.enforce_timeout_s,
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
            ),
            started,
        )
