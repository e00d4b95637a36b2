"""The live planes, and one call that runs one.

Every live plane is a stage fleet — ``n_stages``
:class:`~repro.live.stage_client.LiveVirtualStage` clients on this
process's loop, built and torn down in one place (:class:`_StageFleet`)
— plus what faces it over localhost TCP:

* :class:`LiveFlatPlane` — one :class:`~repro.live.controller_server.
  LiveGlobalController`, forked into a child (:mod:`repro.live.tier`);
* :class:`LiveFlatPair` — a primary and a hot standby
  :class:`~repro.live.controller_server.InProcessGlobalController`, both
  in this process (the takeover rule reads and writes their epochs);
* :class:`LiveHierPlane` — a :class:`~repro.live.controller_server.
  LiveHierGlobalController` in this process and every aggregator in one
  forked child.

:func:`run_live` runs the flat plane (``n_aggregators=0``) or the
hierarchy for some cycles and returns wall-clock cycle statistics.

``collect_timeout_s`` / ``enforce_timeout_s`` override the controllers'
phase deadlines, which are otherwise derived from the plane's size
(:func:`~repro.live.sessions.phase_deadline_s`): a dead or stalled stage
degrades a cycle, never stalls it. The result carries per-cycle
``n_missing``/``timed_out`` so degraded cycles are visible in every table
built from :class:`CycleStats`.

``observe=True`` turns on the :mod:`repro.obs` instrumentation: every
cycle is recorded as wall-clock spans (Chrome-trace exportable), the run
is sampled REMORA-style from ``/proc`` with per-controller attribution
(:class:`~repro.obs.procfs.LiveUsageSession`), and control-plane metrics
accumulate in a :class:`~repro.obs.metrics.MetricsRegistry` — optionally
scrapeable over HTTP while the run cycles (``metrics_port``; the flat
controller's arrive with each cycle it answers, the aggregator tier's
when it exits). The flat plane opens that window at its fork, before its
stages dial in; the hierarchy once its aggregators have registered.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.control_plane import default_policy
from repro.core.cycle import ControlCycle, CycleStats
from repro.core.policies import QoSPolicy
from repro.core.registry import partition_stages
from repro.live.controller_server import (
    InProcessGlobalController,
    LiveGlobalController,
    LiveHierGlobalController,
)
from repro.live.failover import LiveHotStandby
from repro.live.stage_client import LiveVirtualStage
from repro.live.tier import AggregatorHandle, AggregatorTier
from repro.monitoring.remora import RemoraReport
from repro.obs.metrics import MetricsRegistry, MetricsServer
from repro.obs.procfs import LiveUsageSession
from repro.obs.spans import SpanRecord, SpanTracer

__all__ = [
    "LiveFlatPair",
    "LiveFlatPlane",
    "LiveHierPlane",
    "LiveRunResult",
    "run_live",
]


@dataclass
class LiveRunResult:
    """Outcome of a live run: real cycle timings plus stage-side checks."""

    n_stages: int
    cycles: List[ControlCycle]
    rules_applied_total: int
    rules_stale_total: int
    #: Sessions evicted by the controller(s) after their socket died.
    evictions: int = 0
    #: Successful stage re-registrations (reconnect loop recoveries).
    reconnects: int = 0
    #: Wall-clock spans recorded during the run (empty unless observed).
    spans: List[SpanRecord] = field(default_factory=list)
    #: Per-controller usage rows (Tables II–IV style); None unless observed.
    usage_report: Optional[RemoraReport] = None
    #: Final Prometheus text exposition; None unless observed.
    metrics_text: Optional[str] = None
    #: Bound ``GET /metrics`` port; None unless a server was requested.
    metrics_port: Optional[int] = None

    def stats(self, warmup: int = 2) -> CycleStats:
        return CycleStats(self.cycles, warmup=min(warmup, max(len(self.cycles) - 1, 0)))

    @property
    def degraded_cycles(self) -> int:
        """Cycles that ran on partial metrics or hit a phase deadline."""
        return sum(1 for c in self.cycles if c.degraded)

    @property
    def missing_total(self) -> int:
        """Missing child replies summed over every cycle."""
        return sum(c.n_missing for c in self.cycles)


class _Obs:
    """Per-run observability bundle (tracer + usage session + metrics)."""

    def __init__(self, observe: bool, metrics_port: Optional[int]) -> None:
        self.tracer: Optional[SpanTracer] = None
        self.usage: Optional[LiveUsageSession] = None
        self.registry: Optional[MetricsRegistry] = None
        self.server: Optional[MetricsServer] = None
        self._metrics_port = metrics_port
        if observe:
            self.tracer = SpanTracer(track="global-ctrl", clock_domain="wall")
            self.usage = LiveUsageSession()
            self.registry = MetricsRegistry()

    def tracer_for(self, track: str):
        return self.tracer.for_track(track) if self.tracer is not None else None

    def meter_for(self, name: str):
        return self.usage.meter(name) if self.usage is not None else None

    async def start(self) -> None:
        if self.registry is not None and self._metrics_port is not None:
            self.server = MetricsServer(self.registry, port=self._metrics_port)
            await self.server.start()
        if self.usage is not None:
            self.usage.start()

    async def stop(self) -> None:
        if self.usage is not None:
            await self.usage.stop()
        if self.server is not None:
            await self.server.stop()

    def finish(self, result: LiveRunResult) -> LiveRunResult:
        """Attach whatever was observed to the run result."""
        if self.tracer is not None:
            result.spans = self.tracer.spans
        if self.usage is not None:
            result.usage_report = self.usage.report()
        if self.registry is not None:
            result.metrics_text = self.registry.render()
        if self.server is not None:
            result.metrics_port = self.server.port
        return result


class _StageFleet:
    """The stage clients every live plane serves, and their lifecycle.

    Stage ``i`` is ``stage-%05d`` of job ``job-%05d``. The stages are
    split once into ``n_homes`` contiguous runs (:attr:`partitions`, by
    :func:`~repro.core.registry.partition_stages`), one per listener the
    plane homes them on, so :attr:`stages` is in id order on every
    design. Each stage runs as its own
    ``asyncio.create_task(stage.run())``: the benchmark's arrival pacing
    recognises that coroutine. A plane adds ``start``, ``run_cycles``
    and ``_stop_control`` (what :meth:`stop` takes down between the
    stages and their tasks).
    """

    def __init__(
        self, n_stages: int, n_homes: int, stage_backoff: Optional[Dict[str, float]]
    ) -> None:
        if n_stages < 1:
            raise ValueError(f"n_stages must be >= 1: {n_stages}")
        self.n_stages = n_stages
        #: The stage ids each home owns, in home order.
        self.partitions = partition_stages(
            [f"stage-{i:05d}" for i in range(n_stages)], n_homes
        )
        #: Stage reconnect-backoff overrides (tests shrink the delays).
        self._stage_backoff = dict(stage_backoff or {})
        self.stages: List[LiveVirtualStage] = []
        self._stage_tasks: List[asyncio.Task] = []

    def _launch(self, homes: List[Tuple[str, int]], alternates=None) -> None:
        """Build every stage, homed on ``homes`` (one per partition), and
        start each one."""
        for (host, port), owned in zip(homes, self.partitions, strict=True):
            for stage_id in owned:
                stage = LiveVirtualStage(
                    host,
                    port,
                    stage_id=stage_id,
                    job_id=stage_id.replace("stage", "job"),
                    alternates=alternates,
                    **self._stage_backoff,
                )
                self.stages.append(stage)
                self._stage_tasks.append(asyncio.create_task(stage.run()))

    async def stop(self) -> None:
        """Graceful teardown: the stages, the plane's controllers, then
        the stage tasks."""
        for stage in self.stages:
            stage.stop()
        await self._stop_control()
        for task in self._stage_tasks:
            task.cancel()
        await asyncio.gather(*self._stage_tasks, return_exceptions=True)
        self._stage_tasks = []

    def probe(self) -> Dict[str, Dict[str, Any]]:
        """Each stage's enforcement state, by stage id."""
        return {
            s.stage_id: {
                "applied_epoch": s.applied_epoch,
                "applied_limit": s.applied_limit,
                "rules_applied": s.rules_applied,
                "rules_stale": s.rules_ignored_stale,
            }
            for s in self.stages
        }

    @property
    def rules_applied_total(self) -> int:
        """Rules accepted by stage-side fencing, across all generations."""
        return sum(s.rules_applied for s in self.stages)

    @property
    def rules_stale_total(self) -> int:
        """Rules discarded as stale by stage-side fencing."""
        return sum(s.rules_ignored_stale for s in self.stages)

    @property
    def reconnects(self) -> int:
        """Successful stage re-registrations (re-homes included)."""
        return sum(s.reconnects for s in self.stages)


class LiveFlatPlane(_StageFleet):
    """The flat live plane: one :class:`LiveGlobalController`, forked at
    :meth:`start`, and its ``n_stages`` stages in this process."""

    def __init__(
        self,
        n_stages: int,
        policy: Optional[QoSPolicy] = None,
        collect_timeout_s: Optional[float] = None,
        enforce_timeout_s: Optional[float] = None,
        obs: Optional[_Obs] = None,
    ) -> None:
        super().__init__(n_stages, 1, None)
        obs = self._obs = obs if obs is not None else _Obs(False, None)
        self.policy = policy or default_policy(n_stages)
        self.controller = LiveGlobalController(
            self.policy,
            expected_stages=n_stages,
            collect_timeout_s=collect_timeout_s,
            enforce_timeout_s=enforce_timeout_s,
            span_tracer=obs.tracer_for("global-ctrl"),
            usage_meter=obs.meter_for("global-ctrl"),
            metrics=obs.registry,
        )

    async def start(self) -> None:
        """Fork the controller, home every stage on it, wait for them.

        The observation window (usage sampling, ``/metrics``) opens
        between the fork and the stages' dials, so the controller's
        registration work is part of what it is charged.
        """
        await self.controller.start()
        await self._obs.start()
        self._launch([(self.controller.host, self.controller.port)])
        await self.controller.wait_for_stages()

    async def run_cycles(self, n_cycles: int) -> List[ControlCycle]:
        return await self.controller.run_cycles(n_cycles)

    @property
    def evictions(self) -> int:
        return self.controller.evictions

    async def _stop_control(self) -> None:
        await self.controller.shutdown()


class LiveHierPlane(_StageFleet):
    """A restartable hierarchical live plane (controller + aggs + stages).

    Owns the whole process tree the hierarchical harness used to build
    inline: one :class:`LiveHierGlobalController` and ``n_stages`` stage
    clients in this process, and ``n_aggregators``
    :class:`~repro.live.aggregator_server.LiveAggregator` servers in one
    forked child, the aggregator tier (:mod:`repro.live.tier`) — the
    offload of the paper's Table IV, on the host's second core.
    :attr:`aggregators` holds one
    :class:`~repro.live.tier.AggregatorHandle` per aggregator. The plane
    persists across control runs and supports **full-plane restart**:

    * :meth:`kill_plane` aborts every controller socket without a
      goodbye and SIGKILLs the tier — ``kill -9`` on the whole control
      plane. Stage clients stay alive, keep enforcing their last rules,
      and keep their ``applied_epoch`` fencing state.
    * :meth:`plane_restart` rebinds the *same* ports (free the moment
      the controller listener's synchronous ``close()`` returned and the
      old tier was reaped) with a
      caller-supplied ``initial_epoch``, typically a durable store's
      :meth:`~repro.store.DurableStore.resume_epoch`. Surviving stages
      re-home through their reconnect loops; restarted aggregators boot
      as hot spares (``expected_stages=0``) and adopt whoever arrives,
      so re-homed stages may land on any aggregator.

    The epoch contract this preserves: stage fencing only accepts rules
    with ``epoch > applied_epoch``, so a restart resumed *at or below*
    the pre-kill epoch would be silently fenced out forever — visible in
    tests as ``rules_applied`` never advancing after restart.
    """

    def __init__(
        self,
        n_stages: int,
        n_aggregators: int,
        policy: Optional[QoSPolicy] = None,
        collect_timeout_s: Optional[float] = None,
        enforce_timeout_s: Optional[float] = None,
        enforce_changed_only: bool = False,
        rule_change_tolerance: float = 0.0,
        initial_epoch: int = 0,
        obs: Optional[_Obs] = None,
        stage_backoff: Optional[Dict[str, float]] = None,
        degradation=None,
        demand_clamp=None,
        session_outbox_bytes: Optional[int] = None,
    ) -> None:
        if not 1 <= n_aggregators <= n_stages:
            raise ValueError("n_aggregators must be in [1, n_stages]")
        super().__init__(n_stages, n_aggregators, stage_backoff)
        self.n_aggregators = n_aggregators
        self.policy = policy or default_policy(n_stages)
        self.collect_timeout_s = collect_timeout_s
        self.enforce_timeout_s = enforce_timeout_s
        self.enforce_changed_only = enforce_changed_only
        self.rule_change_tolerance = rule_change_tolerance
        self.initial_epoch = initial_epoch
        self._obs = obs if obs is not None else _Obs(False, None)
        #: Guard instances shared across controller generations: a plane
        #: restart must not reset the degradation ladder's streaks or the
        #: clamp's earned trust (see repro.guard).
        self.degradation = degradation
        self.demand_clamp = demand_clamp
        self.session_outbox_bytes = session_outbox_bytes
        self.controller: Optional[LiveHierGlobalController] = None
        self.aggregators: List[AggregatorHandle] = []
        self._tier: Optional[AggregatorTier] = None
        #: Ports pinned at first start and reused by every restart.
        self._ctrl_port = 0
        self._agg_ports = [0] * n_aggregators
        #: Completed full-plane restarts.
        self.restarts = 0
        #: Evictions accumulated across dead controller and tier generations.
        self._evictions_past = 0

    # -- lifecycle -----------------------------------------------------------
    async def start(self, initial_epoch: Optional[int] = None) -> None:
        """Boot (or re-boot) the plane; idempotent ports after first call."""
        if self.controller is not None:
            raise RuntimeError("plane already started")
        if initial_epoch is not None:
            self.initial_epoch = initial_epoch
        obs = self._obs
        restarting = bool(self.stages)
        self.controller = LiveHierGlobalController(
            self.policy,
            expected_aggregators=self.n_aggregators,
            port=self._ctrl_port,
            collect_timeout_s=self.collect_timeout_s,
            enforce_timeout_s=self.enforce_timeout_s,
            enforce_changed_only=self.enforce_changed_only,
            rule_change_tolerance=self.rule_change_tolerance,
            initial_epoch=self.initial_epoch,
            span_tracer=obs.tracer_for("global-ctrl"),
            usage_meter=obs.meter_for("global-ctrl"),
            metrics=obs.registry,
            degradation=self.degradation,
            demand_clamp=self.demand_clamp,
            session_outbox_bytes=self.session_outbox_bytes,
        )
        await self.controller.start()
        self._ctrl_port = self.controller.port
        # Restarted aggregators boot as hot spares: surviving stages
        # rotate through alternates, so any stage may re-home to any
        # aggregator — expecting the original partition back would
        # deadlock registration.
        specs = [
            (f"aggregator-{a:02d}", 0 if restarting else len(owned), self._agg_ports[a])
            for a, owned in enumerate(self.partitions)
        ]
        self._tier = AggregatorTier(obs)
        await self._tier.start(
            specs,
            self.controller.host,
            self._ctrl_port,
            self.collect_timeout_s,
            self.enforce_timeout_s,
            self.session_outbox_bytes,
        )
        self.aggregators = self._tier.handles
        self._agg_ports = [agg.port for agg in self.aggregators]
        if not restarting:
            self._launch([(agg.host, agg.port) for agg in self.aggregators])
        await self.controller.wait_for_aggregators()

    async def wait_for_stages(self, timeout_s: float = 30.0) -> None:
        """Wait until every stage is registered somewhere in the tree."""
        if self._tier is None:
            raise RuntimeError("start() first")
        await self._tier.wait_members(self.n_stages, timeout_s)

    @property
    def registered_stages(self) -> int:
        """Stages currently homed on a live aggregator, tree-wide (the
        count the tier pushes whenever it moves: no call per read)."""
        return self._tier.registered if self._tier is not None else 0

    @property
    def interval_multiplier(self) -> float:
        """Cycle-interval stretch requested by the degradation ladder.

        The serve loop multiplies its sleep by this: at the STRETCH rung
        and above the plane runs fewer, cheaper-to-miss cycles.
        """
        if self.degradation is None:
            return 1.0
        return self.degradation.interval_multiplier

    async def run_cycles(self, n_cycles: int) -> List[ControlCycle]:
        """Run ``n_cycles`` control cycles on the current controller."""
        if self.controller is None:
            raise RuntimeError("start() first")
        return await self.controller.run_cycles(n_cycles)

    @property
    def epoch(self) -> int:
        """The current controller's rule epoch (0 when down)."""
        return self.controller.epoch if self.controller is not None else 0

    @property
    def evictions(self) -> int:
        """Evictions across all controller generations and aggregators."""
        live = self.controller.evictions if self.controller is not None else 0
        return self._evictions_past + live + sum(
            a.evictions for a in self.aggregators
        )

    async def _retire_tier(self, grace_s: Optional[float] = None) -> None:
        """Take the tier down and bank its evictions before its handles go.

        With ``grace_s`` the tier is stopped (:meth:`AggregatorTier.stop`):
        each aggregator's teardown — listener, then stage sessions, flushed
        — is its own to finish, and the tier is SIGKILLed only if still
        running after ``grace_s``. Without, it is killed outright, once it
        has handed over its counters and what it observed.
        """
        tier, self._tier = self._tier, None
        if tier is None:
            return
        if grace_s is None:
            tier.kill()
        else:
            await tier.stop(grace_s)
        # The handles keep the counters the tier sent on its way out.
        self._evictions_past += sum(a.evictions for a in self.aggregators)
        self.aggregators = []

    async def kill_plane(self) -> None:
        """Abort the controller and SIGKILL the aggregator tier.

        No shutdown frames: stages see EOF exactly as they would if the
        plane's processes died, and keep enforcing their last rules while
        their reconnect loops probe the (dead) ports.
        """
        if self.controller is None:
            return
        self._evictions_past += self.controller.evictions
        self.controller.kill()
        await self._retire_tier()
        self.controller = None

    async def plane_restart(self, initial_epoch: Optional[int] = None) -> None:
        """Kill the plane (ports kept free) and restart it.

        ``initial_epoch`` is the resume floor — pass a durable store's
        ``resume_epoch()`` to restore the crash-restart invariant, or
        leave ``None`` to keep the current floor (useful in tests that
        deliberately resume too low).
        """
        await self.kill_plane()
        await self.start(initial_epoch=initial_epoch)
        self.restarts += 1

    async def _stop_control(self) -> None:
        """The controller, then the tier."""
        if self.controller is not None:
            self._evictions_past += self.controller.evictions
            await self.controller.shutdown()
            self.controller = None
        await self._retire_tier(grace_s=2.0)


class LiveFlatPair(_StageFleet, LiveHotStandby):
    """The flat live plane with a hot standby: two
    :class:`InProcessGlobalController`\\ s under the standby rule,
    ``n_stages`` stages homed on the primary with the standby as
    alternate, and :attr:`controller` whoever holds control. Both stay in
    this process: the takeover rule reads and writes their epochs."""

    def __init__(
        self,
        n_stages: int,
        *,
        collect_timeout_s: float,
        evicted_grace_cycles: int,
        stage_backoff: Dict[str, float],
        heartbeat_interval_s: float,
        missed_heartbeats: int,
        span_tracer=None,
        metrics=None,
    ) -> None:
        _StageFleet.__init__(self, n_stages, 1, stage_backoff)
        self.policy = default_policy(n_stages)
        primary, standby = (
            InProcessGlobalController(
                self.policy,
                expected_stages=n_stages,
                collect_timeout_s=collect_timeout_s,
                evicted_grace_cycles=evicted_grace_cycles,
            )
            for _ in range(2)
        )
        LiveHotStandby.__init__(
            self, primary, standby, heartbeat_interval_s, missed_heartbeats, span_tracer, metrics
        )

    async def start(self) -> None:
        """Listen, home every stage on the primary, start the heartbeats."""
        primary, standby = self.primary, self.standby
        await primary.start()
        await standby.start()
        self._launch([(primary.host, primary.port)], alternates=[(standby.host, standby.port)])
        await primary.wait_for_stages()
        await super().start()

    @property
    def controller(self) -> InProcessGlobalController:
        return self.active_controller

    async def _stop_control(self) -> None:
        """The standby's watch, then both controllers."""
        await LiveHotStandby.stop(self)
        for controller in (self.primary, self.standby):
            await controller.shutdown()


def run_live(
    n_stages: int = 50,
    n_aggregators: int = 0,
    n_cycles: int = 20,
    policy: Optional[QoSPolicy] = None,
    collect_timeout_s: Optional[float] = None,
    enforce_timeout_s: Optional[float] = None,
    observe: bool = False,
    metrics_port: Optional[int] = None,
) -> LiveRunResult:
    """Run a live plane over real localhost TCP sockets: flat
    (:class:`LiveFlatPlane`) with ``n_aggregators=0``, else hierarchical
    (:class:`LiveHierPlane`)."""
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be >= 1: {n_cycles}")
    obs = _Obs(observe, metrics_port)
    timeouts = dict(collect_timeout_s=collect_timeout_s, enforce_timeout_s=enforce_timeout_s)
    if n_aggregators:
        plane = LiveHierPlane(n_stages, n_aggregators, policy, obs=obs, **timeouts)
    else:
        plane = LiveFlatPlane(n_stages, policy, obs=obs, **timeouts)

    async def run() -> List[ControlCycle]:
        try:
            await plane.start()
            if n_aggregators:  # the flat plane opens it at its fork
                await obs.start()
            # One cycle a call: each answer of a forked controller brings
            # its metrics, so what a scrape reads stays current.
            for _ in range(n_cycles):
                cycles = await plane.run_cycles(1)
            return list(cycles)
        finally:
            await plane.stop()
            await obs.stop()

    cycles = asyncio.run(run())
    return obs.finish(
        LiveRunResult(
            n_stages=n_stages,
            cycles=cycles,
            rules_applied_total=plane.rules_applied_total,
            rules_stale_total=plane.rules_stale_total,
            evictions=plane.evictions,
            reconnects=plane.reconnects,
        )
    )
