"""Chaos runners: execute a seeded fault schedule against a real plane.

* :func:`run_chaos_sim` steps a simulated plane (:mod:`repro.core.control_plane`)
  cycle by cycle: aggregator stop/start, stage black-holes, a primary kill
  against the :class:`~repro.core.failover.HotStandby`.
* :func:`run_chaos_live` with ``design="hier"`` runs the shipped
  :class:`~repro.live.harness.LiveHierPlane`, aggregators in its forked tier;
  ``design="flat"`` runs :class:`~repro.live.harness.LiveFlatPair`, a primary
  and a standby under :class:`~repro.live.failover.LiveHotStandby`.
* :func:`run_chaos_restart` kills the whole ``LiveHierPlane`` and restarts it
  from a durable store; :func:`run_chaos_overload` turns tenants adversarial
  and floods a :class:`~repro.service.server.ControlService`.

Every live leg runs through one per-cycle driver (:func:`_drive`):
inject the cycle's actions, run one cycle, pause, read what every stage
enforces (the plane's ``probe()``), check. Every live fault goes through one
dispatch (:class:`_Faults`), which calls the targets' own hooks: stage faults
on in-process stages, aggregator faults on the plane's
:class:`~repro.live.tier.AggregatorHandle`\\ s. No leg raises on a violation:
each returns a :class:`~repro.chaos.invariants.ChaosReport`, so CI can upload
it before failing the step. Sim faults last a fixed number of *cycles*, live
ones the schedule's ``duration_s``.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import replace
from typing import (
    Awaitable, Callable, Dict, Iterable, List, Optional, Tuple
)

from repro.chaos.invariants import ChaosReport, InvariantChecker, Violation
from repro.chaos.schedule import (
    ChaosSchedule,
    FaultAction,
    generate_overload_schedule,
    generate_restart_schedule,
    generate_schedule,
)

__all__ = [
    "run_chaos_sim",
    "run_chaos_live",
    "run_chaos_restart",
    "run_chaos_overload",
]

#: Sim-plane fault durations, in cycles (the sim has no useful wall clock).
SIM_FAULT_CYCLES = {
    "kill_aggregator": 3, "stall_aggregator": 1, "kill_stage": 2, "stall_stage": 1,
}

#: What a stage enforces: ``(stage_id, limit, epoch)``, epoch -1 before a rule.
Row = Tuple[str, Optional[float], int]


def _new_report(schedule: ChaosSchedule, plane: str) -> ChaosReport:
    return ChaosReport(plane=plane, **schedule.to_dict())


def _verdict(report: ChaosReport, checker: InvariantChecker) -> None:
    report.violations = checker.violations
    report.checks = checker.checks


def _check_applied(checker: InvariantChecker, cycle: int, rows: Iterable[Row]) -> None:
    """Capacity and epoch checks over what the stages enforce; a stage
    with no rule yet enforces nothing."""
    applied = [(stage_id, limit, epoch) for stage_id, limit, epoch in rows if epoch >= 0]
    checker.check_capacity(cycle, {stage_id: limit for stage_id, limit, _ in applied})
    checker.check_epochs(cycle, {stage_id: epoch for stage_id, _, epoch in applied})


def _probed_rows(probed: Dict[str, dict]) -> List[Row]:
    """Rows from a plane's ``probe()``."""
    return [(sid, r["applied_limit"], r["applied_epoch"]) for sid, r in probed.items()]


# ---------------------------------------------------------------------------
# Simulated plane
# ---------------------------------------------------------------------------

def run_chaos_sim(
    seed: int,
    design: str = "hier",
    n_stages: int = 12,
    n_aggregators: int = 3,
    n_cycles: int = 14,
) -> ChaosReport:
    """Run a seeded chaos schedule against the simulated plane.

    ``design="hier"`` steps a :class:`HierarchicalControlPlane` cycle by
    cycle under aggregator/stage faults. ``design="flat"`` runs a
    :class:`FlatControlPlane` guarded by a :class:`HotStandby` (built via
    :func:`~repro.core.failover.attach_standby`) and may kill the
    primary mid-run.
    """
    schedule = generate_schedule(
        seed, design, n_cycles, n_stages, n_aggregators if design == "hier" else 0
    )
    report = _new_report(schedule, "sim")
    if design == "hier":
        _sim_hier(schedule, report)
    else:
        _sim_flat_standby(schedule, report)
    return report


def _sim_rows(stages) -> List[Row]:
    return [(s.stage_id, s.current_limit, s.applied_epoch) for s in stages]


def _blackhole_stage(stage):
    """Drop a sim stage's traffic; returns the undo callable."""
    original = stage.endpoint.handler
    stage.endpoint.set_handler(lambda message, connection: None)
    return lambda: stage.endpoint.set_handler(original)


def _sim_hier(
    schedule: ChaosSchedule, report: ChaosReport
) -> None:
    from repro.core.control_plane import ControlPlaneConfig, HierarchicalControlPlane

    config = ControlPlaneConfig(n_stages=schedule.n_stages, collect_timeout_s=0.5)
    plane = HierarchicalControlPlane.build(config, schedule.n_aggregators)
    env = plane.env
    controller = plane.global_controller
    checker = InvariantChecker(config.policy.allocatable_iops)
    # Pending recoveries, keyed by the cycle index that restores them,
    # and per stage the first cycle its faults (its own, its
    # aggregator's) no longer cover.
    restore_at: Dict[int, List] = {}
    clear_at: Dict[str, int] = {}

    def fault(stage_ids, undo, cycles: int) -> None:
        restore_at.setdefault(cycle + cycles, []).append(undo)
        for stage_id in stage_ids:
            clear_at[stage_id] = max(clear_at.get(stage_id, 0), cycle + cycles)

    for cycle in range(schedule.n_cycles):
        for undo in restore_at.pop(cycle, []):
            undo()
        for action in schedule.at_cycle(cycle):
            cycles = SIM_FAULT_CYCLES[action.kind]
            if action.kind in ("kill_aggregator", "stall_aggregator"):
                agg = plane.aggregators[action.target]
                agg.stop()
                fault(agg.stage_ids, agg.start, cycles)
            else:
                stage = plane.stages[action.target]
                fault((stage.stage_id,), _blackhole_stage(stage), cycles)
        env.run(controller.run_cycles(1))
        report.cycles_completed += 1
        if controller.cycles[-1].degraded:
            report.cycles_degraded += 1
        rows = _sim_rows(plane.stages)
        _check_applied(checker, cycle, rows)
        checker.check_caught_up(
            cycle,
            {stage_id: max(epoch, 0) for stage_id, _, epoch in rows},
            controller.epoch,
            [s for s, until in clear_at.items() if until > cycle],
        )
    _verdict(report, checker)


def _sim_flat_standby(schedule: ChaosSchedule, report: ChaosReport) -> None:
    from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane
    from repro.core.failover import HotStandby, attach_standby

    # Probe an identical fault-free plane for the cycle period, so the
    # schedule's cycle coordinates translate to deterministic sim times.
    # Sim cycles run back-to-back (no pacing), so everything — heartbeat
    # interval, fault times, sampling — must scale with the cycle, not
    # with a wall clock.
    probe = FlatControlPlane.build(ControlPlaneConfig(n_stages=schedule.n_stages))
    probe.env.run(probe.global_controller.run_cycles(3))
    cycle_s = max(c.total_s for c in probe.global_controller.cycles)
    hb_s, missed = cycle_s / 2.0, 3

    config = ControlPlaneConfig(
        n_stages=schedule.n_stages, collect_timeout_s=2.0 * cycle_s
    )
    plane = FlatControlPlane.build(config)
    env = plane.env
    primary = plane.global_controller
    standby = attach_standby(plane)
    hot = HotStandby(
        env, primary, standby, heartbeat_interval_s=hb_s, missed_heartbeats=missed
    )
    checker = InvariantChecker(config.policy.allocatable_iops)

    for action in schedule.actions:
        # Fault-free cycle duration is a lower bound on progress, so a
        # kill mapped this way always lands while the run is in flight.
        when = max(action.cycle, 1) * cycle_s
        if action.kind == "kill_primary":
            env.call_at(when, hot.kill_primary)
        elif action.kind in ("kill_stage", "stall_stage"):
            stage = plane.stages[action.target]
            until = when + SIM_FAULT_CYCLES[action.kind] * cycle_s

            def down(stage=stage, until=until) -> None:
                undo = _blackhole_stage(stage)
                env.call_at(until, undo)

            env.call_at(when, down)

    def sample_invariants():
        while True:
            yield env.timeout(cycle_s)
            _check_applied(checker, hot.total_cycles(), _sim_rows(plane.stages))

    env.process(sample_invariants(), name="chaos-checker")
    watch = hot.start(schedule.n_cycles)
    env.run(watch)

    report.cycles_completed = hot.total_cycles()
    report.cycles_degraded = sum(c.degraded for c in (*primary.cycles, *standby.cycles))
    if hot.failover is not None:
        # Bound: heartbeat silence budget + watchdog poll granularity
        # + one (degraded, timeout-extended) control cycle.
        bound_s = hb_s * missed + hb_s + 2.0 * cycle_s
        _record_takeover(checker, report, hot.total_cycles(), hot.failover, bound_s)
    _missed_takeover(checker, report, schedule)
    _verdict(report, checker)


def _record_takeover(checker, report, cycle: int, failover, bound_s: float) -> None:
    report.takeovers = 1
    report.gap_s = failover.gap_s
    checker.check_gap(cycle, failover.gap_s, bound_s)


def _missed_takeover(checker, report, schedule: ChaosSchedule) -> None:
    if not report.takeovers and schedule.kills_of("kill_primary"):
        checker.violations.append(
            Violation(schedule.n_cycles, "gap", "primary killed but no takeover")
        )


# ---------------------------------------------------------------------------
# Live planes: one fault dispatch, one per-cycle driver
# ---------------------------------------------------------------------------

_LIVE_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)
#: How long a restarted plane may take to re-home every stage.
_RECOVER_S = 15.0


class _Faults:
    """The live legs' one fault dispatch, over the targets' own hooks.

    Stage faults act on in-process stages, a primary kill on a plane's
    hot-standby pair; aggregator faults on a plane's
    :class:`~repro.live.tier.AggregatorHandle`\\ s, so a stall is a real
    pause of the aggregator in its tier process. A killed aggregator
    takes no more faults. Stalls run as tasks until :meth:`stop`.
    """

    def __init__(self) -> None:
        #: Indexes of the aggregators killed.
        self.down: set = set()
        self._stalls: List[asyncio.Task] = []

    def inject(self, action: FaultAction, plane) -> None:
        """Inject ``action`` on its stage or aggregator of ``plane``."""
        kind, target = action.kind, action.target
        if kind == "kill_stage":
            plane.stages[target].kill()
        elif kind == "stall_stage":
            self._stall(plane.stages[target], action.duration_s)
        elif kind == "kill_primary":
            plane.kill_primary()
        elif target in self.down:
            pass
        elif kind == "stall_aggregator":
            self._stall(plane.aggregators[target], action.duration_s)
        elif kind == "kill_aggregator":
            self.down.add(target)
            plane.aggregators[target].kill()

    def _stall(self, target, seconds: float) -> None:
        from repro.live.faults import stall

        self._stalls.append(asyncio.create_task(stall(target, seconds)))

    async def stop(self) -> None:
        for task in self._stalls:
            task.cancel()
        await asyncio.gather(*self._stalls, return_exceptions=True)


async def _drive(
    schedule: ChaosSchedule,
    report: ChaosReport,
    checker: InvariantChecker,
    plane,
    inject: Callable[[int, List[FaultAction]], Awaitable[None]],
    cycle_period_s: float,
    step: Optional[Callable[[], Awaitable]] = None,
    check: Optional[Callable[[int], None]] = None,
    stretch: Callable[[], float] = lambda: 1.0,
) -> None:
    """The live legs' one per-cycle loop, over a plane the package ships.

    Per cycle: ``inject`` the cycle's actions, run one cycle (``step``,
    by default ``plane.run_cycles(1)``), pause ``cycle_period_s`` times
    ``stretch()``, then check what every stage enforces
    (``plane.probe()``), who is orphaned, and whatever else the leg
    checks (``check(cycle)``). ``plane.controller`` is read afresh each
    time: a full-plane restart replaces it.
    """
    for cycle in range(schedule.n_cycles):
        await inject(cycle, schedule.at_cycle(cycle))
        await (step() if step is not None else plane.run_cycles(1))
        await asyncio.sleep(cycle_period_s * stretch())
        report.cycles_completed += 1
        if plane.controller.cycles[-1].degraded:
            report.cycles_degraded += 1
        _check_applied(checker, cycle, _probed_rows(plane.probe()))
        checker.check_orphans(cycle, plane.controller.orphans)
        if check is not None:
            check(cycle)
    # A flat controller re-homes nobody.
    report.rehomes = getattr(plane.controller, "rehomes", 0)


def run_chaos_live(
    seed: int,
    design: str = "hier",
    n_stages: int = 9,
    n_aggregators: int = 3,
    n_cycles: int = 12,
    cycle_period_s: float = 0.1,
) -> ChaosReport:
    """Run a seeded chaos schedule against the live asyncio plane.

    ``design="hier"`` exercises aggregator kill/stall with stage
    re-homing on a :class:`~repro.live.harness.LiveHierPlane`: the
    aggregator faults cross into its forked tier. ``design="flat"``
    exercises a :class:`~repro.live.harness.LiveFlatPair` (``kill_primary``
    actions) alongside stage faults; the takeover's gap is checked in the
    cycle the standby's first cycle ran.
    """
    schedule = generate_schedule(
        seed, design, n_cycles, n_stages, n_aggregators if design == "hier" else 0
    )
    report = _new_report(schedule, "live")
    from repro.live.harness import LiveFlatPair, LiveHierPlane

    check = None
    if design == "hier":
        plane = LiveHierPlane(
            schedule.n_stages,
            schedule.n_aggregators,
            collect_timeout_s=0.5,
            stage_backoff=_LIVE_BACKOFF,
        )
    else:
        hb_s, missed = 0.1, 3
        plane = LiveFlatPair(
            schedule.n_stages,
            collect_timeout_s=0.5,
            evicted_grace_cycles=5,
            stage_backoff=_LIVE_BACKOFF,
            heartbeat_interval_s=hb_s,
            missed_heartbeats=missed,
        )
        # One cycle's allowance on the live plane = the pacing period
        # plus the cycle itself (generously bounded by one period).
        bound_s = hb_s * missed + 2 * cycle_period_s + 0.2

        def check(cycle: int) -> None:
            if plane.failover is not None and not report.takeovers:
                _record_takeover(checker, report, cycle, plane.failover, bound_s)

    checker = InvariantChecker(plane.policy.allocatable_iops)
    faults = _Faults()

    async def inject(cycle: int, actions: List[FaultAction]) -> None:
        for action in actions:
            faults.inject(action, plane)

    async def run() -> None:
        try:
            await plane.start()
            await _drive(schedule, report, checker, plane, inject, cycle_period_s, check=check)
        finally:
            await faults.stop()
            await plane.stop()

    asyncio.run(run())
    _missed_takeover(checker, report, schedule)
    _verdict(report, checker)
    return report


# ---------------------------------------------------------------------------
# Full-plane restart (durable-store recovery)
# ---------------------------------------------------------------------------

def run_chaos_restart(
    seed: int,
    n_stages: int = 9,
    n_aggregators: int = 3,
    n_cycles: int = 14,
    cycle_period_s: float = 0.05,
    store_dir: Optional[str] = None,
) -> ChaosReport:
    """Kill the *whole* live plane mid-schedule and restart from store.

    The controller and every aggregator die at once (socket aborts, and
    a SIGKILL of the aggregator tier), surviving stages keep enforcing
    their last rules, and the plane restarts from a fresh
    :class:`~repro.store.DurableStore` recovery at ``resume_epoch()``. On
    top of the standing capacity/epoch/orphan checks, every
    post-restart cycle asserts the **resume floor**: the issued epoch
    stays strictly above the durable epoch at kill time.
    ``store_dir=None`` uses a run-scoped temporary directory.
    """
    import tempfile

    from repro.live.harness import LiveHierPlane
    from repro.store.durable import DurableStore

    schedule = generate_restart_schedule(seed, n_cycles, n_stages, n_aggregators)
    report = _new_report(schedule, "live")
    if store_dir is None:
        store_dir = tempfile.mkdtemp(prefix="repro-chaos-store-")
    store = DurableStore(store_dir, lease_batch=8)
    plane = LiveHierPlane(
        schedule.n_stages,
        schedule.n_aggregators,
        collect_timeout_s=0.5,
        enforce_timeout_s=0.5,
        initial_epoch=store.resume_epoch(),
        stage_backoff=_LIVE_BACKOFF,
    )
    checker = InvariantChecker(plane.policy.allocatable_iops)
    resume_floor = 0

    async def inject(cycle: int, actions: List[FaultAction]) -> None:
        nonlocal store, resume_floor
        for action in actions:
            if action.kind != "kill_plane":
                continue
            resume_floor = store.last_durable_epoch
            await plane.kill_plane()
            store.close()
            # A fresh store handle runs the full recovery path, as a
            # restarted process would: snapshot + WAL fold + compact.
            store = DurableStore(store_dir, lease_batch=8)
            await plane.plane_restart(initial_epoch=store.resume_epoch())
            report.restarts += 1
            try:
                await plane.wait_for_stages(timeout_s=_RECOVER_S)
            except asyncio.TimeoutError:
                checker.violations.append(
                    Violation(
                        cycle,
                        "rehome",
                        f"only {plane.registered_stages}/{schedule.n_stages} stages "
                        f"re-homed within {_RECOVER_S}s of restart",
                    )
                )

    async def step() -> None:
        if plane.epoch + 1 > store.state.leased_epoch:
            store.lease_epochs()
        await plane.run_cycles(1)
        store.record_cycle(plane.epoch, n_stages=schedule.n_stages)

    def check(cycle: int) -> None:
        checker.check_resume(cycle, plane.epoch, resume_floor)

    async def run() -> None:
        try:
            await plane.start()
            await _drive(
                schedule, report, checker, plane, inject, cycle_period_s, step, check
            )
        finally:
            await plane.stop()
            store.close()

    asyncio.run(run())
    _verdict(report, checker)
    return report


# ---------------------------------------------------------------------------
# Overload (adversarial tenants + request flood)
# ---------------------------------------------------------------------------

#: Demand tuples adversaries report while active (data_iops, metadata_iops).
LIAR_DEMAND_IOPS = 50_000.0
NOISY_DEMAND_IOPS = 8_000.0
STORM_METADATA_IOPS = 20_000.0


async def _overload_request(
    host: str, port: int, method: str, path: str, body: bytes = b""
) -> int:
    """One short-lived HTTP request; returns the status code (-1 = error)."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError:
        return -1
    try:
        head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        writer.write(f"{head}Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await writer.drain()
        parts = (await asyncio.wait_for(reader.read(), timeout=5.0)).split(None, 2)
        return int(parts[1]) if len(parts) >= 2 else -1
    except (asyncio.TimeoutError, ValueError, OSError):
        return -1
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()


def _p99(samples: List[float]) -> Optional[float]:
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(0.99 * (len(ordered) - 1) + 0.999999))
    return ordered[index]


def run_chaos_overload(
    seed: int,
    n_stages: int = 9,
    n_aggregators: int = 3,
    n_cycles: int = 18,
    cycle_period_s: float = 0.05,
    flood_factor: float = 10.0,
    admission_rate: float = 200.0,
    session_outbox_bytes: int = 64 * 1024,
    healthz_p99_bound_s: float = 1.0,
    share_fraction: float = 0.9,
    store_dir: Optional[str] = None,
) -> ChaosReport:
    """Overload the full service stack and check it degrades, not dies.

    A real ``ControlService`` (durable store + live hier plane + REST
    front door) with every guard armed: an admission gate at
    ``admission_rate`` req/s, bounded per-session outboxes, the demand
    clamp and the degradation ladder. While the schedule's adversarial
    tenants lie about demand (the liar's aggregator killed, so the lie
    flows through orphan reservation), a client floods the HTTP API at
    ``flood_factor ×`` the admission rate. Per cycle: capacity, epoch,
    orphan, honest-share and queue-bound invariants; at the end,
    ``/healthz`` answered throughout within a bounded p99, and the gate
    shed the flood.
    """
    import tempfile
    import time

    from repro.core.registry import partition_stages
    from repro.guard import AdmissionGate, DegradationLadder, DemandClamp
    from repro.obs.metrics import MetricsRegistry
    from repro.service.api import ServiceApi
    from repro.service.http import HttpServer
    from repro.service.server import ControlService

    schedule = generate_overload_schedule(seed, n_cycles, n_stages, n_aggregators)
    report = _new_report(schedule, "live")
    if store_dir is None:
        store_dir = tempfile.mkdtemp(prefix="repro-chaos-overload-")
    metrics = MetricsRegistry()
    service = ControlService.open(
        store_dir,
        n_stages=schedule.n_stages,
        n_aggregators=schedule.n_aggregators,
        cycle_period_s=cycle_period_s,
        collect_timeout_s=0.5,
        enforce_timeout_s=0.5,
        metrics=metrics,
        stage_backoff=_LIVE_BACKOFF,
        degradation=DegradationLadder(trip_after=2, recover_after=3),
        demand_clamp=DemandClamp(),
        session_outbox_bytes=session_outbox_bytes,
    )
    gate = AdmissionGate(rate=admission_rate, metrics=metrics)
    api = ServiceApi(service, gate=gate, metrics=metrics)
    http = HttpServer(api.handle, metrics=metrics, max_connections=256)
    plane = service.plane
    checker = InvariantChecker(service.policy.allocatable_iops)
    faults = _Faults()
    stop = asyncio.Event()
    flood_statuses: Dict[int, int] = {}
    flood_tasks: List[asyncio.Task] = []
    flood_sem = asyncio.Semaphore(192)
    healthz_latencies: List[float] = []
    healthz_failures = 0

    async def flood_one(method: str, path: str, body: bytes) -> None:
        async with flood_sem:
            status = await _overload_request(http.host, http.port, method, path, body)
        flood_statuses[status] = flood_statuses.get(status, 0) + 1

    async def flood() -> None:
        # flood_factor × the admission rate, fired without waiting (a real
        # flood does not pace itself on the server's fsync latency) up to a
        # client-side socket cap: mostly a noisy tenant's mutations, some
        # reads. Statuses are tallied, never asserted: shedding is expected.
        batch = max(1, int(flood_factor * admission_rate * cycle_period_s))
        body = b'{"tenant_id": "noisy", "weight": 1}'
        while not stop.is_set():
            flood_tasks[:] = [t for t in flood_tasks if not t.done()]
            for i in range(batch):
                if i % 4 == 0:
                    call = flood_one("GET", "/rules", b"")
                else:
                    call = flood_one("POST", "/tenants", body)
                flood_tasks.append(asyncio.create_task(call))
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=cycle_period_s)

    async def probe_healthz() -> None:
        nonlocal healthz_failures
        while not stop.is_set():
            started = time.perf_counter()
            status = await _overload_request(http.host, http.port, "GET", "/healthz")
            healthz_latencies.append(time.perf_counter() - started)
            if status != 200:
                healthz_failures += 1
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=cycle_period_s / 2)

    original_demand: Dict[int, tuple] = {}
    adversary_ids: set = set()
    partitions = partition_stages(range(schedule.n_stages), schedule.n_aggregators)
    homes = {stage: a for a, owned in enumerate(partitions) for stage in owned}

    async def inject(cycle: int, actions: List[FaultAction]) -> None:
        for action in actions:
            stage = plane.stages[action.target]
            if action.kind in ("demand_liar", "noisy_neighbor", "metadata_storm"):
                original_demand.setdefault(action.target, stage.demand)
                adversary_ids.add(stage.stage_id)
            if action.kind == "demand_liar":
                stage.demand = (LIAR_DEMAND_IOPS, stage.demand[1])
            elif action.kind == "noisy_neighbor":
                stage.demand = (NOISY_DEMAND_IOPS, stage.demand[1])
            elif action.kind == "metadata_storm":
                stage.demand = (stage.demand[0], STORM_METADATA_IOPS)
            elif action.kind == "orphan_liar":
                # The lie reaches the orphan reservation: kill its home.
                home = homes[action.target]
                kill = replace(action, kind="kill_aggregator", target=home)
                faults.inject(kill, plane)
            elif action.kind == "restore" and action.target in original_demand:
                stage.demand = original_demand[action.target]

    def check(cycle: int) -> None:
        allocations = dict(plane.controller.last_allocations)
        if allocations:
            demands = {s.stage_id: s.demand[0] + s.demand[1] for s in plane.stages}
            weights = dict.fromkeys(demands, 1.0)
            checker.check_honest_share(
                cycle, allocations, demands, weights, adversary_ids, share_fraction
            )
        pending = {
            f"controller:{peer}": s.outbox.pending_bytes
            for peer, s in plane.controller.sessions.items()
        }
        for agg in plane.aggregators:
            for peer, s in agg.sessions.items():
                pending[f"{agg.aggregator_id}:{peer}"] = s.pending_bytes
        checker.check_queue_bounds(cycle, pending, session_outbox_bytes)

    async def run() -> None:
        background: List[asyncio.Task] = []
        try:
            await service.start(run_cycles=False)
            await http.start()
            await plane.wait_for_stages(timeout_s=15.0)
            background = [
                asyncio.create_task(flood()),
                asyncio.create_task(probe_healthz()),
            ]
            await _drive(
                schedule,
                report,
                checker,
                plane,
                inject,
                cycle_period_s,
                service.cycle_once,
                check,
                stretch=lambda: plane.interval_multiplier,
            )
        finally:
            stop.set()
            for task in background:
                task.cancel()
            await asyncio.gather(*background, return_exceptions=True)
            # Let in-flight flood requests finish (briefly), then cut them.
            if flood_tasks:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        asyncio.gather(*flood_tasks, return_exceptions=True),
                        timeout=2.0,
                    )
                for task in flood_tasks:
                    task.cancel()
                await asyncio.gather(*flood_tasks, return_exceptions=True)
            await http.stop()
            await service.stop()

    asyncio.run(run())
    report.requests_flooded = sum(flood_statuses.values())
    report.requests_admitted = gate.admitted_total
    report.requests_shed = gate.shed_total + http.connections_shed
    report.healthz_p99_s = _p99(healthz_latencies)
    checker.check_healthz(
        schedule.n_cycles,
        report.healthz_p99_s,
        healthz_p99_bound_s,
        probes=len(healthz_latencies),
        failures=healthz_failures,
    )
    checker.checks += 1
    if report.requests_shed == 0:
        checker.violations.append(
            Violation(
                schedule.n_cycles,
                "shed",
                f"{flood_factor}x flood of {report.requests_flooded} "
                "requests recorded zero sheds — the gate is not engaged",
            )
        )
    _verdict(report, checker)
    return report
