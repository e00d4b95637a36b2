"""Chaos runners: execute a seeded fault schedule against a real plane.

Two entry points, one per plane:

* :func:`run_chaos_sim` — steps a simulated control plane
  (:mod:`repro.core.control_plane`) cycle by cycle, injecting the
  schedule's faults in cycle coordinates (aggregator stop/start, stage
  black-holes, primary kill against the :class:`~repro.core.failover.HotStandby`).
* :func:`run_chaos_live` — stands up a real asyncio TCP cluster
  (:mod:`repro.live`), paces cycles on the wall clock, and injects the
  live fault menagerie (:mod:`repro.live.faults`), including
  ``kill_primary`` against :class:`~repro.live.failover.LiveHotStandby`.

Both check the tentpole invariants after every cycle via
:class:`~repro.chaos.invariants.InvariantChecker` and return a
:class:`~repro.chaos.invariants.ChaosReport` — they never raise on a
violation, so CI can upload the full report before failing the step.

Fault durations are translated per plane: the simulator has no wall
clock, so stalls/kills last a fixed number of *cycles* there, while the
live plane uses the schedule's ``duration_s`` directly.

:func:`run_chaos_shard` extends the menagerie to the multi-process plane
(:mod:`repro.shard`): aggregator faults become real ``SIGKILL``s of
forked shard processes, with the pinned partition re-spawned a fixed
number of cycles later, and the invariants are checked through each
shard's ``probe`` call instead of in-process stage objects.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import asdict
from typing import Dict, List, Optional

from repro.chaos.invariants import ChaosReport, InvariantChecker, Violation
from repro.chaos.schedule import (
    ChaosSchedule,
    generate_overload_schedule,
    generate_restart_schedule,
    generate_schedule,
)

__all__ = [
    "run_chaos_sim",
    "run_chaos_live",
    "run_chaos_restart",
    "run_chaos_shard",
    "run_chaos_overload",
]

#: Sim-plane fault durations, in cycles (the sim has no useful wall clock).
SIM_AGG_KILL_CYCLES = 3
SIM_AGG_STALL_CYCLES = 1
SIM_STAGE_KILL_CYCLES = 2
SIM_STAGE_STALL_CYCLES = 1


def _new_report(schedule: ChaosSchedule, plane: str) -> ChaosReport:
    return ChaosReport(
        seed=schedule.seed,
        plane=plane,
        design=schedule.design,
        n_cycles=schedule.n_cycles,
        n_stages=schedule.n_stages,
        n_aggregators=schedule.n_aggregators,
        actions=[asdict(a) for a in schedule.actions],
    )


# ---------------------------------------------------------------------------
# Simulated plane
# ---------------------------------------------------------------------------

def run_chaos_sim(
    seed: int,
    design: str = "hier",
    n_stages: int = 12,
    n_aggregators: int = 3,
    n_cycles: int = 14,
    rehome_bound_cycles: int = 3,
    schedule: Optional[ChaosSchedule] = None,
) -> ChaosReport:
    """Run a seeded chaos schedule against the simulated plane.

    ``design="hier"`` steps a :class:`HierarchicalControlPlane` cycle by
    cycle under aggregator/stage faults. ``design="flat"`` runs a
    :class:`FlatControlPlane` guarded by a :class:`HotStandby` (built via
    :func:`~repro.core.failover.attach_flat_standby`) and may kill the
    primary mid-run.
    """
    if schedule is None:
        schedule = generate_schedule(
            seed, design, n_cycles, n_stages,
            n_aggregators if design == "hier" else 0,
        )
    report = _new_report(schedule, "sim")
    if design == "hier":
        _sim_hier(schedule, report, rehome_bound_cycles)
    else:
        _sim_flat_standby(schedule, report)
    return report


def _sim_checks(checker: InvariantChecker, cycle: int, stages) -> None:
    limits: Dict[str, float] = {}
    epochs: Dict[str, int] = {}
    for stage in stages:
        rule = stage.applied_rule
        if rule is not None:
            limits[stage.stage_id] = stage.current_limit
            epochs[stage.stage_id] = rule.epoch
    checker.check_capacity(cycle, limits)
    checker.check_epochs(cycle, epochs)


def _blackhole_stage(stage):
    """Drop a sim stage's traffic; returns the undo callable."""
    original = stage.endpoint.handler

    def black_hole(message, connection) -> None:
        pass

    stage.endpoint.set_handler(black_hole)
    return lambda: stage.endpoint.set_handler(original)


def _sim_hier(
    schedule: ChaosSchedule, report: ChaosReport, rehome_bound_cycles: int
) -> None:
    from repro.core.control_plane import (
        ControlPlaneConfig,
        HierarchicalControlPlane,
    )

    config = ControlPlaneConfig(
        n_stages=schedule.n_stages, collect_timeout_s=0.5
    )
    plane = HierarchicalControlPlane.build(config, schedule.n_aggregators)
    env = plane.env
    controller = plane.global_controller
    checker = InvariantChecker(
        config.policy.allocatable_iops, rehome_bound_cycles
    )
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
            if action.kind in ("kill_aggregator", "stall_aggregator"):
                agg = plane.aggregators[action.target]
                agg.stop()
                fault(
                    agg.stage_ids,
                    agg.start,
                    SIM_AGG_KILL_CYCLES
                    if action.kind == "kill_aggregator"
                    else SIM_AGG_STALL_CYCLES,
                )
            elif action.kind in ("kill_stage", "stall_stage"):
                stage = plane.stages[action.target]
                fault(
                    (stage.stage_id,),
                    _blackhole_stage(stage),
                    SIM_STAGE_KILL_CYCLES
                    if action.kind == "kill_stage"
                    else SIM_STAGE_STALL_CYCLES,
                )
        env.run(controller.run_cycles(1))
        report.cycles_completed += 1
        if controller.cycles[-1].degraded:
            report.cycles_degraded += 1
        _sim_checks(checker, cycle, plane.stages)
        checker.check_caught_up(
            cycle,
            {
                s.stage_id: s.applied_rule.epoch if s.applied_rule else 0
                for s in plane.stages
            },
            controller.epoch,
            [s for s, until in clear_at.items() if until > cycle],
        )
    report.violations = checker.violations
    report.checks = checker.checks


def _sim_flat_standby(schedule: ChaosSchedule, report: ChaosReport) -> None:
    from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane
    from repro.core.failover import HotStandby, attach_flat_standby

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
    standby = attach_flat_standby(plane)
    hot = HotStandby(
        env, primary, standby,
        heartbeat_interval_s=hb_s, missed_heartbeats=missed,
    )
    checker = InvariantChecker(config.policy.allocatable_iops)
    kill_time: Dict[str, float] = {}

    for action in schedule.actions:
        # Fault-free cycle duration is a lower bound on progress, so a
        # kill mapped this way always lands while the run is in flight.
        when = max(action.cycle, 1) * cycle_s
        if action.kind == "kill_primary":
            def kill() -> None:
                kill_time["at"] = env.now
                hot.kill_primary()

            env.call_at(when, kill)
        elif action.kind in ("kill_stage", "stall_stage"):
            stage = plane.stages[action.target]
            down_cycles = (
                SIM_STAGE_KILL_CYCLES
                if action.kind == "kill_stage"
                else SIM_STAGE_STALL_CYCLES
            )

            def down(stage=stage, until=when + down_cycles * cycle_s) -> None:
                undo = _blackhole_stage(stage)
                env.call_at(until, undo)

            env.call_at(when, down)

    def sample_invariants():
        while True:
            yield env.timeout(cycle_s)
            _sim_checks(checker, hot.total_cycles(), plane.stages)

    env.process(sample_invariants(), name="chaos-checker")
    watch = hot.start(schedule.n_cycles)
    env.run(watch)

    report.cycles_completed = hot.total_cycles()
    report.cycles_degraded = sum(
        1 for c in (*primary.cycles, *standby.cycles) if c.degraded
    )
    if hot.failover is not None:
        report.takeovers = 1
        origin = kill_time.get("at", hot.last_heartbeat_at or 0.0)
        gap_s = hot.failover.time - origin
        report.gap_s = gap_s
        # Bound: heartbeat silence budget + watchdog poll granularity
        # + one (degraded, timeout-extended) control cycle.
        checker.check_gap(
            hot.total_cycles(),
            gap_s,
            hb_s * missed + hb_s + 2.0 * cycle_s,
        )
    elif schedule.kills_of("kill_primary"):
        checker.violations.append(
            Violation(
                schedule.n_cycles, "gap", "primary killed but no takeover"
            )
        )
    report.violations = checker.violations
    report.checks = checker.checks


# ---------------------------------------------------------------------------
# Live plane
# ---------------------------------------------------------------------------

def run_chaos_live(
    seed: int,
    design: str = "hier",
    n_stages: int = 9,
    n_aggregators: int = 3,
    n_cycles: int = 12,
    cycle_period_s: float = 0.1,
    rehome_bound_cycles: int = 3,
    schedule: Optional[ChaosSchedule] = None,
) -> ChaosReport:
    """Run a seeded chaos schedule against the live asyncio plane.

    ``design="hier"`` exercises aggregator kill/stall with stage
    re-homing; ``design="flat"`` exercises a primary + hot-standby pair
    (``kill_primary`` actions) alongside stage faults.
    """
    if schedule is None:
        schedule = generate_schedule(
            seed, design, n_cycles, n_stages,
            n_aggregators if design == "hier" else 0,
        )
    report = _new_report(schedule, "live")
    if design == "hier":
        asyncio.run(
            _live_hier(schedule, report, cycle_period_s, rehome_bound_cycles)
        )
    else:
        asyncio.run(_live_flat(schedule, report, cycle_period_s))
    return report


_LIVE_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)


def _live_checks(checker: InvariantChecker, cycle: int, stages) -> None:
    limits = {
        s.stage_id: s.applied_limit
        for s in stages
        if s.applied_limit is not None
    }
    epochs = {
        s.stage_id: s.applied_epoch
        for s in stages
        if s.applied_epoch is not None
    }
    checker.check_capacity(cycle, limits)
    checker.check_epochs(cycle, epochs)


async def _live_hier(
    schedule: ChaosSchedule,
    report: ChaosReport,
    cycle_period_s: float,
    rehome_bound_cycles: int,
) -> None:
    from repro.core.control_plane import default_policy
    from repro.core.registry import partition_stages
    from repro.live.aggregator_server import LiveAggregator
    from repro.live.controller_server import LiveHierGlobalController
    from repro.live.faults import (
        LiveFaultLog,
        kill_aggregator,
        kill_stage,
        stall_aggregator,
        stall_stage,
    )
    from repro.live.stage_client import LiveVirtualStage

    policy = default_policy(schedule.n_stages)
    controller = LiveHierGlobalController(
        policy,
        expected_aggregators=schedule.n_aggregators,
        collect_timeout_s=0.5,
        dead_after_missed=2,
    )
    await controller.start()
    stage_ids = [f"stage-{i:05d}" for i in range(schedule.n_stages)]
    partitions = partition_stages(stage_ids, schedule.n_aggregators)
    aggregators: List[LiveAggregator] = []
    stages: List[LiveVirtualStage] = []
    tasks: List[asyncio.Task] = []
    for a, owned in enumerate(partitions):
        agg = LiveAggregator(
            f"aggregator-{a:02d}",
            controller.host,
            controller.port,
            expected_stages=len(owned),
            collect_timeout_s=0.3,
        )
        await agg.start()
        aggregators.append(agg)
        for stage_id in owned:
            stage = LiveVirtualStage(
                agg.host,
                agg.port,
                stage_id=stage_id,
                job_id=stage_id.replace("stage", "job"),
                controller_timeout_s=1.0,
                **_LIVE_BACKOFF,
            )
            stages.append(stage)
            tasks.append(asyncio.create_task(stage.run()))
        tasks.append(asyncio.create_task(agg.run()))

    checker = InvariantChecker(policy.allocatable_iops, rehome_bound_cycles)
    fault_log = LiveFaultLog()
    stall_tasks: List[asyncio.Task] = []
    killed: set = set()
    try:
        await controller.wait_for_aggregators()
        for cycle in range(schedule.n_cycles):
            for action in schedule.at_cycle(cycle):
                if action.kind == "kill_aggregator":
                    if action.target not in killed:
                        killed.add(action.target)
                        kill_aggregator(
                            aggregators[action.target], log=fault_log
                        )
                elif action.kind == "stall_aggregator":
                    if action.target not in killed:
                        stall_tasks.append(
                            asyncio.create_task(
                                stall_aggregator(
                                    aggregators[action.target],
                                    action.duration_s,
                                    log=fault_log,
                                )
                            )
                        )
                elif action.kind == "kill_stage":
                    kill_stage(stages[action.target], log=fault_log)
                elif action.kind == "stall_stage":
                    stall_tasks.append(
                        asyncio.create_task(
                            stall_stage(
                                stages[action.target],
                                action.duration_s,
                                log=fault_log,
                            )
                        )
                    )
            await controller.run_cycles(1)
            await asyncio.sleep(cycle_period_s)
            report.cycles_completed += 1
            if controller.cycles[-1].degraded:
                report.cycles_degraded += 1
            _live_checks(checker, cycle, stages)
            checker.check_orphans(cycle, controller.orphans)
        report.rehomes = controller.rehomes
    finally:
        for task in stall_tasks:
            task.cancel()
        await asyncio.gather(*stall_tasks, return_exceptions=True)
        await controller.shutdown()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    report.violations = checker.violations
    report.checks = checker.checks


async def _live_flat(
    schedule: ChaosSchedule, report: ChaosReport, cycle_period_s: float
) -> None:
    from repro.core.control_plane import default_policy
    from repro.live.controller_server import LiveGlobalController
    from repro.live.failover import LiveHotStandby
    from repro.live.faults import LiveFaultLog, kill_stage, stall_stage
    from repro.live.stage_client import LiveVirtualStage

    hb_s, missed = 0.1, 3
    policy = default_policy(schedule.n_stages)
    primary = LiveGlobalController(
        policy,
        expected_stages=schedule.n_stages,
        collect_timeout_s=0.5,
        evicted_grace_cycles=5,
    )
    standby = LiveGlobalController(
        policy,
        expected_stages=schedule.n_stages,
        collect_timeout_s=0.5,
        evicted_grace_cycles=5,
    )
    await primary.start()
    await standby.start()
    stages: List[LiveVirtualStage] = []
    tasks: List[asyncio.Task] = []
    for i in range(schedule.n_stages):
        stage = LiveVirtualStage(
            primary.host,
            primary.port,
            stage_id=f"stage-{i:05d}",
            job_id=f"job-{i:05d}",
            alternates=[(standby.host, standby.port)],
            **_LIVE_BACKOFF,
        )
        stages.append(stage)
        tasks.append(asyncio.create_task(stage.run()))

    checker = InvariantChecker(policy.allocatable_iops)
    fault_log = LiveFaultLog()
    hot = LiveHotStandby(
        primary, standby, heartbeat_interval_s=hb_s, missed_heartbeats=missed
    )
    stall_tasks: List[asyncio.Task] = []

    async def inject_and_observe() -> None:
        # Wall-clock injector + sampler: fire each action at its cycle's
        # deadline, then sample the invariants once per period.
        for cycle in range(schedule.n_cycles):
            for action in schedule.at_cycle(cycle):
                if action.kind == "kill_primary":
                    hot.kill_primary()
                elif action.kind == "kill_stage":
                    kill_stage(stages[action.target], log=fault_log)
                elif action.kind == "stall_stage":
                    stall_tasks.append(
                        asyncio.create_task(
                            stall_stage(
                                stages[action.target],
                                action.duration_s,
                                log=fault_log,
                            )
                        )
                    )
            await asyncio.sleep(cycle_period_s)
            _live_checks(checker, cycle, stages)

    try:
        await primary.wait_for_stages()
        injector = asyncio.create_task(inject_and_observe())
        cycles = await hot.run_protected(
            schedule.n_cycles, cycle_period_s=cycle_period_s
        )
        injector.cancel()
        await asyncio.gather(injector, return_exceptions=True)
        report.cycles_completed = len(cycles)
        report.cycles_degraded = sum(1 for c in cycles if c.degraded)
        if hot.failover is not None:
            report.takeovers = 1
            report.gap_s = hot.failover.gap_s
            # One cycle's allowance on the live plane = the pacing period
            # plus the cycle itself (generously bounded by one period).
            checker.check_gap(
                schedule.n_cycles,
                hot.failover.gap_s,
                hb_s * missed + 2 * cycle_period_s + 0.2,
            )
        elif schedule.kills_of("kill_primary"):
            from repro.chaos.invariants import Violation

            checker.violations.append(
                Violation(
                    schedule.n_cycles, "gap", "primary killed but no takeover"
                )
            )
    finally:
        for task in stall_tasks:
            task.cancel()
        await asyncio.gather(*stall_tasks, return_exceptions=True)
        active = standby if hot.failover is not None else primary
        await active.shutdown()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    report.violations = checker.violations
    report.checks = checker.checks


# ---------------------------------------------------------------------------
# Full-plane restart (durable-store recovery)
# ---------------------------------------------------------------------------

def run_chaos_restart(
    seed: int,
    n_stages: int = 9,
    n_aggregators: int = 3,
    n_cycles: int = 14,
    cycle_period_s: float = 0.05,
    rehome_bound_cycles: int = 3,
    store_dir: Optional[str] = None,
    recover_timeout_s: float = 15.0,
    schedule: Optional[ChaosSchedule] = None,
) -> ChaosReport:
    """Kill the *whole* live plane mid-schedule and restart from store.

    The PR 7 tentpole invariant run: controller and every aggregator die
    at once (socket aborts — the in-process ``kill -9``), surviving
    stages keep enforcing their last rules, and the plane restarts from
    a fresh :class:`~repro.store.DurableStore` recovery at
    ``resume_epoch()``. On top of the standing capacity/epoch/orphan
    checks, every post-restart cycle asserts the **resume floor**: the
    issued epoch stays strictly above the durable epoch at kill time.
    ``store_dir=None`` uses a run-scoped temporary directory.
    """
    if schedule is None:
        schedule = generate_restart_schedule(
            seed, n_cycles, n_stages, n_aggregators
        )
    report = _new_report(schedule, "live")
    asyncio.run(
        _live_restart(
            schedule,
            report,
            cycle_period_s,
            rehome_bound_cycles,
            store_dir,
            recover_timeout_s,
        )
    )
    return report


async def _live_restart(
    schedule: ChaosSchedule,
    report: ChaosReport,
    cycle_period_s: float,
    rehome_bound_cycles: int,
    store_dir: Optional[str],
    recover_timeout_s: float,
) -> None:
    import tempfile

    from repro.core.control_plane import default_policy
    from repro.live.harness import LiveHierPlane
    from repro.store.durable import DurableStore

    if store_dir is None:
        store_dir = tempfile.mkdtemp(prefix="repro-chaos-store-")
    store = DurableStore(store_dir, lease_batch=8)
    policy = default_policy(schedule.n_stages)
    plane = LiveHierPlane(
        schedule.n_stages,
        schedule.n_aggregators,
        policy,
        collect_timeout_s=0.5,
        enforce_timeout_s=0.5,
        initial_epoch=store.resume_epoch(),
        stage_backoff=_LIVE_BACKOFF,
    )
    checker = InvariantChecker(policy.allocatable_iops, rehome_bound_cycles)
    rehomes = 0
    resume_floor = 0
    try:
        await plane.start()
        for cycle in range(schedule.n_cycles):
            for action in schedule.at_cycle(cycle):
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
                    await plane.wait_for_stages(timeout_s=recover_timeout_s)
                except asyncio.TimeoutError:
                    checker.violations.append(
                        Violation(
                            cycle,
                            "rehome",
                            f"only {plane.registered_stages}/"
                            f"{schedule.n_stages} stages re-homed within "
                            f"{recover_timeout_s}s of restart",
                        )
                    )
            if plane.epoch + 1 > store.state.leased_epoch:
                store.lease_epochs()
            await plane.run_cycles(1)
            store.record_cycle(plane.epoch, n_stages=schedule.n_stages)
            await asyncio.sleep(cycle_period_s)
            report.cycles_completed += 1
            if plane.controller.cycles[-1].degraded:
                report.cycles_degraded += 1
            _live_checks(checker, cycle, plane.stages)
            checker.check_orphans(cycle, plane.controller.orphans)
            checker.check_resume(cycle, plane.epoch, resume_floor)
        rehomes = plane.controller.rehomes
    finally:
        await plane.stop()
        store.close()
    report.rehomes = rehomes
    report.violations = checker.violations
    report.checks = checker.checks


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
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=5.0)
        parts = raw.split(None, 2)
        return int(parts[1]) if len(parts) >= 2 else -1
    except (asyncio.TimeoutError, ValueError, ConnectionError, OSError):
        return -1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


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
    schedule: Optional[ChaosSchedule] = None,
) -> ChaosReport:
    """Overload the full service stack and check it degrades, not dies.

    The PR 8 tentpole run: a real ``ControlService`` (durable store +
    live hier plane + REST front door) with every guard armed — an
    admission gate at ``admission_rate`` req/s, bounded per-session
    outboxes, the demand clamp, and the degradation ladder. While the
    schedule's adversarial tenants lie about demand (and the liar's
    aggregator is killed so the lie flows through orphan reservation), a
    client floods the HTTP API at ``flood_factor ×`` the admission rate.

    Per cycle: capacity, epoch-monotonicity, orphan re-home, honest
    fair-share and outbox queue-bound invariants. At the end: the
    ``/healthz`` probe must have answered throughout the flood within a
    bounded p99, and the gate must show the flood was actually shed.
    """
    if schedule is None:
        schedule = generate_overload_schedule(
            seed, n_cycles, n_stages, n_aggregators
        )
    report = _new_report(schedule, "live")
    asyncio.run(
        _live_overload(
            schedule,
            report,
            cycle_period_s,
            flood_factor,
            admission_rate,
            session_outbox_bytes,
            healthz_p99_bound_s,
            share_fraction,
            store_dir,
        )
    )
    return report


async def _live_overload(
    schedule: ChaosSchedule,
    report: ChaosReport,
    cycle_period_s: float,
    flood_factor: float,
    admission_rate: float,
    session_outbox_bytes: int,
    healthz_p99_bound_s: float,
    share_fraction: float,
    store_dir: Optional[str],
) -> None:
    import tempfile

    from repro.core.registry import partition_stages
    from repro.guard import AdmissionGate, DegradationLadder, DemandClamp
    from repro.live.faults import LiveFaultLog, kill_aggregator
    from repro.obs.metrics import MetricsRegistry
    from repro.service.api import ServiceApi
    from repro.service.http import HttpServer
    from repro.service.server import ControlService

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
    fault_log = LiveFaultLog()
    stop = asyncio.Event()
    flood_statuses: Dict[int, int] = {}
    healthz_latencies: List[float] = []
    healthz_failures = 0

    flood_tasks: List[asyncio.Task] = []
    flood_sem = asyncio.Semaphore(192)

    async def _flood_one(method: str, path: str, body: bytes) -> None:
        async with flood_sem:
            status = await _overload_request(
                http.host, http.port, method, path, body
            )
        flood_statuses[status] = flood_statuses.get(status, 0) + 1

    async def flood() -> None:
        # Offered load: flood_factor × the admission rate. Requests are
        # fired without waiting for each other (a real flood does not
        # pace itself on the server's fsync latency), bounded only by a
        # client-side socket cap. A noisy tenant dominates (mutations
        # shed first) with some reads mixed in; statuses are tallied,
        # never asserted — shedding is the expected outcome.
        batch = max(1, int(flood_factor * admission_rate * cycle_period_s))
        body = b'{"tenant_id": "noisy", "weight": 1}'
        while not stop.is_set():
            flood_tasks[:] = [t for t in flood_tasks if not t.done()]
            for i in range(batch):
                if i % 4 == 0:
                    call = _flood_one("GET", "/rules", b"")
                else:
                    call = _flood_one("POST", "/tenants", body)
                flood_tasks.append(asyncio.create_task(call))
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=cycle_period_s)

    async def probe_healthz() -> None:
        nonlocal healthz_failures
        import time as _time

        while not stop.is_set():
            started = _time.perf_counter()
            status = await _overload_request(
                http.host, http.port, "GET", "/healthz"
            )
            healthz_latencies.append(_time.perf_counter() - started)
            if status != 200:
                healthz_failures += 1
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=cycle_period_s / 2)

    original_demand: Dict[int, tuple] = {}
    adversary_ids: set = set()
    agg_killed: set = set()
    background: List[asyncio.Task] = []
    try:
        await service.start(run_cycles=False)
        await http.start()
        await plane.wait_for_stages(timeout_s=15.0)
        stage_ids = [s.stage_id for s in plane.stages]
        partitions = partition_stages(stage_ids, schedule.n_aggregators)
        weights = {sid: 1.0 for sid in stage_ids}
        background = [
            asyncio.create_task(flood()),
            asyncio.create_task(probe_healthz()),
        ]
        for cycle in range(schedule.n_cycles):
            for action in schedule.at_cycle(cycle):
                stage = plane.stages[action.target]
                if action.kind in ("demand_liar", "noisy_neighbor",
                                   "metadata_storm"):
                    original_demand.setdefault(action.target, stage.demand)
                    adversary_ids.add(stage.stage_id)
                if action.kind == "demand_liar":
                    stage.demand = (LIAR_DEMAND_IOPS, stage.demand[1])
                elif action.kind == "noisy_neighbor":
                    stage.demand = (NOISY_DEMAND_IOPS, stage.demand[1])
                elif action.kind == "metadata_storm":
                    stage.demand = (stage.demand[0], STORM_METADATA_IOPS)
                elif action.kind == "orphan_liar":
                    home = next(
                        a for a, owned in enumerate(partitions)
                        if stage.stage_id in owned
                    )
                    if home not in agg_killed:
                        agg_killed.add(home)
                        kill_aggregator(plane.aggregators[home], log=fault_log)
                elif action.kind == "restore":
                    if action.target in original_demand:
                        stage.demand = original_demand[action.target]
            await service.cycle_once()
            pause = cycle_period_s * plane.interval_multiplier
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=pause)
            report.cycles_completed += 1
            if plane.controller.cycles[-1].degraded:
                report.cycles_degraded += 1
            _live_checks(checker, cycle, plane.stages)
            checker.check_orphans(cycle, plane.controller.orphans)
            allocations = dict(plane.controller.last_allocations)
            if allocations:
                demands = {
                    s.stage_id: s.demand[0] + s.demand[1]
                    for s in plane.stages
                }
                checker.check_honest_share(
                    cycle,
                    allocations,
                    demands,
                    weights,
                    adversary_ids,
                    fraction=share_fraction,
                )
            pending = {
                f"controller:{peer}": s.outbox.pending_bytes
                for peer, s in plane.controller.sessions.items()
            }
            for agg in plane.aggregators:
                for peer, s in agg.sessions.items():
                    pending[f"{agg.aggregator_id}:{peer}"] = s.pending_bytes
            checker.check_queue_bounds(
                cycle, pending, session_outbox_bytes
            )
        report.rehomes = plane.controller.rehomes
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
    report.violations = checker.violations
    report.checks = checker.checks


# ---------------------------------------------------------------------------
# Sharded (multi-process) plane
# ---------------------------------------------------------------------------

#: Cycles a killed shard worker stays down before its re-spawn.
SHARD_RESPAWN_CYCLES = 2


def run_chaos_shard(
    seed: int,
    n_stages: int = 8,
    n_workers: int = 2,
    n_cycles: int = 10,
    cycle_period_s: float = 0.05,
    rehome_bound_cycles: int = 6,
    schedule: Optional[ChaosSchedule] = None,
) -> ChaosReport:
    """Run a seeded chaos schedule against the sharded live plane.

    Reuses the ``hier`` schedule generator with one shard worker per
    aggregator slot: ``kill_aggregator``/``stall_aggregator`` actions
    become real ``SIGKILL``s of the worker process (a stall with no
    process to pause is a kill), and the shard is re-spawned with the
    same pinned partition ``SHARD_RESPAWN_CYCLES`` cycles later. Stage
    faults are skipped — stages live inside the shard process, so its
    kill already takes its whole partition down at once. Invariants are
    probed over each shard's control channel: enforced limits stay
    within capacity (orphan reservation) and applied epochs never
    regress across the kill/re-spawn (epoch fencing).
    """
    if schedule is None:
        schedule = generate_schedule(
            seed, "hier", n_cycles, n_stages, n_workers
        )
    report = _new_report(schedule, "shard")
    asyncio.run(
        _shard_chaos(schedule, report, cycle_period_s, rehome_bound_cycles)
    )
    return report


async def _shard_chaos(
    schedule: ChaosSchedule,
    report: ChaosReport,
    cycle_period_s: float,
    rehome_bound_cycles: int,
) -> None:
    from repro.shard.plane import ShardedControlPlane

    plane = ShardedControlPlane(
        schedule.n_stages,
        schedule.n_aggregators,
        collect_timeout_s=0.5,
        enforce_timeout_s=0.5,
        dead_after_missed=2,
    )
    checker: Optional[InvariantChecker] = None
    down: set = set()
    respawn_at: Dict[int, List[int]] = {}
    try:
        await plane.start()
        controller = plane.controller
        checker = InvariantChecker(
            plane.policy.allocatable_iops, rehome_bound_cycles
        )
        for cycle in range(schedule.n_cycles):
            for shard in respawn_at.pop(cycle, []):
                try:
                    await plane.respawn_shard(shard)
                    down.discard(shard)
                except TimeoutError:
                    # Eviction still pending: retry at the next cycle.
                    respawn_at.setdefault(cycle + 1, []).append(shard)
            for action in schedule.at_cycle(cycle):
                if action.kind in ("kill_aggregator", "stall_aggregator"):
                    if action.target not in down:
                        down.add(action.target)
                        plane.kill_shard(action.target)
                        respawn_at.setdefault(
                            cycle + SHARD_RESPAWN_CYCLES, []
                        ).append(action.target)
            await plane.run_cycles(1)
            await asyncio.sleep(cycle_period_s)
            report.cycles_completed += 1
            if controller.cycles[-1].degraded:
                report.cycles_degraded += 1
            probes = await plane.probe()
            limits: Dict[str, float] = {}
            epochs: Dict[str, int] = {}
            for rows in probes.values():
                for stage_id, row in rows.items():
                    if row["applied_limit"] is not None:
                        limits[stage_id] = row["applied_limit"]
                    if row["applied_epoch"] >= 0:
                        epochs[stage_id] = row["applied_epoch"]
            checker.check_capacity(cycle, limits)
            checker.check_epochs(cycle, epochs)
            checker.check_orphans(cycle, controller.orphans)
        report.rehomes = controller.rehomes
    finally:
        await plane.shutdown()
    if checker is not None:
        report.violations = checker.violations
        report.checks = checker.checks
