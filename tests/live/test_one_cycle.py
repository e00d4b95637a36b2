"""One live cycle over the one compute.

The flat controller is a stage fan plus the compute phase, an aggregator
a stage fan plus an uplink, and both controllers compute through
``ColumnarCompute`` — per job, with the policy's floors. These tests pin
what that buys and what it must not move:

* the bug the private per-stage compute hid: multi-stage jobs and
  ``min_guarantee_iops`` now get the DES's answer on both live planes;
* cross-plane differential replay: one seeded demand trace through live
  flat, live hier, the DES hierarchy and ``ColumnarCompute`` fed the
  same reports directly gives the same allocation per stage id, exactly,
  through an eviction inside its grace and an aggregator's death (the
  live legs), and DES flat and live flat withhold the same rules under
  changed-only enforcement (the one verdict);
* host-independent mechanism counts: bytes per stage-cycle, calls into
  the columns per cycle, and changed-only suppression counts over a
  scripted sequence, equal to the values recorded at the parent commit;
* failure semantics, in one place.
"""

import asyncio
import random

import numpy as np
import pytest

from repro.core.algorithms.psfa import PSFA
from repro.core.columnar import StageColumns
from repro.core.compute import ColumnarCompute
from repro.core.policies import QoSPolicy
from repro.live.aggregator_server import LiveAggregator
from repro.live.controller_server import (
    LiveGlobalController,
    LiveHierGlobalController,
)
from repro.live.fan import StageFan
from repro.live.faults import kill_aggregator, kill_stage
from repro.live.harness import LiveHierPlane
from repro.live.stage_client import LiveVirtualStage
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer

_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)


async def _until(condition, timeout_s=10.0):
    for _ in range(int(timeout_s / 0.005)):
        if condition():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition not reached")


async def _flat(policy, spec, **ctrl_kwargs):
    """Flat controller + one stage per ``(stage id, job id, demand)``,
    registered one after the other (row and job order are ``spec``'s)."""
    ctrl = LiveGlobalController(policy, expected_stages=len(spec), **ctrl_kwargs)
    await ctrl.start()
    stages, tasks = {}, []
    for stage_id, job_id, demand in spec:
        stages[stage_id] = LiveVirtualStage(
            ctrl.host, ctrl.port, stage_id, job_id, demand=demand, **_BACKOFF
        )
        tasks.append(asyncio.create_task(stages[stage_id].run()))
        await _until(lambda: stage_id in ctrl.sessions)
    return ctrl, stages, tasks


async def _hier(policy, partitions, **ctrl_kwargs):
    """Hier controller + one aggregator per partition (a list of
    ``(stage id, job id, demand)``), registered in order."""
    ctrl = LiveHierGlobalController(
        policy, expected_aggregators=len(partitions), **ctrl_kwargs
    )
    await ctrl.start()
    aggs, stages, tasks = [], {}, []
    for a, spec in enumerate(partitions):
        agg = LiveAggregator(
            f"agg-{a}", ctrl.host, ctrl.port, expected_stages=len(spec),
            collect_timeout_s=0.3,
        )
        await agg.start()
        aggs.append(agg)
        for stage_id, job_id, demand in spec:
            stages[stage_id] = LiveVirtualStage(
                agg.host, agg.port, stage_id, job_id, demand=demand, **_BACKOFF
            )
            tasks.append(asyncio.create_task(stages[stage_id].run()))
        tasks.append(asyncio.create_task(agg.run()))
        await _until(lambda: len(ctrl.sessions) == a + 1)
    return ctrl, aggs, stages, tasks


async def _teardown(ctrl, tasks):
    await ctrl.shutdown()
    for t in tasks:
        t.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


# ---------------------------------------------------------------------------
# The bug the duplicate compute hid
# ---------------------------------------------------------------------------

#: Capacity 1,000, a floor of 600 on j-0, j-big with three stages, every
#: stage demanding 1,000. Per stage the brain used to answer 250 each.
_FOUR = [
    ("s-0", "j-0", (1000.0, 0.0)),
    ("s-1", "j-big", (1000.0, 0.0)),
    ("s-2", "j-big", (1000.0, 0.0)),
    ("s-3", "j-big", (1000.0, 0.0)),
]
_FOUR_WANT = {"s-0": 800.0, "s-1": 200.0 / 3, "s-2": 200.0 / 3, "s-3": 200.0 / 3}


def _four_policy():
    return QoSPolicy(pfs_capacity_iops=1000.0, min_guarantee_iops={"j-0": 600.0})


class TestFloorsAndJobsReachTheLivePlanes:
    def test_flat_grants_per_job_with_the_floor(self):
        async def scenario():
            ctrl, stages, tasks = await _flat(_four_policy(), _FOUR)
            try:
                await asyncio.wait_for(ctrl.run_cycles(2), timeout=10.0)
                applied = {sid: s.applied_limit for sid, s in stages.items()}
            finally:
                await _teardown(ctrl, tasks)
            return ctrl.last_allocations, applied

        grants, applied = asyncio.run(scenario())
        assert grants == pytest.approx(_FOUR_WANT)
        assert applied == grants

    def test_two_aggregator_plane_grants_the_same(self):
        async def scenario():
            ctrl, _, stages, tasks = await _hier(
                _four_policy(), [_FOUR[:2], _FOUR[2:]], collect_timeout_s=2.0
            )
            try:
                await asyncio.wait_for(ctrl.run_cycles(2), timeout=10.0)
                applied = {sid: s.applied_limit for sid, s in stages.items()}
            finally:
                await _teardown(ctrl, tasks)
            return ctrl.last_allocations, applied

        grants, applied = asyncio.run(scenario())
        assert grants == pytest.approx(_FOUR_WANT)
        assert applied == grants


# ---------------------------------------------------------------------------
# Cross-plane differential replay (ROADMAP 7a)
# ---------------------------------------------------------------------------

_JOBS = ["j-a", "j-b", "j-c", "j-a", "j-b", "j-c", "j-a", "j-b"]
_IDS = [f"s-{i}" for i in range(8)]
_EPOCHS = 10
#: Epochs in which s-4 .. s-7 hold their demand still: a stage riding at
#: last-known demand (evicted inside its grace, orphaned) then reports
#: nothing the trace does not say.
_QUIET = range(4, 9)


def _trace(seed):
    """``trace[epoch - 1][i]``: stage ``i``'s (data, metadata) demand.
    Whole numbers, so a job's demand is the same sum in any row order."""
    rng = random.Random(seed)
    trace = []
    for epoch in range(1, _EPOCHS + 1):
        row = [
            (float(rng.randrange(0, 1500)), float(rng.randrange(0, 200)))
            for _ in _IDS
        ]
        if epoch in _QUIET:
            row[4:] = trace[-1][4:]
        trace.append(row)
    return trace


def _policy(differentiated):
    return QoSPolicy(
        pfs_capacity_iops=3000.0,
        metadata_capacity_iops=400.0 if differentiated else None,
        min_guarantee_iops={"j-c": 900.0},
    )


def _direct(trace, differentiated):
    """The trace through ``ColumnarCompute``, reports fed straight in."""
    cols = StageColumns()
    for stage_id, job_id in zip(_IDS, _JOBS):
        cols.register(stage_id, job_id)
    compute, policy, brain = ColumnarCompute(cols), _policy(differentiated), PSFA()
    out = []
    for row in trace:
        cols.observe_many(_IDS, [d for d, _ in row], [m for _, m in row])
        limits, meta_limits = compute.allocations(
            policy, brain, rows=cols.gather_rows()
        )
        out.append((dict(zip(_IDS, limits.tolist())), meta_limits is not None))
    return out


class TestDifferentialReplay:
    """Exact equality, by stage id, per epoch. Rows move differently on
    each plane (an evicted stage comes back at the tail, re-homed orphans
    get new rows); job order, decided by ``StageColumns.job_view``, does
    not, because every job keeps a live row throughout."""

    @pytest.mark.parametrize("differentiated", [False, True])
    def test_flat_through_an_eviction_inside_its_grace(self, differentiated):
        trace = _trace(11)

        async def scenario():
            spec = [(s, j, trace[0][i]) for i, (s, j) in enumerate(zip(_IDS, _JOBS))]
            ctrl, stages, tasks = await _flat(
                _policy(differentiated), spec,
                collect_timeout_s=0.5, evicted_grace_cycles=3,
            )
            seen = []
            try:
                for epoch, row in enumerate(trace, start=1):
                    for stage_id, demand in zip(_IDS, row):
                        stages[stage_id].demand = demand
                    if epoch == 5:
                        kill_stage(stages["s-5"], restart=False)
                        await asyncio.sleep(0.05)
                    if epoch == 7:  # a new process, back within the grace
                        stages["s-5"] = LiveVirtualStage(
                            ctrl.host, ctrl.port, "s-5", _JOBS[5], demand=row[5]
                        )
                        tasks.append(asyncio.create_task(stages["s-5"].run()))
                        await _until(lambda: "s-5" in ctrl.sessions)
                    await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                    seen.append(
                        (dict(ctrl.last_allocations), dict(ctrl.columns.reserved))
                    )
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, seen

        ctrl, seen = asyncio.run(scenario())
        want = _direct(trace, differentiated)
        assert ctrl.evictions == 1 and [c.n_missing for c in ctrl.cycles][4] == 1
        for epoch, ((grants, reserved), (limits, _)) in enumerate(zip(seen, want), 1):
            # A reserved stage holds its share but is not listed.
            assert grants == {s: limits[s] for s in grants}, epoch
            assert set(grants) | set(reserved) == set(_IDS), epoch
        assert [list(reserved) for _, reserved in seen[4:7]] == [["s-5"], ["s-5"], []]

    @pytest.mark.parametrize("differentiated", [False, True])
    def test_hier_through_an_aggregator_death_and_rehoming(self, differentiated):
        trace = _trace(11)

        async def scenario():
            spec = [(s, j, trace[0][i]) for i, (s, j) in enumerate(zip(_IDS, _JOBS))]
            ctrl, aggs, stages, tasks = await _hier(
                _policy(differentiated), [spec[:4], spec[4:]], collect_timeout_s=0.5
            )
            seen = []
            try:
                for epoch, row in enumerate(trace, start=1):
                    for stage_id, demand in zip(_IDS, row):
                        stages[stage_id].demand = demand
                    if epoch == 5:
                        kill_aggregator(aggs[1])
                        await asyncio.sleep(0.05)
                    if epoch == 7:  # the orphans have found the survivor
                        await _until(lambda: len(aggs[0].sessions) == 8)
                    await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                    seen.append((dict(ctrl.last_allocations), dict(ctrl.orphans)))
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, seen

        ctrl, seen = asyncio.run(scenario())
        want = _direct(trace, differentiated)
        assert ctrl.evictions == 1 and ctrl.rehomes == 4
        for epoch, ((grants, _), (limits, _)) in enumerate(zip(seen, want), 1):
            assert grants == limits, epoch  # orphans included: share held
        assert seen[-1][1] == {} and ctrl.cycles[-1].n_missing == 0

    @pytest.mark.parametrize("differentiated", [False, True])
    def test_des_hier_one_cycle_per_epoch(self, differentiated):
        """The DES leg: the simulated two-aggregator hierarchy, trunk
        rows and all, one ``run_cycles(1)`` per epoch. Faults stay on the
        live legs."""
        from repro.core.control_plane import (
            ControlPlaneConfig,
            HierarchicalControlPlane,
        )

        class Source:
            demand = (0.0, 0.0)

            def sample(self, stage_id, now):
                return self.demand

        trace = _trace(11)
        sources = [Source() for _ in _IDS]
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(
                n_stages=len(_IDS),
                policy=_policy(differentiated),
                job_of=lambda i: _JOBS[i],
                source_factory=lambda stage_id: sources[int(stage_id[-5:])],
            ),
            n_aggregators=2,
        )
        ctrl = plane.global_controller
        ids = [stage.stage_id for stage in plane.stages]
        for epoch, (row, (limits, has_meta)) in enumerate(
            zip(trace, _direct(trace, differentiated)), start=1
        ):
            for source, demand in zip(sources, row):
                source.demand = demand
            plane.env.run(ctrl.run_cycles(1))
            rules = ctrl.latest_rules
            assert {s: rules[s].epoch for s in ids} == dict.fromkeys(ids, epoch)
            grants = {i: rules[s].data_iops_limit for i, s in zip(_IDS, ids)}
            assert grants == limits, epoch
            applied = {i: s.applied_rule.data_iops_limit for i, s in zip(_IDS, plane.stages)}
            assert applied == limits, epoch
            assert has_meta == differentiated

    @pytest.mark.parametrize("tolerance", [0.0, 0.01])
    def test_changed_only_withholds_the_same_rules_on_des_and_live_flat(
        self, tolerance
    ):
        """The changed-only leg: DES flat and live flat replay one trace
        and withhold the same number of rules after every cycle — both
        ship by the slot ledger's one verdict."""
        from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane

        class Source:
            demand = (0.0, 0.0)

            def sample(self, stage_id, now):
                return self.demand

        # Whole epochs held still (every rule unmoved), and nudged by
        # under 1 % (withheld only at tolerance 0.01).
        trace = _trace(11)
        for epoch in (3, 4, 7):
            trace[epoch] = list(trace[epoch - 1])
        for epoch in (5, 8):
            trace[epoch] = [(d * 1.004 + 1, m) for d, m in trace[epoch - 1]]
        sources = [Source() for _ in _IDS]
        plane = FlatControlPlane.build(
            ControlPlaneConfig(
                n_stages=len(_IDS),
                policy=_policy(False),
                job_of=lambda i: _JOBS[i],
                source_factory=lambda stage_id: sources[int(stage_id[-5:])],
                enforce_changed_only=True,
                rule_change_tolerance=tolerance,
            )
        )
        des = []
        for row in trace:
            for source, demand in zip(sources, row):
                source.demand = demand
            plane.env.run(plane.global_controller.run_cycles(1))
            des.append(plane.global_controller.rules_suppressed)

        async def scenario():
            spec = [(s, j, trace[0][i]) for i, (s, j) in enumerate(zip(_IDS, _JOBS))]
            ctrl, stages, tasks = await _flat(
                _policy(False), spec,
                enforce_changed_only=True, rule_change_tolerance=tolerance,
            )
            seen = []
            try:
                for row in trace:
                    for stage_id, demand in zip(_IDS, row):
                        stages[stage_id].demand = demand
                    await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                    seen.append(ctrl.rules_suppressed)
            finally:
                await _teardown(ctrl, tasks)
            return seen

        live = asyncio.run(scenario())
        assert live == des
        assert des == {
            0.0: [0, 0, 0, 8, 16, 16, 16, 24, 24, 24],
            0.01: [0, 0, 0, 8, 16, 24, 25, 33, 41, 41],
        }[tolerance]


# ---------------------------------------------------------------------------
# Host-independent mechanism counts
# ---------------------------------------------------------------------------

def _flat_wire(n_stages, cycles=3):
    """Wire bytes per stage-cycle on a steady flat plane, and how often
    a cycle went into the columns."""

    async def scenario():
        calls = {"observe": 0, "observe_rows": 0}
        ctrl, _, tasks = await _flat(
            QoSPolicy(pfs_capacity_iops=1000.0 * n_stages),
            [(f"s-{i:03d}", f"j-{i:03d}", (1000.0, 200.0)) for i in range(n_stages)],
        )
        cols = ctrl.columns

        def counting(name):
            real = getattr(StageColumns, name)

            def call(self, *args):
                calls[name] += self is cols
                return real(self, *args)

            return call

        patch = pytest.MonkeyPatch()
        try:
            await ctrl.run_cycles(2)  # past registration and the first order
            for name in calls:
                patch.setattr(StageColumns, name, counting(name))
            before = sum(s.tx_bytes + s.rx_bytes for s in ctrl.sessions.values())
            await ctrl.run_cycles(cycles)
            after = sum(s.tx_bytes + s.rx_bytes for s in ctrl.sessions.values())
        finally:
            patch.undo()
            await _teardown(ctrl, tasks)
        return (after - before) / (cycles * n_stages), calls

    return asyncio.run(scenario())


class TestMechanismCounts:
    def test_flat_bytes_per_stage_cycle_do_not_grow_with_the_plane(self):
        small, _ = _flat_wire(8)
        large, _ = _flat_wire(64)
        assert small == large
        assert large <= 140  # 138 at the parent: four packed frames

    def test_flat_cycle_goes_into_the_columns_once(self):
        cycles = 3
        _, calls = _flat_wire(8, cycles)
        assert calls == {"observe": 0, "observe_rows": cycles}

    def test_hier_cycle_goes_into_the_columns_once_per_aggregator(self):
        async def scenario():
            plane = LiveHierPlane(8, 2)
            await plane.start()
            await plane.wait_for_stages(timeout_s=10.0)
            calls = {"observe": 0, "observe_rows": 0}
            patch = pytest.MonkeyPatch()
            try:
                await plane.run_cycles(2)
                for name in calls:
                    real = getattr(StageColumns, name)
                    patch.setattr(
                        StageColumns, name,
                        lambda self, *a, _n=name, _r=real: (
                            calls.__setitem__(_n, calls[_n] + 1), _r(self, *a)
                        )[1],
                    )
                await plane.run_cycles(3)
            finally:
                patch.undo()
                await plane.stop()
            return calls

        assert asyncio.run(scenario()) == {"observe": 0, "observe_rows": 3 * 2}

    #: ``rules_suppressed`` after each cycle of :meth:`_scripted`, as the
    #: parent commit (per-rule ``_suppress`` loop over sessions) printed
    #: it, by tolerance.
    RECORDED = {
        0.0: [0, 5, 10, 15, 20, 21, 26, 30, 34, 39, 39, 44, 44, 49, 53, 57, 61, 63, 67],
        0.01: [0, 5, 10, 15, 20, 24, 29, 33, 37, 42, 42, 47, 47, 52, 56, 60, 64, 66, 70],
    }

    @staticmethod
    async def _scripted(tolerance):
        registry = MetricsRegistry()
        policy = QoSPolicy(pfs_capacity_iops=2400.0)
        demands = [
            (1000.0, 200.0), (400.0, 100.0), (700.0, 0.0), (900.0, 300.0), (50.0, 5.0)
        ]
        ctrl, stages, tasks = await _flat(
            policy,
            [(f"s-{i}", f"j-{i}", d) for i, d in enumerate(demands)],
            collect_timeout_s=0.5, evicted_grace_cycles=2,
            enforce_changed_only=True, rule_change_tolerance=tolerance,
            metrics=registry,
        )
        seen = []

        async def cycle(n):
            for _ in range(n):
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                seen.append(ctrl.rules_suppressed)

        try:
            await cycle(3)  # first ship, then steady
            stages["s-0"].demand = (1010.0, 200.0)  # +0.8 %, backlogged
            await cycle(2)
            stages["s-4"].demand = (60.0, 5.0)  # a satisfied stage: +18 %
            await cycle(2)
            kill_stage(stages["s-1"])  # back on a fresh session
            await asyncio.sleep(0.05)
            await cycle(1)  # the cycle that trips over it
            await _until(lambda: "s-1" in ctrl.sessions)
            await cycle(2)
            policy.metadata_capacity_iops = 500.0  # a metadata limit appears
            await cycle(2)
            policy.metadata_capacity_iops = None  # ... and disappears
            await cycle(2)
            kill_stage(stages["s-3"], restart=False)  # share held two cycles
            await asyncio.sleep(0.05)
            await cycle(5)
        finally:
            await _teardown(ctrl, tasks)
        metric = [
            line for line in registry.render().splitlines()
            if line.startswith("repro_rules_suppressed_total")
        ]
        return seen, metric

    @pytest.mark.parametrize("tolerance", [0.0, 0.01])
    def test_flat_changed_only_counts_are_the_parents(self, tolerance):
        """First ship, steady state, a change under and over tolerance,
        a reconnect on a fresh session, a metadata limit appearing and
        disappearing, an eviction inside its grace: the one mask counts
        what the per-rule loop counted."""
        seen, metric = asyncio.run(self._scripted(tolerance))
        assert seen == self.RECORDED[tolerance]
        assert metric == [
            f'repro_rules_suppressed_total{{role="global"}} {float(seen[-1])}'
        ]


# ---------------------------------------------------------------------------
# Failure semantics, one place to read them
# ---------------------------------------------------------------------------


class TestFailureSemantics:
    def test_n_missing_is_a_union_by_stage(self):
        """Absent in collect, report refused, absent in enforce: a stage
        that manages two of them is still one missing stage."""

        async def scenario():
            spec = [(f"s-{i}", f"j-{i}", (500.0, 50.0)) for i in range(4)]
            ctrl, stages, tasks = await _flat(
                QoSPolicy(pfs_capacity_iops=1200.0), spec,
                collect_timeout_s=0.2, enforce_timeout_s=0.2,
            )
            try:
                await ctrl.run_cycles(1)
                # s-1 lies (refused in collect) and then sits on its ack
                # (absent in enforce); s-2 is silent in both phases.
                stages["s-1"].demand = (-1.0, 0.0)
                serve = stages["s-1"]._serve_frame
                stages["s-1"]._serve_frame = lambda record: (
                    None if record[0] == "rule" else serve(record)
                )
                stages["s-2"].pause()
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
            finally:
                stages["s-2"].resume()
                await _teardown(ctrl, tasks)
            return ctrl

        ctrl = asyncio.run(scenario())
        assert [c.n_missing for c in ctrl.cycles] == [0, 2]
        assert ctrl.cycles[-1].timed_out and ctrl.columns.reports_rejected == 1

    def test_a_silent_aggregator_misses_every_stage_homed_on_it(self):
        """An aggregator that misses the collect deadline, alive and
        connected, leaves each of its stages without fresh metrics: it
        counts them all, as a paused stage counts on the flat plane."""

        async def scenario():
            plane = LiveHierPlane(6, 2, collect_timeout_s=0.3)
            await plane.start()
            try:
                await plane.wait_for_stages(timeout_s=10.0)
                ctrl = plane.controller
                await plane.run_cycles(2)
                plane.aggregators[0].pause()
                try:
                    await asyncio.wait_for(plane.run_cycles(1), timeout=10.0)
                finally:
                    plane.aggregators[0].resume()
            finally:
                await plane.stop()
            return ctrl

        ctrl = asyncio.run(scenario())
        assert [c.n_missing for c in ctrl.cycles] == [0, 0, 3]
        assert ctrl.cycles[-1].timed_out and ctrl.orphans == {}

    def test_fresh_session_is_shipped_and_a_survivor_keeps_its_record(self):
        """Changed-only across a reorder: a stage back on a fresh socket
        — and a newcomer sorting into the middle of the order — is sent a
        rule although nothing moved; the sessions that lived through the
        reorder are not."""

        async def scenario():
            spec = [(f"s-{i}0", f"j-{i}", (100.0, 10.0)) for i in range(4)]
            ctrl, stages, tasks = await _flat(
                QoSPolicy(pfs_capacity_iops=1e6), spec,
                collect_timeout_s=0.5, evicted_grace_cycles=4,
                enforce_changed_only=True,
            )
            try:
                await ctrl.run_cycles(2)
                kill_stage(stages["s-10"])
                await asyncio.sleep(0.05)
                await ctrl.run_cycles(1)  # trips over it
                await _until(lambda: "s-10" in ctrl.sessions)
                stages["s-15"] = LiveVirtualStage(  # idle: moves no grant
                    ctrl.host, ctrl.port, "s-15", "j-15", demand=(0.0, 0.0)
                )
                tasks.append(asyncio.create_task(stages["s-15"].run()))
                await _until(lambda: "s-15" in ctrl.sessions)
                generation = ctrl.ledger.generation
                before = {sid: s.rules_applied for sid, s in stages.items()}
                await ctrl.run_cycles(1)
                moved = ctrl.ledger.generation - generation
                after = {sid: s.rules_applied for sid, s in stages.items()}
            finally:
                await _teardown(ctrl, tasks)
            return moved, {sid: after[sid] - before[sid] for sid in after}

        moved, shipped = asyncio.run(scenario())
        assert moved == 1
        assert shipped == {"s-00": 0, "s-10": 1, "s-15": 1, "s-20": 0, "s-30": 0}

    def test_one_class_accepts_a_stage_and_refuses_it_on_a_closed_listener(self):
        """Registration is the fan's, for both of its owners: a hello
        that arrives on a connection accepted before ``kill()`` is aborted
        — no session, no ``registered`` from the dead."""
        assert issubclass(LiveGlobalController, StageFan)
        assert issubclass(LiveAggregator, StageFan)
        assert LiveGlobalController._on_hello is LiveAggregator._on_hello

        async def scenario():
            ctrl = LiveGlobalController(
                QoSPolicy(pfs_capacity_iops=1000.0), expected_stages=1
            )
            await ctrl.start()
            reader, writer = await asyncio.open_connection(ctrl.host, ctrl.port)
            await asyncio.sleep(0.02)  # accepted, not yet greeted
            ctrl.kill()
            body = b'{"kind":"register","stage_id":"s","job_id":"j"}'
            writer.write(len(body).to_bytes(4, "big") + body)
            try:
                answer = await asyncio.wait_for(reader.read(), timeout=5.0)
            except ConnectionError:
                answer = b""
            writer.close()
            return ctrl, answer

        ctrl, answer = asyncio.run(scenario())
        assert answer == b"" and ctrl.sessions == {}
        assert ctrl.registrations_rejected == 0


# ---------------------------------------------------------------------------
# Tracing on the fan
# ---------------------------------------------------------------------------


class TestFanTracing:
    def test_aggregator_stage_tracks_carry_rpc_spans(self):
        """Per-stage ``collect_rpc`` / ``enforce_rpc`` spans used to exist
        on the flat plane only; behind an aggregator the same fan emits
        them on the same tracks, under the aggregator's phase spans."""

        async def scenario():
            tracer = SpanTracer(track="global-ctrl")
            ctrl = LiveHierGlobalController(
                QoSPolicy(pfs_capacity_iops=4000.0), 1, span_tracer=tracer
            )
            await ctrl.start()
            agg = LiveAggregator(
                "agg-0", ctrl.host, ctrl.port, expected_stages=3,
                span_tracer=tracer.for_track("agg-0"),
            )
            await agg.start()
            stages = [
                LiveVirtualStage(agg.host, agg.port, f"s-{i}", f"j-{i}")
                for i in range(3)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            tasks.append(asyncio.create_task(agg.run()))
            await ctrl.wait_for_aggregators(timeout_s=10.0)
            try:
                await ctrl.run_cycles(2)
            finally:
                await _teardown(ctrl, tasks)
            return tracer.spans

        spans = asyncio.run(scenario())
        for name, parent in (("collect_rpc", "collect"), ("enforce_rpc", "enforce")):
            rpc = [s for s in spans if s.name == name]
            by_track = {}
            for s in rpc:
                assert s.parent == parent and s.dur_s >= 0.0
                by_track.setdefault(s.track, []).append(s.args["epoch"])
            # Two cycles: one span per stage per cycle on the stage's
            # track, and the trunk's per aggregator on the aggregator's.
            assert by_track == {
                "s-0": [1, 2], "s-1": [1, 2], "s-2": [1, 2], "agg-0": [1, 2]
            }

    def test_tracer_off_stamps_nothing(self):
        """One branch per phase: with the tracer off a phase never builds
        the stamp arrays or the wrapping closures."""

        async def scenario():
            ctrl, _, tasks = await _flat(
                QoSPolicy(pfs_capacity_iops=1000.0), [("s-0", "j-0", (10.0, 1.0))]
            )
            calls = []
            ctrl._stamped = lambda *args: calls.append(args)
            try:
                await ctrl.run_cycles(2)
            finally:
                await _teardown(ctrl, tasks)
            return calls

        assert asyncio.run(scenario()) == []
