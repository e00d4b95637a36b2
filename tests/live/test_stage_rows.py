"""What the live controllers keep in ``StageColumns`` rows, over real
loopback sockets: a report the columns refuse does not stop the plane,
an evicted stage's share is held for its grace and not a cycle longer,
and trust lives exactly as long as the stage's row."""

import asyncio

import numpy as np
import pytest

from repro.core.policies import QoSPolicy
from repro.guard import DemandClamp
from repro.live.controller_server import LiveGlobalController
from repro.live.faults import kill_stage
from repro.live.harness import LiveHierPlane
from repro.live.stage_client import LiveVirtualStage

_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)


async def _flat(policy, demands, **ctrl_kwargs):
    """Flat controller + one registered stage per ``(data, meta)`` demand."""
    ctrl = LiveGlobalController(policy, expected_stages=len(demands), **ctrl_kwargs)
    await ctrl.start()
    stages = [
        LiveVirtualStage(
            ctrl.host, ctrl.port, stage_id=f"s-{i}", job_id=f"j-{i}",
            demand=demand, **_BACKOFF,
        )
        for i, demand in enumerate(demands)
    ]
    tasks = [asyncio.create_task(s.run()) for s in stages]
    await ctrl.wait_for_stages(timeout_s=10.0)
    return ctrl, stages, tasks


async def _registered(ctrl, stage_id):
    """Wait (bounded) until ``stage_id`` holds a session on ``ctrl``."""

    async def poll():
        while stage_id not in ctrl.sessions:
            await asyncio.sleep(0.002)

    await asyncio.wait_for(poll(), timeout=10.0)


async def _teardown(ctrl, tasks):
    await ctrl.shutdown()
    for t in tasks:
        t.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


class TestRejectedReports:
    """One bad report used to raise out of ``run_cycles`` and stop the
    plane; now it is refused at the columns, counted, and the stage
    rides at its last-known demand."""

    @pytest.mark.parametrize(
        "lie", [(-1.0, 0.0), (500.0, float("nan")), (float("inf"), 0.0)]
    )
    def test_flat_plane_survives_a_lying_stage(self, lie):
        honest = [(1000.0, 200.0), (400.0, 100.0)]
        policy = QoSPolicy(pfs_capacity_iops=1500.0)

        async def scenario(demands):
            ctrl, _, tasks = await _flat(policy, demands)
            try:
                await asyncio.wait_for(ctrl.run_cycles(3), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl

        ctrl = asyncio.run(scenario(honest + [lie]))
        without = asyncio.run(scenario(honest))
        assert len(ctrl.cycles) == 3
        assert [c.n_missing for c in ctrl.cycles] == [1, 1, 1]
        assert ctrl.columns.reports_rejected == 3
        # Never believed, so it rides at nothing — and an idle stage
        # takes nothing from the others.
        grants = ctrl.last_allocations
        assert grants.pop("s-2") == 0.0
        assert grants == pytest.approx(without.last_allocations)

    def test_flat_liar_rides_at_its_last_good_report(self):
        async def scenario():
            ctrl, stages, tasks = await _flat(
                QoSPolicy(pfs_capacity_iops=1500.0),
                [(1000.0, 200.0), (400.0, 100.0), (700.0, 0.0)],
            )
            try:
                await ctrl.run_cycles(1)
                before = ctrl.last_allocations
                stages[2].demand = (-5.0, 0.0)
                await asyncio.wait_for(ctrl.run_cycles(2), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, before

        ctrl, before = asyncio.run(scenario())
        assert ctrl.columns.axes("s-2") == (700.0, 0.0)
        assert ctrl.last_allocations == before
        assert [c.n_missing for c in ctrl.cycles] == [0, 1, 1]

    def test_hier_plane_survives_a_lying_stage(self):
        async def scenario(demand):
            plane = LiveHierPlane(4, 2, QoSPolicy(pfs_capacity_iops=2500.0))
            await plane.start()
            try:
                await plane.wait_for_stages(timeout_s=10.0)
                plane.stages[1].demand = demand
                await asyncio.wait_for(plane.run_cycles(3), timeout=10.0)
                return plane.controller
            finally:
                await plane.stop()

        ctrl = asyncio.run(scenario((-1.0, 0.0)))
        idle = asyncio.run(scenario((0.0, 0.0)))
        assert len(ctrl.cycles) == 3
        assert ctrl.cycles[-1].n_missing == 1
        assert ctrl.columns.reports_rejected == 3
        assert idle.cycles[-1].n_missing == 0
        assert ctrl.last_allocations == pytest.approx(idle.last_allocations)
        assert ctrl.last_allocations["stage-00001"] == 0.0


class TestEvictedGrace:
    """``evicted_grace_cycles``: a killed stage is still out there
    enforcing its last rule, so its share stays allocated — as a reserved
    row — until the grace runs out or the stage registers again."""

    GRACE = 2

    async def _contended(self):
        # 4 x 1200 IOPS against 2400: 600 each; 800 once one share is freed.
        return await _flat(
            QoSPolicy(pfs_capacity_iops=2400.0),
            [(1000.0, 200.0)] * 4,
            collect_timeout_s=0.5,
            evicted_grace_cycles=self.GRACE,
        )

    def test_share_is_held_for_the_grace_then_released(self):
        async def scenario():
            ctrl, stages, tasks = await self._contended()
            grants = []
            try:
                await ctrl.run_cycles(2)
                kill_stage(stages[3], restart=False)
                for _ in range(self.GRACE + 3):
                    await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                    grants.append(
                        (ctrl.evictions, dict(ctrl.last_allocations),
                         dict(ctrl.columns.reserved))
                    )
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, grants

        ctrl, grants = asyncio.run(scenario())
        assert ctrl.evictions == 1
        evicted_in = next(i for i, (n, _, _) in enumerate(grants) if n == 1)
        held = grants[evicted_in : evicted_in + 1 + self.GRACE]
        # The eviction cycle itself, then GRACE cycles of reservation:
        # the survivors' grants do not move.
        for _, allocations, _ in held:
            assert [allocations[f"s-{i}"] for i in range(3)] == [600.0] * 3
        assert [list(r) for _, _, r in held[1:]] == [["s-3"]] * self.GRACE
        # The next cycle hands the share out, and the row is gone.
        _, allocations, reserved = grants[evicted_in + 1 + self.GRACE]
        assert allocations == {f"s-{i}": 800.0 for i in range(3)}
        assert reserved == {} and "s-3" not in ctrl.columns

    def test_without_a_grace_the_share_goes_back_in_the_evicting_cycle(self):
        """The compute runs over the rows as collect left them, as on the
        DES and the hier plane: a stage evicted in this cycle's collect,
        with no grace, holds no share of this cycle's compute."""

        async def scenario():
            ctrl, stages, tasks = await _flat(
                QoSPolicy(pfs_capacity_iops=2400.0),
                [(1000.0, 200.0)] * 4,
                collect_timeout_s=0.5,
            )
            grants = []
            try:
                await ctrl.run_cycles(2)
                kill_stage(stages[3], restart=False)
                for _ in range(3):
                    await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                    grants.append((ctrl.evictions, dict(ctrl.last_allocations)))
            finally:
                await _teardown(ctrl, tasks)
            return grants

        grants = asyncio.run(scenario())
        evicted_in = next(i for i, (n, _) in enumerate(grants) if n == 1)
        assert grants[evicted_in][1] == {f"s-{i}": 800.0 for i in range(3)}

    def test_reservation_ends_when_the_stage_registers_again(self):
        async def scenario():
            ctrl, stages, tasks = await self._contended()
            try:
                await ctrl.run_cycles(2)
                kill_stage(stages[3])  # comes back through its reconnect loop
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                assert ctrl.evictions == 1
                await _registered(ctrl, "s-3")
                reserved = dict(ctrl.columns.reserved)
                gathered = len(ctrl.columns.gather_rows())
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, reserved, gathered

        ctrl, reserved, gathered = asyncio.run(scenario())
        # Released at once: one row for the stage, not a live one plus a
        # reservation — the budget is never promised twice.
        assert reserved == {} and gathered == 4
        assert ctrl.last_allocations == {f"s-{i}": 600.0 for i in range(4)}
        assert ctrl.cycles[-1].n_missing == 0


class TestTrustLifetime:
    """``DemandClamp.forget`` never had a caller, so the clamp kept a
    score for every stage id the plane had ever seen. Trust is a column
    now: it goes when the row is reclaimed, and not before."""

    def test_churn_leaves_rows_and_trust_bounded(self):
        rounds, grace = 200, 2

        async def scenario():
            clamp = DemandClamp()
            ctrl, _, tasks = await _flat(
                QoSPolicy(pfs_capacity_iops=1e6),
                [(1000.0, 200.0)] * 2,
                collect_timeout_s=0.5,
                evicted_grace_cycles=grace,
                demand_clamp=clamp,
            )
            cols = ctrl.columns
            peak_known = peak_rows = 0
            try:
                for i in range(rounds):
                    visitor = LiveVirtualStage(
                        ctrl.host, ctrl.port, stage_id=f"v-{i}", job_id="visitors",
                        reconnect=False,
                    )
                    task = asyncio.create_task(visitor.run())
                    await _registered(ctrl, f"v-{i}")
                    await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                    visitor.kill()
                    await asyncio.wait_for(task, timeout=10.0)
                    peak_known = max(peak_known, cols.n_active + len(cols.reserved))
                    peak_rows = max(peak_rows, cols.n_active + cols.n_tombstones
                                    + len(cols.reserved))
                await asyncio.wait_for(ctrl.run_cycles(grace + 2), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, peak_known, peak_rows

        ctrl, peak_known, peak_rows = asyncio.run(scenario())
        cols = ctrl.columns
        assert ctrl.evictions == rounds
        # Live + graced at any time: the two residents, the visitor, and
        # the visitors still inside their grace.
        assert peak_known <= 2 + 1 + (grace + 1)
        # Tombstones are compacted away, so physical rows stay bounded too
        # (one row per stage id ever seen would be 202).
        assert peak_rows < 80
        assert cols.active_ids() == ("s-0", "s-1") and cols.reserved == {}
        assert not np.isnan(cols.trust[cols.active_rows()]).any()

    def test_reregistering_inside_the_grace_keeps_trust(self):
        async def scenario():
            clamp = DemandClamp()
            ctrl, stages, tasks = await _flat(
                QoSPolicy(pfs_capacity_iops=1e6),
                [(1000.0, 200.0)] * 2,
                collect_timeout_s=0.5,
                evicted_grace_cycles=2,
                demand_clamp=clamp,
            )
            cols = ctrl.columns
            try:
                await ctrl.run_cycles(3)
                earned = cols.trust[cols.row_of("s-1")]
                kill_stage(stages[1])
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                await _registered(ctrl, "s-1")
                kept = cols.trust[cols.row_of("s-1")]
                # ...whereas with no grace the row, and the trust, go at once.
                ctrl.evicted_grace_cycles = 0
                kill_stage(stages[0])
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                await _registered(ctrl, "s-0")
                dropped = cols.trust[cols.row_of("s-0")]
            finally:
                await _teardown(ctrl, tasks)
            return earned, kept, dropped

        earned, kept, dropped = asyncio.run(scenario())
        assert earned == kept == 1200.0
        assert np.isnan(dropped)
