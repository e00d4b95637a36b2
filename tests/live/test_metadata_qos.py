"""Metadata QoS on the live plane: limits over the wire, per-axis state.

The PR 9 acceptance scenarios: a differentiated policy's metadata limit
must reach the stage and retune its local token bucket; an
undifferentiated one must leave the axis unlimited; and a degraded cycle
must fall back to per-axis last-known demand, not a summed scalar.
"""

import asyncio
import math

import pytest

from repro.core.algorithms import PADLLThrottler
from repro.core.policies import QoSPolicy
from repro.live.controller_server import InProcessGlobalController, LiveGlobalController
from repro.live.stage_client import LiveVirtualStage


def _policy(n, data_cap=None, meta_cap=300.0):
    return QoSPolicy(
        pfs_capacity_iops=data_cap if data_cap is not None else n * 750.0,
        metadata_capacity_iops=meta_cap,
    )


async def _teardown(ctrl, tasks):
    await ctrl.shutdown()
    for t in tasks:
        t.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


async def _differentiated_cluster(n=2, cls=LiveGlobalController, **ctrl_kwargs):
    """A case that reads the controller's internals builds it in-process."""
    ctrl = cls(
        _policy(n), expected_stages=n, **ctrl_kwargs
    )
    await ctrl.start()
    stages = [
        LiveVirtualStage(
            ctrl.host,
            ctrl.port,
            stage_id=f"s-{i}",
            job_id=f"j-{i}",
            demand=(1000.0, 200.0),
        )
        for i in range(n)
    ]
    tasks = [asyncio.create_task(s.run()) for s in stages]
    await ctrl.wait_for_stages(timeout_s=10.0)
    return ctrl, stages, tasks


class TestMetadataLimitOverTheWire:
    """A stage must receive AND enforce a finite metadata limit."""

    def test_finite_metadata_limit_applied(self):
        async def scenario():
            ctrl, stages, tasks = await _differentiated_cluster()
            try:
                await ctrl.run_cycles(3)
            finally:
                await _teardown(ctrl, tasks)
            return stages

        stages = asyncio.run(scenario())
        for stage in stages:
            assert stage.rules_applied == 3
            # Two stages contend for 300 metadata IOPS: 150 each —
            # finite, differentiated, and below the 200 demanded.
            assert math.isfinite(stage.applied_metadata_limit)
            assert stage.applied_metadata_limit == pytest.approx(150.0)
            # The data axis holds its own, finite grant beside it.
            assert math.isfinite(stage.applied_limit)

    def test_undifferentiated_policy_leaves_metadata_unlimited(self):
        async def scenario():
            ctrl = LiveGlobalController(
                QoSPolicy(pfs_capacity_iops=1500.0), expected_stages=2
            )
            await ctrl.start()
            stages = [
                LiveVirtualStage(
                    ctrl.host, ctrl.port, stage_id=f"s-{i}", job_id=f"j-{i}"
                )
                for i in range(2)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            try:
                await ctrl.wait_for_stages(timeout_s=10.0)
                await ctrl.run_cycles(2)
            finally:
                await _teardown(ctrl, tasks)
            return stages

        for stage in asyncio.run(scenario()):
            assert stage.rules_applied == 2
            assert stage.applied_metadata_limit == float("inf")

    def test_padll_brain_caps_a_metadata_storm_end_to_end(self):
        """The tentpole, end to end: a PADLL-style brain in the live
        controller holds a metadata-storming stage at its per-tenant
        cap while the innocent stage is fully served."""

        async def scenario():
            ctrl = LiveGlobalController(
                _policy(2, meta_cap=300.0),
                expected_stages=2,
                algorithm=PADLLThrottler(metadata_cap_fraction=0.5),
            )
            await ctrl.start()
            storm = LiveVirtualStage(
                ctrl.host, ctrl.port, stage_id="storm", job_id="j-storm",
                demand=(100.0, 5000.0),
            )
            calm = LiveVirtualStage(
                ctrl.host, ctrl.port, stage_id="calm", job_id="j-calm",
                demand=(100.0, 50.0),
            )
            tasks = [
                asyncio.create_task(s.run()) for s in (storm, calm)
            ]
            try:
                await ctrl.wait_for_stages(timeout_s=10.0)
                await ctrl.run_cycles(3)
            finally:
                await _teardown(ctrl, tasks)
            return storm, calm

        storm, calm = asyncio.run(scenario())
        # Cap = 0.5 * 300 = 150, far below the 5000 demanded.
        assert storm.applied_metadata_limit <= 150.0 + 1e-6
        assert calm.applied_metadata_limit >= 50.0 - 1e-6


class TestDegradedCyclePerAxisFallback:
    def test_stalled_stage_keeps_its_axis_split(self):
        """Regression: both live planes used to collapse a session's
        last-known demand into one scalar. With a differentiated policy
        that mis-split the axes on every degraded cycle: the stalled
        stage's metadata grant must stay at its per-axis value, not at
        a number derived from data+metadata summed into one axis."""

        async def scenario():
            ctrl, stages, tasks = await _differentiated_cluster(
                cls=InProcessGlobalController, collect_timeout_s=0.2,
            )
            try:
                await ctrl.run_cycles(2)
                healthy = {
                    s.stage_id: (s.applied_limit, s.applied_metadata_limit)
                    for s in stages
                }
                stages[1].pause()
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                degraded_cycle = ctrl.cycles[-1]
                per_axis = ctrl.columns.axes("s-1")
                stages[1].resume()
            finally:
                await _teardown(ctrl, tasks)
            return stages, healthy, degraded_cycle, per_axis

        stages, healthy, degraded_cycle, per_axis = asyncio.run(scenario())
        assert degraded_cycle.n_missing == 1
        # Per-axis last-known state survived the stall un-summed.
        assert per_axis == pytest.approx((1000.0, 200.0))
        # The healthy stage saw no shift: the stalled peer rode at its
        # last-known per-axis demand, so this cycle's limits match the
        # healthy ones on both axes.
        assert stages[0].applied_limit == pytest.approx(healthy["s-0"][0])
        assert stages[0].applied_metadata_limit == pytest.approx(
            healthy["s-0"][1]
        )
