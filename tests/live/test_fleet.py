"""The stage fleet every live plane shares (:mod:`repro.live.harness`).

The lone flat plane, the flat pair and the hierarchy build their stages
in one place and tear them down in one place: the same ids in the same
order, one ``stage.run()`` task each, and nothing left once ``stop()``
returns.
"""

import asyncio

import pytest

from repro.live.harness import LiveFlatPair, LiveFlatPlane, LiveHierPlane
from repro.live.stage_client import LiveVirtualStage
from tests.live.test_tier import _left_nothing

N_STAGES = 6
CYCLES = 2

DESIGNS = {
    "flat": lambda: LiveFlatPlane(N_STAGES),
    "flat-pair": lambda: LiveFlatPair(
        N_STAGES,
        collect_timeout_s=0.5,
        evicted_grace_cycles=5,
        stage_backoff={},
        heartbeat_interval_s=0.1,
        missed_heartbeats=3,
    ),
    "hier": lambda: LiveHierPlane(N_STAGES, 2),
}


def _stage_tasks():
    run = LiveVirtualStage.run.__code__
    return [
        t for t in asyncio.all_tasks()
        if getattr(t.get_coro(), "cr_code", None) is run and not t.done()
    ]


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_one_fleet_one_lifecycle(design):
    async def scenario():
        plane = DESIGNS[design]()
        await plane.start()
        try:
            running = len(_stage_tasks())
            for _ in range(CYCLES):
                await plane.run_cycles(1)
            epoch = plane.controller.cycles[-1].epoch
            probed = plane.probe()
            applied = plane.rules_applied_total
        finally:
            await plane.stop()
        return plane, running, epoch, probed, applied, len(_stage_tasks())

    plane, running, epoch, probed, applied, left = _left_nothing(scenario)
    ids = [f"stage-{i:05d}" for i in range(N_STAGES)]
    assert [s.stage_id for s in plane.stages] == ids
    assert [s.job_id for s in plane.stages] == [f"job-{i:05d}" for i in range(N_STAGES)]
    assert running == N_STAGES
    assert list(probed) == ids
    assert all(row["applied_epoch"] == epoch for row in probed.values())
    assert applied == CYCLES * N_STAGES
    assert plane.rules_stale_total == 0
    assert left == 0
