"""An SLO's ``min_iops`` reaches the plane that enforces.

``POST /slos`` validated the floor and wrote it to the WAL and the
policy, and the live controllers then computed per *stage*, without the
policy's guarantees: the floor was never read. They compute through
``ColumnarCompute`` now — per job, floors included.
"""

import asyncio
import json

from repro.core.policies import QoSPolicy
from repro.service import ControlService, ServiceApi
from repro.service.http import HttpRequest

_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)


async def _post(api, path, body):
    response = await api.handle(
        HttpRequest(method="POST", path=path, query={}, body=json.dumps(body).encode())
    )
    assert response.status == 201, response.payload
    return response


class TestFloorsOverRest:
    def test_active_slo_job_is_held_at_its_floor_and_an_idle_one_gets_none(
        self, tmp_path
    ):
        async def scenario():
            # Four stages asking 1,200 each of 2,000: 500 apiece, unfloored.
            service = ControlService.open(
                tmp_path,
                n_stages=4,
                n_aggregators=2,
                policy=QoSPolicy(pfs_capacity_iops=2000.0),
                stage_backoff=_BACKOFF,
            )
            api = ServiceApi(service)
            await service.start(run_cycles=False)
            try:
                await service.plane.wait_for_stages(timeout_s=15)
                service.plane.stages[2].demand = (0.0, 0.0)  # job-00002 idles
                await service.cycle_once()
                before = service.current_limits()
                # Same weight as everyone else: only the floors differ.
                await _post(api, "/tenants", {"tenant_id": "acme", "weight": 1})
                await _post(
                    api, "/tenants/acme/slos",
                    {"slo_id": "ckpt", "job_id": "job-00001", "min_iops": 900},
                )
                await _post(
                    api, "/tenants/acme/slos",
                    {"slo_id": "idle", "job_id": "job-00002", "min_iops": 400},
                )
                await service.cycle_once()
                enforced = service.enforced_limits_for("acme")
                limits = service.current_limits()
                applied = {s.stage_id: s.applied_limit for s in service.plane.stages}
            finally:
                await service.stop()
            return before, enforced, limits, applied

        before, enforced, limits, applied = asyncio.run(scenario())
        assert before["stage-00001"] < 900.0
        # The floor holds for the active job; the others are squeezed
        # below what they had, and the budget is not exceeded.
        assert enforced["job-00001"] >= 900.0
        for other in ("stage-00000", "stage-00003"):
            assert limits[other] < before[other]
        assert sum(limits.values()) <= 2000.0 * (1 + 1e-9)
        # No false allocation: an idle job's floor is nobody's.
        assert enforced["job-00002"] == 0.0
        # ... and it is what the stages enforce, not just what /tenants says.
        assert applied == limits
