"""End-to-end service restart: kill -9 the plane, resume above the floor.

The regression pin for the PR 7 tentpole invariant: a controller
rebooted from the durable store must never issue an epoch at or below
the store's durable epoch at kill time — stage-side fencing would
silently discard every one of its rules otherwise.
"""

import asyncio
import json

from repro.service import ControlService, run_serve
from repro.store import DurableStore

#: Fast reconnects so in-process restarts settle within a test budget.
_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)


def _open(store_dir):
    return ControlService.open(
        store_dir,
        n_stages=4,
        n_aggregators=2,
        collect_timeout_s=0.5,
        enforce_timeout_s=0.5,
        stage_backoff=_BACKOFF,
    )


class TestServiceRestart:
    def test_reboot_resumes_strictly_above_durable_epoch(self, tmp_path):
        async def first_life():
            service = _open(tmp_path)
            await service.start(run_cycles=False)
            await service.plane.wait_for_stages(timeout_s=15)
            service.register_tenant("acme", "Acme", 16.0)
            service.register_slo("acme", "ckpt", "job-00001", min_iops=50.0)
            for _ in range(3):
                await service.cycle_once()
            floor = service.store.last_durable_epoch
            issued = service.epoch
            # kill -9: abort sockets, no graceful store close.
            await service.plane.kill_plane()
            service.store.wal.sync()
            service.store.wal._file.close()
            service.store.snapshots.close()
            await service.plane.stop()
            return floor, issued

        floor, issued_before = asyncio.run(first_life())
        assert floor >= issued_before  # the lease runs ahead of issue

        async def second_life():
            service = _open(tmp_path)
            assert service.resumed
            assert service.initial_epoch > floor
            await service.start(run_cycles=False)
            await service.plane.wait_for_stages(timeout_s=15)
            await service.cycle_once()
            first_issued = service.epoch
            # Tenant state survived, not just the epoch watermark.
            assert service.store.state.tenants["acme"].weight == 16.0
            assert service.policy.tenant_weights() == {"acme": 16.0}
            limits = service.enforced_limits_for("acme")
            await service.stop()
            return first_issued, limits

        first_issued, limits = asyncio.run(second_life())
        # THE invariant: first post-restart epoch strictly dominates
        # everything the dead plane could have put on the wire.
        assert first_issued > floor
        assert "job-00001" in limits and limits["job-00001"] > 0

    def test_double_restart_floors_keep_climbing(self, tmp_path):
        floors = []

        async def one_life(cycles):
            service = _open(tmp_path)
            await service.start(run_cycles=False)
            await service.plane.wait_for_stages(timeout_s=15)
            for _ in range(cycles):
                await service.cycle_once()
            floors.append(service.store.last_durable_epoch)
            epoch = service.epoch
            await service.stop()
            return epoch

        first = asyncio.run(one_life(2))
        second = asyncio.run(one_life(2))
        third = asyncio.run(one_life(2))
        assert first < second < third
        assert floors[0] < floors[1] < floors[2]


class TestBackgroundCycles:
    def test_default_start_cycles_until_stop(self, tmp_path):
        async def scenario():
            service = _open(tmp_path)
            service.cycle_period_s = 0.01
            await service.start()
            await service.plane.wait_for_stages(timeout_s=15)
            for _ in range(1500):
                if service.cycles_run >= 3:
                    break
                await asyncio.sleep(0.01)
            await service.stop()
            return service.cycles_run, service.store.last_durable_epoch

        cycles, durable = asyncio.run(scenario())
        assert cycles >= 3
        assert durable >= cycles


class TestRunServe:
    def test_run_serve_ready_file_and_summary(self, tmp_path):
        ready = tmp_path / "ready.json"

        summary = asyncio.run(
            run_serve(
                tmp_path / "store",
                n_stages=4,
                n_aggregators=2,
                cycle_period_s=0.01,
                max_cycles=3,
                ready_file=str(ready),
            )
        )
        handshake = json.loads(ready.read_text())
        assert handshake["port"] == summary["port"] > 0
        assert handshake["resumed"] is False
        assert summary["cycles_run"] == 3
        assert summary["store"]["durable_epoch"] >= summary["epoch"]

        # Second run resumes from the same directory.
        summary2 = asyncio.run(
            run_serve(
                tmp_path / "store",
                n_stages=4,
                n_aggregators=2,
                cycle_period_s=0.01,
                max_cycles=2,
                ready_file=str(ready),
            )
        )
        assert summary2["resumed"] is True
        assert summary2["initial_epoch"] > summary["epoch"]
        store = DurableStore(tmp_path / "store")
        assert store.last_durable_epoch >= summary2["epoch"]
        store.close()
