"""LiveHierPlane restart: same ports, surviving stages, epoch floors."""

import asyncio

from repro.live.harness import LiveHierPlane

_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)


def _plane(**overrides):
    defaults = dict(
        n_stages=4,
        n_aggregators=2,
        collect_timeout_s=0.5,
        enforce_timeout_s=0.5,
        stage_backoff=_BACKOFF,
    )
    defaults.update(overrides)
    return LiveHierPlane(**defaults)


class TestPlaneRestart:
    def test_hard_restart_keeps_stages_and_ports(self):
        async def scenario():
            plane = _plane()
            await plane.start()
            await plane.wait_for_stages(timeout_s=15)
            ports_before = (plane._ctrl_port, tuple(plane._agg_ports))
            await plane.run_cycles(2)
            await plane.plane_restart(initial_epoch=50)
            await plane.wait_for_stages(timeout_s=15)
            ports_after = (plane._ctrl_port, tuple(plane._agg_ports))
            await plane.run_cycles(2)
            applied = {
                s.stage_id: s.applied_epoch for s in plane.stages
            }
            epoch = plane.epoch
            restarts = plane.restarts
            await plane.stop()
            return ports_before, ports_after, applied, epoch, restarts

        before, after, applied, epoch, restarts = asyncio.run(scenario())
        # Ports are pinned so surviving stage clients reconnect on their
        # own; the stages were NOT recreated across the restart.
        assert before == after
        assert restarts == 1
        assert epoch >= 52  # booted at 50, ran 2 cycles
        # Every surviving stage accepted post-restart rules: the new
        # controller's epochs beat the fence.
        assert all(e >= 51 for e in applied.values()), applied

    def test_kill_then_restart_from_floor(self):
        async def scenario():
            plane = _plane()
            await plane.start()
            await plane.wait_for_stages(timeout_s=15)
            await plane.run_cycles(3)
            epoch_before = plane.epoch
            await plane.kill_plane()
            # Stages keep their last applied epochs while orphaned.
            held = {s.stage_id: s.applied_epoch for s in plane.stages}
            await plane.plane_restart(initial_epoch=epoch_before + 1)
            await plane.wait_for_stages(timeout_s=15)
            await plane.run_cycles(1)
            applied = {s.stage_id: s.applied_epoch for s in plane.stages}
            await plane.stop()
            return epoch_before, held, applied

        epoch_before, held, applied = asyncio.run(scenario())
        assert max(held.values()) <= epoch_before
        # Post-restart rules land above the pre-kill epochs — fencing
        # admitted them because the restart floor cleared the old epoch.
        assert all(applied[s] > held[s] for s in applied), (held, applied)
