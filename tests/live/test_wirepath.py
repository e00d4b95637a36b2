"""Wire-path optimizations: changed-only rule suppression semantics.

The dangerous edge of suppression is a *restarted* stage: its in-memory
``applied_epoch``/``applied_limit`` reset to nothing, so a controller
that keeps suppressing "unchanged" rules would leave it unenforced
forever. The controller must drop its diff record when a session goes
away and re-ship on the next cycle.
"""

import asyncio

import pytest

from repro.core.control_plane import default_policy
from repro.live.controller_server import LiveGlobalController
from repro.live.stage_client import LiveVirtualStage


async def _wait_until(predicate, timeout_s=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        if loop.time() > deadline:
            raise TimeoutError("condition not reached")
        await asyncio.sleep(0.02)


class TestChangedOnlySuppression:
    def test_constant_demand_ships_one_rule_per_stage(self):
        async def scenario():
            controller = LiveGlobalController(
                default_policy(8), expected_stages=8, enforce_changed_only=True
            )
            await controller.start()
            stages = [
                LiveVirtualStage(
                    controller.host,
                    controller.port,
                    stage_id=f"stage-{i}",
                    job_id=f"job-{i}",
                )
                for i in range(8)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            try:
                await controller.wait_for_stages()
                cycles = await controller.run_cycles(5)
                return sum(s.rules_applied for s in stages), cycles
            finally:
                await controller.shutdown()
                for t in tasks:
                    t.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

        rules_applied, cycles = asyncio.run(scenario())
        # One applied rule per stage (cycle 1); later cycles suppressed.
        assert rules_applied == 8
        assert sum(1 for c in cycles if c.degraded) == 0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            LiveGlobalController(
                default_policy(2),
                expected_stages=2,
                enforce_changed_only=True,
                rule_change_tolerance=-0.1,
            )

    def test_restarted_stage_gets_rule_reshipped(self):
        async def scenario():
            controller = LiveGlobalController(
                default_policy(3),
                expected_stages=3,
                enforce_changed_only=True,
            )
            await controller.start()
            stages = [
                LiveVirtualStage(
                    controller.host,
                    controller.port,
                    stage_id=f"stage-{i}",
                    job_id=f"job-{i}",
                    backoff_base_s=0.02,
                )
                for i in range(3)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            try:
                await controller.wait_for_stages()
                await controller.run_cycles(3)
                victim = stages[0]
                applied_before = victim.rules_applied
                suppressed_before = controller.rules_suppressed
                victim.kill()
                # Next cycle evicts the dead session (partial enforce).
                await controller.run_cycles(1)
                await _wait_until(
                    lambda: victim.connects >= 2
                    and "stage-0" in controller.sessions
                )
                await controller.run_cycles(1)
                return (
                    controller,
                    victim,
                    applied_before,
                    suppressed_before,
                )
            finally:
                await controller.shutdown()
                for t in tasks:
                    t.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

        controller, victim, applied_before, suppressed_before = asyncio.run(
            scenario()
        )
        # Steady state really was suppressing: one applied rule, then
        # nothing, despite three enforce phases.
        assert applied_before == 1
        assert suppressed_before > 0
        # After the restart the (unchanged) limit shipped again — the
        # eviction invalidated the controller's diff record.
        assert victim.rules_applied == applied_before + 1
        assert victim.applied_limit is not None
