"""Every phase of the live plane has a deadline.

A host given no ``collect_timeout_s`` / ``enforce_timeout_s`` derives
both each cycle from the stages its phases cover
(:func:`repro.live.sessions.phase_deadline_s`), so one silent stage costs
a default plane one deadline, never the loop. A deadline that is not a
positive, finite number of seconds is refused wherever it enters.
"""

import asyncio
import math
import time
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core.control_plane import default_policy
from repro.live.aggregator_server import LiveAggregator
from repro.live.controller_server import LiveGlobalController, LiveHierGlobalController
from repro.live.harness import LiveHierPlane
from repro.live.sessions import phase_deadline_s
from repro.live.stage_client import LiveVirtualStage


class TestDeadlineRule:
    def test_the_rule_at_the_shipped_scales(self):
        # run_serve's 12 stages and serve-2500x4's 2,500: the literals
        # those callers passed before the rule existed.
        assert phase_deadline_s(12) == 1.0
        assert phase_deadline_s(2500) == 5.0
        assert phase_deadline_s(0) == 1.0
        assert phase_deadline_s(625) == 1.25

    @pytest.mark.parametrize(
        "n, n_aggregators, tree_s, partition_s",
        [(6, 2, 1.0, 1.0), (2500, 4, 5.0, 1.25)],
        ids=["6x2", "2500x4"],
    )
    def test_an_aggregator_answers_a_level_inside_its_controller(
        self, n, n_aggregators, tree_s, partition_s
    ):
        """An aggregator's clock starts when the request lands and runs
        its partition's deadline out for a silent stage; the hier
        controller waits that out plus its tree's own, so the answer is
        never what its deadline cuts off."""
        ctrl = LiveHierGlobalController(default_policy(n), n_aggregators)
        flat = LiveGlobalController(default_policy(n), n)
        ids = [f"s-{i}" for i in range(n)]
        ctrl._home = dict.fromkeys(ids)
        flat.ledger.relayout([(sid, (sid,)) for sid in ids])
        aggs = []
        for a in range(n_aggregators):
            agg = LiveAggregator(
                f"a-{a}", "127.0.0.1", 1, expected_stages=n // n_aggregators
            )
            agg.ledger.relayout([(sid, (sid,)) for sid in ids[a::n_aggregators]])
            aggs.append(agg)
            ctrl.sessions[agg.aggregator_id] = SimpleNamespace(ledger=agg.ledger)
        assert flat._deadlines() == (tree_s, tree_s)
        ctrl_s = tree_s + partition_s
        assert ctrl._deadlines() == (ctrl_s, ctrl_s)
        for agg in aggs:
            assert agg._deadlines() == (partition_s, partition_s)
            assert agg._deadlines()[0] + 1.0 <= ctrl_s

    def test_a_configured_deadline_overrides_the_rule(self):
        ctrl = LiveGlobalController(default_policy(4), 4, collect_timeout_s=0.3)
        assert ctrl._deadlines() == (0.3, 0.3)
        ctrl = LiveGlobalController(default_policy(4), 4, enforce_timeout_s=0.2)
        assert ctrl._deadlines() == (1.0, 0.2)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=repr)
    def test_non_finite_deadlines_are_refused(self, value):
        for build in (
            lambda **kw: LiveGlobalController(default_policy(4), 4, **kw),
            lambda **kw: LiveHierGlobalController(default_policy(4), 2, **kw),
            lambda **kw: LiveAggregator("a", "127.0.0.1", 1, 2, **kw),
        ):
            for name in ("collect_timeout_s", "enforce_timeout_s"):
                with pytest.raises(ValueError):
                    build(**{name: value})
        with pytest.raises(ValueError):
            LiveVirtualStage("h", 1, "s", "j", controller_timeout_s=value)

    @pytest.mark.parametrize("text", ["nan", "inf", "0", "-1", "x"])
    def test_the_cli_refuses_a_deadline_that_is_none(self, text, capsys):
        for flag in ("--collect-timeout", "--enforce-timeout"):
            with pytest.raises(SystemExit) as exit_:
                main(["live", "--stages", "2", "--cycles", "1", flag, text])
            assert exit_.value.code == 2
        assert "deadline" in capsys.readouterr().err


async def _timed_cycle(run_cycles):
    started = time.perf_counter()
    cycles = await asyncio.wait_for(run_cycles(1), timeout=10.0)
    return cycles[-1], time.perf_counter() - started


class TestPausedStageOnADefaultPlane:
    """One stage stops answering on a plane built with default
    arguments: each cycle it stays silent ends at one derived deadline,
    degraded by that one stage, and the first cycle after it resumes is
    clean. On the hier plane its aggregator answers inside the
    controller's deadline, flagging the one stage — it is never itself
    booked silent, so it is never declared dead, however long the pause."""

    PAUSED_CYCLES = 3

    @staticmethod
    def _check(before, paused, after, stage_deadline_s):
        assert all(not c.degraded for c in before)
        for cycle, elapsed in paused:
            assert cycle.n_missing == 1
            # Collect waits the stage's deadline out; enforce writes it
            # its rule but does not wait for the ack.
            assert elapsed < stage_deadline_s + 0.5
        assert not after.degraded

    @classmethod
    async def _pause_one(cls, run_cycles, stage):
        before = list(await run_cycles(2))
        stage.pause()
        paused = [await _timed_cycle(run_cycles) for _ in range(cls.PAUSED_CYCLES)]
        stage.resume()
        after, _ = await _timed_cycle(run_cycles)
        return before, paused, after

    def test_flat(self):
        async def scenario():
            ctrl = LiveGlobalController(default_policy(6), 6)
            await ctrl.start()
            stages = [
                LiveVirtualStage(ctrl.host, ctrl.port, f"s-{i}", f"j-{i}")
                for i in range(6)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            try:
                await ctrl.wait_for_stages(timeout_s=10.0)
                return await self._pause_one(ctrl.run_cycles, stages[2])
            finally:
                await ctrl.shutdown()
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

        before, paused, after = asyncio.run(scenario())
        self._check(before, paused, after, phase_deadline_s(6))
        # The stage's own deadline is the controller's: it fires.
        assert all(cycle.timed_out for cycle, _ in paused)

    def test_hier(self):
        async def scenario():
            plane = LiveHierPlane(6, 2)
            try:
                await plane.start()
                await plane.wait_for_stages(timeout_s=10.0)
                result = await self._pause_one(plane.run_cycles, plane.stages[2])
                return result, plane.controller.aggregators_declared_dead
            finally:
                await plane.stop()

        (before, paused, after), declared_dead = asyncio.run(scenario())
        self._check(before, paused, after, phase_deadline_s(3))
        # The aggregator's deadline fires, the controller's never does.
        assert not any(cycle.timed_out for cycle, _ in paused)
        assert declared_dead == 0
