"""Seeded chaos against the live TCP planes: zero invariant violations.

These are the acceptance runs: a real asyncio cluster, wall-clock paced
cycles, faults injected from the deterministic seed-7 schedule — which
contains aggregator kills on the hier design and a primary kill on the
flat design — and the tentpole invariants checked after every cycle.
The hier design runs the shipped ``LiveHierPlane``, so its aggregator
faults cross into the plane's forked aggregator tier.
"""

import asyncio
import os
import signal

from repro.chaos import ChaosSchedule, InvariantChecker, run_chaos_live
from repro.chaos.runner import _LIVE_BACKOFF, _drive, _new_report
from repro.live.harness import LiveHierPlane
from repro.live.tier import AggregatorTier


class TestLiveHier:
    def test_seed7_zero_violations(self, monkeypatch):
        starts = []
        start = AggregatorTier.start

        async def counted_start(tier, *args, **kwargs):
            starts.append(tier)
            await start(tier, *args, **kwargs)

        monkeypatch.setattr(AggregatorTier, "start", counted_start)
        report = run_chaos_live(7, "hier")
        # The aggregators ran in a forked tier, not on this loop.
        assert starts
        assert report.actions, "seed 7 must actually inject faults"
        assert report.ok, report.to_json()
        assert report.cycles_completed == report.n_cycles
        assert report.checks > 0
        kills = [a for a in report.actions if a["kind"] == "kill_aggregator"]
        assert kills, "seed 7 hier schedule is expected to kill aggregators"
        # Every killed aggregator's stages re-homed to a survivor.
        assert report.rehomes > 0


class TestLiveFlat:
    def test_seed7_zero_violations_with_takeover(self):
        report = run_chaos_live(7, "flat")
        assert report.ok, report.to_json()
        assert report.cycles_completed == report.n_cycles
        kill = [a for a in report.actions if a["kind"] == "kill_primary"]
        assert kill, "seed 7 flat schedule is expected to kill the primary"
        assert report.takeovers == 1
        # The measured adaptation gap is present; its bound is enforced
        # inside the run as the "gap" invariant (ok above covers it).
        assert report.gap_s is not None and report.gap_s > 0.0


class TestTierStop:
    def test_a_one_cycle_stop_of_the_tier_recovers(self):
        """SIGSTOP the whole aggregator tier before cycle 3 and SIGCONT
        it before cycle 4: the stopped cycle degrades, nothing is
        evicted, and every stage holds the current epoch again within
        two cycles."""
        schedule = ChaosSchedule(
            seed=0, design="hier", n_cycles=10, n_stages=9, n_aggregators=3
        )
        report = _new_report(schedule, "live")
        plane = LiveHierPlane(9, 3, collect_timeout_s=0.5, stage_backoff=_LIVE_BACKOFF)
        checker = InvariantChecker(plane.policy.allocatable_iops)

        async def inject(cycle, actions):
            if cycle == 3:
                os.kill(plane._tier.pid, signal.SIGSTOP)
            elif cycle == 4:
                os.kill(plane._tier.pid, signal.SIGCONT)

        def check(cycle):
            epochs = {sid: row["applied_epoch"] for sid, row in plane.probe().items()}
            stopped = epochs.keys() if cycle == 3 else ()
            checker.check_caught_up(cycle, epochs, plane.epoch, stopped)

        async def run():
            try:
                await plane.start()
                await _drive(schedule, report, checker, plane, inject, 0.1, check=check)
            finally:
                if plane._tier is not None:
                    os.kill(plane._tier.pid, signal.SIGCONT)
                await plane.stop()

        asyncio.run(run())
        assert not checker.violations, checker.violations
        assert report.cycles_completed == 10
        assert 1 <= report.cycles_degraded <= 2
        assert plane.evictions == 0

    def test_a_long_stop_of_the_tier_recovers(self):
        """SIGSTOP the tier before cycle 3 and SIGCONT it before cycle 8:
        the controller declares all three aggregators dead at cycle 4 and
        cycles degraded without them. Once the tier runs again each
        aggregator finds its trunk cut, re-dials and re-registers with
        the stages it kept, so every stage holds the current epoch again
        within two cycles and the tree ends at three aggregators."""
        schedule = ChaosSchedule(
            seed=0, design="hier", n_cycles=20, n_stages=9, n_aggregators=3
        )
        report = _new_report(schedule, "live")
        plane = LiveHierPlane(9, 3, collect_timeout_s=0.5, stage_backoff=_LIVE_BACKOFF)
        # Orphaned from the declaration at cycle 4 until the tier runs
        # again at cycle 8: nobody can re-home them before.
        checker = InvariantChecker(plane.policy.allocatable_iops, rehome_bound_cycles=5)

        async def inject(cycle, actions):
            if cycle == 3:
                os.kill(plane._tier.pid, signal.SIGSTOP)
            elif cycle == 8:
                os.kill(plane._tier.pid, signal.SIGCONT)

        def check(cycle):
            epochs = {sid: row["applied_epoch"] for sid, row in plane.probe().items()}
            stopped = epochs.keys() if 3 <= cycle < 8 else ()
            checker.check_caught_up(cycle, epochs, plane.epoch, stopped)

        async def run():
            try:
                await plane.start()
                await _drive(schedule, report, checker, plane, inject, 0.1, check=check)
                return len(plane.controller.sessions), plane.probe()
            finally:
                if plane._tier is not None:
                    os.kill(plane._tier.pid, signal.SIGCONT)
                await plane.stop()

        n_aggregators, probed = asyncio.run(run())
        assert not checker.violations, checker.violations
        assert report.cycles_completed == 20
        assert n_aggregators == 3
        assert {row["applied_epoch"] for row in probed.values()} == {20}
