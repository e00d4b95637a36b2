"""Live hot-standby failover: bounded takeover over real TCP sockets.

The acceptance scenario for the flat live plane: kill the primary global
controller mid-run, and the standby must resume cycles with a measured
QoS-adaptation gap of at most ``heartbeat_interval_s × missed_heartbeats``
plus one control cycle (which absorbs the stages' reconnect backoff).
"""

import asyncio

from repro.core.failover import EPOCH_SLACK
from repro.live.harness import LiveFlatPair
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer

_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)

_HB_S = 0.1
_MISSED = 3
#: Silence budget + one paced control cycle + scheduling slack.
_GAP_BOUND_S = _HB_S * _MISSED + 0.15 + 0.3


def _pair(n_stages, **obs_kwargs):
    return LiveFlatPair(
        n_stages,
        collect_timeout_s=0.5,
        evicted_grace_cycles=0,
        stage_backoff=_BACKOFF,
        heartbeat_interval_s=_HB_S,
        missed_heartbeats=_MISSED,
        **obs_kwargs,
    )


async def _run(pair, n_cycles, cycle_period_s):
    """Drive ``n_cycles`` cycles ``cycle_period_s`` apart on whoever holds
    control; returns every cycle record, the primary's then the standby's."""
    for _ in range(n_cycles):
        await pair.run_cycles(1)
        await asyncio.sleep(cycle_period_s)
    return list(pair.primary.cycles) + list(pair.standby.cycles)


class TestKillPrimary:
    def test_takeover_within_heartbeat_budget(self):
        """Acceptance: gap ≤ hb × missed + one control cycle."""

        async def scenario():
            hot = _pair(6)
            try:
                await hot.start()
                run = asyncio.create_task(_run(hot, 10, cycle_period_s=0.15))
                await asyncio.sleep(0.5)
                hot.kill_primary()
                cycles = await asyncio.wait_for(run, timeout=30.0)
            finally:
                await hot.stop()
            return hot, cycles

        hot, cycles = asyncio.run(scenario())
        primary, standby, stages = hot.primary, hot.standby, hot.stages
        ev = hot.failover
        assert ev is not None
        assert len(cycles) == 10
        assert len(primary.cycles) >= 1 and len(standby.cycles) >= 1
        assert ev.gap_s <= _GAP_BOUND_S
        # Epoch fencing: the standby resumed above everything the primary
        # could have sent, and every stage converged on standby epochs.
        assert ev.resumed_epoch > ev.last_primary_epoch + EPOCH_SLACK - 1
        assert all(s.applied_epoch >= ev.resumed_epoch for s in stages)
        assert all(s.failovers == 1 for s in stages)
        # Capacity invariant holds after the move.
        total = sum(s.applied_limit for s in stages)
        assert total <= primary.policy.allocatable_iops * (1 + 1e-6)

    def test_clean_run_never_fails_over(self):
        """Without a kill, the primary finishes and the standby stays idle."""

        async def scenario():
            hot = _pair(4)
            try:
                await hot.start()
                cycles = await asyncio.wait_for(
                    _run(hot, 5, cycle_period_s=0.05), timeout=30.0
                )
            finally:
                await hot.stop()
            return hot, cycles

        hot, cycles = asyncio.run(scenario())
        assert hot.failover is None
        assert len(cycles) == 5
        assert len(hot.standby.cycles) == 0
        assert hot.rule.beats >= 1

    def test_silent_but_running_primary_is_fenced(self):
        """Only the heartbeat stream stops; the primary's process runs on.
        The standby fences it, so stages leave it for the standby: the
        run has exactly n cycles and one controller per epoch, and the gap
        runs from the last beat, so it spans the whole silence budget."""

        async def scenario():
            hot = _pair(6)
            try:
                await hot.start()
                run = asyncio.create_task(_run(hot, 40, cycle_period_s=0.02))
                await asyncio.sleep(0.3)
                hot._hb_task.cancel()
                cycles = await asyncio.wait_for(run, timeout=30.0)
            finally:
                await hot.stop()
            return hot, cycles

        hot, cycles = asyncio.run(scenario())
        primary, standby = hot.primary, hot.standby
        assert hot.failover is not None
        assert hot.failover.gap_s >= hot.rule.budget_s
        assert len(cycles) == 40
        assert len(primary.cycles) >= 1 and len(standby.cycles) >= 1
        issued = [c.epoch for c in cycles]
        assert len(set(issued)) == len(issued)
        assert max(c.epoch for c in primary.cycles) < standby.cycles[0].epoch
        assert all(s.applied_epoch == standby.epoch for s in hot.stages)

    def test_takeover_emits_span_and_metric(self):
        """Obs wiring: a ``takeover`` span and the takeover counter."""

        async def scenario():
            tracer = SpanTracer(track="standby", clock_domain="wall")
            registry = MetricsRegistry()
            hot = _pair(4, span_tracer=tracer, metrics=registry)
            try:
                await hot.start()
                run = asyncio.create_task(_run(hot, 8, cycle_period_s=0.1))
                await asyncio.sleep(0.35)
                hot.kill_primary()
                await asyncio.wait_for(run, timeout=30.0)
            finally:
                await hot.stop()
            return tracer, registry

        tracer, registry = asyncio.run(scenario())
        takeovers = [s for s in tracer.spans if s.name == "takeover"]
        assert len(takeovers) == 1
        assert takeovers[0].dur_s > 0
        assert "repro_failover_takeovers_total" in registry.render()
