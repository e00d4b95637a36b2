"""Sim HotStandby × crash_aggregator: the two mechanisms together.

Before this, failover existed only for the flat simulator and aggregator
crashes were only tested under a live primary — a takeover *while a
cycle is already degraded* by a dead aggregator was never exercised.
"""

from repro.core.control_plane import ControlPlaneConfig, HierarchicalControlPlane
from repro.core.failover import EPOCH_SLACK, HotStandby, attach_standby
from repro.core.failures import FailureLog, crash_aggregator


def _plane(n_stages=12, n_aggregators=3):
    config = ControlPlaneConfig(n_stages=n_stages, collect_timeout_s=0.5)
    return HierarchicalControlPlane.build(config, n_aggregators)


class TestHierStandby:
    def test_attach_builds_parallel_tree(self):
        plane = _plane()
        standby = attach_standby(plane)
        agg_children = [c for c in standby.children if c.kind == "aggregator"]
        assert len(agg_children) == 3
        assert sorted(c.child_id for c in agg_children) == sorted(
            a.agg_id for a in plane.aggregators
        )
        # The standby tracks the same stages as the primary.
        assert set(standby.columns.active_ids()) == set(
            plane.global_controller.columns.active_ids()
        )

    def test_takeover_while_degraded_by_dead_aggregator(self):
        """Primary dies while aggregator-01 is crashed: the standby must
        finish the run degraded — riding the dead partition at last-known
        demand — without stalls, epoch rollbacks, or over-allocation."""
        plane = _plane()
        env = plane.env
        primary = plane.global_controller
        standby = attach_standby(plane)
        hot = HotStandby(
            env, primary, standby,
            heartbeat_interval_s=0.05, missed_heartbeats=3,
        )
        log = FailureLog()

        # Warm the plane so every stage holds a rule, then crash an
        # aggregator for the rest of the run and kill the primary while
        # cycles are degraded by it.
        env.run(primary.run_cycles(2))
        crash_aggregator(env, plane.aggregators[1], at=env.now, downtime=60.0, log=log)
        env.call_at(env.now + 0.6, hot.kill_primary)
        watch = hot.start(6)
        env.run(watch)

        assert hot.failover is not None
        # The watchdog budget counts all primary cycles (warm-up included),
        # so the run converges on exactly n_cycles across both controllers.
        assert hot.total_cycles() == 6
        assert len(standby.cycles) >= 1
        # The takeover happened while degraded: standby cycles miss the
        # dead partition (4 of 12 stages) every epoch.
        assert all(c.n_missing == 4 for c in standby.cycles)
        # Epoch fencing across the takeover.
        assert standby.epoch > hot.failover.last_primary_epoch + EPOCH_SLACK - 1
        # Capacity invariant: enforced limits (including the crashed
        # partition's last rules, still enforced by its zombie stages)
        # never exceed capacity, because the dead partition's demand
        # stays reserved at last-known.
        total = sum(
            s.current_limit for s in plane.stages if s.applied_rule is not None
        )
        assert total <= plane.config.policy.allocatable_iops * (1 + 1e-6)
        # The crashed partition's stages kept their pre-crash rules.
        crashed_ids = set(plane.aggregators[1].stage_ids)
        for stage in plane.stages:
            assert stage.applied_rule is not None
            if stage.stage_id in crashed_ids:
                assert stage.applied_rule.epoch <= 2
            else:
                assert stage.applied_rule.epoch > 2

    def test_crash_with_recovery_and_no_takeover(self):
        """A crashed-then-recovered aggregator must not trigger failover."""
        plane = _plane()
        env = plane.env
        primary = plane.global_controller
        standby = attach_standby(plane)
        hot = HotStandby(
            env, primary, standby,
            heartbeat_interval_s=0.05, missed_heartbeats=3,
        )
        env.run(primary.run_cycles(1))
        crash_aggregator(env, plane.aggregators[0], at=env.now, downtime=1.0)
        watch = hot.start(8)
        env.run(watch)
        assert hot.failover is None
        assert len(standby.cycles) == 0
        # n_cycles counts the warm-up cycle too, as a takeover does.
        assert len(primary.cycles) == 8
        # Degraded while down, clean after recovery.
        assert any(c.n_missing > 0 for c in primary.cycles)
        assert primary.cycles[-1].n_missing == 0

    def test_clean_run_after_warm_up_counts_all_cycles(self):
        """Warm-up cycles count toward n_cycles on the clean path too:
        the run converges on exactly n_cycles, killed or not."""
        plane = _plane()
        env = plane.env
        primary = plane.global_controller
        standby = attach_standby(plane)
        hot = HotStandby(
            env, primary, standby,
            heartbeat_interval_s=0.05, missed_heartbeats=3,
        )
        env.run(primary.run_cycles(2))
        env.run(hot.start(6))
        assert hot.failover is None
        assert hot.total_cycles() == 6
        assert len(standby.cycles) == 0
