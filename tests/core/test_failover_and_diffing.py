"""Tests for hot-standby failover and changed-only rule enforcement."""

import pytest

from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane
from repro.core.failover import EPOCH_SLACK, HotStandby, StandbyRule, attach_standby


def build_protected_plane(n_stages=30, hb=0.01, missed=3):
    plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=n_stages))
    standby = attach_standby(plane)
    hs = HotStandby(
        plane.env,
        plane.global_controller,
        standby,
        heartbeat_interval_s=hb,
        missed_heartbeats=missed,
    )
    return plane, standby, hs


class TestHotStandby:
    def test_clean_run_never_fails_over(self):
        plane, standby, hs = build_protected_plane()
        watch = hs.start(n_cycles=20)
        plane.env.run(watch)
        assert hs.failover is None
        assert len(plane.global_controller.cycles) == 20
        assert len(standby.cycles) == 0  # standby stayed passive

    def test_takeover_completes_remaining_cycles(self):
        plane, standby, hs = build_protected_plane()
        watch = hs.start(n_cycles=50)
        plane.env.call_at(0.01, hs.kill_primary)
        plane.env.run(watch)
        assert hs.failover is not None
        assert hs.total_cycles() == 50
        assert len(standby.cycles) > 0
        assert hs.active_controller is standby

    def test_epochs_never_regress_at_stages(self):
        plane, standby, hs = build_protected_plane()
        watch = hs.start(n_cycles=40)
        plane.env.call_at(0.008, hs.kill_primary)
        plane.env.run(watch)
        # The standby resumed above the primary's last epoch, so no stage
        # ever ignored a post-failover rule as stale.
        assert all(s.rules_ignored_stale == 0 for s in plane.stages)
        assert hs.failover.resumed_epoch > hs.failover.last_primary_epoch

    def test_takeover_gap_bounded_by_heartbeat_budget(self):
        plane, standby, hs = build_protected_plane(hb=0.02, missed=3)
        watch = hs.start(n_cycles=200)
        kill_at = 0.015
        plane.env.call_at(kill_at, hs.kill_primary)
        plane.env.run(watch)
        gap = hs.failover.time - kill_at
        # Detection within heartbeat_interval * missed + one interval slack.
        assert gap <= 0.02 * (3 + 1) + 1e-9

    def test_silent_but_running_primary_is_fenced(self):
        """Heartbeats stop while the primary's process runs on: the
        standby fences it, so the run has exactly n cycles and one
        controller per epoch, and every stage ends on the standby's."""
        plane, standby, hs = build_protected_plane()
        primary = plane.global_controller
        watch = hs.start(n_cycles=200)
        heartbeat = hs._procs[1]
        plane.env.call_at(0.015, lambda: heartbeat.interrupt("hung"))
        plane.env.run(watch)
        assert hs.failover is not None
        assert hs.total_cycles() == 200
        assert len(primary.cycles) >= 1 and len(standby.cycles) >= 1
        issued = [c.epoch for c in (*primary.cycles, *standby.cycles)]
        assert len(set(issued)) == len(issued)
        assert max(c.epoch for c in primary.cycles) < standby.cycles[0].epoch
        assert all(s.rules_ignored_stale == 0 for s in plane.stages)
        assert all(s.applied_rule.epoch == standby.epoch for s in plane.stages)

    def test_gap_runs_from_the_kill_to_the_first_standby_cycle(self):
        plane, standby, hs = build_protected_plane(hb=0.02, missed=3)
        watch = hs.start(n_cycles=200)
        kill_at = 0.015
        plane.env.call_at(kill_at, hs.kill_primary)
        plane.env.run(watch)
        first = standby.cycles[0]
        assert hs.failover.gap_s == pytest.approx(
            first.started_at + first.total_s - kill_at
        )
        assert hs.failover.time - kill_at < hs.failover.gap_s

    def test_standby_rules_reach_all_stages(self):
        plane, standby, hs = build_protected_plane()
        watch = hs.start(n_cycles=30)
        plane.env.call_at(0.005, hs.kill_primary)
        plane.env.run(watch)
        final = standby.epoch
        assert all(
            s.applied_rule is not None and s.applied_rule.epoch == final
            for s in plane.stages
        )

    def test_validation(self):
        plane, standby, hs = build_protected_plane()
        with pytest.raises(ValueError):
            HotStandby(plane.env, plane.global_controller, plane.global_controller)
        with pytest.raises(ValueError):
            HotStandby(
                plane.env,
                plane.global_controller,
                standby,
                heartbeat_interval_s=0,
            )
        with pytest.raises(ValueError):
            hs.start(0)

    def test_standby_costs_connections_and_memory(self):
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=10))
        net = plane.cluster.network
        stage_host = plane.stage_hosts[0]
        before = net.pool_of(stage_host).open_connections
        standby = attach_standby(plane)
        # One extra connection per stage (the §VI dependability price).
        assert net.pool_of(stage_host).open_connections == before + 10
        assert standby.host.resident_bytes > 0


class TestStandbyRule:
    """The takeover rule both shells drive, stepped by hand."""

    def test_silence_past_the_budget_is_due(self):
        rule = StandbyRule(0.01, 3)
        rule.watch(0.0)
        rule.beat(0.01, epoch=4)
        assert not rule.due(0.0399)
        assert rule.due(0.04)
        assert rule.take_over(0.04, fenced_epoch=6) == 6 + EPOCH_SLACK
        assert not rule.due(1.0)  # one takeover
        event = rule.event(first_cycle_end=0.05)
        assert (event.last_primary_epoch, event.resumed_epoch) == (6, 8)
        assert event.gap_s == pytest.approx(0.05 - 0.01)  # from the last beat

    def test_a_closed_stream_is_due_at_once(self):
        rule = StandbyRule(0.01, 3)
        rule.watch(0.0)
        assert not rule.due(0.001)
        rule.lost(0.002)
        assert rule.due(0.002)
        rule.take_over(0.002, fenced_epoch=0)
        assert rule.event(first_cycle_end=0.012).gap_s == pytest.approx(0.01)

    def test_nothing_is_due_before_the_run_starts(self):
        assert not StandbyRule(0.01, 3).due(100.0)

    @pytest.mark.parametrize("interval, missed", [(0, 3), (-1.0, 3), (0.01, 0)])
    def test_validation(self, interval, missed):
        with pytest.raises(ValueError):
            StandbyRule(interval, missed)


class TestEnforceChangedOnly:
    def test_steady_state_suppresses_rules(self):
        plane = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=20, enforce_changed_only=True)
        )
        plane.run_stress(n_cycles=6)
        ctrl = plane.global_controller
        # Constant demand: after the first cycle every rule repeats.
        assert ctrl.rules_suppressed == 20 * 5

    def test_enforce_phase_cheaper(self):
        base = FlatControlPlane.build(ControlPlaneConfig(n_stages=100))
        base.run_stress(n_cycles=6)
        diffed = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=100, enforce_changed_only=True)
        )
        diffed.run_stress(n_cycles=6)
        assert (
            diffed.stats().breakdown().enforce_ms
            < base.stats().breakdown().enforce_ms / 2
        )

    def test_collect_unchanged(self):
        base = FlatControlPlane.build(ControlPlaneConfig(n_stages=100))
        base.run_stress(n_cycles=6)
        diffed = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=100, enforce_changed_only=True)
        )
        diffed.run_stress(n_cycles=6)
        assert diffed.stats().breakdown().collect_ms == pytest.approx(
            base.stats().breakdown().collect_ms, rel=0.01
        )

    def test_changing_demand_still_ships_rules(self):
        # Capacity above total demand: allocations track each stage's
        # fluctuating demand (saturated stages would all sit at the
        # demand-independent water level and legitimately never change).
        from repro.core.policies import QoSPolicy
        from repro.jobs.workloads import source_factory

        plane = FlatControlPlane.build(
            ControlPlaneConfig(
                n_stages=20,
                policy=QoSPolicy(pfs_capacity_iops=50_000.0),
                enforce_changed_only=True,
                source_factory=source_factory("poisson", seed=3),
            )
        )
        plane.run_stress(n_cycles=6)
        # Fluctuating demand means rules keep changing: few suppressions.
        assert plane.global_controller.rules_suppressed < 20 * 2

    def test_tolerance_suppresses_small_changes(self):
        from repro.core.policies import QoSPolicy
        from repro.jobs.workloads import source_factory

        def build(tol):
            plane = FlatControlPlane.build(
                ControlPlaneConfig(
                    n_stages=20,
                    policy=QoSPolicy(pfs_capacity_iops=50_000.0),
                    enforce_changed_only=True,
                    rule_change_tolerance=tol,
                    source_factory=source_factory("poisson", seed=3),
                )
            )
            plane.run_stress(n_cycles=6)
            return plane.global_controller.rules_suppressed

        assert build(0.2) > build(0.0)

    def test_stages_keep_valid_limits(self):
        plane = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=10, enforce_changed_only=True)
        )
        plane.run_stress(n_cycles=5)
        # Every stage got the (identical) rule at least once.
        assert all(s.applied_rule is not None for s in plane.stages)

    def test_negative_tolerance_rejected(self):
        from repro.core.controller import GlobalController
        from repro.core.policies import QoSPolicy
        from repro.simnet.engine import Environment
        from repro.simnet.node import SimHost
        from repro.simnet.transport import Network

        env = Environment()
        host = SimHost(env, "c")
        net = Network(env)
        with pytest.raises(ValueError):
            GlobalController(
                env,
                host,
                net.attach(host, "c"),
                QoSPolicy(pfs_capacity_iops=10),
                rule_change_tolerance=-0.1,
            )


class TestReAddedStage:
    """A stage re-added under a departed stage's id is a new child: it
    inherits nothing the departed one was shipped."""

    @staticmethod
    def _readd(enforce_changed_only):
        from repro.core.controller import ChildChannel
        from repro.dataplane.virtual_stage import VirtualStage

        plane = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=4, enforce_changed_only=enforce_changed_only)
        )
        ctrl, net = plane.global_controller, plane.cluster.network
        plane.env.run(ctrl.run_cycles(2))
        departed = plane.stages[1]
        ctrl.remove_stage(departed.stage_id)
        stage = VirtualStage(
            plane.env,
            departed.stage_id,
            departed.job_id,
            source=plane.config.source_factory(departed.stage_id),
            costs=ctrl.costs,
        )
        stage.attach(net, plane.stage_hosts[0], departed.stage_id + "-again")
        conn = net.connect(ctrl.endpoint, stage)
        ctrl.add_stage(
            stage.stage_id,
            stage.job_id,
            ChildChannel(stage.stage_id, "stage", conn, ctrl.endpoint),
        )
        plane.env.run(ctrl.run_cycles(3))
        return ctrl, stage

    def test_changed_only_ships_the_newcomer_its_first_rule(self):
        ctrl, stage = self._readd(enforce_changed_only=True)
        assert stage.rules_applied == 1
        assert stage.applied_rule.epoch == 3
        # The view reports the newcomer's rule, not the departed one's.
        assert ctrl.latest_rules[stage.stage_id].epoch == 3

    def test_without_changed_only_the_newcomer_gets_every_rule(self):
        ctrl, stage = self._readd(enforce_changed_only=False)
        assert stage.rules_applied == 3
        assert ctrl.latest_rules[stage.stage_id].epoch == 5
