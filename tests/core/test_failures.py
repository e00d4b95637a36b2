"""Dependability tests: controller and stage failure injection (§VI)."""

import pytest

from repro.core.control_plane import (
    ControlPlaneConfig,
    FlatControlPlane,
    HierarchicalControlPlane,
)
from repro.chaos.runner import _blackhole_stage
from repro.core.failures import FailureLog, crash_aggregator


def _blackout(env, stage, at, downtime):
    """Drop ``stage``'s traffic during ``[at, at + downtime)``, as chaos does."""
    undo = []
    env.call_at(at, lambda: undo.append(_blackhole_stage(stage)))
    env.call_at(at + downtime, lambda: undo.pop()())


class TestCrashAggregator:
    def _plane(self, timeout=0.02):
        return HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=20, collect_timeout_s=timeout),
            n_aggregators=2,
        )

    def test_cycles_continue_with_partial_metrics(self):
        plane = self._plane()
        env = plane.env
        log = crash_aggregator(env, plane.aggregators[0], at=0.005, downtime=0.05)
        plane.run_stress(n_cycles=8)
        ctrl = plane.global_controller
        assert len(ctrl.cycles) == 8  # progress despite the crash
        assert ctrl.collect_timeouts > 0
        assert len(log.crashes()) == 1 and len(log.recoveries()) == 1

    def test_recovery_restores_full_collection(self):
        plane = self._plane()
        env = plane.env
        crash_aggregator(env, plane.aggregators[0], at=0.002, downtime=0.01)
        plane.run_stress(n_cycles=20)
        ctrl = plane.global_controller
        # Late cycles complete without timing out again.
        assert ctrl.collect_timeouts < 20
        # All stages have fresh rules from a post-recovery epoch.
        final_epochs = {s.applied_rule.epoch for s in plane.stages if s.applied_rule}
        assert max(final_epochs) >= 15

    def test_stages_keep_last_rules_while_down(self):
        """The paper's §VI argument: stages enforce stale rules, not nothing."""
        plane = self._plane()
        env = plane.env
        down_agg = plane.aggregators[0]
        crash_aggregator(env, down_agg, at=0.01, downtime=1.0)  # stays down
        plane.run_stress(n_cycles=10)
        orphaned = [
            s for s in plane.stages if s.stage_id in set(down_agg.stage_ids)
        ]
        # Orphaned stages retain a rule from before the crash.
        assert all(s.applied_rule is not None for s in orphaned)
        assert all(s.applied_rule.epoch >= 1 for s in orphaned)

    def test_stale_replies_discarded_after_recovery(self):
        plane = self._plane()
        env = plane.env
        crash_aggregator(env, plane.aggregators[0], at=0.002, downtime=0.03)
        plane.run_stress(n_cycles=12)
        # The recovered aggregator drained old requests whose replies the
        # global controller must have discarded as stale.
        assert plane.global_controller.stale_messages > 0

    def test_without_timeout_controller_stalls(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=10, collect_timeout_s=None),
            n_aggregators=2,
        )
        env = plane.env
        crash_aggregator(env, plane.aggregators[0], at=0.001, downtime=1000.0)
        proc = plane.global_controller.run_cycles(5)
        env.run(until=5.0)
        # Far fewer than 5 cycles complete; the controller is blocked.
        assert len(plane.global_controller.cycles) < 5
        assert proc.is_alive

    def test_validation(self):
        plane = self._plane()
        with pytest.raises(ValueError):
            crash_aggregator(plane.env, plane.aggregators[0], at=-1.0, downtime=1.0)
        with pytest.raises(ValueError):
            crash_aggregator(plane.env, plane.aggregators[0], at=1.0, downtime=0.0)


class TestCrashStage:
    def test_flat_survives_stage_blackout(self):
        plane = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=10, collect_timeout_s=0.02)
        )
        _blackout(plane.env, plane.stages[0], at=0.002, downtime=0.08)
        plane.run_stress(n_cycles=40)
        ctrl = plane.global_controller
        assert len(ctrl.cycles) == 40
        assert ctrl.collect_timeouts > 0

    def test_recovered_stage_gets_rules_again(self):
        plane = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=6, collect_timeout_s=0.02)
        )
        stage = plane.stages[2]
        _blackout(plane.env, stage, at=0.002, downtime=0.01)
        plane.run_stress(n_cycles=15)
        assert stage.applied_rule is not None
        assert stage.applied_rule.epoch > 5

    def test_hier_stage_blackout_does_not_wedge_its_aggregator(self):
        """A silent stage used to park its aggregator in a wait with no
        deadline, dropping every later request from the global as stale:
        the partition stayed at the crash epoch and every later cycle
        timed out with it missing. The aggregator's waits now end at the
        plane's collect timeout, and requests landing meanwhile are
        served after it, not dropped."""
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=20, collect_timeout_s=0.02),
            n_aggregators=2,
        )
        _blackout(plane.env, plane.stages[0], at=0.002, downtime=0.01)
        plane.run_stress(n_cycles=30)
        cycles = plane.global_controller.cycles
        assert sum(c.timed_out for c in cycles) <= 1
        assert all(c.n_missing == 0 for c in cycles[5:])
        assert {s.applied_rule.epoch for s in plane.stages} == {30}
        assert [a.stale_messages for a in plane.aggregators] == [0, 0]

    def test_long_hier_stage_blackout_costs_only_its_cycles(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=20, collect_timeout_s=0.02),
            n_aggregators=2,
        )
        _blackout(plane.env, plane.stages[0], at=0.002, downtime=0.1)
        plane.run_stress(n_cycles=30)
        cycles = plane.global_controller.cycles
        assert any(c.degraded for c in cycles)
        # Every cycle that starts after the stage is back is clean.
        after = [c for c in cycles if c.started_at >= 0.102]
        assert len(after) > 20
        assert not any(c.n_missing or c.timed_out for c in after)
        assert {s.applied_rule.epoch for s in plane.stages} == {30}


class TestFailureLog:
    def test_chronological_record(self):
        log = FailureLog()
        log.record(1.0, "x", "crash")
        log.record(2.0, "x", "recover")
        assert [e.action for e in log.events] == ["crash", "recover"]
        assert log.crashes()[0].time == 1.0
