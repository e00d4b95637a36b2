"""Behavioural tests for global/aggregator controllers on small planes."""

import numpy as np
import pytest

from repro.core.algorithms.psfa import PSFA
from repro.core.control_plane import (
    ControlPlaneConfig,
    CoordinatedFlatControlPlane,
    FlatControlPlane,
    HierarchicalControlPlane,
)
from repro.core.policies import QoSPolicy
from repro.dataplane.virtual_stage import ConstantSource


def flat_plane(n=10, **cfg_kwargs):
    return FlatControlPlane.build(ControlPlaneConfig(n_stages=n, **cfg_kwargs))


class TestFlatCycle:
    def test_cycles_recorded_with_phases(self):
        plane = flat_plane()
        plane.run_stress(n_cycles=4)
        ctrl = plane.global_controller
        assert len(ctrl.cycles) == 4
        for c in ctrl.cycles:
            assert c.collect_s > 0 and c.compute_s > 0 and c.enforce_s > 0
            assert c.n_stages == 10

    def test_epochs_increment(self):
        plane = flat_plane()
        plane.run_stress(n_cycles=3)
        assert [c.epoch for c in plane.global_controller.cycles] == [1, 2, 3]

    def test_metrics_collected_from_all_stages(self):
        plane = flat_plane(n=7)
        plane.run_stress(n_cycles=2)
        ctrl = plane.global_controller
        assert len(ctrl.latest_metrics) == 7
        for report in ctrl.latest_metrics.values():
            assert report.total_iops == pytest.approx(1200.0)  # constant source

    def test_rules_reach_every_stage(self):
        plane = flat_plane(n=6)
        plane.run_stress(n_cycles=3)
        for stage in plane.stages:
            assert stage.applied_rule is not None
            assert stage.applied_rule.epoch == 3
            assert stage.rules_applied == 3

    def test_allocations_respect_capacity(self):
        policy = QoSPolicy(pfs_capacity_iops=5000.0)
        plane = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=10, policy=policy)
        )
        plane.run_stress(n_cycles=2)
        total = sum(s.current_limit for s in plane.stages)
        assert total <= 5000.0 + 1e-6

    def test_psfa_saturated_equal_split(self):
        # 10 identical saturated stages split capacity evenly.
        policy = QoSPolicy(pfs_capacity_iops=1000.0)
        plane = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=10, policy=policy)
        )
        plane.run_stress(n_cycles=2)
        limits = [s.current_limit for s in plane.stages]
        assert np.allclose(limits, 100.0)

    def test_weighted_jobs_get_weighted_limits(self):
        policy = QoSPolicy(pfs_capacity_iops=900.0)
        policy.assign_job("job-00000", "interactive")  # weight 8
        policy.assign_job("job-00001", "scavenger")  # weight 1
        plane = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=2, policy=policy)
        )
        plane.run_stress(n_cycles=2)
        limits = [s.current_limit for s in plane.stages]
        assert limits[0] / limits[1] == pytest.approx(8.0)

    def test_stale_rule_rejected_by_stage(self):
        from repro.core.rules import EnforcementRule

        plane = flat_plane(n=2)
        plane.run_stress(n_cycles=2)
        stage = plane.stages[0]
        before = stage.applied_rule
        stale = EnforcementRule(stage.stage_id, epoch=1, data_iops_limit=1.0)
        assert not stale.supersedes(before)

    def test_no_stale_messages_in_clean_run(self):
        plane = flat_plane()
        plane.run_stress(n_cycles=5)
        assert plane.global_controller.stale_messages == 0

    def test_run_for_paced_cycles(self):
        plane = flat_plane()
        proc = plane.global_controller.run_for(duration_s=0.5, period_s=0.1)
        plane.env.run(proc)
        cycles = plane.global_controller.cycles
        assert 4 <= len(cycles) <= 6
        # Paced: consecutive cycle starts ~0.1 s apart.
        gaps = [
            cycles[i + 1].started_at - cycles[i].started_at
            for i in range(len(cycles) - 1)
        ]
        assert all(g == pytest.approx(0.1, rel=0.05) for g in gaps)

    def test_controller_without_children_rejected(self):
        from repro.core.controller import GlobalController
        from repro.simnet.engine import Environment
        from repro.simnet.node import SimHost
        from repro.simnet.transport import Network

        env = Environment()
        host = SimHost(env, "ctrl")
        net = Network(env)
        ep = net.attach(host, "c")
        ctrl = GlobalController(env, host, ep, QoSPolicy(pfs_capacity_iops=100))
        proc = ctrl.run_cycles(1)
        with pytest.raises(RuntimeError):
            env.run(proc)

    def test_invalid_cycle_counts(self):
        plane = flat_plane()
        with pytest.raises(ValueError):
            plane.global_controller.run_cycles(0)
        with pytest.raises(ValueError):
            plane.global_controller.run_for(0.0)


class TestHierarchicalCycle:
    def test_aggregators_serve_all_cycles(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=40), n_aggregators=4
        )
        plane.run_stress(n_cycles=3)
        for agg in plane.aggregators:
            assert agg.cycles_served == 3

    def test_rules_propagate_through_hierarchy(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=40), n_aggregators=4
        )
        plane.run_stress(n_cycles=2)
        for stage in plane.stages:
            assert stage.applied_rule is not None
            assert stage.applied_rule.epoch == 2

    def test_global_sees_every_stage_metric(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=30), n_aggregators=3
        )
        plane.run_stress(n_cycles=2)
        assert len(plane.global_controller.latest_metrics) == 30

    def test_partitions_disjoint_and_complete(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=10), n_aggregators=3
        )
        owned = [set(a.stage_ids) for a in plane.aggregators]
        union = set().union(*owned)
        assert len(union) == 10
        assert sum(len(o) for o in owned) == 10

    def test_three_level_hierarchy_delivers_rules(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=24), n_aggregators=2, levels=3, fanout=2
        )
        plane.run_stress(n_cycles=2)
        # top aggregators + 2 sub-aggregators each
        assert len(plane.aggregators) == 6
        for stage in plane.stages:
            assert stage.applied_rule is not None

    def test_decision_offload_allocates_within_capacity(self):
        policy = QoSPolicy(pfs_capacity_iops=4000.0)
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=20, policy=policy),
            n_aggregators=4,
            decision_offload=True,
        )
        plane.run_stress(n_cycles=3)
        total = sum(s.current_limit for s in plane.stages)
        assert total <= 4000.0 + 1e-6
        for stage in plane.stages:
            assert stage.applied_rule is not None

    def test_aggregator_double_start_rejected(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=4), n_aggregators=2
        )
        with pytest.raises(RuntimeError):
            plane.aggregators[0].start()


class TestChurn:
    def test_remove_stage_shrinks_cycle(self):
        plane = flat_plane(n=10)
        plane.run_stress(n_cycles=2)
        ctrl = plane.global_controller
        ctrl.remove_stage("stage-00003")
        proc = ctrl.run_cycles(1)
        plane.env.run(proc)
        assert ctrl.cycles[-1].n_stages == 9
        assert "stage-00003" not in ctrl.latest_rules or (
            ctrl.latest_rules["stage-00003"].epoch <= 2
        )

    def test_removed_stage_connection_released(self):
        plane = flat_plane(n=5)
        net = plane.cluster.network
        ctrl_host = plane.controller_hosts["global-ctrl"]
        before = net.pool_of(ctrl_host).open_connections
        plane.global_controller.remove_stage("stage-00000")
        assert net.pool_of(ctrl_host).open_connections == before - 1


class _Switch:
    """Constant demand until ``state["bad"]`` is set, then ``bad``."""

    def __init__(self, state, bad):
        self.state, self.bad = state, bad

    def sample(self, stage_id, now):
        return self.bad if self.state["bad"] else (1000.0, 200.0)


class TestRefusedSample:
    """One stage's negative or NaN demand sample is refused where the
    columns observe it: counted in ``reports_rejected`` and ``n_missing``,
    the stage rides at last-known demand and still gets its rule. The run
    goes on (a negative sample used to raise out of ``env.run``)."""

    BAD = "stage-00007"

    @pytest.mark.parametrize("design", ["flat", "hier"])
    @pytest.mark.parametrize(
        "bad", [(-5.0, 1.0), (1.0, -0.5), (float("nan"), 1.0)],
        ids=["negative-data", "negative-metadata", "nan"],
    )
    def test_rides_at_last_known_demand(self, design, bad):
        state = {"bad": False}
        config = ControlPlaneConfig(
            n_stages=40,
            source_factory=lambda sid: (
                _Switch(state, bad) if sid == self.BAD else ConstantSource()
            ),
        )
        if design == "flat":
            plane = FlatControlPlane.build(config)
        else:
            plane = HierarchicalControlPlane.build(config, n_aggregators=4)
        ctrl = plane.global_controller
        plane.env.run(ctrl.run_cycles(2))
        state["bad"] = True
        plane.env.run(ctrl.run_cycles(3))
        assert [c.n_missing for c in ctrl.cycles] == [0, 0, 1, 1, 1]
        assert ctrl.columns.reports_rejected == 3
        assert ctrl.columns.axes(self.BAD) == (1000.0, 200.0)
        assert ctrl.latest_metrics[self.BAD].total_iops == 1200.0
        assert all(stage.applied_rule.epoch == 5 for stage in plane.stages)
        for agg in getattr(plane, "aggregators", []):
            reports = agg.latest_reports
            assert self.BAD not in reports
            assert len(reports) == len(agg.stage_ids) - (self.BAD in agg.stage_ids)

    def test_refused_from_the_first_cycle(self):
        config = ControlPlaneConfig(
            n_stages=40,
            source_factory=lambda sid: (
                _Switch({"bad": True}, (-5.0, 1.0))
                if sid == self.BAD
                else ConstantSource()
            ),
        )
        plane = HierarchicalControlPlane.build(config, n_aggregators=4)
        ctrl = plane.global_controller
        plane.env.run(ctrl.run_cycles(2))
        assert [c.n_missing for c in ctrl.cycles] == [1, 1]
        assert self.BAD not in ctrl.latest_metrics

    def test_coordinated_peer_keys_replies_by_sender(self):
        state = {"bad": False}
        config = ControlPlaneConfig(
            n_stages=12,
            source_factory=lambda sid: (
                _Switch(state, (-5.0, 1.0)) if sid == "stage-00003" else ConstantSource()
            ),
        )
        plane = CoordinatedFlatControlPlane.build(config, n_controllers=3)
        plane.run_stress(n_cycles=2)
        state["bad"] = True
        plane.run_stress(n_cycles=1)
        for peer in plane.peers:
            own = peer.columns.active_ids()
            assert {
                sid: (m.data_iops, m.metadata_iops)
                for sid, m in peer.latest_metrics.items()
            } == {sid: (1000.0, 200.0) for sid in own}
            refused = "stage-00003" in own
            assert [c.n_missing for c in peer.cycles] == [0, 0, int(refused)]
        assert all(stage.applied_rule.epoch == 3 for stage in plane.stages)

    def test_coordinated_plane_counts_a_degraded_peer(self):
        """``merge_peer_cycles`` sums the peers' ``n_missing``: one refused
        sample behind one peer shows in the plane's stats."""
        state = {"bad": False}
        config = ControlPlaneConfig(
            n_stages=12,
            source_factory=lambda sid: (
                _Switch(state, (-5.0, 1.0)) if sid == "stage-00003" else ConstantSource()
            ),
        )
        plane = CoordinatedFlatControlPlane.build(config, n_controllers=3)
        plane.run_stress(n_cycles=2)
        state["bad"] = True
        plane.run_stress(n_cycles=1)
        stats = plane.stats(warmup=0)
        assert [c.n_missing for c in stats.cycles] == [0, 0, 1]
        assert stats.missing_total == 1
        assert stats.degraded_cycles == 1

