"""Deployment-level tests for the control-plane designs."""

import math

import pytest

from repro.core.control_plane import (
    ControlPlaneConfig,
    CoordinatedFlatControlPlane,
    FlatControlPlane,
    HierarchicalControlPlane,
    default_policy,
)
from repro.simnet.transport import ConnectionLimitExceeded


class TestConfig:
    def test_defaults(self):
        cfg = ControlPlaneConfig(n_stages=100)
        assert cfg.policy is not None
        assert cfg.algorithm.name == "psfa"
        assert cfg.stages_per_host == 50  # paper methodology

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlPlaneConfig(n_stages=0)
        with pytest.raises(ValueError):
            ControlPlaneConfig(n_stages=10, stages_per_host=0)

    def test_default_policy_scales_with_n(self):
        assert default_policy(100).pfs_capacity_iops > default_policy(10).pfs_capacity_iops


class TestStagePlacement:
    def test_fifty_stages_per_host(self):
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=120))
        assert len(plane.stage_hosts) == math.ceil(120 / 50)

    def test_one_stage_per_host_possible(self):
        plane = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=4, stages_per_host=1)
        )
        assert len(plane.stage_hosts) == 4

    def test_stage_ids_unique_and_ordered(self):
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=10))
        ids = [s.stage_id for s in plane.stages]
        assert ids == sorted(ids) and len(set(ids)) == 10


class TestConnectionLimit:
    def test_flat_capped_at_connection_limit(self):
        """Observation #2: the flat design cannot exceed the NIC limit."""
        cfg = ControlPlaneConfig(
            n_stages=11, stages_per_host=5, max_connections_per_host=10
        )
        with pytest.raises(ConnectionLimitExceeded):
            FlatControlPlane.build(cfg)

    def test_flat_at_exact_limit_works(self):
        cfg = ControlPlaneConfig(
            n_stages=10, stages_per_host=5, max_connections_per_host=10
        )
        plane = FlatControlPlane.build(cfg)
        assert len(plane.stages) == 10

    def test_hierarchy_breaks_the_limit(self):
        """The paper's fix: aggregators partition the connections."""
        cfg = ControlPlaneConfig(
            n_stages=20, stages_per_host=5, max_connections_per_host=10
        )
        plane = HierarchicalControlPlane.build(cfg, n_aggregators=2)
        plane.run_stress(n_cycles=1)
        assert len(plane.global_controller.latest_metrics) == 20

    def test_too_few_aggregators_still_capped(self):
        # 2 aggregators x 20 stages each exceeds even the system-slot
        # allowance above the 10-connection cap.
        cfg = ControlPlaneConfig(
            n_stages=40, stages_per_host=5, max_connections_per_host=10
        )
        with pytest.raises(ConnectionLimitExceeded):
            HierarchicalControlPlane.build(cfg, n_aggregators=2)


class TestResourceAccounting:
    def test_flat_memory_scales_with_stages(self):
        small = FlatControlPlane.build(ControlPlaneConfig(n_stages=10))
        big = FlatControlPlane.build(ControlPlaneConfig(n_stages=100))
        mem_small = small.controller_hosts["global-ctrl"].resident_bytes
        mem_big = big.controller_hosts["global-ctrl"].resident_bytes
        assert mem_big > mem_small

    def test_hier_global_lighter_per_stage_than_flat(self):
        n = 100
        flat = FlatControlPlane.build(ControlPlaneConfig(n_stages=n))
        hier = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=n), n_aggregators=2
        )
        assert (
            hier.controller_hosts["global-ctrl"].resident_bytes
            < flat.controller_hosts["global-ctrl"].resident_bytes
        )

    def test_report_includes_all_controllers(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=20), n_aggregators=2
        )
        plane.run_stress(n_cycles=2)
        report = plane.resource_report()
        assert report.global_usage().cpu_percent > 0
        agg = report.aggregator_usage()
        assert agg is not None and agg.cpu_percent > 0

    def test_report_before_run_rejected(self):
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=5))
        with pytest.raises(RuntimeError):
            plane.resource_report()


class TestStats:
    def test_stats_drop_warmup(self):
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=10))
        plane.run_stress(n_cycles=5)
        assert plane.stats(warmup=2).n_cycles == 3

    def test_deterministic_across_runs(self):
        def run():
            plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=20))
            plane.run_stress(n_cycles=4)
            return plane.stats(warmup=1).mean_ms

        assert run() == pytest.approx(run(), rel=1e-12)


class TestCoordinatedFlat:
    def test_requires_two_controllers(self):
        with pytest.raises(ValueError):
            CoordinatedFlatControlPlane.build(
                ControlPlaneConfig(n_stages=10), n_controllers=1
            )

    def test_peers_partition_stages(self):
        plane = CoordinatedFlatControlPlane.build(
            ControlPlaneConfig(n_stages=10), n_controllers=2
        )
        owned = [set(p.columns.active_ids()) for p in plane.peers]
        assert len(owned[0] | owned[1]) == 10
        assert not (owned[0] & owned[1])

    def test_rules_enforced_on_every_partition(self):
        plane = CoordinatedFlatControlPlane.build(
            ControlPlaneConfig(n_stages=12), n_controllers=3
        )
        plane.run_stress(n_cycles=3)
        for stage in plane.stages:
            assert stage.applied_rule is not None
            assert stage.applied_rule.epoch == 3

    def test_global_capacity_respected_across_peers(self):
        from repro.core.policies import QoSPolicy

        policy = QoSPolicy(pfs_capacity_iops=2400.0)
        plane = CoordinatedFlatControlPlane.build(
            ControlPlaneConfig(n_stages=12, policy=policy), n_controllers=3
        )
        plane.run_stress(n_cycles=3)
        total = sum(s.current_limit for s in plane.stages)
        # Each peer allocates from the same global vector; their own-stage
        # grants together must not exceed capacity.
        assert total <= 2400.0 + 1e-6

    def test_plane_stats_use_per_epoch_max(self):
        plane = CoordinatedFlatControlPlane.build(
            ControlPlaneConfig(n_stages=12), n_controllers=2
        )
        plane.run_stress(n_cycles=4)
        merged = plane.stats(warmup=0)
        per_peer_means = [
            sum(c.total_s for c in p.cycles) / len(p.cycles) for p in plane.peers
        ]
        assert merged.mean_ms >= max(per_peer_means) * 1e3 - 1e-6
