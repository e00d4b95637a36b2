"""Tests for differentiated data/metadata QoS enforcement.

Cheferd's headline use case: the MDS and the OSS pool are separate
bottlenecks, so metadata-intensive jobs must be throttled on the metadata
axis without touching their (modest) data traffic, and vice versa.
"""

import numpy as np
import pytest

from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane
from repro.core.policies import PolicyError, QoSPolicy
from repro.dataplane.virtual_stage import ConstantSource


class TestPolicyExtension:
    def test_differentiated_flag(self):
        assert not QoSPolicy(pfs_capacity_iops=100).differentiated
        assert QoSPolicy(
            pfs_capacity_iops=100, metadata_capacity_iops=50
        ).differentiated

    def test_metadata_budget_validation(self):
        with pytest.raises(PolicyError):
            QoSPolicy(pfs_capacity_iops=100, metadata_capacity_iops=0)

    def test_headroom_applies_to_both_budgets(self):
        p = QoSPolicy(
            pfs_capacity_iops=100,
            metadata_capacity_iops=50,
            headroom_fraction=0.2,
        )
        assert p.allocatable_iops == pytest.approx(80.0)
        assert p.allocatable_metadata_iops == pytest.approx(40.0)

    def test_undifferentiated_metadata_budget_zero(self):
        assert QoSPolicy(pfs_capacity_iops=100).allocatable_metadata_iops == 0.0


def build_plane(policy, sources):
    """A flat plane where stage i reports sources[i]."""
    cfg = ControlPlaneConfig(
        n_stages=len(sources),
        policy=policy,
        source_factory=lambda sid: sources[int(sid.split("-")[-1])],
    )
    return FlatControlPlane.build(cfg)


class TestDifferentiatedEnforcement:
    def test_rules_carry_both_limits(self):
        policy = QoSPolicy(pfs_capacity_iops=4000.0, metadata_capacity_iops=400.0)
        plane = build_plane(policy, [ConstantSource(1000.0, 200.0)] * 4)
        plane.run_stress(n_cycles=3)
        for stage in plane.stages:
            rule = stage.applied_rule
            assert rule.data_iops_limit < float("inf")
            assert rule.metadata_iops_limit < float("inf")

    def test_budgets_enforced_independently(self):
        policy = QoSPolicy(pfs_capacity_iops=2000.0, metadata_capacity_iops=100.0)
        plane = build_plane(policy, [ConstantSource(1000.0, 200.0)] * 4)
        plane.run_stress(n_cycles=3)
        data_total = sum(s.applied_rule.data_iops_limit for s in plane.stages)
        meta_total = sum(s.applied_rule.metadata_iops_limit for s in plane.stages)
        assert data_total <= 2000.0 + 1e-6
        assert meta_total <= 100.0 + 1e-6

    def test_metadata_hog_throttled_only_on_metadata(self):
        """A metadata-heavy job yields MDS budget without losing data IOPS."""
        policy = QoSPolicy(pfs_capacity_iops=10_000.0, metadata_capacity_iops=1000.0)
        sources = [
            ConstantSource(100.0, 5000.0),  # metadata hog
            ConstantSource(2000.0, 100.0),  # data-heavy job
        ]
        plane = build_plane(policy, sources)
        plane.run_stress(n_cycles=3)
        hog, data_job = plane.stages
        # The hog's data limit comfortably covers its 100-IOPS data demand
        # (capacity is plentiful on the data axis)...
        assert hog.applied_rule.data_iops_limit >= 100.0
        # ...but its metadata limit is pinched by the 1,000-IOPS MDS
        # budget it must share.
        assert hog.applied_rule.metadata_iops_limit < 1000.0
        # The data-heavy job keeps a metadata allowance ≥ its demand.
        assert data_job.applied_rule.metadata_iops_limit >= 100.0

    def test_undifferentiated_leaves_metadata_unlimited(self):
        policy = QoSPolicy(pfs_capacity_iops=2000.0)
        plane = build_plane(policy, [ConstantSource(1000.0, 200.0)] * 2)
        plane.run_stress(n_cycles=2)
        for stage in plane.stages:
            assert stage.applied_rule.metadata_iops_limit == float("inf")

    def test_differentiated_compute_phase_costs_more(self):
        def run(policy):
            plane = build_plane(policy, [ConstantSource(1000.0, 200.0)] * 200)
            plane.run_stress(n_cycles=5)
            return plane.stats(warmup=1).breakdown().compute_ms

        single = run(QoSPolicy(pfs_capacity_iops=200_000.0))
        double = run(
            QoSPolicy(pfs_capacity_iops=200_000.0, metadata_capacity_iops=50_000.0)
        )
        assert double > 1.5 * single  # two algorithm passes

    def test_hierarchical_plane_supports_differentiation(self):
        from repro.core.control_plane import HierarchicalControlPlane

        policy = QoSPolicy(pfs_capacity_iops=4000.0, metadata_capacity_iops=400.0)
        cfg = ControlPlaneConfig(
            n_stages=8,
            policy=policy,
            source_factory=lambda sid: ConstantSource(1000.0, 200.0),
        )
        plane = HierarchicalControlPlane.build(cfg, n_aggregators=2)
        plane.run_stress(n_cycles=3)
        meta_total = sum(s.applied_rule.metadata_iops_limit for s in plane.stages)
        assert meta_total <= 400.0 + 1e-6

    def test_full_stage_applies_both_buckets(self):
        """DataPlaneStage wires both limits into its token buckets."""
        from repro.dataplane.stage import DataPlaneStage
        from repro.simnet.engine import Environment

        env = Environment()
        stage = DataPlaneStage(env, "s", "j")
        stage._apply(500.0, 50.0)
        assert stage.enforced_data_rate == 500.0
        assert stage.enforced_metadata_rate == 50.0
