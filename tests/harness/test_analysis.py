"""Tests for capacity planning."""

import pytest

from repro.harness.analysis import CapacityPlanner


class TestCapacityPlanner:
    @pytest.fixture
    def planner(self):
        return CapacityPlanner()

    def test_small_cluster_gets_flat(self, planner):
        rec = planner.recommend(n_nodes=500, target_latency_ms=20.0)
        assert rec.design == "flat"
        assert rec.controller_nodes == 1
        assert rec.meets_target

    def test_frontier_needs_hierarchy(self, planner):
        """Frontier's 9,408 nodes exceed the flat design's ceiling."""
        rec = planner.recommend(n_nodes=9408, target_latency_ms=150.0)
        assert rec.design == "hierarchical"
        assert rec.n_aggregators >= 4
        assert rec.meets_target

    def test_tight_target_needs_more_aggregators(self, planner):
        loose = planner.recommend(10_000, target_latency_ms=110.0)
        tight = planner.recommend(10_000, target_latency_ms=80.0)
        assert tight.n_aggregators > loose.n_aggregators
        assert tight.meets_target

    def test_impossible_target_flagged(self, planner):
        rec = planner.recommend(10_000, target_latency_ms=1.0)
        assert not rec.meets_target
        assert "fastest" in rec.reason

    def test_flat_too_slow_falls_back_to_hierarchy(self, planner):
        # 2,400 nodes are flat-viable (~39 ms) but a 20 ms target needs
        # parallel collection.
        rec = planner.recommend(2400, target_latency_ms=20.0)
        assert rec.design == "hierarchical"

    def test_min_aggregators_matches_paper(self, planner):
        assert planner.min_aggregators(10_000) == 4

    def test_custom_connection_limit(self):
        roomy = CapacityPlanner(connection_limit=20_000)
        rec = roomy.recommend(10_000, target_latency_ms=500.0)
        assert rec.design == "flat"

    def test_validation(self, planner):
        with pytest.raises(ValueError):
            planner.recommend(0, 10.0)
        with pytest.raises(ValueError):
            planner.recommend(10, 0.0)
        with pytest.raises(ValueError):
            CapacityPlanner(connection_limit=0)

    def test_summary_mentions_verdict(self, planner):
        rec = planner.recommend(100, 50.0)
        assert "meets target" in rec.summary()
