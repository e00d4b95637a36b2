"""Unit tests for metric records, the trunk's row forms, and enforcement rules."""

import numpy as np
import pytest

from repro.core.control_plane import ControlPlaneConfig, HierarchicalControlPlane
from repro.core.metrics import AggregatedMetrics, MetricsWindow, StageMetrics
from repro.core.rules import UNLIMITED, EnforcementRule, diff_rules


def sm(stage, job="j", data=100.0, meta=10.0):
    return StageMetrics(stage_id=stage, job_id=job, data_iops=data, metadata_iops=meta)


def rows(data, meta, answered=None, agg="agg-0"):
    if answered is None:
        answered = [True] * len(data)
    return AggregatedMetrics(agg, data, meta, answered)


class TestStageMetrics:
    def test_total(self):
        assert sm("s1").total_iops == 110.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StageMetrics("s", "j", data_iops=-1, metadata_iops=0)
        with pytest.raises(ValueError):
            StageMetrics("s", "j", data_iops=0, metadata_iops=-1)


class TestAggregate:
    """An aggregator's reply: its partition's vectors, in its order."""

    def test_preserves_per_stage_vectors(self):
        merged = rows([100.0, 200.0], [10.0, 10.0])
        assert merged.data_iops.tolist() == [100.0, 200.0]
        assert merged.metadata_iops.tolist() == [10.0, 10.0]
        assert merged.n_stages == merged.n_answered == 2

    def test_job_totals_summed(self):
        """Job totals are not shipped: the global sums the scattered rows
        by job itself, from the partition order it registered."""
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=3, job_of=lambda i: "ab"[i // 2]),
            n_aggregators=1,
        )
        plane.run_stress(n_cycles=1)
        totals = {}
        for report in plane.global_controller.latest_metrics.values():
            totals[report.job_id] = totals.get(report.job_id, 0.0) + report.total_iops
        assert totals == {"a": 2400.0, "b": 1200.0}
        assert not hasattr(AggregatedMetrics, "job_totals")

    def test_total_iops(self):
        assert rows([100.0, 100.0], [10.0, 10.0]).total_iops == pytest.approx(220.0)
        # A silent slot carries its last-known value, which is not counted.
        merged = rows([100.0, 900.0], [10.0, 90.0], [True, False])
        assert merged.n_answered == 1
        assert merged.total_iops == pytest.approx(110.0)

    def test_empty_partition(self):
        merged = rows([], [])
        assert merged.n_stages == 0 and merged.n_answered == 0
        assert merged.total_iops == 0.0

    def test_vector_length_validation(self):
        with pytest.raises(ValueError):
            rows([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rows([1.0], [1.0], [True, True])
        with pytest.raises(ValueError):
            rows([[1.0]], [[1.0]], [[True]])

    def test_vectors_are_frozen_copies(self):
        data = np.array([1.0, 2.0])
        merged = rows(data, [0.0, 0.0])
        data[0] = 99.0
        assert merged.data_iops.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            merged.data_iops[0] = 5.0


class TestMetricsWindow:
    def test_alpha_one_uses_latest(self):
        w = MetricsWindow(alpha=1.0)
        w.update("s1", 100.0)
        w.update("s1", 50.0)
        assert w.demand("s1") == 50.0

    def test_ewma_smoothing(self):
        w = MetricsWindow(alpha=0.5)
        w.update("s1", 100.0)
        w.update("s1", 0.0)
        assert w.demand("s1") == pytest.approx(50.0)

    def test_unknown_stage_zero(self):
        assert MetricsWindow().demand("nope") == 0.0

    def test_demands_vector_order(self):
        w = MetricsWindow()
        w.update("a", 1.0)
        w.update("b", 2.0)
        assert np.allclose(w.demands(["b", "a", "c"]), [2.0, 1.0, 0.0])

    def test_forget(self):
        w = MetricsWindow()
        w.update("a", 1.0)
        w.forget("a")
        assert w.demand("a") == 0.0
        assert len(w) == 0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            MetricsWindow(alpha=0.0)
        with pytest.raises(ValueError):
            MetricsWindow(alpha=1.5)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            MetricsWindow().update("s", -1.0)


class TestEnforcementRule:
    def test_supersedes_by_epoch(self):
        old = EnforcementRule("s1", epoch=3, data_iops_limit=10.0)
        new = EnforcementRule("s1", epoch=4, data_iops_limit=20.0)
        assert new.supersedes(old)
        assert not old.supersedes(new)
        assert new.supersedes(None)

    def test_total_limit(self):
        r = EnforcementRule("s", 1, data_iops_limit=10.0, metadata_iops_limit=5.0)
        assert r.total_limit == 15.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EnforcementRule("s", epoch=-1, data_iops_limit=1.0)
        with pytest.raises(ValueError):
            EnforcementRule("s", epoch=0, data_iops_limit=-1.0)


def _ship_batch(plane, epoch, data, meta, child=0):
    """Put one ``rule_batch`` on the global's trunk to an aggregator and
    let the plane settle; returns the global's queued messages."""
    uplink = plane.global_controller.children[child]
    uplink.connection.send(uplink.endpoint, "rule_batch", (epoch, data, meta), 64)
    plane.env.run()
    return plane.global_controller.endpoint.inbox.drain()


class TestRuleBatch:
    """A rule batch is one limit per slot of the aggregator's order; the
    aggregator builds each stage's rule as it ships it."""

    def _plane(self, n=4, **kwargs):
        return HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=n), n_aggregators=1, **kwargs
        )

    def test_epoch_consistency_enforced(self):
        plane = self._plane()
        acks = _ship_batch(plane, 7, np.full(4, 50.0), np.full(4, UNLIMITED))
        assert {s.applied_rule.epoch for s in plane.stages} == {7}
        assert [(m.kind, m.payload) for m in acks] == [("batch_ack", 7)]

    def test_len_and_iter(self):
        plane = self._plane()
        order = plane.aggregators[0].stage_ids
        _ship_batch(plane, 3, np.arange(4.0) * 10, np.arange(4.0) + 1)
        by_id = {s.stage_id: s.applied_rule for s in plane.stages}
        assert [by_id[s].data_iops_limit for s in order] == [0.0, 10.0, 20.0, 30.0]
        assert [by_id[s].metadata_iops_limit for s in order] == [1.0, 2.0, 3.0, 4.0]

    def test_split_covers_all(self):
        plane = self._plane(n=10, levels=3, fanout=2)
        top = plane.aggregators[-1]
        assert "." not in top.agg_id
        _ship_batch(plane, 2, np.arange(10.0), np.full(10, UNLIMITED))
        by_id = {s.stage_id: s.applied_rule.data_iops_limit for s in plane.stages}
        assert [by_id[s] for s in top.stage_ids] == list(np.arange(10.0))
        leaves = [a for a in plane.aggregators if "." in a.agg_id]
        assert [len(a.stage_ids) for a in leaves] == [5, 5]

    def test_split_validation(self):
        """A batch not laid out in the partition's order ships nothing."""
        plane = self._plane()
        acks = _ship_batch(plane, 5, np.full(3, 50.0), np.full(3, UNLIMITED))
        assert all(s.applied_rule is None for s in plane.stages)
        assert plane.aggregators[0].stale_messages == 1
        assert [m.kind for m in acks] == ["batch_ack"]


class TestDiffRules:
    def test_new_stage_always_included(self):
        new = [EnforcementRule("s1", 1, 10.0)]
        assert diff_rules({}, new) == new

    def test_unchanged_excluded(self):
        rule = EnforcementRule("s1", 1, 10.0)
        next_rule = EnforcementRule("s1", 2, 10.0)
        assert diff_rules({"s1": rule}, [next_rule]) == []

    def test_change_beyond_tolerance_included(self):
        old = {"s1": EnforcementRule("s1", 1, 100.0)}
        new = [EnforcementRule("s1", 2, 120.0)]
        assert diff_rules(old, new, tolerance=0.1) == new
        assert diff_rules(old, new, tolerance=0.5) == []

    def test_infinite_limits_compare_equal(self):
        old = {"s1": EnforcementRule("s1", 1, 10.0, metadata_iops_limit=UNLIMITED)}
        new = [EnforcementRule("s1", 2, 10.0, metadata_iops_limit=UNLIMITED)]
        assert diff_rules(old, new) == []

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            diff_rules({}, [], tolerance=-0.1)


class TestMetricsWindowAllocation:
    """The EWMA window runs per cycle for every stage — keep it lean."""

    def test_slots_block_stray_attributes(self):
        w = MetricsWindow()
        with pytest.raises(AttributeError):
            w.debug_tag = "x"

    def test_demands_fromiter_matches_per_stage_lookup(self):
        w = MetricsWindow(alpha=0.5)
        for i in range(8):
            w.update(f"s{i}", 100.0 * i)
        ids = [f"s{i}" for i in range(10)]  # two never-seen stages
        vec = w.demands(ids)
        assert vec.shape == (10,)
        assert list(vec) == [w.demand(s) for s in ids]

    def test_steady_state_update_allocates_nothing(self):
        import tracemalloc

        import repro.core.metrics as mod

        w = MetricsWindow(alpha=0.3)
        ids = [f"stage-{i:04d}" for i in range(64)]

        def spin(n):
            for _ in range(n):
                for i, sid in enumerate(ids):
                    w.update(sid, 500.0 + i)

        spin(50)  # populate the dict and warm free-lists
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            spin(100)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
            and stat.traceback[0].filename == mod.__file__
        )
        assert growth <= 512, f"metrics window leaked {growth} bytes"
