"""Tests for trace-driven workloads."""

import pytest

from repro.jobs.traces import (
    TracePoint,
    TraceSource,
    generate_facility_trace,
)


def simple_trace():
    return [
        TracePoint(0.0, 100.0, 10.0),
        TracePoint(5.0, 500.0, 50.0),
        TracePoint(10.0, 200.0, 20.0),
    ]


class TestTraceSource:
    def test_step_semantics(self):
        src = TraceSource(simple_trace(), hold_last=True)
        assert src.sample("s", 0.0) == (100.0, 10.0)
        assert src.sample("s", 4.999) == (100.0, 10.0)
        assert src.sample("s", 5.0) == (500.0, 50.0)
        assert src.sample("s", 7.0) == (500.0, 50.0)

    def test_hold_last(self):
        src = TraceSource(simple_trace(), hold_last=True)
        assert src.sample("s", 1000.0) == (200.0, 20.0)

    def test_wraps_by_default(self):
        src = TraceSource(simple_trace())
        assert src.duration_s == 10.0
        assert src.sample("s", 12.0) == (100.0, 10.0)  # 12 % 10 = 2
        assert src.sample("s", 17.0) == (500.0, 50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSource([])
        with pytest.raises(ValueError):
            TraceSource([TracePoint(5.0, 1, 1), TracePoint(0.0, 1, 1)])
        with pytest.raises(ValueError):
            TraceSource([TracePoint(0.0, 1, 1), TracePoint(0.0, 2, 2)])
        with pytest.raises(ValueError):
            TracePoint(-1.0, 1, 1)
        with pytest.raises(ValueError):
            TracePoint(0.0, -1, 1)

    def test_drives_a_control_plane(self):
        """TraceSource slots into ControlPlaneConfig like any source."""
        from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane

        trace = simple_trace()
        cfg = ControlPlaneConfig(
            n_stages=5,
            source_factory=lambda stage_id: TraceSource(trace),
        )
        plane = FlatControlPlane.build(cfg)
        plane.run_stress(n_cycles=4)
        reports = plane.global_controller.latest_metrics
        assert all(r.data_iops == 100.0 for r in reports.values())


class TestGenerateFacilityTrace:
    def test_shape(self):
        points = generate_facility_trace(duration_s=60.0, step_s=1.0, seed=1)
        assert len(points) == 60
        assert all(p.data_iops >= 0 for p in points)

    def test_deterministic_per_seed(self):
        a = generate_facility_trace(seed=7)
        b = generate_facility_trace(seed=7)
        c = generate_facility_trace(seed=8)
        assert a == b
        assert a != c

    def test_bursts_present(self):
        points = generate_facility_trace(
            duration_s=300.0, seed=2, burst_probability=0.1, burst_multiplier=10.0
        )
        rates = [p.data_iops for p in points]
        assert max(rates) > 5 * (sum(rates) / len(rates))  # heavy tail

    def test_no_bursts_when_probability_zero(self):
        points = generate_facility_trace(
            duration_s=100.0, seed=3, burst_probability=0.0
        )
        rates = [p.data_iops for p in points]
        assert max(rates) < 4 * (sum(rates) / len(rates))

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_facility_trace(duration_s=0)
        with pytest.raises(ValueError):
            generate_facility_trace(burst_probability=1.5)
