"""Tests for the span tracer (clock domains, nesting)."""

import pytest

from repro.obs.spans import (
    NullSpanTracer,
    SpanRecord,
    SpanTracer,
    sim_clock,
    wall_clock,
)
from repro.simnet.engine import Environment


class TestSpanRecord:
    def test_end_is_start_plus_duration(self):
        span = SpanRecord(track="t", name="n", start_s=1.5, dur_s=0.25)
        assert span.end_s == pytest.approx(1.75)

    def test_defaults(self):
        span = SpanRecord(track="t", name="n", start_s=0.0, dur_s=0.0)
        assert span.parent is None
        assert span.args == {}


class TestSpanTracer:
    def test_emit_records_on_shared_list(self):
        tracer = SpanTracer(clock=lambda: 0.0, track="global")
        tracer.emit("cycle", 1.0, 2.0, epoch=7)
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.track == "global"
        assert span.name == "cycle"
        assert span.args["epoch"] == 7

    def test_negative_duration_clamped(self):
        tracer = SpanTracer(clock=lambda: 0.0)
        span = tracer.emit("x", 5.0, -1.0)
        assert span.dur_s == 0.0

    def test_for_track_shares_destination(self):
        tracer = SpanTracer(clock=lambda: 0.0, track="global")
        child = tracer.for_track("stage-00001")
        child.emit("collect_rpc", 0.0, 0.1, parent="collect")
        tracer.emit("collect", 0.0, 0.2, parent="cycle")
        assert {s.track for s in tracer.spans} == {"global", "stage-00001"}
        assert tracer.spans is child.spans

    def test_span_context_manager_times_body(self):
        t = [0.0]

        def clock():
            t[0] += 1.0
            return t[0]

        tracer = SpanTracer(clock=clock)
        with tracer.span("compute", parent="cycle") as args:
            args["n"] = 3
        (span,) = tracer.spans
        assert span.name == "compute"
        assert span.dur_s == pytest.approx(1.0)
        assert span.parent == "cycle"
        assert span.args["n"] == 3

    def test_rejects_unknown_clock_domain(self):
        with pytest.raises(ValueError):
            SpanTracer(clock_domain="lamport")

    def test_wall_clock_monotonic(self):
        a, b = wall_clock(), wall_clock()
        assert b >= a

    def test_sim_clock_reads_env_now(self):
        env = Environment()
        clock = sim_clock(env)
        assert clock() == env.now


class TestNullSpanTracer:
    def test_disabled_and_inert(self):
        tracer = NullSpanTracer()
        assert not tracer.enabled
        assert tracer.emit("x", 0.0, 1.0) is None
        assert tracer.for_track("other") is tracer
        with tracer.span("y") as args:
            args["k"] = 1
        assert tracer.now() == 0.0


class TestSimPlaneIntegration:
    def test_flat_plane_emits_cycle_spans(self):
        from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane

        plane = FlatControlPlane.build(
            ControlPlaneConfig(n_stages=10, trace_spans=True)
        )
        plane.run_stress(3)
        names = [s.name for s in plane.spans if s.name == "cycle"]
        assert len(names) == 3
        assert {s.name for s in plane.spans} == {
            "cycle",
            "collect",
            "compute",
            "enforce",
        }
        # Phase spans nest inside their cycle on the sim clock.
        cycles = [s for s in plane.spans if s.name == "cycle"]
        phases = [s for s in plane.spans if s.parent == "cycle"]
        for phase in phases:
            assert any(
                c.start_s - 1e-9 <= phase.start_s
                and phase.end_s <= c.end_s + 1e-9
                for c in cycles
            )

    def test_hierarchical_plane_traces_aggregator_tracks(self):
        from repro.core.control_plane import (
            ControlPlaneConfig,
            HierarchicalControlPlane,
        )

        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=12, trace_spans=True), n_aggregators=3
        )
        plane.run_stress(2)
        tracks = {s.track for s in plane.spans}
        assert "global-ctrl" in tracks
        assert {"aggregator-00", "aggregator-01", "aggregator-02"} <= tracks

    def test_disabled_by_default(self):
        from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane

        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=5))
        plane.run_stress(2)
        assert plane.spans == []
        assert plane.span_tracer is None
