"""End-to-end observability over the live TCP control plane."""

import pytest

from repro.live.harness import run_live
from repro.obs.chrome_trace import export_chrome_trace, validate_chrome_trace


@pytest.fixture(scope="module")
def flat_result():
    return run_live(n_stages=6, n_cycles=5, observe=True, metrics_port=0)


@pytest.fixture(scope="module")
def hier_result():
    return run_live(
        n_stages=8, n_aggregators=2, n_cycles=5, observe=True
    )


class TestFlatObservability:
    def test_cycle_spans_with_phase_children(self, flat_result):
        names = {s.name for s in flat_result.spans}
        assert {"cycle", "collect", "compute", "enforce"} <= names
        cycles = [s for s in flat_result.spans if s.name == "cycle"]
        assert len(cycles) == 5
        for phase in ("collect", "compute", "enforce"):
            assert sum(1 for s in flat_result.spans if s.name == phase) == 5

    def test_rpc_spans_on_stage_tracks(self, flat_result):
        rpc = [s for s in flat_result.spans if s.name == "collect_rpc"]
        assert rpc
        assert all(s.track.startswith("stage-") for s in rpc)
        assert all(s.parent == "collect" for s in rpc)

    def test_trace_exports_and_validates(self, flat_result):
        doc = export_chrome_trace(flat_result.spans, clock_domain="wall")
        names = validate_chrome_trace(doc)
        assert "cycle" in names
        assert "global-ctrl" in doc["otherData"]["tracks"]

    def test_usage_report_has_nonzero_activity(self, flat_result):
        usage = flat_result.usage_report.global_usage()
        assert usage.name == "global-ctrl"
        assert usage.cpu_percent > 0.0
        assert usage.transmitted_mb_s > 0.0
        assert usage.received_mb_s > 0.0
        assert usage.memory_gb > 0.0

    def test_metrics_snapshot_and_port(self, flat_result):
        assert flat_result.metrics_port is not None
        assert flat_result.metrics_port > 0
        text = flat_result.metrics_text
        assert 'repro_cycles_total{role="global"} 5.0' in text
        assert "repro_cycle_seconds_count" in text
        assert 'repro_phase_seconds_count{phase="collect",role="global"} 5' in text

    def test_unobserved_run_carries_nothing(self):
        result = run_live(n_stages=3, n_cycles=2)
        assert result.spans == []
        assert result.usage_report is None
        assert result.metrics_text is None
        assert result.metrics_port is None


class TestHierObservability:
    def test_tracks_cover_both_levels(self, hier_result):
        tracks = {s.track for s in hier_result.spans}
        assert "global-ctrl" in tracks
        assert {"aggregator-00", "aggregator-01"} <= tracks

    def test_aggregators_emit_phase_spans(self, hier_result):
        agg_spans = [
            s for s in hier_result.spans if s.track.startswith("aggregator")
        ]
        names = {s.name for s in agg_spans}
        assert {"collect", "enforce"} <= names

    def test_usage_rows_per_controller(self, hier_result):
        report = hier_result.usage_report
        assert set(report.per_host) == {
            "global-ctrl",
            "aggregator-00",
            "aggregator-01",
        }
        for usage in report.per_host.values():
            assert usage.cpu_percent > 0.0
            assert usage.transmitted_mb_s > 0.0
            assert usage.received_mb_s > 0.0
        # Table III's per-aggregator mean resolves from these names.
        assert report.aggregator_usage() is not None
        assert report.table_row("aggregator")[0] == "aggregator (mean)"

    def test_metrics_cover_both_roles(self, hier_result):
        text = hier_result.metrics_text
        assert 'repro_cycles_total{role="hier-global"} 5.0' in text
        assert 'repro_cycles_total{role="aggregator"} 10.0' in text
