"""Unit tests for control-cycle statistics and the cost model."""

import pytest

from repro.core.costs import FRONTERA_COST_MODEL, CostModel
from repro.core.cycle import ControlCycle, CycleStats, PhaseBreakdown


def cyc(epoch, collect=0.01, compute=0.005, enforce=0.015):
    return ControlCycle(
        epoch=epoch,
        started_at=float(epoch),
        collect_s=collect,
        compute_s=compute,
        enforce_s=enforce,
        n_stages=10,
    )


class TestControlCycle:
    def test_total_and_phase(self):
        c = cyc(1)
        assert c.total_s == pytest.approx(0.03)
        assert c.phase("collect") == 0.01
        assert c.phase("enforce") == 0.015

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            ControlCycle(1, 0.0, -0.1, 0.0, 0.0, 1)


class TestCycleStats:
    def test_mean_in_ms(self):
        stats = CycleStats([cyc(i) for i in range(5)])
        assert stats.mean_ms == pytest.approx(30.0)

    def test_warmup_dropped(self):
        cycles = [cyc(0, collect=1.0)] + [cyc(i) for i in range(1, 6)]
        stats = CycleStats(cycles, warmup=1)
        assert stats.n_cycles == 5
        assert stats.mean_ms == pytest.approx(30.0)

    def test_std_and_relative_std(self):
        cycles = [cyc(1), cyc(2, collect=0.02)]
        stats = CycleStats(cycles)
        assert stats.std_ms > 0
        assert stats.relative_std == pytest.approx(stats.std_ms / stats.mean_ms)

    def test_breakdown(self):
        stats = CycleStats([cyc(i) for i in range(3)])
        bd = stats.breakdown()
        assert bd.collect_ms == pytest.approx(10.0)
        assert bd.compute_ms == pytest.approx(5.0)
        assert bd.enforce_ms == pytest.approx(15.0)
        assert bd.total_ms == pytest.approx(30.0)

    def test_phase_fraction(self):
        bd = PhaseBreakdown(10.0, 5.0, 15.0)
        assert bd.fraction("enforce") == pytest.approx(0.5)

    def test_empty_stats(self):
        stats = CycleStats([])
        assert stats.mean_ms == 0.0
        assert stats.breakdown().total_ms == 0.0
        assert stats.relative_std == 0.0

    def test_percentile(self):
        cycles = [cyc(i, collect=0.01 * (i + 1)) for i in range(10)]
        stats = CycleStats(cycles)
        assert stats.percentile_ms(99) >= stats.percentile_ms(50)

    def test_summary_keys(self):
        summary = CycleStats([cyc(1)]).summary()
        for key in ("mean_ms", "std_ms", "collect_ms", "compute_ms", "enforce_ms"):
            assert key in summary

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            CycleStats([], warmup=-1)


class TestCostModel:
    def test_defaults_are_positive(self):
        cm = FRONTERA_COST_MODEL
        for name, value in cm.as_dict().items():
            if isinstance(value, (int, float)):
                assert value >= 0, name

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            CostModel(tx_request_s=-1e-6)

    def test_send_chunk_validation(self):
        with pytest.raises(ValueError):
            CostModel(send_chunk=0)

    def test_scaled_cpu(self):
        cm = FRONTERA_COST_MODEL.scaled(cpu_factor=2.0)
        assert cm.tx_request_s == pytest.approx(2 * FRONTERA_COST_MODEL.tx_request_s)
        # wire sizes untouched
        assert cm.rule_bytes == FRONTERA_COST_MODEL.rule_bytes

    def test_scaled_net(self):
        cm = FRONTERA_COST_MODEL.scaled(net_factor=3.0)
        assert cm.rule_bytes == 3 * FRONTERA_COST_MODEL.rule_bytes
        assert cm.tx_rule_s == FRONTERA_COST_MODEL.tx_rule_s

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            FRONTERA_COST_MODEL.scaled(cpu_factor=0)

    def test_derived_aggregates_consistent(self):
        cm = FRONTERA_COST_MODEL
        per_stage_s = (
            cm.tx_request_s
            + cm.rx_reply_s
            + cm.psfa_per_stage_s
            + cm.rule_build_s
            + cm.tx_rule_s
            + cm.rx_ack_s
        )
        # Flat per-stage cost ~16 us/stage (fits 40.4 ms @ 2,500 nodes).
        assert 10e-6 < per_stage_s < 25e-6

    def test_hier_compute_cheaper_than_flat(self):
        """Obs. #7: merged metrics make the compute phase cheaper."""
        cm = FRONTERA_COST_MODEL
        assert cm.psfa_per_stage_hier_s < cm.psfa_per_stage_s


class TestPhasePercentiles:
    def test_phase_percentile_orders(self):
        cycles = [cyc(i, collect=0.001 * (i + 1)) for i in range(20)]
        stats = CycleStats(cycles)
        p50 = stats.phase_percentile_ms("collect", 50)
        p99 = stats.phase_percentile_ms("collect", 99)
        assert p50 < p99 <= 20.0

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            CycleStats([cyc(1)]).phase_percentile_ms("bogus", 50)

    def test_empty_is_zero(self):
        assert CycleStats([]).phase_percentile_ms("collect", 99) == 0.0

    def test_summary_includes_phase_tails(self):
        summary = CycleStats([cyc(1)]).summary()
        assert "collect_p99_ms" in summary and "enforce_p99_ms" in summary

    def test_tail_detects_timeout_extended_phase(self):
        """Timeout-stretched collects move the tail but barely the mean."""
        cycles = [cyc(i) for i in range(95)] + [
            cyc(95 + i, collect=0.5) for i in range(5)
        ]
        stats = CycleStats(cycles)
        assert stats.phase_percentile_ms("collect", 99) > 100.0
        assert stats.breakdown().collect_ms < 50.0
