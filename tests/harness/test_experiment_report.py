"""Tests for experiment runners, reporting, sweeps, paper data, and top500."""

import pytest

from repro.core.costs import FRONTERA_COST_MODEL
from repro.harness.experiment import (
    run_coordinated_experiment,
    run_flat_experiment,
    run_hierarchical_experiment,
)
from repro.harness.paper import PAPER
from repro.harness.report import (
    compare_row,
    format_figure_series,
    format_table,
    relative_error,
)
from repro.top500 import SUPERCOMPUTERS, min_aggregators, table_rows


class TestRunners:
    def test_flat_runner_shape(self):
        result = run_flat_experiment(n_stages=30, cycles=6, repeats=2)
        assert result.design == "flat"
        assert result.n_stages == 30
        assert result.repetitions == 2
        assert result.latency.n_cycles == 2 * (6 - 2)  # warmup dropped per repeat
        assert result.mean_ms > 0
        assert result.global_usage.cpu_percent > 0
        assert result.aggregator_usage is None

    def test_hier_runner_shape(self):
        result = run_hierarchical_experiment(n_stages=40, n_aggregators=4, cycles=5)
        assert result.design == "hierarchical"
        assert result.n_aggregators == 4
        assert result.aggregator_usage is not None

    def test_offload_design_label(self):
        result = run_hierarchical_experiment(
            n_stages=20, n_aggregators=2, cycles=4, decision_offload=True
        )
        assert result.design == "hierarchical-offload"

    def test_coordinated_runner(self):
        result = run_coordinated_experiment(n_stages=20, n_controllers=2, cycles=4)
        assert result.design == "coordinated-flat"
        assert result.mean_ms > 0

    def test_repeat_stability(self):
        result = run_flat_experiment(n_stages=30, cycles=6, repeats=3)
        assert result.across_repeat_relative_std < PAPER.max_relative_std

    def test_summary_flat_dict(self):
        result = run_flat_experiment(n_stages=10, cycles=4)
        summary = result.summary()
        assert summary["design"] == "flat"
        assert "global_cpu_percent" in summary

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            run_flat_experiment(n_stages=10, cycles=4, repeats=0)


class TestSweeps:
    def test_flat_sweep_monotone(self):
        small, big = (run_flat_experiment(n, cycles=5) for n in (20, 80))
        assert big.mean_ms > small.mean_ms

    def test_aggregator_sweep_latency_decreases(self):
        few, many = (run_hierarchical_experiment(80, a, cycles=5) for a in (2, 8))
        assert many.mean_ms < few.mean_ms

    def test_cost_scaling_sweep(self):
        base, slow = (
            run_flat_experiment(
                n_stages=20, cycles=4, costs=FRONTERA_COST_MODEL.scaled(cpu_factor=f)
            )
            for f in (1.0, 2.0)
        )
        assert slow.mean_ms > base.mean_ms


class TestReport:
    def test_relative_error(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == float("inf")

    def test_format_table_aligned(self):
        text = format_table(["a", "long-header"], [[1, 2.5], [30, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[1]
        assert len({len(l) for l in lines[2:]}) >= 1  # renders without error

    def test_compare_row(self):
        row = compare_row("flat@50", measured=1.05, reference=1.11)
        assert row[0] == "flat@50"
        assert "-5.4%" in row[3]

    def test_format_figure_series(self):
        text = format_figure_series(
            "Fig. X",
            "nodes",
            [50, 100],
            {"collect": [1.0, 2.0], "enforce": [2.0, 4.0]},
        )
        assert "Fig. X" in text
        assert "#" in text  # ASCII bars
        assert "6.00" in text  # total at x=100


class TestPaperReference:
    def test_flat_targets_present(self):
        assert PAPER.flat_latency_ms[50] == 1.11
        assert PAPER.flat_latency_ms[2500] == 40.40

    def test_hier_targets_present(self):
        assert PAPER.hier_latency_ms[4] == 103.0
        assert PAPER.hier_latency_bounds[20] == 70.0

    def test_resource_tables_complete(self):
        assert set(PAPER.flat_resources) == {50, 500, 1250, 2500}
        assert set(PAPER.hier_global_resources) == {4, 5, 10, 20}
        assert set(PAPER.hier_aggregator_resources) == {4, 5, 10, 20}

    def test_fig6_consistency(self):
        assert PAPER.fig6_hier_ms - PAPER.fig6_flat_ms == pytest.approx(
            12.0, abs=1.0
        )


class TestTop500:
    def test_table_rows_match_paper(self):
        rows = table_rows()
        assert rows[0]["System"] == "Frontier"
        assert rows[0]["Number of nodes"] == 9408
        assert rows[2]["Number of nodes"] == 158_976  # Fugaku
        assert len(rows) == 5

    def test_min_aggregators_paper_value(self):
        assert min_aggregators(10_000) == 4  # paper §IV-B

    def test_min_aggregators_per_system(self):
        by_name = {sc.name: sc for sc in SUPERCOMPUTERS}
        assert min_aggregators(by_name["Frontier"].n_nodes) == 4
        assert min_aggregators(by_name["Fugaku"].n_nodes) == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            min_aggregators(0)
        with pytest.raises(ValueError):
            min_aggregators(10, connection_limit=0)
