"""The controller-brain shootout racer: determinism and scorecard sanity."""

import json
from pathlib import Path

import numpy as np

from repro.core.shootout import default_contenders, jain_index, run_shootout


def _strip_wall(result):
    return {
        name: {m: v for m, v in row.items() if m != "wall_s"}
        for name, row in result["contenders"].items()
    }


class TestDeterminism:
    def test_same_seed_same_winner_table(self):
        a = run_shootout(seed=7, cycles=24)
        b = run_shootout(seed=7, cycles=24)
        assert a["winners"] == b["winners"]
        assert _strip_wall(a) == _strip_wall(b)

    def test_different_seed_changes_the_traces(self):
        a = run_shootout(seed=7, cycles=24)
        b = run_shootout(seed=8, cycles=24)
        assert _strip_wall(a) != _strip_wall(b)

    def test_scoring_columns_match_the_golden_fixture(self):
        """``golden_shootout.json`` holds the scoring columns measured at
        PR 9 (everything but ``wall_s``). The race is deterministic, so a
        fresh one at the fixture's seed must match them exactly — any
        drift means the racer (or a brain) changed behaviour."""
        golden = json.loads(
            Path(__file__).with_name("golden_shootout.json").read_text(
                encoding="utf-8"
            )
        )
        fresh = run_shootout(seed=golden["seed"], cycles=golden["cycles"])
        assert _strip_wall(fresh) == golden["contenders"]
        assert fresh["winners"] == golden["winners"]


class TestScorecard:
    def test_every_contender_scored_on_every_metric(self):
        result = run_shootout(cycles=24)
        expected = {
            "convergence_cycles",
            "jain_index",
            "overshoot_frac",
            "utilization",
            "storm_share",
            "victim_share",
            "meta_utilization",
            "wall_s",
        }
        assert set(result["contenders"]) == set(default_contenders())
        for row in result["contenders"].values():
            assert set(row) == expected

    def test_nobody_overshoots_the_capacity_line(self):
        result = run_shootout(cycles=24)
        for name, row in result["contenders"].items():
            assert row["overshoot_frac"] == 0.0, name

    def test_padll_contains_the_storm_at_its_cap(self):
        result = run_shootout(cycles=24)
        # default_contenders builds the throttler with a 0.25 cap.
        assert result["contenders"]["padll"]["storm_share"] <= 0.25 + 1e-9

    def test_water_fillers_converge_instantly_pid_ramps(self):
        rows = run_shootout(cycles=24)["contenders"]
        assert rows["psfa"]["convergence_cycles"] <= 1
        assert rows["pid"]["convergence_cycles"] > 1

    def test_demand_blind_brains_pay_in_utilization(self):
        rows = run_shootout(cycles=24)["contenders"]
        assert rows["psfa"]["utilization"] > rows["static-partition"]["utilization"]

    def test_winner_metrics_are_stable(self):
        winners = run_shootout(cycles=24)["winners"]
        assert set(winners) == {
            "convergence",
            "fairness",
            "overshoot",
            "utilization",
            "containment",
            "victim_protection",
        }
        assert all(w in default_contenders() for w in winners.values())


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_index(np.array([3.0, 3.0, 3.0])) == 1.0

    def test_totally_unfair(self):
        # One tenant holds everything: J -> 1/n over the positive grants.
        assert jain_index(np.array([9.0, 0.0, 0.0])) == 1.0

    def test_skew_detected(self):
        assert jain_index(np.array([4.0, 1.0])) < 0.8

    def test_empty_is_vacuously_fair(self):
        assert jain_index(np.zeros(3)) == 1.0
