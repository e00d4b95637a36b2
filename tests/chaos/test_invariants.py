"""Unit behaviour of the per-cycle invariant checker and the report."""

import json

from repro.chaos import ChaosReport, InvariantChecker


def _checker(**kw):
    return InvariantChecker(capacity_iops=9000.0, **kw)


class TestCapacity:
    def test_within_capacity_is_clean(self):
        c = _checker()
        c.check_capacity(1, {"s-0": 4500.0, "s-1": 4500.0})
        assert c.violations == []
        assert c.checks == 1

    def test_over_capacity_violates(self):
        c = _checker()
        c.check_capacity(2, {"s-0": 6000.0, "s-1": 4000.0})
        assert len(c.violations) == 1
        v = c.violations[0]
        assert v.cycle == 2 and v.invariant == "capacity"

    def test_float_slack_tolerated(self):
        c = _checker()
        c.check_capacity(1, {"s-0": 9000.0 * (1 + 1e-9)})
        assert c.violations == []


class TestEpochs:
    def test_monotone_epochs_are_clean(self):
        c = _checker()
        c.check_epochs(1, {"s-0": 3, "s-1": 3})
        c.check_epochs(2, {"s-0": 4, "s-1": 4})
        assert c.violations == []

    def test_rollback_violates(self):
        c = _checker()
        c.check_epochs(1, {"s-0": 5})
        c.check_epochs(2, {"s-0": 4})
        assert len(c.violations) == 1
        assert c.violations[0].invariant == "epoch"

    def test_plateau_is_not_a_rollback(self):
        """A stage missing rules (degraded cycle) holds its epoch."""
        c = _checker()
        c.check_epochs(1, {"s-0": 5})
        c.check_epochs(2, {"s-0": 5})
        assert c.violations == []


class TestRehomeBound:
    def test_orphan_rehomed_within_bound_is_clean(self):
        c = _checker(rehome_bound_cycles=3)
        c.check_orphans(1, ["s-7"])
        c.check_orphans(2, ["s-7"])
        c.check_orphans(3, [])  # re-homed
        assert c.violations == []

    def test_orphan_past_bound_violates(self):
        c = _checker(rehome_bound_cycles=2)
        for cycle in range(1, 5):
            c.check_orphans(cycle, ["s-7"])
        rehome = [v for v in c.violations if v.invariant == "rehome"]
        assert rehome and rehome[0].cycle == 3

    def test_age_resets_after_rehome(self):
        c = _checker(rehome_bound_cycles=2)
        c.check_orphans(1, ["s-7"])
        c.check_orphans(2, [])
        c.check_orphans(3, ["s-7"])
        c.check_orphans(4, ["s-7"])
        assert c.violations == []


class TestCatchUp:
    def test_stage_at_current_epoch_is_clean(self):
        c = _checker()
        for cycle in range(4):
            c.check_caught_up(cycle, {"s-0": cycle + 1}, cycle + 1, [])
        assert c.violations == []

    def test_lagging_two_cycles_after_clearing_violates(self):
        c = _checker()
        c.check_caught_up(0, {"s-0": 0}, 1, ["s-0"])  # faulted: not judged
        c.check_caught_up(1, {"s-0": 0}, 2, [])  # first clean cycle
        assert c.violations == []
        c.check_caught_up(2, {"s-0": 1}, 3, [])
        assert [v.invariant for v in c.violations] == ["catch-up"]
        assert c.violations[0].cycle == 2

    def test_a_new_fault_restarts_the_count(self):
        c = _checker()
        c.check_caught_up(0, {"s-0": 1}, 1, [])
        c.check_caught_up(1, {"s-0": 1}, 2, ["s-0"])
        c.check_caught_up(2, {"s-0": 1}, 3, [])
        assert c.violations == []


class TestGap:
    def test_gap_within_bound_is_clean(self):
        c = _checker()
        c.check_gap(5, gap_s=0.2, bound_s=0.75)
        assert c.violations == []

    def test_gap_over_bound_violates(self):
        c = _checker()
        c.check_gap(5, gap_s=1.5, bound_s=0.75)
        assert c.violations and c.violations[0].invariant == "gap"


class TestReport:
    def test_ok_tracks_violations(self):
        report = ChaosReport(
            seed=0, plane="sim", design="hier",
            n_cycles=10, n_stages=6, n_aggregators=2,
        )
        assert report.ok
        c = _checker()
        c.check_capacity(1, {"s-0": 99999.0})
        report.violations = c.violations
        assert not report.ok

    def test_json_roundtrip_carries_verdict(self):
        report = ChaosReport(
            seed=7, plane="live", design="flat",
            n_cycles=12, n_stages=9, n_aggregators=0,
            checks=36, cycles_completed=12, takeovers=1, gap_s=0.05,
        )
        data = json.loads(report.to_json())
        assert data["ok"] is True
        assert data["seed"] == 7
        assert data["takeovers"] == 1
        assert "chaos[live/flat]" in report.summary()
