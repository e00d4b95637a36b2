"""Seeded chaos against the simulated planes: zero invariant violations."""

from repro.chaos import run_chaos_sim


class TestSimHier:
    def test_seed7_zero_violations(self):
        report = run_chaos_sim(7, "hier")
        assert report.actions, "seed 7 must actually inject faults"
        assert report.ok, report.to_json()
        assert report.cycles_completed == report.n_cycles
        assert report.checks > 0
        # Killed/stalled aggregators must show up as degraded cycles —
        # the sim plane has no re-home, partitions ride at last-known.
        agg_faults = [
            a for a in report.actions if a["kind"].endswith("_aggregator")
        ]
        if agg_faults:
            assert report.cycles_degraded > 0

    def test_stage_faults_clear_within_two_cycles(self):
        """With the CLI's defaults, seed 5 stalls one stage at cycle 8
        and seed 23 kills one at cycle 5; a blacked-out stage used to
        leave its aggregator waiting for good (every later cycle
        degraded, the partition dark). The catch-up invariant holds and
        only the cycles the fault spans degrade."""
        for seed, kind in ((5, "stall_stage"), (23, "kill_stage")):
            report = run_chaos_sim(
                seed, "hier", n_stages=9, n_aggregators=3, n_cycles=12
            )
            assert [a["kind"] for a in report.actions] == [kind]
            assert report.ok, report.to_json()
            assert report.cycles_degraded <= 2

    def test_deterministic_report_shape(self):
        a = run_chaos_sim(11, "hier")
        b = run_chaos_sim(11, "hier")
        assert a.ok and b.ok
        assert a.actions == b.actions
        assert a.cycles_degraded == b.cycles_degraded


class TestSimFlat:
    def test_seed7_zero_violations_with_takeover(self):
        report = run_chaos_sim(7, "flat")
        assert report.ok, report.to_json()
        assert report.cycles_completed == report.n_cycles
        kill = [a for a in report.actions if a["kind"] == "kill_primary"]
        if kill:
            assert report.takeovers == 1
            assert report.gap_s is not None and report.gap_s >= 0.0

    def test_seed_without_primary_kill_never_fails_over(self):
        # Find a seed whose flat schedule has no kill_primary, then the
        # run must finish entirely on the primary.
        from repro.chaos import generate_schedule

        seed = next(
            s
            for s in range(64)
            if not generate_schedule(
                s, "flat", n_cycles=14, n_stages=12
            ).kills_of("kill_primary")
        )
        report = run_chaos_sim(seed, "flat")
        assert report.ok, report.to_json()
        assert report.takeovers == 0
        assert report.gap_s is None
