"""StageColumns: row-index stability, reservations, compaction, transfer.

The hypothesis suite (``tests/properties/test_columnar_equivalence.py``)
pins columnar-vs-scalar *allocation* equivalence; these tests pin the
structural contracts the controllers lean on directly — append-only
rows, tombstone eviction, reserved rows, the job-order rule, validation
at the door, safe-point compaction, flat-array transfer — plus the
demand-vector cache of the reference :class:`MetricsWindow`.
"""

import numpy as np
import pytest

from repro.core.algorithms.psfa import PSFA
from repro.core.columnar import StageColumns
from repro.core.metrics import MetricsWindow


class TestRowStability:
    def test_register_appends_in_order(self):
        cols = StageColumns()
        rows = [cols.register(f"s{i}", f"j{i % 3}") for i in range(8)]
        assert rows == list(range(8))
        assert cols.active_ids() == tuple(f"s{i}" for i in range(8))

    def test_evict_tombstones_without_moving_rows(self):
        cols = StageColumns()
        for i in range(4):
            cols.register(f"s{i}", "j")
            cols.observe(f"s{i}", 100.0 * i, 0.0)
        assert cols.evict("s1")
        assert cols.active_ids() == ("s0", "s2", "s3")
        # Tombstoned values stay readable for the rest of the cycle.
        assert cols.data[1] == 100.0
        # Surviving rows did not move.
        assert cols.row_of("s3") == 3

    def test_reregistered_id_gets_fresh_tail_row(self):
        cols = StageColumns()
        cols.register("a", "j")
        cols.register("b", "j")
        cols.observe("a", 500.0, 0.0)
        cols.evict("a")
        row = cols.register("a", "j")
        assert row == 2
        assert cols.active_ids() == ("b", "a")
        # Fresh row: no stale demand carried over.
        assert cols.demand("a") == 0.0

    def test_compaction_only_at_threshold_and_preserves_order(self):
        cols = StageColumns()
        for i in range(80):
            cols.register(f"s{i}", "j")
        assert not cols.maybe_compact()  # no tombstones
        for i in range(0, 60):
            cols.evict(f"s{i}")
        gen = cols.generation
        assert cols.maybe_compact()
        assert cols.generation > gen
        assert cols.active_ids() == tuple(f"s{i}" for i in range(60, 80))
        assert cols.n_tombstones == 0
        assert [cols.row_of(f"s{i}") for i in range(60, 80)] == list(range(20))

    def test_rows_vacated_by_compaction_come_back_fresh(self):
        cols = StageColumns(alpha=0.5)
        ids = [f"s{i}" for i in range(80)]
        cols.register_many(ids, ["j"] * 80)
        cols.observe_many(ids, np.full(80, 7.0), np.full(80, 3.0))
        cols.trust[:80] = 9.0
        cols.usage[:80] = 5.0
        for sid in ids[:60]:
            cols.evict(sid)
        assert cols.maybe_compact()
        row = cols.register("late", "j")  # lands on a vacated row
        assert row == 20
        assert cols.axes("late") == (0.0, 0.0) and cols.demand("late") == 0.0
        assert np.isnan(cols.trust[row]) and cols.usage[row] == 0.0
        cols.observe("late", 4.0, 0.0)
        assert cols.demand("late") == 4.0  # first report, not a fold
        cols.register_many(["l1", "l2"], ["j", "j"])
        assert list(cols.data[21:23]) == [0.0, 0.0]
        assert np.isnan(cols.trust[21:23]).all()

    def test_generation_bumps_on_membership_change(self):
        cols = StageColumns()
        gen = cols.generation
        cols.register("a", "j")
        assert cols.generation > gen
        gen = cols.generation
        cols.evict("a")
        assert cols.generation > gen


class TestObservations:
    def test_observe_many_matches_scalar_observe(self):
        a, b = StageColumns(alpha=0.4), StageColumns(alpha=0.4)
        ids = [f"s{i}" for i in range(6)]
        for sid in ids:
            a.register(sid, "j")
            b.register(sid, "j")
        for cycle in range(3):
            data = np.arange(6, dtype=float) * (cycle + 1)
            meta = np.ones(6) * cycle
            for sid, d, m in zip(ids, data, meta):
                a.observe(sid, d, m)
            b.observe_many(ids, data, meta)
        assert np.array_equal(a.ewma_active(), b.ewma_active())
        assert np.array_equal(a.data_active(), b.data_active())

    def test_negative_demand_rejected(self):
        # Rejected at the door, counted, and the row keeps what it had —
        # one entry of a batch costs that entry, not the batch.
        cols = StageColumns()
        cols.register("s", "j")
        cols.register("t", "j")
        assert cols.observe("s", 5.0, 1.0)
        assert not cols.observe("s", -1.0, 0.0)
        assert not cols.observe("s", 1.0, float("nan"))
        assert not cols.observe("s", float("inf"), 0.0)
        assert cols.reports_rejected == 3
        assert cols.axes("s") == (5.0, 1.0)
        assert cols.observe_many(["s", "t"], [-1.0, 7.0], [0.0, 0.0]) == 1
        assert cols.observe_many(["s", "t"], [1.0, 8.0], [np.inf, 0.0]) == 1
        assert cols.observe_many(["s", "t"], [np.nan, 9.0], [1.0, 0.0]) == 1
        assert cols.axes("s") == (5.0, 1.0)
        assert cols.axes("t") == (9.0, 0.0)
        assert cols.reports_rejected == 6

    def test_malformed_batch_rejected_whole(self):
        cols = StageColumns()
        cols.register("s", "j")
        cols.register("t", "j")
        cols.observe_many(["s", "t"], [1.0, 2.0], [0.0, 0.0])
        assert cols.observe_many(["s", "t"], [9.0], [0.0, 0.0]) == 2
        assert cols.observe_many(["s", "t"], [9.0, "x"], [0.0, 0.0]) == 2
        assert list(cols.data_active()) == [1.0, 2.0]
        assert cols.reports_rejected == 4
        # A JSON null is a NaN: that entry's loss, not the batch's.
        assert cols.observe_many(["s", "t"], [9.0, None], [0.0, 0.0]) == 1
        assert list(cols.data_active()) == [9.0, 2.0]

    def test_unknown_ids_are_skipped_not_counted(self):
        cols = StageColumns()
        cols.register("s", "j")
        assert not cols.observe("ghost", 1.0, 0.0)
        assert cols.observe_many(["ghost", "s"], [4.0, 3.0], [0.0, 0.0]) == 0
        assert cols.reports_rejected == 0
        assert cols.axes("s") == (3.0, 0.0)
        assert "ghost" not in cols

    def test_metrics_window_duck_compat(self):
        # What is left of the MetricsWindow surface: the same smoothing,
        # bit for bit, and 0.0 for a stage never heard from.
        cols = StageColumns(alpha=0.5)
        win = MetricsWindow(alpha=0.5)
        cols.register("s0", "j")
        for data, meta in ((100.0, 0.0), (150.0, 50.0), (50.0, 0.0)):
            cols.observe("s0", data, meta)
            assert cols.demand("s0") == win.update("s0", data + meta)
        assert cols.demand("ghost") == win.demand("ghost") == 0.0

    def test_adopt_only_fills_unobserved(self):
        theirs = StageColumns()
        for sid in ("seen", "fresh", "foreign", "silent"):
            theirs.register(sid, "j")
        theirs.observe("seen", 1.0, 0.0)
        theirs.observe("fresh", 200.0, 50.0)
        theirs.observe("foreign", 70.0, 0.0)
        cols = StageColumns()
        for sid in ("seen", "fresh", "silent"):
            cols.register(sid, "j")
        cols.observe("seen", 900.0, 0.0)
        cols.adopt(theirs.to_arrays())
        assert cols.demand("seen") == 900.0  # own observation is fresher
        assert cols.demand("fresh") == 250.0
        assert cols.axes("fresh") == (200.0, 50.0)  # every axis, not the sum
        assert cols.demand("silent") == 0.0  # they never heard from it either
        assert "foreign" not in cols
        # An adopted row is observed: the next report folds, and a second
        # snapshot cannot overwrite it.
        theirs.observe("fresh", 1.0, 1.0)
        cols.adopt(theirs.to_arrays())
        assert cols.demand("fresh") == 250.0


class TestReservedRows:
    def _three(self):
        cols = StageColumns()
        for i, sid in enumerate(("a", "b", "c")):
            cols.register(sid, "j")
            cols.observe(sid, 100.0 * (i + 1), 0.0)
        return cols

    def test_reserved_row_stays_in_the_gather_after_the_live_rows(self):
        cols = self._three()
        assert cols.reserve("a", until=7)
        assert not cols.reserve("a")  # already reserved
        assert not cols.reserve("ghost")
        assert cols.active_ids() == ("b", "c")
        assert cols.n_active == 2
        assert list(cols.data[cols.gather_rows()]) == [200.0, 300.0, 100.0]
        assert "a" in cols and cols.reserved == {"a": 7}
        cols.reserve("c")
        # Departure order, not row order.
        assert list(cols.data[cols.gather_rows()]) == [200.0, 100.0, 300.0]

    def test_reservation_expires_by_epoch(self):
        cols = self._three()
        cols.reserve("a", until=7)
        cols.reserve("b")  # no expiry: held until it registers again
        cols.release_expired(7)
        assert "a" in cols
        cols.release_expired(8)
        assert "a" not in cols and "b" in cols
        assert list(cols.data[cols.gather_rows()]) == [300.0, 200.0]
        assert cols.n_tombstones == 1

    def test_registering_a_reserved_id_releases_it_into_a_new_row(self):
        cols = self._three()
        cols.trust[cols.row_of("a")] = 42.0
        cols.reserve("a", until=9)
        row = cols.register("a", "j2")
        assert row == 3 and cols.reserved == {}
        assert cols.active_ids() == ("b", "c", "a")
        # State carried over; the old row is a tombstone.
        assert cols.axes("a") == (100.0, 0.0)
        assert cols.trust[row] == 42.0
        assert cols.job_of("a") == "j2"
        assert cols.n_tombstones == 1
        with pytest.raises(ValueError):
            cols.register("a", "j")  # live ids stay unique

    def test_evicting_a_reserved_row_drops_it(self):
        cols = self._three()
        cols.reserve("b")
        assert cols.evict("b")
        assert cols.reserved == {} and "b" not in cols
        assert list(cols.gather_rows()) == [0, 2]

    def test_compaction_keeps_reserved_rows(self):
        cols = StageColumns()
        for i in range(80):
            cols.register(f"s{i}", "j")
            cols.observe(f"s{i}", float(i), 0.0)
        cols.reserve("s70", until=3)
        for i in range(60):
            cols.evict(f"s{i}")
        assert cols.maybe_compact()
        assert cols.n_tombstones == 0
        assert cols.reserved == {"s70": 3}
        gathered = cols.data[cols.gather_rows()]
        assert list(gathered) == [float(i) for i in range(60, 80) if i != 70] + [70.0]


class TestJobOrder:
    def test_first_registration_among_jobs_with_a_live_row(self):
        # The StageRegistry rule, on the same churn: a job keeps its
        # place while any of its stages is live, and goes to the tail
        # when it returns after its last one left.
        from repro.core.registry import StageRecord, StageRegistry

        cols, reg = StageColumns(), StageRegistry()

        def add(sid, job):
            cols.register(sid, job)
            reg.register(StageRecord(sid, job, "host"))

        def drop(sid):
            cols.evict(sid)
            reg.deregister(sid)

        add("a0", "A"), add("b0", "B"), add("a1", "A"), add("c0", "C")
        drop("a0")  # A's first stage leaves, a1 stays: A keeps its place
        assert cols.job_view()[0] == reg.job_ids == ["A", "B", "C"]
        assert list(cols.job_view()[1]) == [1, 0, 2]  # rows b0, a1, c0
        drop("b0")
        add("b1", "B")  # B left entirely and came back: tail
        assert cols.job_view()[0] == reg.job_ids == ["A", "C", "B"]
        cols.maybe_compact(min_tombstones=1)
        assert cols.job_view()[0] == ["A", "C", "B"]

    def test_reserved_rows_do_not_hold_a_job_position(self):
        cols = StageColumns()
        cols.register("a0", "A")
        cols.register("b0", "B")
        cols.reserve("a0")
        assert cols.job_view()[0] == ["B"]
        cols.register("a0", "A")
        assert cols.job_view()[0] == ["B", "A"]

    def test_register_many_matches_one_by_one(self):
        ids = [f"s{i}" for i in range(100)]
        jobs = [f"j{i % 7}" for i in range(100)]
        one, many = StageColumns(), StageColumns()
        for sid, job in zip(ids, jobs):
            one.register(sid, job)
        many.register_many(ids[:40], jobs[:40])
        many.register_many(tuple(ids[40:]), tuple(jobs[40:]))
        assert many.active_ids() == one.active_ids()
        assert many.job_view()[0] == one.job_view()[0]
        assert np.array_equal(many.job_view()[1], one.job_view()[1])
        assert np.isnan(many.trust[:100]).all()
        with pytest.raises(ValueError):
            many.register_many(["fresh", "s3"], ["j", "j"])
        with pytest.raises(ValueError):
            many.register_many(["dup", "dup"], ["j", "j"])
        assert "fresh" not in many and "dup" not in many


class TestFlatArrayTransfer:
    def test_to_from_arrays_roundtrip(self):
        cols = StageColumns(alpha=0.3)
        for i in range(5):
            cols.register(f"s{i}", f"j{i % 2}")
        cols.observe_many(
            [f"s{i}" for i in range(5)],
            np.arange(5, dtype=float) * 10,
            np.ones(5),
        )
        cols.evict("s2")
        arrays = cols.to_arrays()
        # Flat payload: tuples of ids plus one ndarray per column.
        assert isinstance(arrays["ids"], tuple)
        assert all(
            isinstance(arrays[k], np.ndarray)
            for k in ("data", "meta", "ewma", "usage", "trust")
        )
        clone = StageColumns.from_arrays(arrays)
        assert clone.active_ids() == cols.active_ids()
        assert np.array_equal(clone.ewma_active(), cols.ewma_active())
        assert np.array_equal(clone.data_active(), cols.data_active())
        assert clone.job_of("s3") == "j1"

    def test_from_arrays_rejects_duplicate_ids(self):
        cols = StageColumns()
        cols.register("s0", "j")
        arrays = cols.to_arrays()
        arrays["ids"] = ("s0", "s0")
        arrays["jobs"] = ("j", "j")
        for k in ("data", "meta", "ewma", "usage", "trust", "seen"):
            arrays[k] = np.concatenate([arrays[k], arrays[k]])
        with pytest.raises(ValueError):
            StageColumns.from_arrays(arrays)


class TestMetricsWindowDemandCache:
    def test_repeat_query_returns_cached_array(self):
        w = MetricsWindow()
        ids = tuple(f"s{i}" for i in range(16))
        for i, sid in enumerate(ids):
            w.update(sid, 10.0 * i)
        first = w.demands(ids)
        assert w.demands(ids) is first
        assert w.demands(list(ids)) is first  # tuple-normalized key

    def test_update_invalidates_cache(self):
        w = MetricsWindow()
        w.update("a", 1.0)
        ids = ("a",)
        first = w.demands(ids)
        w.update("a", 2.0)
        second = w.demands(ids)
        assert second is not first
        assert second[0] == 2.0

    def test_forget_and_adopt_invalidate_cache(self):
        w = MetricsWindow()
        w.update("a", 5.0)
        w.update("b", 7.0)
        ids = ("a", "b")
        w.demands(ids)
        w.forget("b")
        assert list(w.demands(ids)) == [5.0, 0.0]
        w.adopt({"b": 3.0})
        assert list(w.demands(ids)) == [5.0, 3.0]

    def test_different_id_order_not_served_from_cache(self):
        w = MetricsWindow()
        w.update("a", 1.0)
        w.update("b", 2.0)
        assert list(w.demands(("a", "b"))) == [1.0, 2.0]
        assert list(w.demands(("b", "a"))) == [2.0, 1.0]

    def test_cached_path_allocation_regression(self):
        # The controller-shaped usage: N updates, then repeated demand
        # gathers feeding the brain. Warm-cache gathers must produce
        # the identical allocation vector as a cold rebuild.
        w = MetricsWindow(alpha=0.6)
        ids = tuple(f"stage-{i:03d}" for i in range(32))
        rng = np.random.default_rng(7)
        for sid, d in zip(ids, rng.uniform(0, 1e4, len(ids))):
            w.update(sid, float(d))
        algo = PSFA()
        weights = np.ones(len(ids))
        cold = algo.allocate(w.demands(list(ids)), weights, 50_000.0)
        warm = algo.allocate(w.demands(ids), weights, 50_000.0)
        assert np.array_equal(cold.allocations, warm.allocations)

    def test_steady_state_cached_demands_allocate_nothing(self):
        import tracemalloc

        import repro.core.metrics as mod

        w = MetricsWindow()
        ids = tuple(f"stage-{i:04d}" for i in range(64))
        for i, sid in enumerate(ids):
            w.update(sid, float(i))
        w.demands(ids)  # build once

        def spin(n):
            for _ in range(n):
                w.demands(ids)

        spin(50)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            spin(200)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
            and stat.traceback[0].filename == mod.__file__
        )
        assert growth <= 256, f"cached demands leaked {growth} bytes"
