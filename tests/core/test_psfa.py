"""Unit tests for PSFA and the water-filling core."""

import numpy as np
import pytest

from repro.core.algorithms.psfa import PSFA, weighted_waterfill


class TestWeightedWaterfill:
    def test_all_fits_returns_demands(self):
        d = np.array([10.0, 20.0, 30.0])
        w = np.ones(3)
        alloc = weighted_waterfill(d, w, capacity=100.0)
        assert np.allclose(alloc, d)

    def test_exact_capacity(self):
        d = np.array([10.0, 20.0])
        alloc = weighted_waterfill(d, np.ones(2), capacity=30.0)
        assert np.allclose(alloc, d)

    def test_equal_weights_equal_split_when_saturated(self):
        d = np.array([100.0, 100.0, 100.0])
        alloc = weighted_waterfill(d, np.ones(3), capacity=90.0)
        assert np.allclose(alloc, [30.0, 30.0, 30.0])

    def test_weighted_split(self):
        d = np.array([1000.0, 1000.0])
        w = np.array([3.0, 1.0])
        alloc = weighted_waterfill(d, w, capacity=100.0)
        assert np.allclose(alloc, [75.0, 25.0])

    def test_small_demand_capped_surplus_redistributed(self):
        d = np.array([10.0, 1000.0, 1000.0])
        w = np.ones(3)
        alloc = weighted_waterfill(d, w, capacity=100.0)
        assert alloc[0] == pytest.approx(10.0)
        assert alloc[1] == pytest.approx(45.0)
        assert alloc[2] == pytest.approx(45.0)
        assert alloc.sum() == pytest.approx(100.0)

    def test_cascading_caps(self):
        d = np.array([5.0, 15.0, 1000.0])
        alloc = weighted_waterfill(d, np.ones(3), capacity=60.0)
        assert np.allclose(alloc, [5.0, 15.0, 40.0])

    def test_empty_input(self):
        assert weighted_waterfill(np.zeros(0), np.zeros(0), 100.0).size == 0

    def test_single_job(self):
        assert weighted_waterfill(np.array([500.0]), np.ones(1), 100.0)[0] == 100.0

    def test_order_independence(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0, 100, 50)
        w = rng.uniform(0.5, 8, 50)
        perm = rng.permutation(50)
        a1 = weighted_waterfill(d, w, 800.0)
        a2 = weighted_waterfill(d[perm], w[perm], 800.0)
        assert np.allclose(a1[perm], a2)

    def test_work_conservation_when_oversubscribed(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(10, 100, 200)
        w = rng.uniform(1, 4, 200)
        cap = 0.5 * d.sum()
        alloc = weighted_waterfill(d, w, cap)
        assert alloc.sum() == pytest.approx(cap)
        assert np.all(alloc <= d + 1e-9)

    def test_zero_weight_does_not_divide_by_zero(self):
        """Regression: a 0-demand/0-weight entry produced 0/0 = nan,
        a RuntimeWarning, and a nan-poisoned argsort.  The exported
        function must stay warning-free and finite."""
        import warnings

        d = np.array([0.0, 100.0, 100.0])
        w = np.array([0.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = weighted_waterfill(d, w, capacity=4.0)
        assert np.all(np.isfinite(alloc))
        assert np.allclose(alloc, [0.0, 2.0, 2.0])

    def test_zero_weight_with_demand_granted_last(self):
        """A demanding job with zero weight saturates first and only
        wins capacity after every weighted job is satisfied."""
        d = np.array([10.0, 10.0])
        w = np.array([0.0, 1.0])
        alloc = weighted_waterfill(d, w, capacity=4.0)
        assert np.allclose(alloc, [0.0, 4.0])
        generous = weighted_waterfill(d, w, capacity=100.0)
        assert np.allclose(generous, d)

    def test_all_zero_weights(self):
        d = np.array([50.0, 50.0])
        w = np.zeros(2)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = weighted_waterfill(d, w, capacity=60.0)
        assert np.all(np.isfinite(alloc))
        assert alloc.sum() == pytest.approx(60.0)


class TestPSFA:
    def test_idle_jobs_get_nothing(self):
        """The 'without false allocation' property."""
        psfa = PSFA()
        d = np.array([0.0, 500.0, 0.0, 500.0])
        w = np.ones(4)
        res = psfa.allocate(d, w, capacity=400.0)
        assert res.allocations[0] == 0.0
        assert res.allocations[2] == 0.0
        assert res.allocations[1] == pytest.approx(200.0)
        assert res.allocations[3] == pytest.approx(200.0)

    def test_never_exceeds_capacity(self):
        psfa = PSFA()
        rng = np.random.default_rng(2)
        d = rng.uniform(0, 1000, 100)
        w = rng.uniform(1, 8, 100)
        res = psfa.allocate(d, w, capacity=5000.0)
        assert res.total_allocated <= 5000.0 + 1e-6

    def test_leftover_redistributed_to_active(self):
        psfa = PSFA(redistribute_leftover=True)
        d = np.array([100.0, 100.0])
        res = psfa.allocate(d, np.ones(2), capacity=1000.0)
        # All capacity handed out as growth margin, split evenly.
        assert np.allclose(res.allocations, [500.0, 500.0])
        assert res.unallocated == 0.0

    def test_no_redistribution_mode(self):
        psfa = PSFA(redistribute_leftover=False)
        d = np.array([100.0, 100.0])
        res = psfa.allocate(d, np.ones(2), capacity=1000.0)
        assert np.allclose(res.allocations, d)
        assert res.unallocated == pytest.approx(800.0)

    def test_weights_respected_under_saturation(self):
        psfa = PSFA()
        d = np.array([10_000.0, 10_000.0])
        w = np.array([4.0, 1.0])
        res = psfa.allocate(d, w, capacity=1000.0)
        assert res.allocations[0] / res.allocations[1] == pytest.approx(4.0)

    def test_demand_limited_flag(self):
        psfa = PSFA(redistribute_leftover=False)
        d = np.array([10.0, 10_000.0])
        res = psfa.allocate(d, np.ones(2), capacity=100.0)
        assert bool(res.demand_limited[0]) is True
        assert bool(res.demand_limited[1]) is False

    def test_guarantees_carved_out_first(self):
        psfa = PSFA(redistribute_leftover=False)
        d = np.array([500.0, 500.0])
        w = np.ones(2)
        g = np.array([300.0, 0.0])
        res = psfa.allocate(d, w, capacity=400.0, guarantees=g)
        assert res.allocations[0] >= 300.0
        assert res.total_allocated <= 400.0 + 1e-9

    def test_idle_job_guarantee_not_allocated(self):
        psfa = PSFA()
        d = np.array([0.0, 800.0])
        g = np.array([500.0, 0.0])
        res = psfa.allocate(d, np.ones(2), capacity=600.0, guarantees=g)
        assert res.allocations[0] == 0.0
        assert res.allocations[1] == pytest.approx(600.0)

    def test_all_idle_returns_zero(self):
        psfa = PSFA()
        res = psfa.allocate(np.zeros(5), np.ones(5), capacity=100.0)
        assert np.all(res.allocations == 0)
        assert res.unallocated == 100.0

    def test_activity_threshold(self):
        psfa = PSFA(activity_threshold_iops=5.0)
        d = np.array([4.0, 100.0])
        res = psfa.allocate(d, np.ones(2), capacity=50.0)
        assert res.allocations[0] == 0.0

    def test_input_validation(self):
        psfa = PSFA()
        with pytest.raises(ValueError):
            psfa.allocate(np.array([-1.0]), np.ones(1), 10.0)
        with pytest.raises(ValueError):
            psfa.allocate(np.ones(2), np.ones(3), 10.0)
        with pytest.raises(ValueError):
            psfa.allocate(np.ones(2), np.ones(2), 0.0)
        with pytest.raises(ValueError):
            psfa.allocate(np.ones(2), np.array([1.0, 0.0]), 10.0)
        with pytest.raises(ValueError):
            PSFA(activity_threshold_iops=-1)

    def test_large_problem_fast(self):
        """10k jobs allocate in well under 50 ms (vectorised path)."""
        import time

        psfa = PSFA()
        rng = np.random.default_rng(3)
        d = rng.uniform(0, 2000, 10_000)
        w = rng.uniform(1, 8, 10_000)
        t0 = time.perf_counter()
        res = psfa.allocate(d, w, capacity=1e6)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.05
        assert res.total_allocated <= 1e6 + 1e-3
