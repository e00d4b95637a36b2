"""Columnar ↔ scalar compute equivalence, under hypothesis.

Two distinct contracts, matching the promise in
:mod:`repro.core.compute` and :mod:`repro.core.algorithms.reference`:

1. **Controller-level, byte-identical.** ``ScalarComputeState`` +
   ``scalar_allocations`` (dict window, per-stage Python gathers) and
   ``StageColumns`` + ``ColumnarCompute`` (flat columns, cached
   fancy-index gathers) fed the same observation stream must produce
   bit-equal allocation vectors: both hand the *same* vectorized brains
   the *same* arrays in the *same* order. Checked with
   ``np.array_equal`` — no tolerance — across register / observe /
   evict / re-register churn and all three brain shapes
   (undifferentiated PSFA, per-axis differentiated, coupled-axes
   PADLL).

2. **Brain-level, ulp-bounded.** The vectorized kernels against their
   loop-based twins in ``algorithms.reference``. Pairwise ndarray sums
   vs sequential accumulation differ by floating-point associativity,
   so the bound is a relative 1e-9, not equality. Degenerate cases
   pinned in PR 9 ride along: exact zero weights (raw
   ``weighted_waterfill`` only — ``PSFA.allocate`` validates weights
   positive, so validated brains draw weights ≥ 1e-3) and idle
   (zero-demand) stages.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.algorithms.padll import PADLLThrottler
from repro.core.algorithms.psfa import PSFA, weighted_waterfill
from repro.core.algorithms.reference import (
    padll_axes_reference,
    psfa_reference,
    waterfill_reference,
)
from repro.core.columnar import StageColumns
from repro.core.compute import (
    ColumnarCompute,
    ScalarComputeState,
    scalar_allocations,
)
from repro.core.policies import QoSPolicy
from repro.core.registry import StageRecord, StageRegistry

N = st.integers(min_value=1, max_value=48)

#: Demands include exact zeros: idle stages exercise the equal-split
#: branch of split_to_stages and the activity threshold of the brains.
DEMAND = st.floats(0.0, 1e5, allow_nan=False)
POSITIVE_WEIGHT = st.floats(1e-3, 16.0, allow_nan=False)


def _rel_close(a, b, rel=1e-9, abs_=1e-6):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.allclose(a, b, rtol=rel, atol=abs_), (a, b)


# ---------------------------------------------------------------------------
# Contract 2: vectorized brains vs loop-based references (ulp-bounded).
# ---------------------------------------------------------------------------


def brain_inputs(weight_elements=POSITIVE_WEIGHT):
    return N.flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=DEMAND),
            arrays(np.float64, n, elements=weight_elements),
            st.floats(1.0, 1e6, allow_nan=False),
        )
    )


class TestBrainReferences:
    @given(brain_inputs())
    @settings(max_examples=200, deadline=None)
    def test_waterfill_matches_reference(self, dwc):
        d, w, c = dwc
        _rel_close(weighted_waterfill(d, w, c), waterfill_reference(d, w, c))

    @given(
        brain_inputs(
            weight_elements=st.one_of(
                st.just(0.0), st.floats(0.0, 16.0, allow_nan=False)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_waterfill_zero_weights_match_reference(self, dwc):
        # The raw exported kernel accepts exact zero weights (validated
        # brains reject them upstream); both sides clamp to the same
        # epsilon, so the ulp bound must still hold.
        d, w, c = dwc
        _rel_close(weighted_waterfill(d, w, c), waterfill_reference(d, w, c))

    @given(brain_inputs())
    @settings(max_examples=200, deadline=None)
    def test_psfa_matches_reference(self, dwc):
        d, w, c = dwc
        result = PSFA().allocate(d, w, c)
        _rel_close(result.allocations, psfa_reference(d, w, c))

    @given(
        N.flatmap(
            lambda n: st.tuples(
                arrays(np.float64, n, elements=DEMAND),
                arrays(np.float64, n, elements=POSITIVE_WEIGHT),
                arrays(np.float64, n, elements=st.floats(0.0, 1e4)),
                st.floats(1.0, 1e6, allow_nan=False),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_psfa_with_guarantees_matches_reference(self, dwgc):
        d, w, g, c = dwgc
        # Keep floors feasible the same way QoSPolicy does: the sum of
        # guarantees must fit in capacity.
        total = float(g.sum())
        if total > c:
            g = g * (c / (total * 1.5))
        result = PSFA().allocate(d, w, c, g)
        _rel_close(result.allocations, psfa_reference(d, w, c, g))

    @given(
        N.flatmap(
            lambda n: st.tuples(
                arrays(np.float64, n, elements=DEMAND),
                arrays(np.float64, n, elements=DEMAND),
                arrays(np.float64, n, elements=POSITIVE_WEIGHT),
                st.floats(1.0, 1e6, allow_nan=False),
                st.floats(1.0, 1e5, allow_nan=False),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_padll_axes_match_reference(self, inputs):
        dd, md, w, dc, mc = inputs
        data_res, meta_res = PADLLThrottler().allocate_axes(dd, md, w, dc, mc)
        data_ref, meta_ref = padll_axes_reference(dd, md, w, dc, mc)
        _rel_close(data_res.allocations, data_ref)
        _rel_close(meta_res.allocations, meta_ref)


# ---------------------------------------------------------------------------
# Contract 1: columnar vs scalar compute state (byte-identical).
# ---------------------------------------------------------------------------

#: One random controller history: stages register, report a few cycles
#: of demand, and some are evicted (and possibly re-registered).
@st.composite
def controller_history(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    n_jobs = draw(st.integers(min_value=1, max_value=max(1, n // 2)))
    jobs = [f"job-{draw(st.integers(0, n_jobs - 1))}" for _ in range(n)]
    cycles = draw(st.integers(min_value=1, max_value=3))
    reports = [
        [
            (
                draw(st.floats(0.0, 1e5, allow_nan=False)),
                draw(st.floats(0.0, 1e4, allow_nan=False)),
            )
            for _ in range(n)
        ]
        for _ in range(cycles)
    ]
    evict = draw(
        st.lists(st.integers(0, n - 1), max_size=max(0, n - 1), unique=True)
    )
    readd = draw(st.lists(st.sampled_from(evict), unique=True)) if evict else []
    return n, jobs, reports, evict, readd


def _build_pair(history, alpha=1.0):
    """Feed one history into both compute states; returns aligned views.

    A ``StageRegistry`` rides along as the membership table a controller
    keeps: the oracle takes its stage and job order from it, the columns
    must arrive at the same orders on their own.
    """
    n, jobs, reports, evict, readd = history
    scalar = ScalarComputeState(alpha=alpha)
    cols = StageColumns(alpha=alpha)
    registry = StageRegistry()
    ids = [f"stage-{i:03d}" for i in range(n)]
    for sid, jid in zip(ids, jobs):
        cols.register(sid, jid)
        registry.register(StageRecord(sid, jid, "host"))
    for cycle in reports:
        for sid, (data, meta) in zip(ids, cycle):
            scalar.observe(sid, data, meta)
            cols.observe(sid, data, meta)
    for i in evict:
        scalar.forget(ids[i])
        cols.evict(ids[i])
        registry.deregister(ids[i])
    for i in readd:
        # Re-registered ids get fresh tail rows, like a fresh session.
        cols.register(ids[i], jobs[i])
        registry.register(StageRecord(ids[i], jobs[i], "host"))
        data, meta = reports[-1][i]
        scalar.observe(ids[i], data, meta)
        cols.observe(ids[i], data, meta)
    ordered = registry.stage_ids
    assert tuple(ordered) == cols.active_ids()
    return (
        scalar, cols, ordered, [registry.job_of(s) for s in ordered],
        registry.job_ids,
    )


class TestControllerEquivalence:
    @given(controller_history())
    @settings(max_examples=100, deadline=None)
    def test_undifferentiated_psfa_byte_identical(self, history):
        scalar, cols, ids, jobs, order = _build_pair(history)
        policy = QoSPolicy(pfs_capacity_iops=250_000.0)
        algo = PSFA()
        s_total, s_meta = scalar_allocations(
            scalar, ids, jobs, policy, algo, job_order=order
        )
        c_total, c_meta = ColumnarCompute(cols).allocations(policy, algo)
        assert s_meta is None and c_meta is None
        assert np.array_equal(s_total, c_total)

    @given(controller_history())
    @settings(max_examples=100, deadline=None)
    def test_differentiated_axes_byte_identical(self, history):
        scalar, cols, ids, jobs, order = _build_pair(history)
        policy = QoSPolicy(
            pfs_capacity_iops=250_000.0, metadata_capacity_iops=40_000.0
        )
        for j in set(jobs):
            policy.assign_job(j, "batch")
        algo = PSFA()
        s_data, s_meta = scalar_allocations(
            scalar, ids, jobs, policy, algo, job_order=order
        )
        c_data, c_meta = ColumnarCompute(cols).allocations(policy, algo)
        assert np.array_equal(s_data, c_data)
        assert np.array_equal(s_meta, c_meta)

    @given(controller_history())
    @settings(max_examples=100, deadline=None)
    def test_padll_coupled_axes_byte_identical(self, history):
        scalar, cols, ids, jobs, order = _build_pair(history)
        policy = QoSPolicy(
            pfs_capacity_iops=250_000.0, metadata_capacity_iops=40_000.0
        )
        algo = PADLLThrottler()
        s_data, s_meta = scalar_allocations(
            scalar, ids, jobs, policy, algo, job_order=order
        )
        c_data, c_meta = ColumnarCompute(cols).allocations(policy, algo)
        assert np.array_equal(s_data, c_data)
        assert np.array_equal(s_meta, c_meta)

    @given(controller_history(), st.floats(0.05, 1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_smoothed_window_byte_identical(self, history, alpha):
        # alpha < 1 exercises the EWMA fold: the columnar elementwise
        # expression must match the scalar per-stage fold bit-for-bit.
        scalar, cols, ids, jobs, order = _build_pair(history, alpha=alpha)
        policy = QoSPolicy(pfs_capacity_iops=250_000.0)
        algo = PSFA()
        s_total, _ = scalar_allocations(
            scalar, ids, jobs, policy, algo, job_order=order
        )
        c_total, _ = ColumnarCompute(cols).allocations(policy, algo)
        assert np.array_equal(s_total, c_total)

    @given(controller_history())
    @settings(max_examples=50, deadline=None)
    def test_policy_edit_invalidates_columnar_cache(self, history):
        # The per-(generation, policy.version) weight cache must never
        # serve stale vectors after an in-place policy edit.
        scalar, cols, ids, jobs, order = _build_pair(history)
        policy = QoSPolicy(pfs_capacity_iops=250_000.0)
        algo = PSFA()
        compute = ColumnarCompute(cols)
        compute.allocations(policy, algo)  # warm the cache
        policy.assign_job(jobs[0], "interactive")
        s_total, _ = scalar_allocations(
            scalar, ids, jobs, policy, algo, job_order=order
        )
        c_total, _ = compute.allocations(policy, algo)
        assert np.array_equal(s_total, c_total)
