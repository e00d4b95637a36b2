"""``ColumnarCompute.allocations(rows=..., clamp=...)`` — the one compute
path the live planes now share with the DES.

1. **One stage per job** (every harness and benchmark workload): the
   result is bit-identical to the stage-level expression the live
   controllers used to run privately — kept here, verbatim, as the
   oracle — for every brain, differentiated or not, with and without a
   trust clamp, with reserved rows in the gather.
2. **Many stages per job, with floors**: naming the live rows gives the
   DES's answer (``rows=None``) bit for bit, and a job held only by
   reserved rows follows the live jobs.

CI runs this file once more under the derandomized ``ci`` hypothesis
profile (``tests/conftest.py``).
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import (
    MaxMinFair,
    NaiveProportional,
    PADLLThrottler,
    PIDController,
    PSFA,
    StaticPartition,
    UniformShare,
)
from repro.core.columnar import StageColumns
from repro.core.compute import ColumnarCompute
from repro.core.policies import PriorityClass, QoSPolicy
from repro.guard import DemandClamp

BRAINS = [
    PSFA,
    PIDController,
    PADLLThrottler,
    StaticPartition,
    UniformShare,
    NaiveProportional,
    MaxMinFair,
]


def stage_level_allocate(columns, rows, jobs, policy, algorithm, meta_algorithm, clamp):
    """What ``_LiveControllerBase._allocate`` computed before the live
    planes moved onto ``ColumnarCompute``: the brain straight over
    *stages* (``jobs`` names each row's job, for its weight)."""
    data = columns.data[rows]
    meta = columns.meta[rows]
    weights = policy.weights(jobs)
    if clamp is not None:
        reported = data + meta
        believed = clamp.clamp(rows, reported)
        trimmed = believed < reported
        if trimmed.any():
            ratio = np.divide(
                believed, reported, out=np.ones_like(reported), where=trimmed
            )
            data, meta = data * ratio, meta * ratio
    meta_limits = None
    if not policy.differentiated:
        limits = algorithm.allocate(
            data + meta, weights, policy.allocatable_iops
        ).allocations
    else:
        axes = getattr(algorithm, "allocate_axes", None)
        if axes is not None:
            data_result, meta_result = axes(
                data, meta, weights,
                policy.allocatable_iops, policy.allocatable_metadata_iops,
            )
        else:
            data_result = algorithm.allocate(data, weights, policy.allocatable_iops)
            meta_result = meta_algorithm.allocate(
                meta, weights, policy.allocatable_metadata_iops
            )
        limits, meta_limits = data_result.allocations, meta_result.allocations
    if clamp is not None:
        clamp.observe(
            rows, reported, limits if meta_limits is None else limits + meta_limits
        )
    return limits, meta_limits


_demand = st.one_of(
    st.sampled_from([0.0, 1.0, 250.0, 1000.0, 5e4, 1e9]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
#: Per cycle, per stage: (data, metadata) demand.
_cycles = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.lists(
        st.lists(st.tuples(_demand, _demand), min_size=n, max_size=n),
        min_size=1,
        max_size=3,
    )
)


def _bits(vector):
    return None if vector is None else vector.tobytes()


class TestOneStagePerJobIsTheOldExpression:
    @settings(deadline=None)
    @given(
        cycles=_cycles,
        brain=st.sampled_from(BRAINS),
        differentiated=st.booleans(),
        clamped=st.booleans(),
        departed=st.sets(st.integers(min_value=0, max_value=8)),
    )
    def test_bit_identical_over_cycles(
        self, cycles, brain, differentiated, clamped, departed
    ):
        n = len(cycles[0])
        policy = QoSPolicy(
            pfs_capacity_iops=4000.0,
            metadata_capacity_iops=900.0 if differentiated else None,
            classes={
                "normal": PriorityClass("normal", 1.0),
                "gold": PriorityClass("gold", 4.0),
            },
            job_classes={f"j-{i}": "gold" for i in range(0, n, 3)},
        )
        cols = StageColumns()
        for i in range(n):
            cols.register(f"s-{i}", f"j-{i}")
        clamp = None
        if clamped:
            clamp = DemandClamp(factor=2.0, floor_iops=100.0)
            clamp.attach(cols)
        # Two worlds with identical state: stateful brains (PID) and the
        # clamp's trust scores must each see one history.
        ours = (cols, clamp, brain(), brain())
        theirs = copy.deepcopy(ours)
        compute = ColumnarCompute(ours[0])
        for c, demands in enumerate(cycles):
            for world in (ours, theirs):
                world[0].observe_many(
                    [f"s-{i}" for i in range(n)],
                    [d for d, _ in demands],
                    [m for _, m in demands],
                )
                if c == 0:  # departures: their share stays, reserved
                    for i in departed:
                        if i < n - 1:
                            world[0].reserve(f"s-{i}")
            rows = ours[0].gather_rows()
            assert np.array_equal(rows, theirs[0].gather_rows())
            jobs = [ours[0]._jobs[r] for r in rows.tolist()]
            got = compute.allocations(
                policy, ours[2], ours[3], rows=rows, clamp=ours[1]
            )
            want = stage_level_allocate(
                theirs[0], rows, jobs, policy, theirs[2], theirs[3], theirs[1]
            )
            assert _bits(got[0]) == _bits(want[0])
            assert _bits(got[1]) == _bits(want[1])
            if clamped:
                assert _bits(ours[0].trust[rows]) == _bits(theirs[0].trust[rows])
                assert ours[1].clamps == theirs[1].clamps
                assert ours[1].clamped_iops_total == theirs[1].clamped_iops_total


class TestManyStagesPerJob:
    def _columns(self):
        cols = StageColumns()
        for i, job in enumerate(["a", "b", "a", "c", "b", "a"]):
            cols.register(f"s-{i}", job)
        cols.observe_many(
            [f"s-{i}" for i in range(6)],
            [900.0, 400.0, 300.0, 700.0, 0.0, 100.0],
            [100.0, 50.0, 0.0, 20.0, 0.0, 10.0],
        )
        return cols

    @pytest.mark.parametrize("differentiated", [False, True])
    @pytest.mark.parametrize("brain", BRAINS)
    def test_naming_the_live_rows_is_the_des_answer(self, brain, differentiated):
        policy = QoSPolicy(
            pfs_capacity_iops=1500.0,
            metadata_capacity_iops=120.0 if differentiated else None,
            min_guarantee_iops={"c": 500.0},
        )
        cols = self._columns()
        named = ColumnarCompute(cols).allocations(
            policy, brain(), brain(), rows=cols.active_rows()
        )
        des = ColumnarCompute(cols).allocations(policy, brain(), brain())
        assert _bits(named[0]) == _bits(des[0])
        assert _bits(named[1]) == _bits(des[1])

    def test_floor_is_honoured_and_an_idle_job_gets_none(self):
        policy = QoSPolicy(
            pfs_capacity_iops=1000.0, min_guarantee_iops={"c": 600.0, "b": 300.0}
        )
        cols = StageColumns()
        for i, job in enumerate(["c", "a", "a", "a", "b"]):
            cols.register(f"s-{i}", job)
        cols.observe_many(
            [f"s-{i}" for i in range(5)], [1000.0] * 4 + [0.0], [0.0] * 5
        )
        limits, _ = ColumnarCompute(cols).allocations(
            policy, PSFA(), rows=cols.gather_rows()
        )
        # c's floor, then the 400 left water-filled over c's and a's
        # excess; b is idle, so its floor is nobody's ("no false
        # allocation") and a's three stages split a's grant.
        assert limits.tolist() == pytest.approx([800.0] + [200.0 / 3] * 3 + [0.0])

    def test_job_held_only_by_reserved_rows_follows_the_live_jobs(self):
        cols = self._columns()
        cols.reserve("s-3")  # job c's only row
        cols.reserve("s-0")  # job a keeps two live rows
        rows = cols.gather_rows()
        assert [cols._ids[r] for r in rows.tolist()] == [
            "s-1", "s-2", "s-4", "s-5", "s-3", "s-0",
        ]
        job_ids, index = cols.job_view(rows)
        # Live jobs in first-registration order; c, reserved-only, last.
        assert job_ids == ["a", "b", "c"]
        assert index.tolist() == [1, 0, 1, 0, 2, 0]
        assert cols.job_view()[0] == ["a", "b"]
        # Cached until membership (or the rows asked about) changes.
        assert cols.job_view(rows)[1] is index
        cols.register("s-3", "c")
        assert cols.job_view(cols.gather_rows())[0] == ["a", "b", "c"]
        assert cols.job_view()[0] == ["a", "b", "c"]
