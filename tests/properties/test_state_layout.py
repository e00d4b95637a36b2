"""One per-stage state layout: the cases the scalar fallbacks used to hide.

``StageColumns`` sits under every controller with no second path beside
it, so the properties that a fallback used to make unreachable are
pinned here against oracles that share no code with the columns:

1. the sim ``GlobalController``, with stages joining between cycles (a
   joiner may open a job no built stage runs, or join one that runs
   already), ships rules bit-equal to ``scalar_allocations`` fed the
   same history in the order a ``StageRegistry`` mirroring the joins
   gives — the registry's job order is the rule the golden traces were
   produced under, and the columns have to arrive at it on their own;
2. the vector ``DemandClamp`` equals a per-stage scalar fold of the same
   reports and grants, bit for bit, counters included.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.padll import PADLLThrottler
from repro.core.algorithms.psfa import PSFA
from repro.core.columnar import StageColumns
from repro.core.compute import ScalarComputeState, scalar_allocations
from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane
from repro.core.controller import ChildChannel
from repro.core.policies import QoSPolicy
from repro.core.registry import StageRecord, StageRegistry
from repro.dataplane.virtual_stage import VirtualStage
from repro.guard import DemandClamp

DEMAND = st.one_of(st.just(0.0), st.floats(0.0, 1e5, allow_nan=False))

#: Job k weighs ``_WEIGHTS[k]``. Powers of two, so that a demand drawn as
#: ``level * weight`` saturates at exactly ``level`` whatever the weight:
#: job order only shows where the water-fill has such ties to break.
_WEIGHTS = (1.0, 2.0, 4.0, 8.0)
_LEVELS = (0.0, 1234.5678, 0.1 * 7919, 2e4 / 3)


# ---------------------------------------------------------------------------
# 1. Sim controller vs the scalar oracle, with stages joining.
# ---------------------------------------------------------------------------


class _SetSource:
    """A stage's metric source whose reading the test sets."""

    def __init__(self):
        self.reading = (0.0, 0.0)

    def sample(self, stage_id, now):
        return self.reading


@st.composite
def join_history(draw):
    """Stage→job layout, how many of its stages the plane is built with,
    then cycles of demand with joins in between.

    Jobs are interleaved, so a joiner may be the first stage of its job
    (its job goes last in the job order) or one more stage of a job the
    plane runs already.
    """
    n_jobs = draw(st.integers(2, 4))
    jobs = draw(
        st.lists(st.integers(0, n_jobs - 1), min_size=n_jobs + 1, max_size=9)
    )
    n_built = draw(st.integers(1, len(jobs) - 1))
    cycles = draw(st.integers(2, 5))
    steps = []
    for _ in range(cycles):
        demands = [
            draw(
                st.one_of(
                    st.tuples(DEMAND, DEMAND),
                    st.sampled_from(_LEVELS).map(
                        lambda level, w=_WEIGHTS[job]: (level * w, level * w / 8)
                    ),
                )
            )
            for job in jobs
        ]
        # Which of the stages not yet joined join after this cycle.
        joins = draw(st.lists(st.integers(0, 8), max_size=3))
        steps.append((demands, joins))
    return jobs, n_built, steps


def _policy(kind):
    differentiated = kind != "undifferentiated"
    policy = QoSPolicy(
        pfs_capacity_iops=30_000.0,
        metadata_capacity_iops=4_000.0 if differentiated else None,
    )
    for job, weight in enumerate(_WEIGHTS):
        policy.register_tenant(f"t{job}", weight)
        policy.admit_tenant_job(f"t{job}", f"job-{job}")
    return policy, (PADLLThrottler() if kind == "padll" else PSFA())


def _replay(history, kind, alpha):
    """Drive a flat sim plane through ``history``; after every cycle
    compare the rules it shipped with the oracle's allocations."""
    jobs, n_built, steps = history
    policy, algorithm = _policy(kind)
    sources = {}

    def source_factory(stage_id):
        sources[stage_id] = _SetSource()
        return sources[stage_id]

    plane = FlatControlPlane.build(
        ControlPlaneConfig(
            n_stages=n_built,
            policy=policy,
            algorithm=algorithm,
            metrics_alpha=alpha,
            job_of=lambda i: f"job-{jobs[i]}",
            source_factory=source_factory,
        )
    )
    ctrl = plane.global_controller
    net = plane.cluster.network
    stages = list(plane.stages)
    for i in range(n_built, len(jobs)):
        stage_id = f"stage-{i:05d}"
        stage = VirtualStage(
            plane.env,
            stage_id,
            f"job-{jobs[i]}",
            source=source_factory(stage_id),
            costs=ctrl.costs,
        )
        stage.attach(net, plane.stage_hosts[0], stage_id)
        stages.append(stage)
    waiting = stages[n_built:]
    registry = StageRegistry()
    for stage in plane.stages:
        registry.register(StageRecord(stage.stage_id, stage.job_id, "host"))
    oracle = ScalarComputeState(alpha=alpha)
    # Its own brain instances, like the controller's per-axis twins.
    oracle_algorithm = copy.deepcopy(algorithm)
    oracle_meta_algorithm = copy.deepcopy(algorithm)
    for demands, joins in steps:
        for stage, reading in zip(stages, demands):
            sources[stage.stage_id].reading = reading
        plane.env.run(ctrl.run_cycles(1))
        ids = registry.stage_ids
        for stage_id in ids:
            oracle.observe(stage_id, *sources[stage_id].reading)
        want, want_meta = scalar_allocations(
            oracle,
            ids,
            [registry.job_of(s) for s in ids],
            policy,
            oracle_algorithm,
            oracle_meta_algorithm,
            job_order=registry.job_ids,
        )
        rules = [ctrl.latest_rules[s] for s in ids]
        assert all(r.epoch == ctrl.epoch for r in rules)
        assert np.array_equal([r.data_iops_limit for r in rules], want)
        if want_meta is not None:
            assert np.array_equal([r.metadata_iops_limit for r in rules], want_meta)

        for pick in joins:
            if not waiting:
                break
            stage = waiting.pop(pick % len(waiting))
            conn = net.connect(ctrl.endpoint, stage.endpoint)
            ctrl.add_stage(
                stage.stage_id,
                stage.job_id,
                ChildChannel(stage.stage_id, "stage", conn, ctrl.endpoint),
            )
            registry.register(StageRecord(stage.stage_id, stage.job_id, "host"))
        assert ctrl.columns.active_ids() == tuple(registry.stage_ids)
        assert ctrl.columns.job_view()[0] == registry.job_ids


class TestSimControllerMatchesOracle:
    @given(join_history(), st.sampled_from((1.0, 0.35)))
    @settings(max_examples=60, deadline=None)
    def test_undifferentiated_rules_byte_identical(self, history, alpha):
        _replay(history, "undifferentiated", alpha)

    @given(join_history(), st.sampled_from((1.0, 0.35)))
    @settings(max_examples=60, deadline=None)
    def test_differentiated_rules_byte_identical(self, history, alpha):
        _replay(history, "differentiated", alpha)

    @given(join_history(), st.sampled_from((1.0, 0.35)))
    @settings(max_examples=60, deadline=None)
    def test_padll_coupled_rules_byte_identical(self, history, alpha):
        _replay(history, "padll", alpha)


# ---------------------------------------------------------------------------
# 2. Vector DemandClamp vs a scalar fold.
# ---------------------------------------------------------------------------


class _ScalarClamp:
    """The per-stage trust fold, one Python float at a time."""

    def __init__(self, factor, floor_iops, alpha_up, alpha_down):
        self.factor, self.floor_iops = factor, floor_iops
        self.alpha_up, self.alpha_down = alpha_up, alpha_down
        self.trust = {}
        self.clamps = 0
        self.clamped_iops_total = 0.0

    def clamp(self, key, reported):
        cap = self.factor * max(self.trust.get(key, 0.0), self.floor_iops)
        if reported <= cap:
            return reported
        self.clamps += 1
        self.clamped_iops_total += reported - cap
        return cap

    def observe(self, key, reported, granted):
        usage = min(max(reported, 0.0), max(granted, 0.0))
        prev = self.trust.get(key)
        if prev is None:
            self.trust[key] = usage
        else:
            alpha = self.alpha_up if usage >= prev else self.alpha_down
            self.trust[key] = alpha * usage + (1.0 - alpha) * prev


@st.composite
def clamp_history(draw):
    n = draw(st.integers(1, 12))
    cycles = draw(st.integers(1, 6))
    amount = st.one_of(st.just(0.0), st.floats(0.0, 1e7, allow_nan=False))
    return n, [
        (
            # Which stages are in this cycle's gather (a late joiner, an
            # absent one), in what order.
            draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)),
            [draw(amount) for _ in range(n)],
            [draw(amount) for _ in range(n)],
        )
        for _ in range(cycles)
    ]


class TestVectorClampMatchesScalarFold:
    @given(
        clamp_history(),
        st.floats(1.0, 16.0, allow_nan=False),
        st.floats(1.0, 1e4, allow_nan=False),
        st.floats(0.05, 1.0, allow_nan=False),
        st.floats(0.05, 1.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_trust_and_counters_bit_equal(self, history, factor, floor, up, down):
        n, cycles = history
        ids = [f"s{i}" for i in range(n)]
        cols = StageColumns()
        cols.register_many(ids, ["j"] * n)
        vector = DemandClamp(factor, floor, alpha_up=up, alpha_down=down)
        vector.attach(cols)
        scalar = _ScalarClamp(factor, floor, up, down)
        for members, reported, granted in cycles:
            rows = np.array(members, dtype=np.intp)
            reported = np.array(reported)[rows]
            granted = np.array(granted)[rows]
            believed = vector.clamp(rows, reported)
            vector.observe(rows, reported, granted)
            want = [scalar.clamp(ids[r], float(x)) for r, x in zip(members, reported)]
            for r, rep, gr in zip(members, reported, granted):
                scalar.observe(ids[r], float(rep), float(gr))
            assert np.array_equal(believed, want)
            assert vector.clamps == scalar.clamps
            assert vector.clamped_iops_total == scalar.clamped_iops_total
            for i, stage_id in enumerate(ids):
                if stage_id in scalar.trust:
                    assert cols.trust[i] == scalar.trust[stage_id]
                else:
                    assert np.isnan(cols.trust[i])
