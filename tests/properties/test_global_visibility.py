"""Every simulated design allocates per *job*, with global visibility.

Hypothesis draws stage → job maps whose jobs span partitions, per-stage
(data, metadata) demand, QoS classes, a floor and the budgets, and runs
each on the flat plane, the hierarchical plane, the hierarchical plane
with decision offload and the coordinated-flat plane (2–4 peers), each
undifferentiated and differentiated:

1. **Within budget.** On every design the stages' enforced limits sum to
   at most the allocatable budget of each axis the policy has.
2. **One answer.** A job's grant — the sum over its stages — is the flat
   plane's on the hierarchical and on the coordinated plane (rel 1e-9),
   a job split across peers included.
3. **Offload weighs jobs.** Under decision offload the brain runs per
   partition against a budget: inside one partition, two job parts of
   equal weight that are both held below their demand get equal grants,
   however many stages each has.

The three ``@example`` cases are the faults this pins: a job split
across two peers was granted by both (Σ data 6000 against 3000), peers
ignored the metadata budget (Σ metadata ``inf`` against 400), and
offload weighted stages (job-A's three stages 750, job-B's one 250,
against 500 / 500 on the flat plane).

CI runs this file once more under the derandomized ``ci`` hypothesis
profile (``tests/conftest.py``).
"""

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.control_plane import (
    ControlPlaneConfig,
    CoordinatedFlatControlPlane,
    FlatControlPlane,
    HierarchicalControlPlane,
)
from repro.core.policies import QoSPolicy
from repro.core.registry import partition_stages
from repro.dataplane.virtual_stage import ConstantSource

REL = 1e-9
JOBS = ("job-a", "job-b", "job-c", "job-d")
CLASSES = ("interactive", "normal", "batch")


@dataclass(frozen=True)
class Scenario:
    jobs: Tuple[str, ...]  # per stage
    demand: Tuple[Tuple[float, float], ...]  # per stage (data, metadata)
    classes: Tuple[Tuple[str, str], ...] = ()
    floor: float = 0.0  # job-a's minimum guarantee
    capacity: float = 3000.0
    metadata_capacity: Optional[float] = None
    n_aggregators: int = 1
    n_peers: int = 2

    def policy(self) -> QoSPolicy:
        return QoSPolicy(
            pfs_capacity_iops=self.capacity,
            metadata_capacity_iops=self.metadata_capacity,
            job_classes=dict(self.classes),
            min_guarantee_iops={"job-a": self.floor} if self.floor else {},
        )

    def config(self) -> ControlPlaneConfig:
        demand = dict(zip(_ids(len(self.jobs)), self.demand))
        return ControlPlaneConfig(
            n_stages=len(self.jobs),
            policy=self.policy(),
            job_of=lambda i: self.jobs[i],
            source_factory=lambda sid: ConstantSource(*demand[sid]),
        )


def _ids(n):
    return [f"stage-{i:05d}" for i in range(n)]


def _spans(jobs, n_parts) -> bool:
    """Some job has stages in two partitions."""
    owners = defaultdict(set)
    for p, part in enumerate(partition_stages(range(len(jobs)), n_parts)):
        for i in part:
            owners[jobs[i]].add(p)
    return any(len(parts) > 1 for parts in owners.values())


@st.composite
def scenarios(draw) -> Scenario:
    n = draw(st.integers(4, 10))
    n_peers = draw(st.integers(2, min(4, n)))
    jobs = tuple(draw(st.lists(st.sampled_from(JOBS), min_size=n, max_size=n)))
    assume(_spans(jobs, n_peers))
    demand = tuple(
        draw(
            st.lists(
                st.tuples(
                    st.sampled_from([0.0, 250.0, 1000.0, 3000.0]),
                    st.sampled_from([0.0, 50.0, 200.0]),
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    classes = tuple(
        (job, draw(st.sampled_from(CLASSES))) for job in sorted(set(jobs))
    )
    capacity = draw(st.sampled_from([1000.0, 3000.0, 20000.0]))
    return Scenario(
        jobs=jobs,
        demand=demand,
        classes=classes,
        floor=draw(st.sampled_from([0.0, 0.0, 100.0])),
        capacity=capacity,
        metadata_capacity=draw(st.sampled_from([None, 150.0, 400.0, 5000.0])),
        n_aggregators=draw(st.integers(1, min(4, n))),
        n_peers=n_peers,
    )


def _run(scenario: Scenario, design: str):
    cfg = scenario.config()
    if design == "flat":
        plane = FlatControlPlane.build(cfg)
    elif design in ("hier", "offload"):
        plane = HierarchicalControlPlane.build(
            cfg, scenario.n_aggregators, decision_offload=design == "offload"
        )
    else:
        plane = CoordinatedFlatControlPlane.build(cfg, scenario.n_peers)
    plane.run_stress(n_cycles=3)
    return plane


def _per_job(stages):
    grants = defaultdict(lambda: [0.0, 0.0])
    for stage in stages:
        grants[stage.job_id][0] += stage.applied_data_limit
        grants[stage.job_id][1] += stage.applied_metadata_limit
    return dict(grants)


def _within(total, budget):
    return total <= budget * (1 + REL)


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-6) or a == b


SPLIT_JOB = Scenario(
    jobs=tuple(f"job-{i % 2}" for i in range(8)),
    demand=((1000.0, 200.0),) * 8,
    capacity=3000.0,
    n_aggregators=2,
    n_peers=2,
)
SPLIT_JOB_METADATA = replace(SPLIT_JOB, metadata_capacity=400.0)
STAGE_WEIGHTED = Scenario(
    jobs=("job-A", "job-A", "job-A", "job-B"),
    demand=((1000.0, 200.0),) * 4,
    capacity=1000.0,
    n_aggregators=1,
    n_peers=2,
)


@settings(deadline=None)
@given(scenario=scenarios())
@example(scenario=SPLIT_JOB)
@example(scenario=SPLIT_JOB_METADATA)
@example(scenario=STAGE_WEIGHTED)
def test_every_design_allocates_per_job_with_global_visibility(scenario):
    policy = scenario.policy()
    planes = {
        design: _run(scenario, design)
        for design in ("flat", "hier", "offload", "coordinated")
    }
    for design, plane in planes.items():
        grants = _per_job(plane.stages)
        assert _within(sum(g[0] for g in grants.values()), policy.allocatable_iops), design
        if policy.differentiated:
            assert _within(
                sum(g[1] for g in grants.values()), policy.allocatable_metadata_iops
            ), design

    flat = _per_job(planes["flat"].stages)
    for design in ("hier", "coordinated"):
        other = _per_job(planes[design].stages)
        assert other.keys() == flat.keys()
        for job, (data, meta) in flat.items():
            assert _close(other[job][0], data), (design, job)
            assert _close(other[job][1], meta), (design, job)

    _assert_offload_weighs_jobs(scenario, planes["offload"])


def _assert_offload_weighs_jobs(scenario, plane):
    policy = scenario.policy()
    by_id = {s.stage_id: s for s in plane.stages}
    demand = dict(zip(_ids(len(scenario.jobs)), scenario.demand))
    for agg in plane.aggregators:
        parts = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0])  # grants, demands
        for sid in agg.stage_ids:
            data, meta = demand[sid]
            part = parts[by_id[sid].job_id]
            part[0] += by_id[sid].applied_data_limit
            part[1] += by_id[sid].applied_metadata_limit
            if policy.differentiated:
                part[2] += data
                part[3] += meta
            else:
                part[2] += data + meta
        axes = (0, 1) if policy.differentiated else (0,)
        for axis in axes:
            capped = [
                (policy.weight_of(job), part[axis])
                for job, part in parts.items()
                if part[axis] < part[2 + axis] * (1 - REL)
            ]
            for weight, grant in capped:
                for other_weight, other_grant in capped:
                    if weight == other_weight:
                        assert _close(grant, other_grant), (agg.agg_id, axis, capped)


class TestTheFaultsPinned:
    """The three cases above with their numbers."""

    def test_a_job_split_across_peers_is_granted_once(self):
        plane = _run(SPLIT_JOB, "coordinated")
        assert sum(s.applied_data_limit for s in plane.stages) == pytest.approx(3000.0)

    def test_peers_enforce_the_metadata_budget(self):
        plane = _run(SPLIT_JOB_METADATA, "coordinated")
        assert sum(s.applied_metadata_limit for s in plane.stages) == pytest.approx(400.0)

    def test_offload_grants_jobs_not_stages(self):
        grants = _per_job(_run(STAGE_WEIGHTED, "offload").stages)
        assert grants["job-A"][0] == pytest.approx(500.0)
        assert grants["job-B"][0] == pytest.approx(500.0)
