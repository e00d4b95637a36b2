"""End-to-end integration: jobs + stages + PFS + control plane together.

These tests build the full stack the paper's Fig. 1 depicts — applications
issuing I/O through data-plane stages into a shared PFS, with the control
plane enforcing QoS — and assert the *behavioural* outcomes the SDS
approach promises.
"""

import numpy as np
import pytest

from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane
from repro.core.policies import QoSPolicy
from repro.dataplane.interceptor import IOInterceptor
from repro.dataplane.stage import DataPlaneStage
from repro.jobs.job import Job, JobPhase, run_job


def build_qos_plane(n_stages, capacity, job_classes=None, stages_per_host=10):
    policy = QoSPolicy(pfs_capacity_iops=capacity, job_classes=job_classes or {})
    cfg = ControlPlaneConfig(
        n_stages=n_stages,
        stages_per_host=stages_per_host,
        policy=policy,
        stage_cls=DataPlaneStage,
    )
    return FlatControlPlane.build(cfg)


def drive_jobs(plane, offered_iops, duration=4.0):
    """Attach one job process per stage at the given offered rate."""
    env = plane.env
    procs = []
    for i, stage in enumerate(plane.stages):
        io = IOInterceptor(env, stage)
        job = Job(
            stage.job_id,
            "normal",
            (JobPhase(duration_s=duration, data_iops=offered_iops[i]),),
        )
        procs.append(env.process(run_job(env, job, io)))
    return procs


class TestQoSEnforcement:
    def test_aggregate_rate_converges_below_capacity(self):
        """PSFA keeps total admitted IOPS at or below the PFS budget."""
        plane = build_qos_plane(n_stages=4, capacity=400.0)
        env = plane.env
        procs = drive_jobs(plane, offered_iops=[500.0] * 4, duration=4.0)
        plane.global_controller.run_for(duration_s=4.0, period_s=0.25)
        env.run()
        # After the first cycle every stage's limit is ~100; total admitted
        # in steady state must be <= capacity (+ burst slack).
        total_admitted = sum(p.value.data_ops for p in procs)
        elapsed = max(p.value.finished_at for p in procs)
        assert total_admitted / elapsed <= 400.0 * 1.2

    def test_priority_class_gets_proportionally_more(self):
        classes = {"job-00000": "interactive", "job-00001": "scavenger"}
        plane = build_qos_plane(n_stages=2, capacity=300.0, job_classes=classes)
        env = plane.env
        procs = drive_jobs(plane, offered_iops=[1000.0, 1000.0], duration=4.0)
        plane.global_controller.run_for(duration_s=4.0, period_s=0.25)
        env.run()
        high, low = (p.value for p in procs)
        # Weight 8 vs 1: the interactive job must complete several times
        # more operations (exact ratio blurred by bursts and warmup).
        assert high.data_ops > 3 * low.data_ops

    def test_idle_capacity_flows_to_active_job(self):
        """One active + one idle job: the active one gets ~everything."""
        plane = build_qos_plane(n_stages=2, capacity=200.0)
        env = plane.env
        procs = drive_jobs(plane, offered_iops=[800.0, 0.0], duration=4.0)
        plane.global_controller.run_for(duration_s=4.0, period_s=0.25)
        env.run()
        active = procs[0].value
        rate = active.data_ops / active.finished_at
        assert rate > 150.0  # far above the 100/s a static split would give

    def test_enforcement_reacts_to_demand_shift(self):
        """When a competitor goes quiet mid-run, the survivor's limit rises."""
        plane = build_qos_plane(n_stages=2, capacity=200.0)
        env = plane.env
        stages = plane.stages
        io0 = IOInterceptor(env, stages[0])
        io1 = IOInterceptor(env, stages[1])
        long_job = Job(
            stages[0].job_id,
            "normal",
            (JobPhase(duration_s=8.0, data_iops=500.0),),
        )
        short_job = Job(
            stages[1].job_id,
            "normal",
            (
                JobPhase(duration_s=3.0, data_iops=500.0),
                JobPhase(duration_s=5.0, data_iops=0.0),  # goes quiet
            ),
        )
        env.process(run_job(env, long_job, io0))
        env.process(run_job(env, short_job, io1))
        plane.global_controller.run_for(duration_s=8.0, period_s=0.25)
        limits_early = []
        limits_late = []
        env.call_at(2.5, lambda: limits_early.append(stages[0].enforced_data_rate))
        env.call_at(7.5, lambda: limits_late.append(stages[0].enforced_data_rate))
        env.run()
        assert limits_late[0] > limits_early[0] * 1.5

    def test_pfs_protected_from_overload(self):
        """With control, the storage behind the stages sees about the budget."""
        plane = build_qos_plane(n_stages=4, capacity=400.0)
        env = plane.env
        procs = []
        ios = []
        for stage in plane.stages:
            io = IOInterceptor(env, stage)
            ios.append(io)
            job = Job(
                stage.job_id,
                "normal",
                (JobPhase(duration_s=4.0, data_iops=800.0, io_size_bytes=4096),),
            )
            procs.append(env.process(run_job(env, job, io)))
        plane.global_controller.run_for(duration_s=4.0, period_s=0.25)
        env.run()
        total_rate = sum(io.completed for io in ios) / env.now
        assert total_rate <= 400.0 * 1.2


class TestStabilityUnderStress:
    def test_long_run_latency_stationary(self):
        """Cycle latency does not drift over a long stress run."""
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=100))
        plane.run_stress(n_cycles=60)
        cycles = plane.global_controller.cycles
        first = np.mean([c.total_s for c in cycles[5:20]])
        last = np.mean([c.total_s for c in cycles[45:60]])
        assert last == pytest.approx(first, rel=0.05)

    def test_relative_std_below_paper_bound(self):
        """'The standard deviation for all results ... is below 6%.'"""
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=200))
        plane.run_stress(n_cycles=30)
        assert plane.stats(warmup=3).relative_std < 0.06


class TestSimulationAudits:
    """Every design leaves the simulation in a conserving state."""

    def test_all_designs_pass_audit(self):
        from repro.core.control_plane import (
            CoordinatedFlatControlPlane,
            HierarchicalControlPlane,
        )
        from repro.simnet.audit import audit

        planes = [
            FlatControlPlane.build(ControlPlaneConfig(n_stages=20)),
            HierarchicalControlPlane.build(
                ControlPlaneConfig(n_stages=20), n_aggregators=2
            ),
            HierarchicalControlPlane.build(
                ControlPlaneConfig(n_stages=20),
                n_aggregators=2,
                decision_offload=True,
            ),
            HierarchicalControlPlane.build(
                ControlPlaneConfig(n_stages=20), n_aggregators=2, levels=3
            ),
        ]
        for plane in planes:
            plane.run_stress(n_cycles=3)
            audit(
                plane.cluster.network, plane.cluster.hosts, plane.env
            ).raise_on_violation()

        coord = CoordinatedFlatControlPlane.build(
            ControlPlaneConfig(n_stages=20), n_controllers=2
        )
        coord.run_stress(n_cycles=3)
        audit(
            coord.cluster.network, coord.cluster.hosts, coord.env
        ).raise_on_violation()

    def test_audit_after_failure_injection(self):
        from repro.core.control_plane import HierarchicalControlPlane
        from repro.core.failures import crash_aggregator
        from repro.simnet.audit import audit

        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=20, collect_timeout_s=0.02),
            n_aggregators=2,
        )
        crash_aggregator(plane.env, plane.aggregators[0], at=0.002, downtime=0.02)
        plane.run_stress(n_cycles=8)
        plane.env.run()  # drain everything, including recovered backlog
        audit(
            plane.cluster.network, plane.cluster.hosts, plane.env
        ).raise_on_violation()
