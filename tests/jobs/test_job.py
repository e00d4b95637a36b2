"""Unit tests for job processes."""

import pytest

from repro.dataplane.interceptor import IOInterceptor
from repro.dataplane.stage import DataPlaneStage
from repro.jobs.job import Job, JobPhase, run_job
from repro.simnet.engine import Environment


@pytest.fixture
def env():
    return Environment()


class TestJobModel:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            JobPhase(duration_s=0)
        with pytest.raises(ValueError):
            JobPhase(duration_s=1, data_iops=-1)

    def test_job_needs_phases(self):
        with pytest.raises(ValueError):
            Job("j", "normal", phases=())

    def test_duration_sums_phases(self):
        job = Job("j", "normal", (JobPhase(1.0), JobPhase(2.5)))
        assert job.duration_s == 3.5


class TestRunJob:
    def test_compute_only_phase_does_no_io(self, env):
        stage = DataPlaneStage(env, "s", "j")
        io = IOInterceptor(env, stage)
        job = Job("j", "normal", (JobPhase(duration_s=2.0),))
        p = env.process(run_job(env, job, io))
        env.run()
        result = p.value
        assert result.ops_completed == 0
        assert result.finished_at == pytest.approx(2.0)

    def test_offered_rate_achieved_unthrottled(self, env):
        stage = DataPlaneStage(env, "s", "j")
        io = IOInterceptor(env, stage)
        job = Job("j", "normal", (JobPhase(duration_s=2.0, data_iops=100.0),))
        p = env.process(run_job(env, job, io))
        env.run()
        result = p.value
        assert result.data_ops == pytest.approx(200, abs=2)
        assert result.total_throttle_wait_s == 0.0

    def test_metadata_mix_proportional(self, env):
        stage = DataPlaneStage(env, "s", "j")
        io = IOInterceptor(env, stage)
        job = Job(
            "j",
            "normal",
            (JobPhase(duration_s=2.0, data_iops=75.0, metadata_iops=25.0),),
        )
        p = env.process(run_job(env, job, io))
        env.run()
        result = p.value
        frac = result.metadata_ops / result.ops_completed
        assert frac == pytest.approx(0.25, abs=0.02)

    def test_throttled_job_records_waits(self, env):
        stage = DataPlaneStage(env, "s", "j", initial_data_limit=10.0, burst_seconds=0.1)
        io = IOInterceptor(env, stage)
        job = Job("j", "normal", (JobPhase(duration_s=2.0, data_iops=100.0),))
        p = env.process(run_job(env, job, io))
        env.run()
        result = p.value
        assert result.total_throttle_wait_s > 0
        # Achieved ops bounded by the 10/s limit (plus burst).
        assert result.data_ops <= 10.0 * result.finished_at + 2
