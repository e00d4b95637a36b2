"""Unit tests for job processes and churn scheduling."""

import pytest

from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane
from repro.dataplane.interceptor import IOInterceptor
from repro.dataplane.stage import DataPlaneStage
from repro.jobs.job import Job, JobPhase, JobResult, run_job
from repro.jobs.scheduler import JobScheduler
from repro.jobs.workloads import source_factory
from repro.simnet.engine import Environment
from repro.simnet.rng import RandomStreams
from repro.simnet.transport import Network


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


class TestJobScheduler:
    def _build(self, env, arrival=50.0, lifetime=0.1, max_stages=100):
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=2), env=env)
        stage_host = plane.stage_hosts[0]
        ctrl = plane.global_controller
        scheduler = JobScheduler(
            env,
            plane.cluster,
            ctrl,
            ctrl.endpoint,
            stage_host,
            RandomStreams(0),
            source_factory("stress", seed=0),
            arrival_rate_per_s=arrival,
            mean_lifetime_s=lifetime,
            max_stages=max_stages,
        )
        return plane, scheduler

    def test_arrivals_and_departures_recorded(self, env):
        plane, scheduler = self._build(env)
        proc = scheduler.start(duration_s=1.0)
        env.run(until=2.0)
        arrivals = [e for e in scheduler.events if e.action == "arrive"]
        departures = [e for e in scheduler.events if e.action == "depart"]
        assert len(arrivals) > 10
        assert len(departures) > 5
        assert len(departures) <= len(arrivals)

    def test_registry_consistent_with_events(self, env):
        plane, scheduler = self._build(env)
        scheduler.start(duration_s=1.0)
        env.run(until=3.0)
        ctrl = plane.global_controller
        arrivals = sum(1 for e in scheduler.events if e.action == "arrive")
        departures = sum(1 for e in scheduler.events if e.action == "depart")
        # initial 2 static stages + net churn
        assert ctrl.n_stages == 2 + arrivals - departures

    def test_max_stages_cap(self, env):
        plane, scheduler = self._build(env, arrival=500.0, lifetime=10.0, max_stages=20)
        scheduler.start(duration_s=0.5)
        env.run(until=0.6)
        assert len(scheduler.active) <= 20
        assert scheduler.rejected_arrivals > 0

    def test_control_cycles_run_during_churn(self, env):
        plane, scheduler = self._build(env, arrival=100.0, lifetime=0.05)
        scheduler.start(duration_s=0.5)
        # Pace cycles across the churn window (back-to-back stress cycles
        # at 2 stages would all finish before the first arrival).
        proc = plane.global_controller.run_for(duration_s=0.6, period_s=0.02)
        env.run(proc)
        ctrl = plane.global_controller
        assert len(ctrl.cycles) >= 25
        # Stage counts varied across cycles as jobs came and went.
        counts = {c.n_stages for c in ctrl.cycles}
        assert len(counts) > 1

    def test_validation(self, env):
        plane, _ = self._build(env)
        with pytest.raises(ValueError):
            JobScheduler(
                env,
                plane.cluster,
                plane.global_controller,
                plane.global_controller.endpoint,
                plane.stage_hosts[0],
                RandomStreams(0),
                source_factory("stress"),
                arrival_rate_per_s=0.0,
            )


class TestRemovalMidCycle:
    """A stage removed while a flat cycle is in flight costs that cycle
    its message, never the run: what is in flight on the closed
    connection is dropped at delivery, and a phase waiting on the
    departed stage counts it missing instead of waiting for it."""

    def _plane(self, env, n_stages=3):
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=n_stages), env=env)
        return plane, plane.global_controller

    def _remove_when_sent(self, ctrl, stage_id, kind, monkeypatch):
        """Remove ``stage_id`` at the instant ``kind`` leaves for it (a
        controller's fan-out is one ``Network.send_many`` per chunk)."""
        real = Network.send_many

        def send_many(self, links, sent_kind, *args, **kwargs):
            real(self, links, sent_kind, *args, **kwargs)
            if sent_kind == kind and any(
                conn.peer_of(sender).name.endswith(f"/{stage_id}")
                for conn, sender in links
            ):
                ctrl.env.call_at(ctrl.env.now, lambda: ctrl.remove_stage(stage_id))

        monkeypatch.setattr(Network, "send_many", send_many)

    def test_removal_during_the_send_burst(self, env):
        plane, ctrl = self._plane(env)
        gone = plane.stages[1]
        # The collect burst starts at t=0 and charges every live channel.
        burst = 3 * ctrl.costs.tx_request_s
        env.call_at(burst / 2, lambda: ctrl.remove_stage(gone.stage_id))
        env.run(ctrl.run_cycles(1))
        assert gone.requests_served == 0
        (cycle,) = ctrl.cycles
        assert (cycle.n_stages, cycle.n_missing) == (2, 0)

    @pytest.mark.parametrize("kind", ["collect_req", "rule"])
    def test_removal_with_a_request_in_flight(self, env, kind, monkeypatch):
        plane, ctrl = self._plane(env)
        gone = plane.stages[1]
        self._remove_when_sent(ctrl, gone.stage_id, kind, monkeypatch)
        env.run(ctrl.run_cycles(2))
        # Dropped at delivery: the stage never saw it, so never replied.
        assert gone.requests_served == (0 if kind == "collect_req" else 1)
        assert gone.rules_applied == 0
        first, second = ctrl.cycles
        assert first.n_missing == 1 and not first.timed_out
        assert (second.n_stages, second.n_missing) == (2, 0)
        assert ctrl.lost_replies == 1

    def test_removal_wakes_a_phase_blocked_on_the_stage(self, env):
        plane, ctrl = self._plane(env)
        silent = plane.stages[2]
        silent.endpoint.set_handler(lambda message, connection: None)
        env.call_at(0.05, lambda: ctrl.remove_stage(silent.stage_id))
        env.run(ctrl.run_cycles(1))
        (cycle,) = ctrl.cycles
        assert env.now >= 0.05
        assert (cycle.n_stages, cycle.n_missing) == (2, 1)

    def test_scheduler_churn_under_back_to_back_cycles(self):
        for seed in range(20):
            env = Environment()
            plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=2), env=env)
            ctrl = plane.global_controller
            scheduler = JobScheduler(
                env,
                plane.cluster,
                ctrl,
                ctrl.endpoint,
                plane.stage_hosts[0],
                RandomStreams(seed),
                source_factory("stress", seed=seed),
                arrival_rate_per_s=200.0,
                mean_lifetime_s=0.05,
            )
            scheduler.start(duration_s=1.0)
            env.run(ctrl.run_cycles(200))
            assert len(ctrl.cycles) == 200, seed
            departed = sum(e.action == "depart" for e in scheduler.events)
            assert departed > 0, seed
            # Every departure released its connection slot.
            pool = plane.cluster.network.pool_of(ctrl.host)
            assert pool.open_connections == 2 + len(scheduler.active), seed
