"""Unit tests for host sampling (monitor)."""

import pytest

from repro.simnet.engine import Environment
from repro.simnet.monitor import HostSampler
from repro.simnet.node import SimHost


@pytest.fixture
def env():
    return Environment()


class TestHostSampler:
    def test_samples_at_interval(self, env):
        host = SimHost(env, "n0", cores=2)
        sampler = HostSampler(env, [host], interval=1.0)
        sampler.start()
        env.run(until=3.5)
        sampler.stop()
        series = sampler.series[host.name]
        # 3 periodic samples + final on stop
        assert len(series) == 4

    def test_cpu_percent_from_busy_delta(self, env):
        host = SimHost(env, "n0", cores=2)
        sampler = HostSampler(env, [host], interval=1.0)

        def work(env, host):
            yield host.execute(0.5)  # 0.5 core-seconds in first second

        env.process(work(env, host))
        sampler.start()
        env.run(until=1.0)  # the t=1.0 tick is processed at the horizon
        sampler.stop()
        first = sampler.series[host.name].samples[0]
        assert first.cpu_percent == pytest.approx(25.0)  # 0.5 / (1s*2 cores)

    def test_nic_rates(self, env):
        host = SimHost(env, "n0")
        sampler = HostSampler(env, [host], interval=1.0)
        sampler.start()
        env.call_at(0.5, lambda: host.nic.record_tx(1_000_000))
        env.run(until=1.0)
        sampler.stop()
        first = sampler.series[host.name].samples[0]
        assert first.tx_bytes_per_s == pytest.approx(1_000_000)

    def test_series_mean_with_warmup(self, env):
        host = SimHost(env, "n0")
        sampler = HostSampler(env, [host], interval=1.0)
        sampler.start()
        env.call_at(1.5, lambda: host.charge(56.0))  # 100% in second window
        env.run(until=2.0)
        sampler.stop()
        series = sampler.series[host.name]
        assert series.mean("cpu_percent", warmup_samples=1) > series.mean(
            "cpu_percent", warmup_samples=0
        )

    def test_double_start_rejected(self, env):
        sampler = HostSampler(env, [SimHost(env, "n0")], interval=1.0)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()

    def test_invalid_interval(self, env):
        with pytest.raises(ValueError):
            HostSampler(env, [], interval=0)

    def test_empty_series_summaries(self, env):
        host = SimHost(env, "n0")
        sampler = HostSampler(env, [host], interval=1.0)
        series = sampler.series[host.name]
        assert series.mean("cpu_percent") == 0.0
        assert series.maximum("cpu_percent") == 0.0
