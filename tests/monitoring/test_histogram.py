"""Tests for the log-bucketed latency histogram."""

import pytest

from repro.monitoring.histogram import LatencyHistogram


class TestRecording:
    def test_counts_and_mean(self):
        h = LatencyHistogram()
        for v in (0.001, 0.002, 0.003):
            h.record(v)
        assert h.total == 3
        assert h.mean == pytest.approx(0.002)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1.0)

    def test_under_and_overflow_clamped(self):
        h = LatencyHistogram(min_value_s=1e-3, max_value_s=1.0)
        h.record(1e-9)
        h.record(100.0)
        assert h.underflow == 1 and h.overflow == 1
        assert h.total == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_value_s=0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_value_s=1.0, max_value_s=0.5)
        with pytest.raises(ValueError):
            LatencyHistogram(buckets_per_decade=0)


class TestBuckets:
    def test_nonzero_buckets(self):
        h = LatencyHistogram()
        h.record(0.001)
        h.record(0.001)
        buckets = h.nonzero_buckets()
        assert len(buckets) == 1 and buckets[0][1] == 2


class TestInterceptorIntegration:
    def test_interceptor_records_latencies(self):
        from repro.dataplane.interceptor import IOInterceptor
        from repro.dataplane.stage import DataPlaneStage
        from repro.simnet.engine import Environment

        env = Environment()
        stage = DataPlaneStage(env, "s", "j", initial_data_limit=10.0, burst_seconds=0.1)
        io = IOInterceptor(env, stage)

        def proc(env, io):
            for _ in range(20):
                yield from io.read(1)

        env.process(proc(env, io))
        env.run()
        assert io.latency.total == 20
        # Throttled at 10/s: the slowest ops waited about the 0.1 s
        # inter-token gap.
        assert io.latency.nonzero_buckets()[-1][0] >= 0.05
