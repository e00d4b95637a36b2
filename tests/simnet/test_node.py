"""Unit tests for SimHost CPU/memory/NIC accounting."""

import pytest

from repro.simnet.engine import Environment
from repro.simnet.node import SimHost


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def host(env):
    return SimHost(env, "n0", cores=4, memory_bytes=1024)


class TestExecute:
    def test_execute_advances_time_and_busy(self, env, host):
        def proc(env, host):
            yield host.execute(0.5)
            return env.now

        p = env.process(proc(env, host))
        env.run()
        assert p.value == 0.5
        assert host.busy_seconds == pytest.approx(0.5)

    def test_parallel_execute_up_to_cores(self, env, host):
        done = []

        def proc(env, host):
            yield host.execute(1.0)
            done.append(env.now)

        for _ in range(4):
            env.process(proc(env, host))
        env.run()
        assert done == [1.0] * 4  # 4 cores, all parallel

    def test_oversubscription_serializes(self, env, host):
        done = []

        def proc(env, host):
            yield host.execute(1.0)
            done.append(env.now)

        for _ in range(5):
            env.process(proc(env, host))
        env.run()
        assert sorted(done) == [1.0, 1.0, 1.0, 1.0, 2.0]

    def test_multicore_execute(self, env, host):
        def proc(env, host):
            yield host.execute(1.0, cores=4)

        env.process(proc(env, host))
        env.run()
        assert host.busy_seconds == pytest.approx(4.0)

    def test_negative_work_rejected(self, env, host):
        with pytest.raises(ValueError):
            host.execute(-1.0)

    def test_charge_without_delay(self, env, host):
        host.charge(2.5)
        assert env.now == 0.0
        assert host.busy_seconds == 2.5

    def test_charge_negative_rejected(self, env, host):
        with pytest.raises(ValueError):
            host.charge(-0.1)


class TestMemory:
    def test_allocate_and_free(self, host):
        host.allocate(512)
        host.allocate(128)
        assert host.resident_bytes == 640
        assert host.peak_resident_bytes == 640

    def test_over_allocation_raises(self, host):
        with pytest.raises(MemoryError):
            host.allocate(2048)

    def test_negative_amounts_rejected(self, host):
        with pytest.raises(ValueError):
            host.allocate(-1)
        assert host.resident_bytes == 0


class TestUtilisation:
    def test_utilisation_normalised_by_cores(self, env, host):
        host.charge(2.0)  # 2 core-seconds
        # over 1 second on 4 cores -> 50%
        assert host.utilisation(elapsed=1.0) == pytest.approx(50.0)

    def test_utilisation_window_baseline(self, env, host):
        host.charge(1.0)
        baseline = host.busy_seconds
        host.charge(2.0)
        assert host.utilisation(elapsed=1.0, since_busy=baseline) == pytest.approx(50.0)

    def test_zero_elapsed_is_zero(self, host):
        assert host.utilisation(elapsed=0.0) == 0.0

    def test_frontera_defaults(self, env):
        h = SimHost(env, "frontera-node")
        assert h.cores == 56
        assert h.memory_capacity == 192 * 2**30
