"""Unit tests for Resource / PriorityResource / Store."""

import pytest

from repro.simnet.engine import Environment, SimulationError
from repro.simnet.resources import PriorityResource, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity_immediately(self, env):
        res = Resource(env, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        r3 = res.request()
        assert not r3.triggered
        assert res.in_use == 2
        assert res.queue_length == 1

    def test_release_grants_fifo(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        third = res.request()
        res.release(first)
        assert second.triggered and not third.triggered
        res.release(second)
        assert third.triggered

    def test_release_unheld_raises(self, env):
        res = Resource(env, capacity=1)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        queued = res.request()
        queued.cancel()
        res.release(held)
        assert not queued.triggered
        assert res.in_use == 0

    def test_context_manager_releases(self, env):
        res = Resource(env, capacity=1)

        def proc(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)
            # released on exit
            return res.in_use

        p = env.process(proc(env, res))
        env.run()
        assert p.value == 0

    def test_serializes_work(self, env):
        """Two jobs on a 1-slot resource run back to back."""
        res = Resource(env, capacity=1)
        finish = []

        def job(env, res, d):
            req = res.request()
            yield req
            yield env.timeout(d)
            res.release(req)
            finish.append(env.now)

        env.process(job(env, res, 1.0))
        env.process(job(env, res, 1.0))
        env.run()
        assert finish == [1.0, 2.0]


class TestPriorityResource:
    def test_priority_order_beats_fifo(self, env):
        res = PriorityResource(env, capacity=1)
        held = res.request(priority=0)
        low = res.request(priority=5)
        high = res.request(priority=1)
        res.release(held)
        assert high.triggered and not low.triggered

    def test_fifo_within_same_priority(self, env):
        res = PriorityResource(env, capacity=1)
        held = res.request()
        a = res.request(priority=3)
        b = res.request(priority=3)
        res.release(held)
        assert a.triggered and not b.triggered


class TestStore:
    def test_put_then_get(self, env):
        s = Store(env)
        s.put("x")
        got = s.get()
        assert got.triggered and got.value == "x"

    def test_get_blocks_until_put(self, env):
        s = Store(env)
        got = s.get()
        assert not got.triggered
        s.put("later")
        assert got.triggered and got.value == "later"

    def test_fifo_order(self, env):
        s = Store(env)
        for i in range(5):
            s.put(i)
        values = [s.get().value for _ in range(5)]
        assert values == [0, 1, 2, 3, 4]

    def test_overflow_raises(self, env):
        s = Store(env, capacity=1)
        s.put(1)
        with pytest.raises(SimulationError):
            s.put(2)

    def test_drain_returns_all(self, env):
        s = Store(env)
        for i in range(3):
            s.put(i)
        assert s.drain() == [0, 1, 2]
        assert len(s) == 0

    def test_cancel_pending_get(self, env):
        s = Store(env)
        got = s.get()
        got.cancel()
        s.put("orphan")
        assert not got.triggered
        assert s.items == ["orphan"]

    def test_cancel_after_satisfied_is_noop(self, env):
        s = Store(env)
        s.put(1)
        got = s.get()
        got.cancel()
        assert got.triggered and got.value == 1
