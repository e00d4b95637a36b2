"""Stage reconnect backoff: full jitter, seeded per client, breaker skips.

The herd bug this pins: the original schedule was deterministic
exponential with a small multiplicative jitter, so after a mass eviction
every stage retried inside the same few-percent window at every rung.
Full jitter with a per-client RNG (seed salted by stage id) must give
two clients under the SAME seed policy disjoint retry instants.
"""

import asyncio

from repro.core.control_plane import default_policy
from repro.guard import CircuitBreaker
from repro.live.controller_server import LiveGlobalController
from repro.live.stage_client import LiveVirtualStage


def make_stage(stage_id, **kw):
    kw.setdefault("reconnect", False)
    return LiveVirtualStage(
        "127.0.0.1", 1, stage_id=stage_id, job_id="job", **kw
    )


class TestFullJitterBackoff:
    def test_same_seed_policy_distinct_instants(self):
        # Two clients built from one fleet-wide seed policy: their
        # retry delays must not coincide at ANY attempt (no herd).
        a = make_stage("stage-a", backoff_seed=42)
        b = make_stage("stage-b", backoff_seed=42)
        delays_a = [a._backoff_delay(k) for k in range(1, 31)]
        delays_b = [b._backoff_delay(k) for k in range(1, 31)]
        shared = sum(
            1 for da, db in zip(delays_a, delays_b) if abs(da - db) < 1e-6
        )
        assert shared == 0

    def test_same_seed_same_stage_reproducible(self):
        a1 = make_stage("stage-a", backoff_seed=7)
        a2 = make_stage("stage-a", backoff_seed=7)
        assert [a1._backoff_delay(k) for k in range(1, 11)] == [
            a2._backoff_delay(k) for k in range(1, 11)
        ]

    def test_delay_bounded_by_exponential_cap(self):
        s = make_stage("s", backoff_seed=1, backoff_base_s=0.05,
                       backoff_factor=2.0, backoff_max_s=2.0)
        for attempt in range(1, 40):
            cap = min(2.0, 0.05 * 2.0 ** (attempt - 1))
            d = s._backoff_delay(attempt)
            assert 0 < d <= cap

    def test_zero_jitter_recovers_deterministic_schedule(self):
        s = make_stage("s", backoff_jitter=0.0, backoff_base_s=0.1,
                       backoff_factor=2.0, backoff_max_s=10.0)
        assert s._backoff_delay(1) == 0.1
        assert s._backoff_delay(4) == 0.8


class TestClientBreaker:
    def test_breaker_off_by_default(self):
        s = make_stage("s")
        assert s._breaker_for(("127.0.0.1", 1)) is None
        assert s.breakers == {}

    def test_breaker_created_per_address(self):
        s = make_stage("s", breaker_failures=2)
        b1 = s._breaker_for(("h1", 1))
        b2 = s._breaker_for(("h2", 2))
        assert isinstance(b1, CircuitBreaker)
        assert b1 is not b2
        assert s._breaker_for(("h1", 1)) is b1

    def test_open_breaker_skips_connect_attempts(self):
        # Nothing listens on the target port: with breaker_failures=2
        # the stage stops dialing after two refusals and the loop's
        # remaining iterations are breaker skips, not socket connects.
        async def scenario():
            s = LiveVirtualStage(
                "127.0.0.1", 1, stage_id="s", job_id="j",
                reconnect=True, max_retries=6,
                backoff_base_s=0.005, backoff_max_s=0.01,
                breaker_failures=2, breaker_reset_s=30.0,
            )
            await asyncio.wait_for(s.run(), timeout=5.0)
            assert s.gave_up
            breaker = s.breakers[("127.0.0.1", 1)]
            assert breaker.state == CircuitBreaker.OPEN
            # 2 real failures tripped it; the rest were skipped.
            assert breaker.failures == 2
            assert s.breaker_skips >= 4

        asyncio.run(scenario())


class TestStopDuringConnect:
    def test_stop_while_the_connect_is_in_flight_ends_the_run(self):
        """A ``stop()`` that comes while the dial is still out has no
        session to end; the stage must not go on to register and serve
        until the controller shuts down."""

        async def scenario():
            ctrl = LiveGlobalController(default_policy(1), expected_stages=1)
            await ctrl.start()
            stage = LiveVirtualStage(ctrl.host, ctrl.port, stage_id="s", job_id="j")
            task = asyncio.create_task(stage.run())
            try:
                await asyncio.sleep(0)  # run() is inside its connect
                stage.stop()
                done, _ = await asyncio.wait([task], timeout=1.0)
                await asyncio.sleep(0.05)  # a hello would have landed by now
                return bool(done), len(ctrl.sessions), stage.connects
            finally:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
                await ctrl.shutdown()

        assert asyncio.run(scenario()) == (True, 0, 0)
