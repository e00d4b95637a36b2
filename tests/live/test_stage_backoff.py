"""Stage reconnect backoff: full jitter from the module RNG.

The herd bug this pins: the original schedule was deterministic
exponential with a small multiplicative jitter, so after a mass eviction
every stage retried inside the same few-percent window at every rung.
Full jitter must give two stages in one process disjoint retry instants.
"""

import asyncio
import random

from repro.core.control_plane import default_policy
from repro.live.controller_server import LiveGlobalController
from repro.live.stage_client import LiveVirtualStage


def make_stage(stage_id, **kw):
    kw.setdefault("reconnect", False)
    return LiveVirtualStage(
        "127.0.0.1", 1, stage_id=stage_id, job_id="job", **kw
    )


class TestFullJitterBackoff:
    def test_same_seed_policy_distinct_instants(self):
        # Two stages of one process draw from the one module RNG: their
        # retry delays must not coincide at ANY attempt (no herd).
        random.seed(42)
        a = make_stage("stage-a")
        b = make_stage("stage-b")
        delays = [(a._backoff_delay(k), b._backoff_delay(k)) for k in range(1, 31)]
        shared = sum(1 for da, db in delays if abs(da - db) < 1e-6)
        assert shared == 0

    def test_same_seed_same_stage_reproducible(self):
        random.seed(7)
        first = [make_stage("stage-a")._backoff_delay(k) for k in range(1, 11)]
        random.seed(7)
        assert [make_stage("stage-a")._backoff_delay(k) for k in range(1, 11)] == first

    def test_delay_bounded_by_exponential_cap(self):
        random.seed(1)
        s = make_stage("s", backoff_base_s=0.05, backoff_factor=2.0, backoff_max_s=2.0)
        for attempt in range(1, 40):
            cap = min(2.0, 0.05 * 2.0 ** (attempt - 1))
            d = s._backoff_delay(attempt)
            assert 0 < d <= cap


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
