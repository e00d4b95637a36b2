"""The live plane's mechanism, pinned: callbacks and one barrier per phase.

Speed is the benchmark's business; these tests pin *how* the plane gets
it, so a later change cannot quietly bring back a task per session per
phase or a reader task per connection — and cover what the faster
teardown and the burst of registrations need from the listeners.
"""

import asyncio
import gc
import resource
import socket
import time

import pytest

from repro.core.control_plane import default_policy
from repro.live.aggregator_server import LiveAggregator
from repro.live.controller_server import LiveGlobalController
from repro.live.harness import LiveHierPlane
from repro.live.protocol import accept_backlog
from repro.live.sessions import StageSession
from repro.live.stage_client import LiveVirtualStage

#: Tasks a cycle may add to the loop while it waits (it adds none today;
#: before the barrier it added one per session per phase).
_TASK_SLACK = 2


def _spy_on_waits(stage: LiveVirtualStage, samples: dict) -> None:
    """Sample the loop's task count from inside the collect/enforce waits.

    A stage serves ``collect_req`` / ``rule`` while every controller above
    it is suspended on that phase's wait, so its frame handler is a
    vantage point inside the wait.
    """
    serve = stage._serve_frame

    def spying(record):
        samples.setdefault(record[0], []).append(len(asyncio.all_tasks()))
        serve(record)

    stage._serve_frame = spying


class TestNoTaskPerSessionPerPhase:
    def test_flat_cycle_adds_no_tasks_and_idle_plane_has_no_reader_tasks(self):
        n = 200

        async def scenario():
            ctrl = LiveGlobalController(default_policy(n), expected_stages=n)
            await ctrl.start()
            stages = [
                LiveVirtualStage(ctrl.host, ctrl.port, f"s-{i:03d}", f"j-{i:03d}")
                for i in range(n)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            try:
                await ctrl.wait_for_stages()
                await ctrl.run_cycles(1)
                idle = len(asyncio.all_tasks())
                samples: dict = {}
                _spy_on_waits(stages[n // 2], samples)
                before = len(asyncio.all_tasks())
                await ctrl.run_cycles(1)
                return idle, before, samples, ctrl.cycles[-1]
            finally:
                await ctrl.shutdown()
                for t in tasks:
                    t.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

        idle, before, samples, cycle = asyncio.run(scenario())
        assert cycle.n_missing == 0
        assert set(samples) == {"collect_req", "rule"}
        for kind, counts in samples.items():
            assert max(counts) - before <= _TASK_SLACK, (kind, counts, before)
        # Registered and idle: one task per stage client plus this test's
        # own — nothing per session on the controller side.
        assert idle <= n + 1 + _TASK_SLACK

    def test_hier_cycle_adds_no_tasks_and_aggregators_hold_no_reader_tasks(self):
        n, a = 200, 4

        async def scenario():
            plane = LiveHierPlane(n, a)
            await plane.start()
            try:
                await plane.wait_for_stages()
                await plane.run_cycles(1)
                idle = len(asyncio.all_tasks())
                samples: dict = {}
                _spy_on_waits(plane.stages[n // 2], samples)
                before = len(asyncio.all_tasks())
                await plane.run_cycles(1)
                return idle, before, samples, plane.controller.cycles[-1]
            finally:
                await plane.stop()

        idle, before, samples, cycle = asyncio.run(scenario())
        assert cycle.n_missing == 0
        assert set(samples) == {"collect_req", "rule"}
        for kind, counts in samples.items():
            assert max(counts) - before <= _TASK_SLACK, (kind, counts, before)
        # Stage clients + aggregator serve loops + this test.
        assert idle <= n + a + 1 + _TASK_SLACK


def _listening_sockets():
    found = []
    for obj in gc.get_objects():
        if isinstance(obj, socket.socket) and obj.fileno() != -1:
            if obj.getsockopt(socket.SOL_SOCKET, socket.SO_ACCEPTCONN):
                found.append(obj)
    return found


class TestTeardownLeavesNothingBehind:
    def test_repeated_start_stop_frees_aggregators_listeners_and_sessions(self):
        """``stop()`` used to cancel aggregator tasks in the middle of
        their own shutdown; one that never reached ``server.close()``
        left a listening socket behind, and through it the aggregator
        and all of its sessions — per rebuild, for good."""

        async def one_round():
            plane = LiveHierPlane(40, 4)
            await plane.start()
            await plane.wait_for_stages()
            await plane.run_cycles(2)
            await plane.stop()

        async def scenario():
            for _ in range(3):
                await one_round()
            await asyncio.sleep(0.05)  # closing transports finish up
            gc.collect()
            survivors = [
                type(obj).__name__
                for obj in gc.get_objects()
                if isinstance(obj, (LiveAggregator, StageSession))
            ]
            return survivors, len(_listening_sockets())

        survivors, listening = asyncio.run(scenario())
        assert survivors == []
        assert listening == 0

    def test_aggregator_cancelled_before_registering_closes_its_listener(self):
        async def scenario():
            agg = LiveAggregator("agg-0", "127.0.0.1", 1, expected_stages=3)
            await agg.start()
            task = asyncio.create_task(agg.run())
            await asyncio.sleep(0.01)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return bool(agg._server.sockets)

        assert asyncio.run(scenario()) is False


class TestRegistrationBurst:
    def test_backlog_follows_expected_children_within_somaxconn(self):
        with open("/proc/sys/net/core/somaxconn") as f:
            somaxconn = int(f.read())
        assert accept_backlog(0) == min(100, somaxconn)  # hot spare
        assert accept_backlog(600) == min(600, somaxconn)
        assert accept_backlog(10**9) == somaxconn

    def test_600_unpaced_stage_clients_register_within_two_seconds(self):
        """Every client connects in one loop iteration. With the default
        accept backlog of 100 the overflow (SYN cookies on) strands
        half-open registrations until TCP retransmits — seconds."""
        n = 600
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        need = 2 * n + 64
        if soft < need:
            if hard != resource.RLIM_INFINITY and hard < need:
                pytest.skip(f"needs {need} descriptors, hard limit is {hard}")
            resource.setrlimit(resource.RLIMIT_NOFILE, (need, hard))

        async def scenario():
            ctrl = LiveGlobalController(default_policy(n), expected_stages=n)
            await ctrl.start()
            stages = [
                LiveVirtualStage(ctrl.host, ctrl.port, f"s-{i:03d}", f"j-{i:03d}")
                for i in range(n)
            ]
            started = time.perf_counter()
            tasks = [asyncio.create_task(s.run()) for s in stages]
            try:
                await ctrl.wait_for_stages(timeout_s=20.0)
                took = time.perf_counter() - started
                await ctrl.run_cycles(1)
                return took, ctrl.cycles[-1], sum(s.connects for s in stages)
            finally:
                await ctrl.shutdown()
                for t in tasks:
                    t.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

        took, cycle, connects = asyncio.run(scenario())
        assert took < 2.0, f"registration burst took {took:.2f}s"
        assert connects == n  # nobody had to retry
        assert cycle.n_missing == 0
