"""Live control-plane failure tests: kill, stall, flaky sockets, reconnect.

The live counterpart of ``tests/core`` failure coverage: every scenario
runs over real localhost TCP sockets and asserts the controller keeps
cycling (degraded, not stalled) while stages die, stall, and come back.
"""

import asyncio

import pytest

from repro.core.control_plane import default_policy
from repro.live.controller_server import LiveGlobalController, LiveHierGlobalController
from repro.live.faults import (
    LiveFaultLog,
    flaky_socket,
    kill_stage,
    stall_stage,
)
from repro.live.harness import run_live_flat, run_live_hierarchical
from repro.live.protocol import read_message, write_message
from repro.live.stage_client import LiveVirtualStage

#: Fast backoff so reconnect tests finish quickly.
_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)


async def _cluster(n_stages, **ctrl_kwargs):
    """Controller + registered stages + their serve tasks."""
    ctrl = LiveGlobalController(
        default_policy(n_stages), expected_stages=n_stages, **ctrl_kwargs
    )
    await ctrl.start()
    stages = [
        LiveVirtualStage(
            ctrl.host,
            ctrl.port,
            stage_id=f"s-{i:03d}",
            job_id=f"j-{i:03d}",
            **_BACKOFF,
        )
        for i in range(n_stages)
    ]
    tasks = [asyncio.create_task(s.run()) for s in stages]
    await ctrl.wait_for_stages(timeout_s=10.0)
    return ctrl, stages, tasks


async def _teardown(ctrl, tasks):
    await ctrl.shutdown()
    for t in tasks:
        t.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


class TestKillAndEviction:
    def test_kill_mid_run_completes_within_deadline(self):
        """A killed stage yields a degraded cycle, not a stall."""

        async def scenario():
            ctrl, stages, tasks = await _cluster(6, collect_timeout_s=0.5)
            try:
                await ctrl.run_cycles(2)
                kill_stage(stages[1], restart=False)
                cycles = await asyncio.wait_for(ctrl.run_cycles(3), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, list(cycles)

        ctrl, cycles = asyncio.run(scenario())
        assert len(cycles) == 5  # every requested cycle completed
        degraded = [c for c in cycles if c.n_missing > 0]
        assert degraded and degraded[0].n_missing == 1
        # The degraded collect stayed within the deadline (plus slack).
        assert degraded[0].collect_s < 0.5 + 0.3
        assert ctrl.evictions == 1
        assert cycles[-1].n_stages == 5  # survivors only

    def test_disconnect_without_timeout_does_not_hang(self):
        """Seed behaviour change: EOF evicts instead of poisoning gather."""

        async def scenario():
            ctrl, stages, tasks = await _cluster(4)  # no timeouts at all
            try:
                await ctrl.run_cycles(1)
                kill_stage(stages[0], restart=False)
                cycles = await asyncio.wait_for(ctrl.run_cycles(2), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, list(cycles)

        ctrl, cycles = asyncio.run(scenario())
        assert len(cycles) == 3
        assert ctrl.evictions == 1
        assert cycles[1].n_missing == 1  # the cycle that saw the death
        assert cycles[-1].n_missing == 0  # survivors are healthy
        assert cycles[-1].n_stages == 3

    def test_acceptance_kill_two_of_n_then_recover(self):
        """ISSUE acceptance: kill 2 of N mid-run; all cycles complete,
        degraded cycles report the damage, restarts re-register and are
        picked up by subsequent cycles."""

        async def scenario():
            ctrl, stages, tasks = await _cluster(8, collect_timeout_s=0.3)
            try:
                await ctrl.run_cycles(2)
                kill_stage(stages[1])  # restart=True: reconnect loop armed
                kill_stage(stages[5])
                await asyncio.wait_for(ctrl.run_cycles(2), timeout=10.0)
                recovered = None
                for _ in range(60):
                    await asyncio.sleep(0.05)
                    cycles = await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                    last = cycles[-1]
                    if last.n_stages == 8 and last.n_missing == 0:
                        recovered = last
                        break
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, stages, list(ctrl.cycles), recovered

        ctrl, stages, cycles, recovered = asyncio.run(scenario())
        assert recovered is not None, "killed stages never re-registered"
        degraded = [c for c in cycles if c.n_missing > 0]
        assert degraded and max(c.n_missing for c in degraded) >= 1
        assert ctrl.evictions >= 2
        assert stages[1].reconnects >= 1
        assert stages[5].reconnects >= 1
        # Untouched stages never reconnected.
        assert stages[0].reconnects == 0

    def test_flaky_socket_evicts_then_recovers(self):
        async def scenario():
            ctrl, stages, tasks = await _cluster(3, collect_timeout_s=0.3)
            try:
                await ctrl.run_cycles(1)
                log = flaky_socket(stages[1], fail_after_writes=1)
                await asyncio.wait_for(ctrl.run_cycles(2), timeout=10.0)
                await asyncio.sleep(0.2)  # let the reconnect land
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, stages, log

        ctrl, stages, log = asyncio.run(scenario())
        assert log.events[0].action == "flaky"
        assert ctrl.evictions >= 1
        assert stages[1].reconnects >= 1
        assert sum(c.n_missing for c in ctrl.cycles) >= 1


class TestStallAndStaleDrain:
    def test_stalled_stage_rides_at_last_known_demand(self):
        async def scenario():
            ctrl, stages, tasks = await _cluster(4, collect_timeout_s=0.15)
            try:
                await ctrl.run_cycles(2)
                stages[2].pause()
                stalled = await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                stalled_cycle = stalled[-1]
                stages[2].resume()
                await asyncio.sleep(0.1)  # backlog flushes: stale replies land
                await asyncio.wait_for(ctrl.run_cycles(2), timeout=10.0)
            finally:
                stale = ctrl.stale_messages
                demand = sum(ctrl.columns.axes("s-002"))
                await _teardown(ctrl, tasks)
            return ctrl, stalled_cycle, stale, demand

        ctrl, stalled_cycle, stale, demand = asyncio.run(scenario())
        assert stalled_cycle.n_missing == 1
        assert stalled_cycle.timed_out
        # Last-known demand (from healthy cycles) was used, not zero.
        assert demand == pytest.approx(1200.0)
        # Late replies for the stalled epoch were drained, not mistaken
        # for fresh metrics — and the run kept cycling throughout.
        assert stale >= 1
        assert ctrl.cycles[-1].n_missing == 0
        assert len(ctrl.cycles) == 5

    def test_stall_stage_helper_records_and_recovers(self):
        async def scenario():
            ctrl, stages, tasks = await _cluster(3, collect_timeout_s=0.1)
            try:
                await ctrl.run_cycles(1)
                fault = asyncio.create_task(stall_stage(stages[0], 0.25))
                await asyncio.sleep(0.02)
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                log = await fault
                await asyncio.sleep(0.05)
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, log

        ctrl, log = asyncio.run(scenario())
        assert [e.action for e in log.events] == ["stall", "resume"]
        assert any(c.timed_out for c in ctrl.cycles)
        assert ctrl.cycles[-1].n_missing == 0


class TestRegistration:
    def test_duplicate_stage_id_rejected(self):
        async def scenario():
            ctrl, stages, tasks = await _cluster(3)
            try:
                reader, writer = await asyncio.open_connection(ctrl.host, ctrl.port)
                await write_message(
                    writer,
                    {"kind": "register", "stage_id": "s-000", "job_id": "j-zzz"},
                )
                reply = await read_message(reader)
                eof = await reader.read()
                writer.close()
                n_sessions = len(ctrl.sessions)
                rejected = ctrl.registrations_rejected
                # The original session keeps working.
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return reply, eof, n_sessions, rejected, ctrl

        reply, eof, n_sessions, rejected, ctrl = asyncio.run(scenario())
        assert reply["kind"] == "register_error"
        assert "already registered" in reply["reason"]
        assert eof == b""  # connection closed after the error reply
        assert n_sessions == 3
        assert rejected == 1
        assert ctrl.cycles[-1].n_missing == 0

    def test_malformed_register_rejected_not_crashed(self):
        async def scenario():
            ctrl, stages, tasks = await _cluster(2)
            try:
                reader, writer = await asyncio.open_connection(ctrl.host, ctrl.port)
                await write_message(writer, {"kind": "register", "job_id": "j-x"})
                reply = await read_message(reader)
                eof = await reader.read()
                writer.close()
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return reply, eof, ctrl

        reply, eof, ctrl = asyncio.run(scenario())
        assert reply["kind"] == "register_error"
        assert eof == b""
        assert ctrl.registrations_rejected == 1
        assert len(ctrl.cycles) == 1

    def test_hier_malformed_and_duplicate_registration_rejected(self):
        async def scenario():
            ctrl = LiveHierGlobalController(
                default_policy(4), expected_aggregators=2
            )
            await ctrl.start()
            try:
                # Mismatched id lists.
                reader, writer = await asyncio.open_connection(ctrl.host, ctrl.port)
                await write_message(
                    writer,
                    {
                        "kind": "register_aggregator",
                        "aggregator_id": "agg-0",
                        "stage_ids": ["a", "b"],
                        "job_ids": ["j"],
                    },
                )
                bad_lengths = await read_message(reader)
                writer.close()
                # A valid registration, then a duplicate of it.
                reader, writer = await asyncio.open_connection(ctrl.host, ctrl.port)
                await write_message(
                    writer,
                    {
                        "kind": "register_aggregator",
                        "aggregator_id": "agg-0",
                        "stage_ids": ["a"],
                        "job_ids": ["j"],
                    },
                )
                ok = await read_message(reader)
                reader2, writer2 = await asyncio.open_connection(ctrl.host, ctrl.port)
                await write_message(
                    writer2,
                    {
                        "kind": "register_aggregator",
                        "aggregator_id": "agg-0",
                        "stage_ids": ["a"],
                        "job_ids": ["j"],
                    },
                )
                duplicate = await read_message(reader2)
                writer2.close()
                writer.close()
            finally:
                await ctrl.shutdown()
            return bad_lengths, ok, duplicate, ctrl.registrations_rejected

        bad_lengths, ok, duplicate, rejected = asyncio.run(scenario())
        assert bad_lengths["kind"] == "register_error"
        assert ok["kind"] == "registered"
        assert duplicate["kind"] == "register_error"
        assert rejected == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LiveGlobalController(default_policy(2), 2, collect_timeout_s=0.0)
        with pytest.raises(ValueError):
            LiveGlobalController(default_policy(2), 2, enforce_timeout_s=-1.0)
        with pytest.raises(ValueError):
            LiveVirtualStage("h", 1, "s", "j", backoff_base_s=0.0)
        with pytest.raises(ValueError):
            LiveVirtualStage("h", 1, "s", "j", backoff_factor=0.5)
        with pytest.raises(ValueError):
            LiveVirtualStage("h", 1, "s", "j", backoff_jitter=-0.1)


class TestShutdownPath:
    def test_shutdown_frames_reach_stages(self):
        """Stages exit via the protocol path, not EOF — with reconnect
        enabled, a dropped shutdown frame would strand them in the
        backoff loop forever."""

        async def scenario():
            ctrl, stages, tasks = await _cluster(3)
            await ctrl.run_cycles(1)
            await ctrl.shutdown()
            done, pending = await asyncio.wait(tasks, timeout=5.0)
            for t in pending:
                t.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            return stages, len(pending)

        stages, n_pending = asyncio.run(scenario())
        assert n_pending == 0
        assert all(s._stop.is_set() for s in stages)


class TestHarnessThreading:
    def test_flat_run_with_timeouts_is_healthy(self):
        result = run_live_flat(n_stages=8, n_cycles=4, collect_timeout_s=5.0)
        assert result.degraded_cycles == 0
        assert result.missing_total == 0
        assert result.evictions == 0
        assert result.reconnects == 0
        assert result.stats().summary()["degraded_cycles"] == 0.0

    def test_hier_run_with_timeouts_is_healthy(self):
        result = run_live_hierarchical(
            n_stages=8, n_aggregators=2, n_cycles=4, collect_timeout_s=5.0
        )
        assert result.degraded_cycles == 0
        assert result.rules_applied_total == 8 * 4
