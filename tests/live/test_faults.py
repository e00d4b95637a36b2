"""Live control-plane failure tests: kill, stall, flaky sockets, reconnect.

The live counterpart of ``tests/core`` failure coverage: every scenario
runs over real localhost TCP sockets and asserts the controller keeps
cycling (degraded, not stalled) while stages die, stall, and come back.
"""

import asyncio
import json
import struct

import pytest

from repro.core.control_plane import default_policy
from repro.core.failover import StandbyRule
from repro.live.aggregator_server import LiveAggregator
from repro.live.codec import pack_rows
from repro.live.controller_server import (
    InProcessGlobalController,
    LiveGlobalController,
    LiveHierGlobalController,
)
from repro.live.faults import flaky_socket, stall
from repro.live.harness import run_live
from tests.live.raw_peer import read_message, write_message
from repro.live.stage_client import LiveVirtualStage

#: Fast backoff so reconnect tests finish quickly.
_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)


async def _cluster(n_stages, cls=LiveGlobalController, **ctrl_kwargs):
    """Controller + registered stages + their serve tasks. A case that
    reads the controller's internals builds it in-process (``cls``)."""
    ctrl = cls(
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


async def _send_hello(listener, hello):
    """One connection, one hello: the reply (None on bare EOF) and
    whatever the listener sent before closing after it."""
    reader, writer = await asyncio.open_connection(listener.host, listener.port)
    await write_message(writer, hello)
    try:
        reply = await asyncio.wait_for(read_message(reader), timeout=5.0)
    except asyncio.IncompleteReadError:
        reply = None
    rest = await asyncio.wait_for(reader.read(), timeout=5.0)
    writer.close()
    return reply, rest


def _catch_loop_errors():
    """Collect what would otherwise reach asyncio's default exception
    handler (e.g. "Fatal error: protocol.buffer_updated() call failed")."""
    errors = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: errors.append(context)
    )
    return errors


def _assert_all_rejected(hellos, replies):
    """Each hello got a ``register_error`` and then a closed connection."""
    for hello, (reply, rest) in zip(hellos, replies):
        assert reply is not None and reply["kind"] == "register_error", hello
        assert rest == b"", hello


class TestKillAndEviction:
    def test_kill_mid_run_completes_within_deadline(self):
        """A killed stage yields a degraded cycle, not a stall."""

        async def scenario():
            ctrl, stages, tasks = await _cluster(6, collect_timeout_s=0.5)
            try:
                await ctrl.run_cycles(2)
                stages[1].reconnect = False
                stages[1].kill()
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
                stages[0].reconnect = False
                stages[0].kill()
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
                stages[1].kill()  # the reconnect loop stays armed
                stages[5].kill()
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
                flaky_socket(stages[1], fail_after_writes=1)
                await asyncio.wait_for(ctrl.run_cycles(2), timeout=10.0)
                await asyncio.sleep(0.2)  # let the reconnect land
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, stages

        ctrl, stages = asyncio.run(scenario())
        assert ctrl.evictions >= 1
        assert stages[1].reconnects >= 1
        assert sum(c.n_missing for c in ctrl.cycles) >= 1


class TestStallAndStaleDrain:
    def test_stalled_stage_rides_at_last_known_demand(self):
        async def scenario():
            ctrl, stages, tasks = await _cluster(
                4, InProcessGlobalController, collect_timeout_s=0.15
            )
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

    def test_timed_stall_degrades_then_recovers(self):
        """A stage paused for 0.25 s under the forked controller costs one
        deadline, then answers again once resumed."""

        async def scenario():
            ctrl, stages, tasks = await _cluster(3, collect_timeout_s=0.1)
            try:
                await ctrl.run_cycles(1)
                fault = asyncio.create_task(stall(stages[0], 0.25))
                await asyncio.sleep(0.02)
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
                await fault
                await asyncio.sleep(0.05)
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl

        ctrl = asyncio.run(scenario())
        assert any(c.timed_out for c in ctrl.cycles)
        assert ctrl.cycles[-1].n_missing == 0


class TestRegistration:
    def test_duplicate_stage_id_rejected(self):
        async def scenario():
            ctrl, stages, tasks = await _cluster(3, InProcessGlobalController)
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

    def test_hello_of_another_kind_is_shown_out(self):
        """An aggregator's hello at a stage-facing listener: no session,
        no reply, the connection closed, the stages still served."""

        async def scenario():
            ctrl, stages, tasks = await _cluster(2)
            errors = _catch_loop_errors()
            try:
                reply, rest = await _send_hello(
                    ctrl, {"kind": "register_aggregator", "aggregator_id": "a-0"}
                )
                n_sessions = len(ctrl.sessions)
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return reply, rest, n_sessions, errors, ctrl

        reply, rest, n_sessions, errors, ctrl = asyncio.run(scenario())
        assert (reply, rest) == (None, b"")
        assert n_sessions == 2
        assert errors == []
        assert ctrl.cycles[-1].n_missing == 0

    def test_malformed_register_rejected_not_crashed(self):
        bad_hellos = [
            {"kind": "register", "job_id": "j-x"},
            # Present but of the wrong type: must be rejected like a
            # missing field, not raised out of the read callback.
            {"kind": "register", "stage_id": 7, "job_id": "j-x"},
            {"kind": "register", "stage_id": ["x"], "job_id": "j-x"},
            {"kind": "register", "stage_id": "s-x", "job_id": {"j": 1}},
            # Ids a packed frame's 64 KiB string prefix cannot carry.
            {"kind": "register", "stage_id": "s" * 0x10000, "job_id": "j-x"},
            {"kind": "register", "stage_id": "s-x", "job_id": "☃" * 21846},
            {"kind": "register", "stage_id": "s-\ud800", "job_id": "j-x"},
        ]

        async def scenario():
            loop_errors = _catch_loop_errors()
            ctrl, stages, tasks = await _cluster(2, InProcessGlobalController)
            try:
                replies = [await _send_hello(ctrl, hello) for hello in bad_hellos]
                # A heartbeat stream with a garbage beat in it, to a
                # controller standing by: the beat is ignored, the
                # stream lives on.
                ctrl.watch = StandbyRule(0.05, 3)
                reader, writer = await asyncio.open_connection(ctrl.host, ctrl.port)
                await write_message(writer, {"kind": "heartbeat", "epoch": "x"})
                await write_message(writer, {"kind": "heartbeat", "epoch": 3})
                for _ in range(200):
                    if ctrl.watch.beats:
                        break
                    await asyncio.sleep(0.01)
                writer.close()
                session_ids = sorted(ctrl.sessions)
                await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
            finally:
                await _teardown(ctrl, tasks)
            return replies, session_ids, ctrl, loop_errors

        replies, session_ids, ctrl, loop_errors = asyncio.run(scenario())
        _assert_all_rejected(bad_hellos, replies)
        assert ctrl.registrations_rejected == len(bad_hellos)
        assert session_ids == ["s-000", "s-001"]
        assert (ctrl.watch.beats, ctrl.watch.last_epoch) == (1, 3)
        assert len(ctrl.cycles) == 1
        assert loop_errors == []

    def test_hier_malformed_and_duplicate_registration_rejected(self):
        def hello(**fields):
            message = {
                "kind": "register_aggregator",
                "aggregator_id": "agg-0",
                "stage_ids": ["a"],
                "job_ids": ["j"],
                "generation": 0,
                "host": "127.0.0.1",
                "port": 5001,
            }
            message.update(fields)
            return message

        bad_hellos = [
            hello(stage_ids=["a", "b"]),  # mismatched id lists
            hello(aggregator_id=7),
            hello(aggregator_id=["agg-0"]),
            hello(stage_ids=5, job_ids=5),
            hello(stage_ids=[1], job_ids=[2]),
            hello(host="127.0.0.1", port="abc"),
        ]

        async def scenario():
            loop_errors = _catch_loop_errors()
            ctrl = LiveHierGlobalController(
                default_policy(4), expected_aggregators=2
            )
            await ctrl.start()
            try:
                replies = [await _send_hello(ctrl, bad) for bad in bad_hellos]
                n_sessions = len(ctrl.sessions)
                # A valid registration, then a duplicate of it.
                reader, writer = await asyncio.open_connection(ctrl.host, ctrl.port)
                await write_message(writer, hello())
                ok = await read_message(reader)
                duplicate, _ = await _send_hello(ctrl, hello())
                writer.close()
            finally:
                await ctrl.shutdown()
            return (
                replies, n_sessions, ok, duplicate,
                ctrl.registrations_rejected, loop_errors,
            )

        replies, n_sessions, ok, duplicate, rejected, loop_errors = asyncio.run(
            scenario()
        )
        _assert_all_rejected(bad_hellos, replies)
        assert n_sessions == 0
        assert ok["kind"] == "registered"
        assert duplicate["kind"] == "register_error"
        assert rejected == len(bad_hellos) + 1
        assert loop_errors == []

    def test_hier_hello_without_a_usable_address_is_refused(self):
        """An aggregator's address goes out in every topology broadcast,
        where a stage refuses a whole ``rehome`` list over one entry that
        is no address: one such registration used to leave every stage
        of the tree without alternates. A hello's ``host`` must be a
        non-empty string and its ``port`` an integer (not a bool) in
        0-65535, its ``generation`` a ``uint32``."""

        def hello(**fields):
            message = {
                "kind": "register_aggregator", "aggregator_id": "rogue",
                "stage_ids": [], "job_ids": [], "generation": 0,
                "host": "127.0.0.1", "port": 5001,
            }
            message.update(fields)
            return {k: v for k, v in message.items() if v is not None}

        bad_hellos = [
            hello(port=70000),
            hello(port=-1),
            hello(port=True),
            hello(port=5001.0),
            hello(host=""),
            hello(host=5),
            hello(host=None),
            hello(port=None),
            hello(generation=-1),
            hello(generation=2**32),
            hello(generation=True),
            hello(generation=None),
        ]

        async def scenario():
            loop_errors = _catch_loop_errors()
            ctrl = LiveHierGlobalController(default_policy(4), expected_aggregators=2)
            await ctrl.start()
            try:
                replies = [await _send_hello(ctrl, bad) for bad in bad_hellos]
                reader, writer = await asyncio.open_connection(ctrl.host, ctrl.port)
                await write_message(writer, hello(aggregator_id="good", generation=3))
                ok = await read_message(reader)
                topology = await read_message(reader)
                session = ctrl.sessions["good"]
                writer.close()
            finally:
                await ctrl.shutdown()
            return replies, ok, topology, session, loop_errors

        replies, ok, topology, session, loop_errors = asyncio.run(scenario())
        _assert_all_rejected(bad_hellos, replies)
        assert ok["kind"] == "registered"
        assert topology == {
            "kind": "topology",
            "aggregators": [
                {"aggregator_id": "good", "host": "127.0.0.1", "port": 5001}
            ],
        }
        assert session.generation == 3
        assert loop_errors == []

    def test_aggregator_malformed_register_rejected(self):
        """The aggregator's stage listener type-checks hellos like the
        flat controller's does."""
        bad_hellos = [
            {"kind": "register", "stage_id": 7, "job_id": "j-x"},
            {"kind": "register", "stage_id": ["x"], "job_id": "j-x"},
            {"kind": "register", "stage_id": "s" * 0x10000, "job_id": "j-x"},
            {"kind": "register", "stage_id": "s-x", "job_id": "☃" * 21846},
        ]

        async def scenario():
            loop_errors = _catch_loop_errors()
            agg = LiveAggregator("agg-0", "127.0.0.1", 1, expected_stages=1)
            await agg.start()
            try:
                replies = [await _send_hello(agg, hello) for hello in bad_hellos]
            finally:
                agg.kill()
            return replies, agg, loop_errors

        replies, agg, loop_errors = asyncio.run(scenario())
        _assert_all_rejected(bad_hellos, replies)
        assert agg.registrations_rejected == len(bad_hellos)
        assert not agg.sessions
        assert loop_errors == []

    def test_validation(self):
        with pytest.raises(ValueError):
            LiveGlobalController(default_policy(2), 2, collect_timeout_s=0.0)
        with pytest.raises(ValueError):
            LiveGlobalController(default_policy(2), 2, enforce_timeout_s=-1.0)
        with pytest.raises(ValueError):
            LiveVirtualStage("h", 1, "s", "j", backoff_base_s=0.0)
        with pytest.raises(ValueError):
            LiveVirtualStage("h", 1, "s", "j", backoff_factor=0.5)


class TestMalformedTrunkFrames:
    def test_malformed_aggregator_replies_degrade_the_cycle_not_kill_it(self):
        """A registered aggregator is still an outside peer: a reply laid
        out for a generation the controller does not hold, vectors that
        are not the partition's length, values no demand can be, or a
        ``partition`` frame that spells no order cost that partition (or
        that stage) its fresh metrics for the cycle — never the cycle
        itself. A JSON body naming a packed kind costs the connection."""
        nan, inf = float("nan"), float("inf")

        def reply(epoch, data=(100.0, 300.0), meta=(20.0, 40.0), generation=0, flagged=0):
            return pack_rows(
                "agg_metrics_reply", epoch, generation, data, meta, n_missing=flagged
            )

        good = reply
        #: (what answers the collect request, stages missing that cycle)
        bad_replies = [
            (lambda e: reply(e, generation=1), 2),  # a generation never announced
            (lambda e: reply(e, data=(1.0,), meta=(1.0,)), 2),  # short vectors
            (lambda e: reply(e, data=(1.0, 2.0, 3.0), meta=(1.0, 2.0, 3.0)), 2),
            (lambda e: reply(e, data=(), meta=()), 2),
            (lambda e: reply(e, data=(nan, 300.0)), 1),  # one bad entry: that stage
            (lambda e: reply(e, data=(100.0, -1.0)), 1),
            (lambda e: reply(e, meta=(inf, nan)), 2),
            (lambda e: reply(e, flagged=2), 2),  # the aggregator's own count
        ]
        bad_partitions = [
            {"kind": "partition", "generation": "x", "stage_ids": ["c"], "job_ids": ["j"]},
            {"kind": "partition", "generation": 1, "stage_ids": 5, "job_ids": ["j"]},
            {"kind": "partition", "generation": 1, "stage_ids": [7], "job_ids": ["j"]},
            {"kind": "partition", "generation": 1, "stage_ids": ["c"], "job_ids": []},
            {"kind": "partition", "generation": 1,
             "stage_ids": ["c", "c"], "job_ids": ["j", "j"]},
            {"kind": "partition", "generation": -1, "stage_ids": ["c"], "job_ids": ["j"]},
            {"kind": "partition", "generation": 2**32, "stage_ids": ["c"], "job_ids": ["j"]},
            {"kind": "partition"},
        ]
        json_reply = {
            "kind": "agg_metrics_reply", "stage_ids": ["a", "b"],
            "data_demands": [1.0, 1.0], "metadata_demands": [1.0, 1.0],
        }

        async def raw_aggregator(ctrl, script):
            """Own stages a and b; answer each ``agg_collect_req`` with
            the script's next frames, ack every batch. A frame that costs
            the connection is followed by a fresh registration."""
            batches = []
            while script:
                reader, writer = await asyncio.open_connection(ctrl.host, ctrl.port)
                await write_message(writer, {
                    "kind": "register_aggregator", "aggregator_id": "agg-0",
                    "stage_ids": ["a", "b"], "job_ids": ["j", "j"],
                    "generation": 0, "host": "127.0.0.1", "port": 5001,
                })
                try:
                    while True:
                        message = await read_message(reader)
                        if message["kind"] == "agg_collect_req":
                            for frame in script.pop(0):
                                if callable(frame):
                                    writer.write(frame(message["epoch"]))
                                else:
                                    # By hand: ``encode`` would refuse
                                    # to put a packed kind in JSON.
                                    body = json.dumps(
                                        {"epoch": message["epoch"], **frame}
                                    ).encode()
                                    writer.write(struct.pack(">I", len(body)) + body)
                            await writer.drain()
                        elif message["kind"] == "rule_batch":
                            batches.append(message)
                            await write_message(
                                writer, {"kind": "batch_ack", "epoch": message["epoch"]}
                            )
                        elif message["kind"] == "shutdown":
                            return batches
                except (asyncio.IncompleteReadError, ConnectionError):
                    pass  # cut off for the JSON-bodied reply: come back
                finally:
                    writer.close()
            return batches

        async def scenario():
            loop_errors = _catch_loop_errors()
            ctrl = LiveHierGlobalController(
                default_policy(2), expected_aggregators=1, collect_timeout_s=2.0
            )
            await ctrl.start()
            script = [[good]] + [[bad] for bad, _ in bad_replies]
            script.append(bad_partitions + [good])  # out-of-band, then a reply
            script.append([good])
            script.append([json_reply])
            script.append([good])
            peer = asyncio.create_task(raw_aggregator(ctrl, script))
            try:
                await ctrl.wait_for_aggregators(timeout_s=10.0)
                cycles = list(await asyncio.wait_for(
                    ctrl.run_cycles(len(script) - 1), timeout=20.0
                ))
                # The JSON-bodied reply cost the connection; the peer
                # re-registers and the next cycle is whole again.
                for _ in range(100):
                    if ctrl.sessions and not ctrl.orphans:
                        break
                    await asyncio.sleep(0.02)
                cycles = list(await asyncio.wait_for(ctrl.run_cycles(1), timeout=20.0))
            finally:
                await ctrl.shutdown()
                batches = await asyncio.wait_for(peer, timeout=5.0)
            return cycles, ctrl, batches, loop_errors

        cycles, ctrl, batches, loop_errors = asyncio.run(scenario())
        n_bad = len(bad_replies)
        assert [c.n_missing for c in cycles[1 : 1 + n_bad]] == [n for _, n in bad_replies]
        # The cycle before, and the well-formed ones after, are clean.
        assert [c.n_missing for c in cycles[:1] + cycles[1 + n_bad : 3 + n_bad]] == [0, 0, 0]
        # A JSON body naming a packed kind is refused like any hot kind
        # in JSON: the link is cut, the partition orphaned for the cycle.
        assert cycles[-2].n_missing == 2 and ctrl.evictions == 1
        assert cycles[-1].n_missing == 0
        assert not any(c.timed_out for c in cycles)
        # Last-known demand rode through; the garbage named no new stage.
        assert ctrl.columns.axes("a") == (100.0, 20.0)
        assert ctrl.columns.axes("b") == (300.0, 40.0)
        assert "c" not in ctrl.columns
        # Every batch (none in the cycle that lost the link) was laid
        # out for the one order ever announced.
        assert len(batches) == len(cycles) - 1
        assert {(b["generation"], len(b["data_iops_limits"])) for b in batches} == {(0, 2)}
        assert loop_errors == []


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
        result = run_live(n_stages=8, n_cycles=4, collect_timeout_s=5.0)
        assert result.degraded_cycles == 0
        assert result.missing_total == 0
        assert result.evictions == 0
        assert result.reconnects == 0
        assert result.stats().summary()["degraded_cycles"] == 0.0

    def test_hier_run_with_timeouts_is_healthy(self):
        result = run_live(
            n_stages=8, n_aggregators=2, n_cycles=4, collect_timeout_s=5.0
        )
        assert result.degraded_cycles == 0
        assert result.rules_applied_total == 8 * 4
