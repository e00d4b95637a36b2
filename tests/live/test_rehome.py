"""Aggregator failover and stage re-homing over real TCP sockets.

Covers the tentpole acceptance scenario: kill one aggregator mid-run and
assert its stages re-home to survivors within the bound, later cycles
are clean, and the capacity/epoch invariants hold throughout. Plus the
reconnect-path regressions that re-homing exposed: backoff state resets
on successful re-registration, and a stage cannot double-apply a rule
after moving to a new aggregator.
"""

import asyncio

import pytest

from repro.core.control_plane import default_policy
from repro.core.registry import partition_stages
from repro.live.aggregator_server import LiveAggregator
from repro.live.codec import frame_packer, pack_rows
from repro.live.controller_server import LiveHierGlobalController
from repro.live.faults import (
    LiveFaultLog,
    kill_aggregator,
    kill_stage,
    stall_aggregator,
)
from tests.live.raw_peer import read_message, write_message
from repro.live.stage_client import LiveVirtualStage

_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)


async def _hier_cluster(n_stages, n_aggregators, controller_timeout_s=1.0):
    """Global controller + aggregators + re-home-capable stages."""
    ctrl = LiveHierGlobalController(
        default_policy(n_stages),
        expected_aggregators=n_aggregators,
        collect_timeout_s=0.5,
    )
    await ctrl.start()
    stage_ids = [f"stage-{i:05d}" for i in range(n_stages)]
    partitions = partition_stages(stage_ids, n_aggregators)
    aggs, stages, tasks = [], [], []
    for a, owned in enumerate(partitions):
        agg = LiveAggregator(
            f"aggregator-{a:02d}",
            ctrl.host,
            ctrl.port,
            expected_stages=len(owned),
            collect_timeout_s=0.3,
        )
        await agg.start()
        aggs.append(agg)
        for sid in owned:
            stage = LiveVirtualStage(
                agg.host,
                agg.port,
                stage_id=sid,
                job_id=sid.replace("stage", "job"),
                controller_timeout_s=controller_timeout_s,
                **_BACKOFF,
            )
            stages.append(stage)
            tasks.append(asyncio.create_task(stage.run()))
        tasks.append(asyncio.create_task(agg.run()))
    await ctrl.wait_for_aggregators(timeout_s=10.0)
    return ctrl, aggs, stages, tasks


async def _teardown(ctrl, tasks):
    await ctrl.shutdown()
    for t in tasks:
        t.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


async def _paced(ctrl, n, period_s=0.1):
    for _ in range(n):
        await asyncio.wait_for(ctrl.run_cycles(1), timeout=10.0)
        await asyncio.sleep(period_s)


class TestAggregatorKill:
    def test_kill_rehomes_within_bound_and_cycles_recover(self):
        """Acceptance: killed aggregator's stages re-home to survivors."""

        async def scenario():
            ctrl, aggs, stages, tasks = await _hier_cluster(9, 3)
            try:
                await _paced(ctrl, 3)
                log = kill_aggregator(aggs[0])
                await _paced(ctrl, 6)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, aggs, stages, log

        ctrl, aggs, stages, log = asyncio.run(scenario())
        # The dead partition re-homed: no orphans left, one re-home per
        # orphaned stage, and the survivors adopted them.
        assert log.kills()[0].target == "aggregator-00"
        # A killed aggregator dies by socket (eviction), not by the
        # missed-epoch health check — that path is the stall test's.
        assert ctrl.evictions >= 1
        assert ctrl.orphans == {}
        assert ctrl.rehomes == 3
        assert sum(s.failovers for s in stages) == 3
        # Re-home bound: at most 3 post-kill cycles may report the dead
        # partition missing; every cycle after that must be clean.
        post_kill = ctrl.cycles[3:]
        assert all(c.n_missing == 0 for c in post_kill[3:])
        # Invariants: monotone epochs converged, enforced capacity exact.
        epochs = [s.applied_epoch for s in stages]
        assert all(e == ctrl.epoch for e in epochs)
        total = sum(s.applied_limit for s in stages)
        assert total <= ctrl.policy.allocatable_iops * (1 + 1e-6)

    def test_survivor_partitions_stay_clean_during_rehome(self):
        """Only the dead partition degrades; survivors never go missing."""

        async def scenario():
            ctrl, aggs, stages, tasks = await _hier_cluster(9, 3)
            try:
                await _paced(ctrl, 2)
                kill_aggregator(aggs[1])
                await _paced(ctrl, 5)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl

        ctrl = asyncio.run(scenario())
        # n_missing counts stages, never more than the dead partition.
        assert all(c.n_missing <= 3 for c in ctrl.cycles)
        assert ctrl.cycles[-1].n_missing == 0


    @pytest.mark.parametrize("node", ["aggregator", "controller"])
    def test_link_accepted_before_kill_is_not_served_after(self, node):
        """A connection accepted but not yet greeted when ``kill()``
        lands is no session, so ``kill()`` cannot abort it — and its
        hello used to be registered and acked by the dead node, which
        then sat on a stage nobody would ever serve. The hello of a link
        whose listener is closed gets the link aborted instead."""

        async def scenario():
            if node == "aggregator":
                victim = LiveAggregator("agg-0", "127.0.0.1", 1, expected_stages=1)
            else:
                victim = LiveHierGlobalController(default_policy(1), 1)
            await victim.start()
            reader, writer = await asyncio.open_connection(victim.host, victim.port)
            await asyncio.sleep(0.05)  # accepted, silent
            victim.kill()
            hello = (
                {"kind": "register", "stage_id": "s-0", "job_id": "j-0"}
                if node == "aggregator"
                else {"kind": "register_aggregator", "aggregator_id": "a",
                      "stage_ids": [], "job_ids": []}
            )
            try:
                await write_message(writer, hello)
                answer = await asyncio.wait_for(reader.read(), timeout=5.0)
            except ConnectionError:
                answer = b""
            writer.close()
            return victim, answer

        victim, answer = asyncio.run(scenario())
        assert answer == b""  # cut off, not ``registered``
        assert not victim.sessions

    @pytest.mark.parametrize("end", ["kill", "stop"])
    def test_an_aggregator_ended_before_its_partition_completes(self, end):
        """``run()`` waits for the partition or for the end, whichever
        comes first: ended before its stages arrived, it never dials,
        and its partition is not marked complete on the way out."""

        async def scenario():
            agg = LiveAggregator("agg-0", "127.0.0.1", 1, expected_stages=2)
            await agg.start()
            run = asyncio.create_task(agg.run())
            await asyncio.sleep(0.05)
            getattr(agg, end)()
            await asyncio.wait_for(run, timeout=5.0)
            return agg

        agg = asyncio.run(scenario())
        assert agg._trunk.connects == 0 and agg._trunk.consecutive_failures == 0
        assert not agg._all_registered.is_set()


class TestAggregatorStall:
    def test_stall_past_health_budget_declares_dead_and_rehomes(self):
        """A stalled (not crashed) aggregator is detected via missed
        collect epochs; its stages rotate away on silence timeouts."""

        async def scenario():
            # The silence watchdog must exceed the worst-case healthy
            # inter-frame gap (collect timeout + pacing), or stages on
            # *surviving* aggregators false-rotate during the stall.
            ctrl, aggs, stages, tasks = await _hier_cluster(
                6, 2, controller_timeout_s=1.0
            )
            try:
                await _paced(ctrl, 2)
                log = LiveFaultLog()
                fault = asyncio.create_task(
                    stall_aggregator(aggs[0], 2.5, log=log)
                )
                await _paced(ctrl, 8)
                fault.cancel()
                await asyncio.gather(fault, return_exceptions=True)
            finally:
                await _teardown(ctrl, tasks)
            return ctrl, stages, log

        ctrl, stages, log = asyncio.run(scenario())
        assert log.stalls()[0].target == "aggregator-00"
        assert ctrl.aggregators_declared_dead == 1
        assert ctrl.orphans == {}
        assert ctrl.rehomes == 3
        assert sum(s.silence_timeouts for s in stages) >= 1
        assert ctrl.cycles[-1].n_missing == 0


class TestReconnectRegressions:
    def test_backoff_resets_on_successful_reregistration(self):
        """Regression: consecutive-failure count must clear once a stage
        re-registers, so the next outage starts from the base delay."""

        async def scenario():
            ctrl, aggs, stages, tasks = await _hier_cluster(4, 2)
            try:
                await _paced(ctrl, 2)
                kill_stage(stages[0])
                await _paced(ctrl, 4, period_s=0.15)
            finally:
                await _teardown(ctrl, tasks)
            return stages[0]

        stage = asyncio.run(scenario())
        assert stage.reconnects >= 1
        assert stage.consecutive_failures == 0

    def test_rehomed_stage_refuses_duplicate_epoch_rule(self):
        """Regression: a rule re-sent after re-home (e.g. the old
        aggregator died mid-enforce and the new one replays the epoch)
        must be fenced, not double-applied."""

        async def fake_controller(host="127.0.0.1"):
            """Minimal aggregator: register the stage, push rules."""
            inbox = asyncio.Queue()

            async def on_conn(reader, writer):
                hello = await read_message(reader)
                await write_message(
                    writer, {"kind": "registered", "stage_id": hello["stage_id"]}
                )
                await inbox.put((reader, writer))

            server = await asyncio.start_server(on_conn, host, 0)
            port = server.sockets[0].getsockname()[1]
            return server, port, inbox

        async def scenario():
            srv_a, port_a, inbox_a = await fake_controller()
            srv_b, port_b, inbox_b = await fake_controller()
            stage = LiveVirtualStage(
                "127.0.0.1",
                port_a,
                stage_id="s-0",
                job_id="j-0",
                alternates=[("127.0.0.1", port_b)],
                **_BACKOFF,
            )
            task = asyncio.create_task(stage.run())
            reader, writer = await asyncio.wait_for(inbox_a.get(), timeout=5.0)

            pack_rule = frame_packer("rule", "s-0")

            async def rule(w, r, epoch, limit):
                w.write(pack_rule(epoch, limit, None))
                await w.drain()
                return await asyncio.wait_for(read_message(r), timeout=5.0)

            ack = await rule(writer, reader, 5, 800.0)
            assert ack["kind"] == "rule_ack" and ack["epoch"] == 5
            assert stage.rules_applied == 1
            # Simulate the aggregator dying mid-enforce: listener gone and
            # socket aborted. The stage retries its home once (refused),
            # then rotates to the alternate and re-registers.
            srv_a.close()
            writer.transport.abort()
            reader_b, writer_b = await asyncio.wait_for(
                inbox_b.get(), timeout=5.0
            )
            # The replayed epoch-5 rule must be fenced after re-home...
            await rule(writer_b, reader_b, 5, 999.0)
            stale_after_rehome = (
                stage.rules_ignored_stale == 1 and stage.rules_applied == 1
            )
            # ...while a genuinely newer epoch still applies.
            await rule(writer_b, reader_b, 6, 700.0)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            # Close what this test opened rather than leave it to the
            # garbage collector, which would close it inside some later
            # test's descriptor count.
            for w in (writer, writer_b):
                w.close()
                await w.wait_closed()
            for srv in (srv_a, srv_b):
                srv.close()
                await srv.wait_closed()
            return stage, stale_after_rehome

        stage, stale_after_rehome = asyncio.run(scenario())
        assert stale_after_rehome
        assert stage.rules_applied == 2  # epoch 5 once + epoch 6 once
        assert stage.rules_ignored_stale == 1
        assert stage.applied_epoch == 6
        assert stage.applied_limit == 700.0
        assert stage.failovers == 1


class TestMalformedControllerFrames:
    def test_malformed_trunk_frames_do_not_end_the_aggregator(self):
        """The trunk's other end is an outside peer too: a ``rule_batch``
        laid out for an order the aggregator does not hold forwards
        nothing, a slot that is no limit is left out, a ``topology``
        entry that is not an address is skipped, a request without an
        integer epoch ignored — every batch is still acked and none of it
        raises out of ``LiveAggregator.run``. A JSON body naming a packed
        kind costs the trunk, as it costs any link; the aggregator then
        re-dials, as a stage would, still holding its three stages."""
        nan, inf = float("nan"), float("inf")
        topology = [
            {"aggregator_id": "x"},
            {"aggregator_id": "y", "host": "h", "port": "abc"},
            5,
            {"aggregator_id": "peer", "host": "127.0.0.1", "port": 9},
        ]

        def batch(epoch, limits, meta=None, generation=0):
            return pack_rows("rule_batch", epoch, generation, limits, meta)

        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            trunks = asyncio.Queue()

            async def on_conn(reader, writer):
                hello = await read_message(reader)
                await write_message(writer, {"kind": "registered"})
                await trunks.put((reader, writer, hello))

            server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            agg = LiveAggregator(
                "agg-0", "127.0.0.1", port, expected_stages=3, enforce_timeout_s=2.0
            )
            await agg.start()
            stages = [
                LiveVirtualStage(agg.host, agg.port, f"s-{i}", "j", reconnect=False)
                for i in range(3)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            run = asyncio.create_task(agg.run())
            reader, writer, hello = await asyncio.wait_for(trunks.get(), timeout=5.0)

            async def exchange(*frames):
                """Send ``frames``; the aggregator's answer to the last."""
                for frame in frames:
                    if isinstance(frame, bytes):
                        writer.write(frame)
                        await writer.drain()
                    else:
                        await write_message(writer, frame)
                return await asyncio.wait_for(read_message(reader), timeout=5.0)

            acks = [
                await exchange(
                    {"kind": "topology", "aggregators": 7},
                    {"kind": "topology", "aggregators": topology},
                    batch(1, [10.0, 20.0, 30.0], generation=4),  # never announced
                ),
                await exchange(batch(2, [10.0, 20.0])),  # short for the order
                await exchange(batch(3, [10.0, 20.0, 30.0, 40.0])),
                await exchange(batch(4, [])),
                await exchange(
                    {"kind": "agg_collect_req", "epoch": "x"},
                    # NaN = no rule for the row; the others are no limits.
                    batch(5, [nan, -5.0, 55.0]),
                ),
                await exchange(batch(6, [inf, 66.0, 77.0], [1.0, nan, -inf])),
            ]
            applied = [(s.applied_epoch, s.applied_limit) for s in stages]
            reply = await exchange({"kind": "agg_collect_req", "epoch": 7})
            acks.append(await exchange(batch(8, [81.0, 82.0, 83.0], [8.0, 8.0, 8.0])))
            # By hand: ``encode`` would refuse to put a packed kind in JSON.
            body = b'{"kind":"rule_batch","epoch":9,"rules":[]}'
            writer.write(len(body).to_bytes(4, "big") + body)
            eof = await asyncio.wait_for(reader.read(), timeout=5.0)
            _, rewriter, rejoin = await asyncio.wait_for(trunks.get(), timeout=5.0)
            kept = sorted(agg.sessions)
            await write_message(rewriter, {"kind": "shutdown"})
            await asyncio.wait_for(run, timeout=5.0)  # raises what run raised
            await asyncio.gather(*tasks)
            writer.close()
            rewriter.close()
            server.close()
            return agg, stages, acks, applied, reply, eof, errors, hello, rejoin, kept

        (
            agg, stages, acks, applied, reply, eof, errors, hello, rejoin, kept
        ) = asyncio.run(scenario())
        assert hello["kind"] == "register_aggregator"
        assert (hello["stage_ids"], hello["generation"]) == (["s-0", "s-1", "s-2"], 0)
        assert [(a["kind"], a["epoch"]) for a in acks] == [
            ("batch_ack", e) for e in (1, 2, 3, 4, 5, 6, 8)
        ]
        assert agg.peer_addresses == [("127.0.0.1", 9)]
        # Of six garbage batches exactly one slot was a rule: 55.0, row 2.
        assert applied == [(-1, None), (-1, None), (5, 55.0)]
        # The well-formed request after the garbage is served in full —
        # the two per-axis vectors in the hello's order, nothing per stage.
        assert reply == {
            "kind": "agg_metrics_reply", "epoch": 7, "generation": 0,
            "n_missing": 0,
            "data_demands": [1000.0, 1000.0, 1000.0],
            "metadata_demands": [200.0, 200.0, 200.0],
        }
        assert [
            (s.applied_epoch, s.applied_limit, s.applied_metadata_limit)
            for s in stages
        ] == [(8, 81.0, 8.0), (8, 82.0, 8.0), (8, 83.0, 8.0)]
        # The JSON-bodied batch cut the trunk without an ack. The
        # aggregator kept its listener and its stages, re-dialled and
        # re-registered them under the order's next generation; the
        # shutdown on the new trunk then ended it and its stages.
        assert eof == b""
        assert kept == ["s-0", "s-1", "s-2"]
        assert (rejoin["stage_ids"], rejoin["generation"]) == (kept, 1)
        assert (agg._trunk.connects, agg._trunk.reconnects) == (2, 1)
        assert [s.connects for s in stages] == [1, 1, 1]
        assert errors == []

    @pytest.mark.parametrize(
        "alternates", [5, [["h"]], [["h", "x"]], [[1, 2]]], ids=repr
    )
    def test_malformed_alternates_are_ignored_by_the_stage(self, alternates):
        """A ``registered`` ack or ``rehome`` frame whose ``alternates`` is
        not a list of ``[str host, int port]`` pairs used to raise out of
        the stage's read callback — before ``_registered`` was set, so the
        stage reconnected at the base backoff for good — or, for
        ``[[1, 2]]``, be stored as an address. The list is ignored whole."""

        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            conns = asyncio.Queue()

            async def on_conn(reader, writer):
                assert (await read_message(reader))["kind"] == "register"
                await write_message(
                    writer, {"kind": "registered", "alternates": alternates}
                )
                await conns.put((reader, writer))

            server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            stage = LiveVirtualStage(
                "127.0.0.1", port, "s-0", "j-0", backoff_base_s=0.01
            )
            task = asyncio.create_task(stage.run())
            reader, writer = await asyncio.wait_for(conns.get(), timeout=5.0)
            # Mid-session the same list arrives as a rehome; the stage
            # must still be there to answer the request behind it.
            await write_message(writer, {"kind": "rehome", "alternates": alternates})
            writer.write(frame_packer("collect_req")(1))
            await writer.drain()
            reply = await asyncio.wait_for(read_message(reader), timeout=5.0)
            await asyncio.sleep(0.1)  # a hot reconnect loop would show by now
            reconnected = conns.qsize()
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            writer.close()
            server.close()
            return stage, port, reply, reconnected, errors

        stage, port, reply, reconnected, errors = asyncio.run(scenario())
        assert (reply["kind"], reply["epoch"]) == ("metrics_reply", 1)
        assert (stage.connects, reconnected) == (1, 0)
        assert stage.addresses == [("127.0.0.1", port)]
        assert stage.rehomes_received == 0
        assert errors == []
