"""White-box tests for controller plumbing: batching, deferral, timeouts."""

import pytest

from repro.core.controller import ChildChannel, _Fan
from repro.core.costs import CostModel
from repro.core.policies import QoSPolicy
from repro.simnet.engine import Environment
from repro.simnet.node import SimHost
from repro.simnet.transport import Network


def make_base(env, costs=None, name="ctrl"):
    host = SimHost(env, f"{name}-host")
    net = Network(env)
    endpoint = net.attach(host, name)
    base = _Fan(env, host, endpoint, costs or CostModel(), name)
    return base, net


def make_stage_endpoints(env, net, base, n, reply_kind=None):
    """n passive endpoints connected to the controller-side endpoint."""
    channels = []
    endpoints = []
    for i in range(n):
        host = SimHost(env, f"peer-{i}")
        ep = net.attach(host, f"peer-{i}")
        conn = net.connect(base.endpoint, ep)
        channels.append(ChildChannel(f"peer-{i}", "stage", conn, base.endpoint))
        endpoints.append(ep)
    return channels, endpoints


class TestSendAll:
    def test_sends_one_message_per_channel(self):
        env = Environment()
        base, net = make_base(env)
        channels, endpoints = make_stage_endpoints(env, net, base, 5)
        got = []
        for ep in endpoints:
            ep.set_handler(lambda m, c, _ep=ep: got.append(_ep.name))

        def driver():
            sent = yield from base._send_all(
                channels, "ping", lambda live: [1] * len(live), 16, 1e-6
            )
            return sent

        proc = env.process(driver())
        env.run(proc)
        env.run()  # drain in-flight deliveries
        assert proc.value == 5
        assert sorted(got) == sorted(ep.name for ep in endpoints)

    def test_chunking_staggers_wire_departures(self):
        """Messages in later chunks leave after earlier chunks' CPU burst."""
        env = Environment()
        base, net = make_base(env, costs=CostModel(send_chunk=2))
        channels, endpoints = make_stage_endpoints(env, net, base, 4)
        arrivals = {}
        for ep in endpoints:
            ep.set_handler(lambda m, c, _ep=ep: arrivals.__setitem__(_ep.name, env.now))

        def driver():
            yield from base._send_all(
                channels, "ping", lambda live: [1] * len(live), 16, 1e-3
            )

        env.run(env.process(driver()))
        env.run()  # drain in-flight deliveries
        # chunk 1 (peers 0,1) departs after 2 ms; chunk 2 after 4 ms.
        assert arrivals["peer-2/peer-2"] - arrivals["peer-1/peer-1"] > 1e-3

    def test_closed_channels_skipped(self):
        env = Environment()
        base, net = make_base(env)
        channels, endpoints = make_stage_endpoints(env, net, base, 3)
        channels[1].connection.close()

        def driver():
            sent = yield from base._send_all(
                channels, "ping", lambda live: [1] * len(live), 16, 1e-6
            )
            return sent

        proc = env.process(driver())
        env.run(proc)
        assert proc.value == 2


class TestAwaitReplies:
    def _deliver(self, base, kind, payload, size=8):
        """Inject a message into the controller's inbox directly."""
        from repro.simnet.transport import Message

        msg = Message(
            kind=kind,
            payload=payload,
            size_bytes=size,
            sender="peer",
            recipient=base.endpoint.name,
            sent_at=base.env.now,
            seq=0,
        )
        base.endpoint.inbox.put(msg)

    def test_collects_expected_count(self):
        env = Environment()
        base, net = make_base(env)
        seen = []

        def driver():
            got = yield from base._await_replies(
                3, 1, {"reply": 1e-6}, lambda m: seen.append(m.payload)
            )
            return got

        proc = env.process(driver())
        for i in range(3):
            env.call_at(0.001 * (i + 1), lambda i=i: self._deliver(base, "reply", (1, i)))
        env.run(proc)
        assert proc.value == 3
        assert [p[1] for p in seen] == [0, 1, 2]

    def test_wrong_epoch_counted_stale(self):
        env = Environment()
        base, net = make_base(env)

        def driver():
            got = yield from base._await_replies(
                1, 2, {"reply": 1e-6}, lambda m: None
            )
            return got

        proc = env.process(driver())
        env.call_at(0.001, lambda: self._deliver(base, "reply", (1, "old")))
        env.call_at(0.002, lambda: self._deliver(base, "reply", (2, "new")))
        env.run(proc)
        assert proc.value == 1
        assert base.stale_messages == 1

    def test_unknown_kind_counted_stale(self):
        env = Environment()
        base, net = make_base(env)

        def driver():
            return (
                yield from base._await_replies(1, 1, {"reply": 1e-6}, lambda m: None)
            )

        proc = env.process(driver())
        env.call_at(0.001, lambda: self._deliver(base, "mystery", (1, None)))
        env.call_at(0.002, lambda: self._deliver(base, "reply", (1, None)))
        env.run(proc)
        assert base.stale_messages == 1

    def test_deadline_returns_short(self):
        env = Environment()
        base, net = make_base(env)

        def driver():
            return (
                yield from base._await_replies(
                    5, 1, {"reply": 1e-6}, lambda m: None, deadline=0.01
                )
            )

        proc = env.process(driver())
        env.call_at(0.001, lambda: self._deliver(base, "reply", (1, None)))
        env.run(proc)
        assert proc.value == 1
        assert env.now == pytest.approx(0.01, abs=1e-6)

    def test_deferred_kind_survives_other_phase(self):
        """A defer_kinds message arriving early is parked, then consumed."""
        env = Environment()
        base, net = make_base(env)
        base.defer_kinds = {"summary"}

        def driver():
            # Phase 1 expects replies; a summary arrives in between.
            yield from base._await_replies(1, 1, {"reply": 1e-6}, lambda m: None)
            got = []
            # Phase 2 asks for the parked summary.
            yield from base._await_replies(
                1, 1, {"summary": 1e-6}, lambda m: got.append(m.payload)
            )
            return got

        proc = env.process(driver())
        env.call_at(0.001, lambda: self._deliver(base, "summary", (1, "parked")))
        env.call_at(0.002, lambda: self._deliver(base, "reply", (1, None)))
        env.run(proc)
        assert proc.value == [(1, "parked")]
        assert base.stale_messages == 0

    def test_deferred_future_epoch_waits_for_its_epoch(self):
        env = Environment()
        base, net = make_base(env)
        base.defer_kinds = {"summary"}

        def driver():
            # Epoch 1 consumes its reply; an epoch-2 summary arrives early.
            yield from base._await_replies(1, 1, {"reply": 1e-6}, lambda m: None)
            # Epoch 1 summary phase: the parked epoch-2 summary must NOT
            # satisfy it; the fresh epoch-1 summary does.
            got = []
            yield from base._await_replies(
                1, 1, {"summary": 1e-6}, lambda m: got.append(m.payload[0])
            )
            # Epoch 2 summary phase: consumes the parked message.
            got2 = []
            yield from base._await_replies(
                1, 2, {"summary": 1e-6}, lambda m: got2.append(m.payload[0])
            )
            return got, got2

        proc = env.process(driver())
        env.call_at(0.001, lambda: self._deliver(base, "summary", (2, "early")))
        env.call_at(0.002, lambda: self._deliver(base, "reply", (1, None)))
        env.call_at(0.003, lambda: self._deliver(base, "summary", (1, "fresh")))
        env.run(proc)
        assert proc.value == ([1], [2])

    def test_batch_drain_charges_once(self):
        """Messages already queued are processed as one CPU burst."""
        env = Environment()
        base, net = make_base(env)
        for i in range(4):
            self._deliver(base, "reply", (1, i))

        def driver():
            return (
                yield from base._await_replies(4, 1, {"reply": 1e-3}, lambda m: None)
            )

        proc = env.process(driver())
        env.run(proc)
        # 4 x 1 ms charged in one serialized burst.
        assert env.now == pytest.approx(0.004)
        assert base.host.busy_seconds == pytest.approx(0.004)
