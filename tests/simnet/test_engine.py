"""Unit tests for the DES kernel.

CI runs this file once more under the derandomized ``ci`` hypothesis
profile.
"""

import heapq
import math
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.engine import (
    NORMAL,
    URGENT,
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Message,
    SimulationError,
    Timeout,
)
from repro.simnet import engine as engine_mod
from repro.simnet.node import SimHost
from repro.simnet.transport import Network


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.run(until=3.5)
        assert env.now == 3.5

    def test_run_until_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_clock_is_monotonic_across_events(self):
        env = Environment()
        seen = []

        def proc(env):
            for _ in range(10):
                yield env.timeout(0.1)
                seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == sorted(seen)
        assert seen[-1] == pytest.approx(1.0)


class TestTimeout:
    def test_timeout_fires_after_delay(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 2.0

    def test_timeout_carries_value(self):
        env = Environment()

        def proc(env):
            got = yield env.timeout(1.0, value="payload")
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "payload"

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_fires_at_current_time(self):
        env = Environment()

        def proc(env):
            yield env.timeout(0.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0


class TestNaNTime:
    """NaN passes every ``< 0`` / ``< now`` check; it must be refused
    wherever a time or an amount of work enters the kernel, or it is
    dispatched out of order and leaves the clock (or a host's busy time)
    NaN. ``+inf`` keeps its meaning: due never."""

    @staticmethod
    def _env_with_pending():
        env = Environment()
        fired = []
        env.timeout(0.5).callbacks.append(lambda ev: fired.append(env.now))
        return env, fired

    @staticmethod
    def _assert_untouched(env, fired):
        assert env.now == 0.0 and len(env._queue) == 1
        env.run()
        assert fired == [0.5] and env.now == 0.5

    def test_timeout(self):
        env, fired = self._env_with_pending()
        with pytest.raises(ValueError):
            env.timeout(math.nan)
        with pytest.raises(ValueError):
            Timeout(env, math.nan)
        self._assert_untouched(env, fired)

    def test_pooled_timeout(self):
        env = Environment()
        env.timeout(0.1)
        env.run()
        assert env._timeout_pool
        fired = []
        env.timeout(0.4).callbacks.append(lambda ev: fired.append(env.now))
        with pytest.raises(ValueError):
            env.timeout(math.nan)
        assert len(env._queue) == 1
        env.run()
        assert fired == [0.5] and env.now == 0.5

    def test_call_at(self):
        env, fired = self._env_with_pending()
        with pytest.raises(SimulationError):
            env.call_at(math.nan, lambda: fired.append("nan"))
        self._assert_untouched(env, fired)

    def test_run_until(self):
        env, fired = self._env_with_pending()
        with pytest.raises(SimulationError):
            env.run(until=math.nan)
        self._assert_untouched(env, fired)

    @pytest.mark.parametrize("work", ["charge", "execute"])
    def test_host_work(self, work):
        env = Environment()
        host = SimHost(env, "h")
        with pytest.raises(ValueError):
            getattr(host, work)(math.nan)
        env.run()
        assert host.busy_seconds == 0.0

    def test_infinity_still_means_never(self):
        env, fired = self._env_with_pending()
        env.timeout(math.inf).callbacks.append(lambda ev: fired.append("timeout"))
        env.call_at(math.inf, lambda: fired.append("call_at"))
        env.run(until=10.0)
        assert fired == [0.5] and env.now == 10.0 and env.peek() == math.inf


class TestEvent:
    def test_succeed_delivers_value(self):
        env = Environment()
        ev = env.event()

        def waiter(env, ev):
            got = yield ev
            return got

        def trigger(env, ev):
            yield env.timeout(1.0)
            ev.succeed(42)

        p = env.process(waiter(env, ev))
        env.process(trigger(env, ev))
        env.run()
        assert p.value == 42

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_throws_into_waiter(self):
        env = Environment()
        ev = env.event()

        def waiter(env, ev):
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught:{exc}"

        p = env.process(waiter(env, ev))
        ev.fail(RuntimeError("boom"))
        env.run()
        assert p.value == "caught:boom"

    def test_unwaited_failed_event_raises_from_run(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value


class TestProcess:
    def test_return_value_is_event_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"
        assert not p.is_alive

    def test_process_waits_on_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(2.0)
            return 7

        def parent(env):
            result = yield env.process(child(env))
            return result * 2

        p = env.process(parent(env))
        env.run()
        assert p.value == 14

    def test_exception_propagates_to_waiter(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            raise ValueError("child died")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                return f"saw:{exc}"

        p = env.process(parent(env))
        env.run()
        assert p.value == "saw:child died"

    def test_unwaited_crash_surfaces_from_run(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            raise KeyError("lost")

        env.process(proc(env))
        with pytest.raises(KeyError):
            env.run()

    def test_yield_non_event_raises_inside_process(self):
        env = Environment()

        def proc(env):
            try:
                yield 42
            except SimulationError:
                return "rejected"

        p = env.process(proc(env))
        env.run()
        assert p.value == "rejected"

    def test_waiting_on_already_processed_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed("early")
        env.run()  # process the event with no waiters
        assert ev.processed

        def late(env, ev):
            got = yield ev
            return got

        p = env.process(late(env, ev))
        env.run()
        assert p.value == "early"

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)


class TestInterrupt:
    def test_interrupt_wakes_sleeping_process(self):
        env = Environment()

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as i:
                return ("interrupted", i.cause, env.now)

        p = env.process(sleeper(env))

        def killer(env, p):
            yield env.timeout(1.0)
            p.interrupt("failure")

        env.process(killer(env, p))
        env.run()
        assert p.value == ("interrupted", "failure", 1.0)

    def test_interrupt_finished_process_rejected(self):
        env = Environment()

        def quick(env):
            yield env.timeout(0.1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self):
        env = Environment()

        def resilient(env):
            total = 0.0
            try:
                yield env.timeout(10.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            return env.now

        p = env.process(resilient(env))

        def killer(env, p):
            yield env.timeout(0.5)
            p.interrupt()

        env.process(killer(env, p))
        env.run()
        assert p.value == pytest.approx(1.5)


class TestStop:
    """``Process.stop``: an interrupt, run at once between runs."""

    @staticmethod
    def _server(env, log):
        def server():
            try:
                while True:
                    yield env.timeout(100.0)
                    log.append(env.now)
            except Interrupt as i:
                log.append(("stopped", i.cause, env.now))
                return "done"

        return server()

    def test_an_idle_stop_ends_a_parked_process_at_once(self):
        env = Environment()
        log = []
        p = env.process(self._server(env, log))
        env.run(until=150.0)
        p.stop("kill")
        assert not p.is_alive
        assert log == [100.0, ("stopped", "kill", 150.0)]
        env.run()  # the abandoned timeout still fires, into no one
        assert p.value == "done" and log[-1] == ("stopped", "kill", 150.0)

    def test_an_idle_stop_runs_a_process_that_never_started_first(self):
        env = Environment()
        log = []
        started = []

        def body():
            started.append(env.now)
            yield from self._server(env, log)

        p = env.process(body())
        p.stop("kill")
        assert started == [0.0] and log == [("stopped", "kill", 0.0)]
        env.run()  # the queued start runs nothing a second time
        assert p.value is None and started == [0.0]

    def test_an_idle_stop_behind_a_queued_wake_up_is_queued(self):
        env = Environment()
        fired = env.event()
        fired.succeed()
        env.run()
        log = []

        def body():
            try:
                yield fired  # already processed: the wake-up is queued
                log.append("woke")
                yield env.timeout(1.0)
            except Interrupt:
                log.append("stopped")

        p = env.process(body())
        p.stop("kill")
        assert p.is_alive and log == []
        env.run()
        assert log == ["woke", "stopped"] and not p.is_alive

    def test_an_idle_stop_processes_one_event_fewer_than_an_interrupt(self):
        counts = []
        for stop in (True, False):
            env = Environment()
            p = env.process(self._server(env, []))
            env.run(until=150.0)
            if stop:
                p.stop("kill")
            else:
                p.interrupt("kill")
            env.run()
            counts.append(env.processed_events)
        assert counts[0] == counts[1] - 1

    def test_a_stop_inside_a_run_is_queued(self):
        env = Environment()
        log = []
        p = env.process(self._server(env, log))
        seen = []

        def killer():
            yield env.timeout(150.0)
            p.stop("kill")
            seen.append(p.is_alive)

        env.process(killer())
        env.run()
        assert seen == [True]
        assert log == [100.0, ("stopped", "kill", 150.0)]

    def test_stopping_a_finished_process_is_an_error(self):
        env = Environment()
        p = env.process(self._server(env, []))
        p.stop("kill")
        with pytest.raises(SimulationError):
            p.stop("kill")


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()

        def proc(env):
            events = [env.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
            got = yield env.all_of(events)
            return (env.now, got)

        p = env.process(proc(env))
        env.run()
        now, got = p.value
        assert now == 3.0
        assert got == {0: 1.0, 1: 3.0, 2: 2.0}

    def test_any_of_fires_on_first(self):
        env = Environment()

        def proc(env):
            events = [env.timeout(5.0, "slow"), env.timeout(1.0, "fast")]
            got = yield env.any_of(events)
            return (env.now, got)

        p = env.process(proc(env))
        env.run()
        now, got = p.value
        assert now == 1.0
        assert got == {1: "fast"}

    def test_empty_all_of_fires_immediately(self):
        env = Environment()

        def proc(env):
            yield env.all_of([])
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0

    def test_all_of_fails_if_member_fails(self):
        env = Environment()
        bad = env.event()

        def proc(env, bad):
            try:
                yield env.all_of([env.timeout(10.0), bad])
            except RuntimeError as exc:
                return str(exc)

        p = env.process(proc(env, bad))
        bad.fail(RuntimeError("member failed"))
        env.run()
        assert p.value == "member failed"

    def test_cross_environment_events_rejected(self):
        env1, env2 = Environment(), Environment()
        ev2 = env2.event()
        with pytest.raises(SimulationError):
            env1.all_of([ev2])


class TestDeterminism:
    def test_same_time_events_fire_in_schedule_order(self):
        env = Environment()
        order = []

        for tag in ("a", "b", "c"):
            env.call_at(1.0, lambda t=tag: order.append(t))
        env.run()
        assert order == ["a", "b", "c"]

    def test_call_at_past_rejected(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError):
            env.call_at(1.0, lambda: None)

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2.0)
            return "finished"

        p = env.process(proc(env))
        assert env.run(until=p) == "finished"

    def test_run_until_event_never_firing_raises(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError, match="drained"):
            env.run(until=ev)

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_processed_event_count(self):
        env = Environment()

        def proc(env):
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert env.processed_events > 5


class TestRunawayGuard:
    def test_zero_delay_loop_caught(self):
        env = Environment()

        def spinner(env):
            while True:
                yield env.timeout(0.0)

        env.process(spinner(env))
        with pytest.raises(SimulationError, match="max_events"):
            env.run(max_events=1000)

    def test_budget_not_triggered_by_honest_work(self):
        env = Environment()

        def worker(env):
            for _ in range(100):
                yield env.timeout(0.01)

        env.process(worker(env))
        env.run(max_events=10_000)  # completes well within budget
        assert env.now == pytest.approx(1.0)

    def test_budget_applies_to_until_event(self):
        env = Environment()
        never = env.event()

        def spinner(env):
            while True:
                yield env.timeout(0.0)

        env.process(spinner(env))
        with pytest.raises(SimulationError, match="max_events"):
            env.run(until=never, max_events=500)

    def test_invalid_budget_rejected(self):
        with pytest.raises(SimulationError):
            Environment().run(max_events=0)


# ---------------------------------------------------------------------------
# Dispatch order against a reference heap
# ---------------------------------------------------------------------------

#: Zero, equal, tiny (``now + delay == now`` once ``now`` is about 1e-6)
#: and ordinary delays.
_DELAY = st.sampled_from([0.0, 0.0, 1e-30, 5e-324, 1e-6, 1e-6, 2.5e-6, 0.5])
_KIND = st.sampled_from(["timeout", "event", "call_at", "interrupt", "message"])


@st.composite
def _schedules(draw):
    """Nodes ``(kind, delay, priority, parent)`` — a node with a parent is
    scheduled when its parent is dispatched — and run segments
    ``(roots, horizon offset)``: the roots are scheduled at the current
    time, then ``run(until=now + offset)`` (``None``: run to the end)."""
    nodes = []
    for i in range(draw(st.integers(1, 30))):
        kind = draw(_KIND)
        delay = 0.0 if kind in ("event", "interrupt") else draw(_DELAY)
        priority = draw(st.sampled_from([URGENT, NORMAL]))
        if kind in ("timeout", "message"):
            priority = NORMAL
        elif kind == "interrupt":
            priority = URGENT
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None
        nodes.append((kind, delay, priority, parent))
    roots = [i for i, node in enumerate(nodes) if node[3] is None]
    n_segments = draw(st.integers(1, 4))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, len(roots)),
                min_size=n_segments - 1,
                max_size=n_segments - 1,
            )
        )
    )
    bounds = [0, *cuts, len(roots)]
    segments = [
        (roots[a:b], draw(st.sampled_from([0.0, 1e-6, 3e-6, 0.25])))
        for a, b in zip(bounds, bounds[1:])
    ]
    segments[-1] = (segments[-1][0], None)
    return nodes, segments


def _children(nodes):
    """Per node, the nodes its dispatch schedules, in order."""
    children = {i: [] for i in range(len(nodes))}
    for i, node in enumerate(nodes):
        if node[3] is not None:
            children[node[3]].append(i)
    return children


def _reference_order(nodes, segments):
    """Dispatch order and times from a plain heap of ``(time, priority,
    seq, node)`` 4-tuples, one per scheduled node."""
    children = _children(nodes)
    heap, seq, floor, now, log = [], count(), [0.0], 0.0, []

    def schedule(i):
        kind, delay, priority, _ = nodes[i]
        if kind == "call_at":
            when = now + ((now + delay) - now)
        elif kind == "message":
            floor[0] = max(now + delay, floor[0])
            when = now + (floor[0] - now)
        else:
            when = now + delay
        heapq.heappush(heap, (when, priority, next(seq), i))

    for roots, offset in segments:
        for i in roots:
            schedule(i)
        horizon = None if offset is None else now + offset
        while heap and (horizon is None or heap[0][0] <= horizon):
            now, _, _, i = heapq.heappop(heap)
            log.append((i, now))
            for child in children[i]:
                schedule(child)
        if horizon is not None:
            now = horizon
    return log


def _engine_order(nodes, segments):
    """The same schedule on an :class:`Environment`: every kind through
    its own public entry point."""
    env = Environment()
    net = Network(env, hop_resolver=lambda a, b: 0)
    a = net.attach(SimHost(env, "a"), "a")
    b = net.attach(SimHost(env, "b"), "b")
    conn = net.connect(a, b)
    children = _children(nodes)
    log = []

    def dispatched(i):
        log.append((i, env.now))
        for child in children[i]:
            schedule(child)

    def sleeper():
        while True:
            try:
                yield env.event()
            except Interrupt as interrupt:
                dispatched(interrupt.cause)

    proc = env.process(sleeper())
    b.set_handler(lambda message, via: dispatched(message.payload))

    def schedule(i):
        kind, delay, priority, _ = nodes[i]
        if kind == "timeout":
            env.timeout(delay).callbacks.append(lambda _ev: dispatched(i))
        elif kind == "event":
            ev = env.event()
            ev.callbacks.append(lambda _ev: dispatched(i))
            ev.succeed(priority=priority)
        elif kind == "call_at":
            env.call_at(env.now + delay, lambda: dispatched(i), priority=priority)
        elif kind == "interrupt":
            proc.interrupt(i)
        else:
            conn.send(a, "m", i, extra_delay=delay)

    # The sleeper's start is the one event not in the reference.
    env.run(until=0.0)
    for roots, offset in segments:
        for i in roots:
            schedule(i)
        env.run(until=None if offset is None else env.now + offset)
    assert env._queue == [] and env._buckets == {}
    return log


class TestQueueOrder:
    @settings(max_examples=300, deadline=None)
    @given(_schedules())
    def test_dispatch_is_reference_heap_order(self, schedule):
        nodes, segments = schedule
        assert _engine_order(nodes, segments) == _reference_order(nodes, segments)

    def test_one_heap_entry_per_instant(self):
        env = Environment()
        fired = []
        for _ in range(5):
            env.timeout(1.0).callbacks.append(lambda ev: fired.append(env.now))
        env.call_at(1.0, lambda: fired.append("urgent"), priority=URGENT)
        assert sorted(entry[:2] for entry in env._queue) == [
            (1.0, URGENT),
            (1.0, NORMAL),
        ]
        assert len(env._buckets[1.0, NORMAL]) == 5
        env.run()
        assert fired == ["urgent"] + [1.0] * 5
        assert env._queue == [] and env._buckets == {}


def _fields(message):
    return tuple(getattr(message, name) for name in Message.__slots__)


class TestMessageRecycling:
    """Delivered messages are reused only when nothing references them."""

    @staticmethod
    def _pair(env):
        net = Network(env)
        a = net.attach(SimHost(env, "a"), "a")
        b = net.attach(SimHost(env, "b"), "b")
        return net, a, b, net.connect(a, b)

    def test_a_held_message_is_never_reused(self):
        env = Environment()
        net, a, b, conn = self._pair(env)
        seen = []
        b.set_handler(lambda message, via: seen.append(message.seq))
        for i in range(5):
            conn.send(a, "warm", i)
        env.run()
        assert len(env._message_pool) == 5
        held = conn.send(a, "ping", (1, "x"), size_bytes=100)
        fields = _fields(held)
        env.run()
        assert seen[-1] == held.seq
        assert _fields(held) == fields
        assert (held.payload, held.target, held.via) == ((1, "x"), b, conn)
        for i in range(50):
            assert conn.send(a, "later", i) is not held
            env.run()
        assert _fields(held) == fields
        assert all(m is not held for m in env._message_pool)

    def test_messages_a_handler_keeps_stay_unchanged(self):
        env = Environment()
        net, a, b, conn = self._pair(env)
        kept = []

        def keep_and_reply(message, via):
            kept.append(message)
            via.send(b, "ack", message.payload)

        b.set_handler(keep_and_reply)
        a.set_handler(lambda message, via: None)  # frees every ack
        for i in range(10):
            conn.send(a, "ping", (i,))
            env.run()
        before = [_fields(m) for m in kept]
        for i in range(100):
            conn.send(a, "more", (10 + i,))
            env.run()
        assert [_fields(m) for m in kept[:10]] == before
        assert len({id(m) for m in kept}) == 110
        # The acks went round the pool: a warm send allocates nothing.
        assert len(env._message_pool) == 1

    def test_a_burst_past_the_cap_leaves_the_pool_at_its_cap(self):
        env = Environment()
        net, a, b, conn = self._pair(env)
        b.set_handler(lambda message, via: None)
        n = engine_mod._MESSAGE_POOL_CAP + 100
        for _ in range(2):
            net.send_many([(conn, a)] * n, "burst", [None] * n, 8)
            env.run()
            assert len(env._message_pool) == engine_mod._MESSAGE_POOL_CAP

    def test_recycle_skips_what_is_still_held(self):
        env = Environment()
        net, a, b, conn = self._pair(env)
        for i in range(4):
            conn.send(a, "queued", i)
        env.run()
        # No handler: the inbox holds them, so delivery frees none.
        assert env._message_pool == []
        batch = b.inbox.drain()
        kept = batch[1]
        env.recycle(batch)
        assert batch == [] and len(env._message_pool) == 3
        assert kept not in env._message_pool
        assert (kept.kind, kept.payload, kept.via) == ("queued", 1, conn)
        assert all(m.payload is None for m in env._message_pool)

    def test_deferred_peer_summaries_are_not_recycled(self):
        from repro.core.controller import _Fan
        from repro.core.costs import CostModel

        env = Environment()
        net, peer, ctrl_ep, conn = self._pair(env)
        fan = _Fan(env, ctrl_ep.host, ctrl_ep, CostModel(), "ctrl")
        fan.defer_kinds = {"peer_summary"}
        summary = (2, {"job": (5.0, 1.0)})
        got = []

        def driver():
            got.append((yield from fan._await_replies(1, 1, {"reply": 1e-6})))
            got.append(
                (
                    yield from fan._await_replies(
                        1, 2, {"peer_summary": 1e-6},
                        lambda m: got.append((m.kind, m.payload)),
                    )
                )
            )

        # Queued before the phase starts, so it drains them as one batch:
        # a stale reply, the next epoch's summary, the reply.
        conn.send(peer, "reply", (0, "stale"))
        conn.send(peer, "peer_summary", summary)
        conn.send(peer, "reply", (1, "fresh"))
        env.run()
        env.run(env.process(driver()))
        assert got == [1, ("peer_summary", summary), 1]
        assert fan.stale_messages == 1
        # The stale reply and the landed one went back to the pool; the
        # parked summary was read intact a phase later.
        assert len(env._message_pool) == 2


class TestGoldenTrace:
    """Event-ordering determinism pinned against a committed fixture.

    The fixture (``golden_hier_trace.json``) records every message
    delivery of a seeded 2-aggregator hierarchical run — timestamp,
    kind, sender, recipient, size — captured on the pre-fast-path
    kernel. The dispatch loop, and any future kernel change, must
    reproduce it byte for byte: the sha256 covers the full delivery
    trace plus the per-cycle phase timings.
    """

    N_STAGES = 40
    N_AGGREGATORS = 2
    N_CYCLES = 4

    @staticmethod
    def _run_traced(env):
        import hashlib
        import json
        import math
        import zlib

        from repro.core.control_plane import (
            ControlPlaneConfig,
            HierarchicalControlPlane,
        )
        from repro.dataplane.virtual_stage import VirtualStage
        from repro.simnet.transport import Endpoint

        class DeterministicSource:
            """Pure function of (stage_id, now): no RNG state involved."""

            def sample(self, stage_id, now):
                tag = zlib.crc32(stage_id.encode("utf-8"))
                base = 600.0 + (tag % 1000)
                wobble = 150.0 * math.sin(12.0 * now + (tag % 7))
                data = max(base + wobble, 0.0)
                return (data, 0.2 * data)

        cfg = ControlPlaneConfig(
            n_stages=TestGoldenTrace.N_STAGES,
            source_factory=lambda sid: DeterministicSource(),
        )
        plane = HierarchicalControlPlane.build(
            cfg, TestGoldenTrace.N_AGGREGATORS, env=env
        )
        trace = []
        # Every delivery: to a controller's endpoint, and to a stage (an
        # endpoint that serves its own).
        originals = {cls: cls.__dict__["_deliver"] for cls in (Endpoint, VirtualStage)}

        def spying_on(original):
            def spy(self, message, connection):
                trace.append(
                    [
                        f"{self.env.now:.9f}",
                        message.kind,
                        message.sender,
                        message.recipient,
                        message.size_bytes,
                    ]
                )
                return original(self, message, connection)

            return spy

        for cls, original in originals.items():
            cls._deliver = spying_on(original)
        try:
            proc = plane.global_controller.run_cycles(TestGoldenTrace.N_CYCLES)
            env.run(until=proc)
        finally:
            for cls, original in originals.items():
                cls._deliver = original
        cycles = [
            [c.epoch, f"{c.started_at:.9f}", f"{c.collect_s:.9f}",
             f"{c.compute_s:.9f}", f"{c.enforce_s:.9f}"]
            for c in plane.global_controller.cycles
        ]
        digest = hashlib.sha256(
            json.dumps([trace, cycles], separators=(",", ":")).encode()
        ).hexdigest()
        return trace, cycles, digest

    @staticmethod
    def _fixture():
        import json
        from pathlib import Path

        path = Path(__file__).with_name("golden_hier_trace.json")
        return json.loads(path.read_text(encoding="utf-8"))

    def test_reproduces_golden_trace(self):
        fixture = self._fixture()
        trace, cycles, digest = self._run_traced(Environment())
        assert len(trace) == fixture["n_deliveries"]
        assert trace[: len(fixture["head"])] == fixture["head"]
        assert trace[-len(fixture["tail"]):] == fixture["tail"]
        assert cycles == fixture["cycles"]
        assert digest == fixture["sha256"]
