"""Callback frame pump, flush accounting and the counting phase barrier.

The wire path has no reader task: a ``FrameLink`` parses frames inside
its read callback and a ``Session`` routes each one synchronously — the
four hot kinds as ``(kind, epoch, a, b)`` records, anything else as its
message dict. These
tests drive that path with a fake transport (no sockets), and keep the
regression coverage for two hazards that matter once aggregators relay
frames: tx bytes charged for writes that never reached the socket
(phantom REMORA rows), and real errors from a phase's reply handler
silently downgraded to "missing".
"""

import asyncio
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.codec import decode_at, frame_packer
from repro.live.protocol import (
    MAX_FRAME,
    FrameLink,
    ProtocolError,
    decode_body,
    encode,
)
from repro.live.sessions import (
    PhaseDriver,
    Session,
    SessionClosed,
    collect_request,
    gather_replies,
)
from repro.obs.procfs import ComponentUsageMeter


class _FakeTransport:
    """Transport stand-in: records writes, can refuse them, dies on abort."""

    def __init__(self, link, fail_write=False):
        self.link = link
        self.fail_write = fail_write
        self.written = bytearray()
        self.closed = False

    def write(self, data):
        if self.fail_write:
            raise ConnectionResetError("peer vanished mid-flush")
        self.written += data

    def close(self):
        self.closed = True

    def abort(self):
        # A real transport reports the loss on the next loop iteration;
        # doing it inline keeps these tests free of sleeps.
        self.closed = True
        if not self.link.lost:
            self.link.connection_lost(None)


def _link(on_frame=None, fail_write=False):
    link = FrameLink(on_frame)
    link.connection_made(_FakeTransport(link, fail_write))
    return link


def _session(meter=None, fail_write=False, peer_id="peer-under-test"):
    return Session(peer_id, _link(fail_write=fail_write), meter=meter)


def _reply(epoch, stage_id="s"):
    """A ``rule_ack`` frame."""
    return frame_packer("rule_ack", stage_id)(epoch)


def _metrics(epoch, stage_id="s"):
    """A ``metrics_reply`` frame."""
    return frame_packer("metrics_reply", stage_id, "j")(epoch, 1.0, 0.0)


def _deliver(session, frame):
    session.link.data_received(frame)


def _delivered(frame):
    """What a link hands ``on_frame`` for ``frame``: a hot kind's record,
    any other kind's message dict."""
    if frame[4] == 0xB1:
        return decode_at(frame, 4, len(frame))
    return decode_body(frame[4:])


_FRAMES = st.lists(
    st.one_of(
        st.builds(_reply, st.integers(0, 2**40), st.text(max_size=12)),
        st.builds(frame_packer("collect_req"), st.integers(0, 9)),
        st.builds(
            lambda n: encode({"kind": "topology", "aggregators": list(range(n))}),
            st.integers(0, 40),
        ),
    ),
    min_size=1,
    max_size=8,
)


class TestFramePump:
    def test_frame_delivered_one_byte_at_a_time(self):
        got = []
        link = _link(lambda m, n: got.append((m, n)))
        frame = _reply(7)
        for i in range(len(frame) - 1):
            link.data_received(frame[i : i + 1])
            assert got == []
        link.data_received(frame[-1:])
        assert got == [(("rule_ack", 7, None, None), len(frame))]

    def test_five_frames_in_one_segment(self):
        got = []
        link = _link(lambda m, n: got.append(m))
        link.data_received(b"".join(_reply(e) for e in range(5)))
        assert got == [("rule_ack", e, None, None) for e in range(5)]

    def test_segment_ending_mid_header_then_mid_body(self):
        got = []
        link = _link(lambda m, n: got.append(m))
        stream = _reply(1) + _reply(2)
        cut_a = len(_reply(1)) + 2  # two header bytes of #2
        cut_b = cut_a + 9  # header complete, body partial
        link.data_received(stream[:cut_a])
        assert [m[1] for m in got] == [1]
        link.data_received(stream[cut_a:cut_b])
        assert [m[1] for m in got] == [1]
        link.data_received(stream[cut_b:])
        assert got == [("rule_ack", 1, None, None), ("rule_ack", 2, None, None)]

    def test_oversize_length_header_kills_the_session_not_the_phase(self):
        async def scenario():
            session = _session()
            waiter = asyncio.ensure_future(
                gather_replies([session], "rule_ack", 1, lambda s, m: None, 30.0)
            )
            await asyncio.sleep(0)
            session.link.data_received(struct.pack(">I", MAX_FRAME + 1) + b"x" * 64)
            # The deadline is far off: only the kill can have resolved it.
            return session, await asyncio.wait_for(waiter, timeout=1.0)

        session, (missing, timed_out) = asyncio.run(scenario())
        assert missing == [session] and not timed_out
        assert not session.connected
        assert session.link.transport is None

    def test_undecodable_body_kills_the_session(self):
        session = _session()
        session.link.data_received(struct.pack(">I", 3) + b"{{{")
        assert not session.connected

    def test_frames_after_close_in_the_same_segment_are_dropped(self):
        got = []
        link = _link()

        def on_frame(message, nbytes):
            got.append(message)
            link.close()

        link.on_frame = on_frame
        link.data_received(_reply(1) + _reply(2))
        assert [m[1] for m in got] == [1]

    @settings(max_examples=60, deadline=None)
    @given(
        frames=_FRAMES,
        cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=12),
    )
    def test_any_chunking_yields_the_same_messages(self, frames, cuts):
        """Chunk boundaries are invisible: the pump yields exactly what
        decoding frame by frame yields, in order."""
        stream = b"".join(frames)
        expected = [(_delivered(f), len(f)) for f in frames]
        got = []
        link = _link(lambda m, n: got.append((m, n)))
        edges = sorted({min(c, len(stream)) for c in cuts} | {0, len(stream)})
        for a, b in zip(edges, edges[1:]):
            link.data_received(stream[a:b])
        assert got == expected


class TestFlushAccounting:
    def test_tx_charged_only_on_flush_success(self):
        async def scenario():
            meter = ComponentUsageMeter("test")
            session = _session(meter)
            session.feed({"kind": "agg_collect_req", "epoch": 1})
            session.feed({"kind": "agg_collect_req", "epoch": 2})
            # Buffered, not written: nothing charged yet.
            assert session.tx_bytes == 0
            assert meter.tx_bytes == 0
            assert session.pending_frames == 2
            await session.flush(30.0)
            return session, meter

        session, meter = asyncio.run(scenario())
        assert session.tx_bytes == len(session.link.transport.written) > 0
        assert meter.tx_bytes == session.tx_bytes
        assert session.pending_frames == 0

    def test_failed_flush_charges_nothing_and_keeps_drop_count(self):
        async def scenario():
            meter = ComponentUsageMeter("test")
            session = _session(meter, fail_write=True)
            for i in range(3):
                session.feed({"kind": "batch_ack", "epoch": i})
            with pytest.raises(SessionClosed):
                await session.flush(30.0)
            return session, meter

        session, meter = asyncio.run(scenario())
        # The write was refused: no phantom traffic in the NIC rows.
        assert session.tx_bytes == 0
        assert meter.tx_bytes == 0
        # The drop count survives — three frames died with the session.
        assert session.pending_frames == 3
        assert not session.connected

    def test_feed_after_failed_flush_raises(self):
        async def scenario():
            session = _session(fail_write=True)
            session.feed({"kind": "agg_collect_req", "epoch": 1})
            with pytest.raises(SessionClosed):
                await session.flush(30.0)
            with pytest.raises(SessionClosed):
                session.feed({"kind": "agg_collect_req", "epoch": 2})

        asyncio.run(scenario())

    def test_flush_on_a_lost_link_charges_nothing(self):
        async def scenario():
            session = _session()
            session.feed({"kind": "agg_collect_req", "epoch": 1})
            session.link.connection_lost(ConnectionResetError())
            with pytest.raises(SessionClosed):
                await session.flush(30.0)
            return session

        session = asyncio.run(scenario())
        assert session.tx_bytes == 0
        assert session.pending_frames == 1

    def test_flush_suspends_only_while_writing_is_paused(self):
        async def scenario():
            session = _session()
            session.feed({"kind": "agg_collect_req", "epoch": 1})
            await asyncio.wait_for(session.flush(30.0), timeout=1.0)  # never waits
            session.link.pause_writing()
            session.feed({"kind": "agg_collect_req", "epoch": 2})
            flush = asyncio.ensure_future(session.flush(30.0))
            await asyncio.sleep(0.01)
            written_while_paused = bytes(session.link.transport.written)
            assert not flush.done()
            session.link.resume_writing()
            await asyncio.wait_for(flush, timeout=1.0)
            return session, written_while_paused

        session, written_while_paused = asyncio.run(scenario())
        # The burst went to the transport at once; only the *next* write
        # would have had to wait.
        assert written_while_paused == bytes(session.link.transport.written)
        assert session.tx_bytes == len(written_while_paused)

    def test_phase_deadline_covers_the_send_half(self):
        """A peer that stopped reading (its transport past the high-water
        mark) is waited for until the phase deadline, not for ever: it
        ends up absent but connected, everyone else is served."""

        class Owner(PhaseDriver):
            meter = None

            def __init__(self):
                self.evicted = []

            def _evict(self, session):
                self.evicted.append(session)

        async def scenario():
            sessions = [_session(peer_id=f"p{i}") for i in range(3)]
            first, middle, last = sessions
            middle.link.pause_writing()
            for session in (first, last):  # answers that beat the barrier
                _deliver(session, _metrics(1, session.peer_id))
            owner = Owner()
            loop = asyncio.get_running_loop()
            started = loop.time()
            absent, timed_out = await asyncio.wait_for(
                owner._phase(
                    sessions, collect_request(1), "metrics_reply", 1, None, 0.05
                ),
                timeout=1.0,
            )
            return sessions, owner, absent, timed_out, loop.time() - started

        sessions, owner, absent, timed_out, elapsed = asyncio.run(scenario())
        first, middle, last = sessions
        assert absent == [middle] and timed_out
        assert 0.04 <= elapsed < 0.5
        assert owner.evicted == [] and middle.connected
        # Everyone's request reached its transport, the stalled peer's too.
        for session in sessions:
            assert bytes(session.link.transport.written) == frame_packer("collect_req")(1)

    def test_paused_flush_raises_if_the_link_dies(self):
        async def scenario():
            session = _session()
            session.link.pause_writing()
            session.feed({"kind": "agg_collect_req", "epoch": 1})
            flush = asyncio.ensure_future(session.flush(30.0))
            await asyncio.sleep(0)
            session.link.connection_lost(None)
            with pytest.raises(SessionClosed):
                await asyncio.wait_for(flush, timeout=1.0)
            return session

        assert not asyncio.run(scenario()).connected


class TestGatherPhaseErrors:
    def test_on_reply_error_propagates(self):
        """A real error from the reply handler must raise from the phase,
        not be silently recorded as a missing session (the PR 6
        regression, now for the synchronous handler)."""

        async def scenario():
            fast, slow = _session(peer_id="fast"), _session(peer_id="slow")

            def on_reply(session, message):
                if session is slow:
                    raise ProtocolError("malformed reply")

            waiter = asyncio.ensure_future(
                gather_replies([fast, slow], "rule_ack", 1, on_reply, 5.0)
            )
            await asyncio.sleep(0)
            _deliver(fast, _reply(1))
            _deliver(slow, _reply(1))
            with pytest.raises(ProtocolError, match="malformed reply"):
                await asyncio.wait_for(waiter, timeout=1.0)
            return fast, slow

        fast, slow = asyncio.run(scenario())
        # Nothing stays armed behind a failed phase.
        assert fast._armed is None and slow._armed is None

    def test_session_closed_from_on_reply_stays_missing(self):
        async def scenario():
            dead = _session()

            def on_reply(session, message):
                raise SessionClosed("peer gone")

            waiter = asyncio.ensure_future(
                gather_replies([dead], "rule_ack", 1, on_reply, 30.0)
            )
            await asyncio.sleep(0)
            _deliver(dead, _reply(1))
            return await asyncio.wait_for(waiter, timeout=1.0)

        missing, timed_out = asyncio.run(scenario())
        assert not timed_out
        assert len(missing) == 1

    def test_plain_deadline_reports_missing(self):
        async def scenario():
            quiet = _session()
            return await gather_replies(
                [quiet], "rule_ack", 1, lambda s, m: None, timeout_s=0.05
            )

        missing, timed_out = asyncio.run(scenario())
        assert timed_out
        assert [s.peer_id for s in missing] == ["peer-under-test"]

    def test_last_arrival_resolves_without_the_deadline(self):
        async def scenario():
            sessions = [_session(peer_id=f"p{i}") for i in range(3)]
            seen = []
            waiter = asyncio.ensure_future(
                gather_replies(
                    sessions, "rule_ack", 4, lambda s, m: seen.append(s.peer_id), 30.0
                )
            )
            await asyncio.sleep(0)
            for s in reversed(sessions):
                assert not waiter.done()
                _deliver(s, _reply(4))
            return seen, await asyncio.wait_for(waiter, timeout=1.0)

        seen, (missing, timed_out) = asyncio.run(scenario())
        assert seen == ["p2", "p1", "p0"]
        assert missing == [] and not timed_out

    def test_late_reply_is_stale_exactly_once_and_never_satisfies_next_epoch(self):
        async def scenario():
            session = _session()
            answered = []
            on_reply = lambda s, m: answered.append(m[1])  # noqa: E731
            first = await gather_replies([session], "rule_ack", 1, on_reply, 0.02)
            # Epoch 1's reply lands after its deadline...
            _deliver(session, _reply(1))
            waiter = asyncio.ensure_future(
                gather_replies([session], "rule_ack", 2, on_reply, 30.0)
            )
            await asyncio.sleep(0.01)
            # ...and does not satisfy epoch 2, which is still waiting.
            assert not waiter.done()
            stale_before_answer = session.stale_messages
            _deliver(session, _reply(2))
            second = await asyncio.wait_for(waiter, timeout=1.0)
            return session, first, second, answered, stale_before_answer

        session, first, second, answered, stale_mid = asyncio.run(scenario())
        assert first == ([session], True)
        assert second == ([], False)
        assert answered == [2]
        assert stale_mid == 1
        assert session.stale_messages == 1

    def test_duplicate_and_wrong_kind_frames_while_armed_are_stale(self):
        async def scenario():
            a, b = _session(peer_id="a"), _session(peer_id="b")
            waiter = asyncio.ensure_future(
                gather_replies([a, b], "rule_ack", 3, lambda s, m: None, 30.0)
            )
            await asyncio.sleep(0)
            _deliver(b, _metrics(3, "b"))
            _deliver(b, _reply(2))
            _deliver(a, _reply(3))
            _deliver(b, _reply(3))
            await asyncio.wait_for(waiter, timeout=1.0)
            return a, b

        a, b = asyncio.run(scenario())
        assert (a.stale_messages, b.stale_messages) == (0, 2)

    def test_eof_mid_phase_resolves_the_barrier_without_a_deadline(self):
        async def scenario():
            alive, dying = _session(peer_id="alive"), _session(peer_id="dying")
            waiter = asyncio.ensure_future(
                gather_replies([alive, dying], "rule_ack", 1, lambda s, m: None, 30.0)
            )
            await asyncio.sleep(0)
            _deliver(alive, _reply(1))
            assert not waiter.done()
            dying.link.connection_lost(None)
            return dying, await asyncio.wait_for(waiter, timeout=1.0)

        dying, (missing, timed_out) = asyncio.run(scenario())
        assert missing == [dying] and not timed_out
        assert not dying.connected

    def test_session_dead_before_the_phase_is_missing_at_once(self):
        async def scenario():
            dead = _session()
            dead.link.connection_lost(None)
            return await asyncio.wait_for(
                gather_replies([dead], "rule_ack", 1, lambda s, m: None, 30.0),
                timeout=1.0,
            )

        missing, timed_out = asyncio.run(scenario())
        assert len(missing) == 1 and not timed_out

    def test_reply_that_beat_the_barrier_is_not_lost(self):
        """A flush that waits out back-pressure lets earlier peers answer
        before the phase is armed; those replies must still count."""

        async def scenario():
            session = _session()
            _deliver(session, _reply(0))  # leftover from a finished epoch
            _deliver(session, _reply(1))  # early answer to the coming one
            answered = []
            result = await asyncio.wait_for(
                gather_replies(
                    [session], "rule_ack", 1,
                    lambda s, m: answered.append(m[1]), 30.0,
                ),
                timeout=1.0,
            )
            return session, result, answered

        session, (missing, timed_out), answered = asyncio.run(scenario())
        assert missing == [] and not timed_out
        assert answered == [1]
        assert session.stale_messages == 1

    def test_out_of_band_kinds_bypass_the_phase_and_are_never_stale(self):
        async def scenario():
            session = _session()
            session.oob_kinds = frozenset({"partition"})
            update = {"kind": "partition", "generation": 1, "stage_ids": []}
            _deliver(session, encode(update))
            waiter = asyncio.ensure_future(
                gather_replies([session], "rule_ack", 1, lambda s, m: None, 30.0)
            )
            await asyncio.sleep(0)
            _deliver(session, encode(update))
            _deliver(session, _reply(1))
            await asyncio.wait_for(waiter, timeout=1.0)
            return session, update

        session, update = asyncio.run(scenario())
        assert session.oob == [update, update]
        assert session.stale_messages == 0

    def test_cancelled_phase_disarms_its_sessions(self):
        async def scenario():
            session = _session()
            waiter = asyncio.ensure_future(
                gather_replies([session], "rule_ack", 1, lambda s, m: None, 30.0)
            )
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            return session

        assert asyncio.run(scenario())._armed is None

    def test_rx_bytes_and_meter_charged_per_frame(self):
        meter = ComponentUsageMeter("test")
        session = _session(meter)
        frame = _reply(1)
        session.link.data_received(frame + frame)
        assert session.rx_bytes == 2 * len(frame) == meter.rx_bytes
