"""The epoll pump under every ``FrameLink``, on real loopback sockets.

What asyncio's selector transports gave for free and ``repro.live.pump``
has to keep — back-pressure, flush-before-FIN, one loss callback per
link, exception isolation inside a batch, no callback after close, an
``accept`` that backs off when descriptors run out, a clean teardown —
plus the mechanism itself: the loop watches one descriptor however many
stages are registered, and a cycle costs it a handful of ``Handle``s.
Nothing here fakes a socket; a peer is a plain ``socket.socket``.

The 600-client registration burst (< 2 s) is
``test_callback_plane.py::TestRegistrationBurst``, unchanged. CI runs
this file once more under the derandomized ``ci`` hypothesis profile
(``tests/conftest.py``).
"""

import asyncio
import errno
import gc
import os
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_plane import default_policy
from repro.live import pump
from repro.live.codec import frame_packer
from repro.live.controller_server import InProcessGlobalController, LiveGlobalController
from repro.live.harness import LiveHierPlane
from repro.live.protocol import FrameLink
from repro.live.sessions import Session, gather_replies
from repro.live.stage_client import LiveVirtualStage

_ACK = frame_packer("rule_ack", "s")


class _Rig:
    """A pump listener whose accepted links are collected, plus raw peers."""

    def __init__(self, sndbuf=None):
        self.links = []
        self.lost = {}  # link -> [exc, ...]
        self.listener = pump.listen(self._factory, "127.0.0.1", 0, 128)
        if sndbuf is not None:  # inherited by accepted sockets
            self.listener.sockets[0].setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf
            )
        self.address = self.listener.sockets[0].getsockname()
        self.peers = []

    def _factory(self):
        link = FrameLink(on_frame=lambda message, nbytes: None)
        self.lost[link] = []
        link.on_lost = self.lost[link].append
        self.links.append(link)
        return link

    async def peer(self, rcvbuf=None):
        """Connect one more raw peer; returns ``(peer socket, its link)``."""
        sock = socket.socket()
        if rcvbuf is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, self.address)
        self.peers.append(sock)
        while len(self.links) < len(self.peers):
            await asyncio.sleep(0)
        return sock, self.links[-1]

    def close(self):
        self.listener.close()
        for link in self.links:
            link.abort()
        for sock in self.peers:
            sock.close()


async def _read_to_eof(sock):
    """Everything ``sock`` delivers until EOF (or a reset)."""
    loop = asyncio.get_running_loop()
    got = bytearray()
    while True:
        try:
            chunk = await asyncio.wait_for(loop.sock_recv(sock, 1 << 16), 5.0)
        except ConnectionError:
            return bytes(got)
        if not chunk:
            return bytes(got)
        got += chunk


def _fill_until_paused(link, chunk=b"x" * 8192, limit=64 << 20):
    """Write to a peer that is not reading until ``pause_writing``."""
    written = 0
    while not link.paused:
        assert written < limit, "the link never paused"
        link.write(chunk)
        written += len(chunk)
    return written


async def _settle(rounds=3):
    for _ in range(rounds):
        await asyncio.sleep(0)


class TestBackPressure:
    @settings(max_examples=20, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40_000), min_size=1, max_size=8))
    def test_slow_peer_pauses_the_link_and_reading_it_dry_resumes_in_order(
        self, sizes
    ):
        async def scenario():
            rig = _Rig(sndbuf=4096)
            try:
                peer, link = await rig.peer(rcvbuf=4096)
                session = Session("peer", link)
                sent = bytearray()
                i = 0
                while not link.paused:
                    assert len(sent) < 64 << 20, "the link never paused"
                    size = sizes[i % len(sizes)]
                    chunk = bytes((i + k) & 0xFF for k in range(size))
                    session.send(chunk)
                    sent += chunk
                    i += 1
                assert len(link.transport._pending) > pump.HIGH_WATER
                # One more burst behind a peer that still is not reading:
                # the flush gives up at its deadline, link still paused.
                session.feed_frame(b"tail")
                sent += b"tail"
                await session.flush(timeout_s=0.05)
                still_paused = link.paused
                loop = asyncio.get_running_loop()
                got = bytearray()
                while len(got) < len(sent):
                    got += await asyncio.wait_for(loop.sock_recv(peer, 1 << 16), 5.0)
                await _settle()
                return still_paused, link.paused, bytes(got) == bytes(sent)
            finally:
                rig.close()

        still_paused, paused_after, in_order = asyncio.run(scenario())
        assert still_paused
        assert not paused_after
        assert in_order


class TestCloseAndAbort:
    @pytest.mark.parametrize("how", ["close", "abort"])
    def test_close_flushes_what_is_queued_abort_drops_it(self, how):
        async def scenario():
            rig = _Rig(sndbuf=4096)
            try:
                peer, link = await rig.peer(rcvbuf=4096)
                written = _fill_until_paused(link)
                getattr(link, how)()
                synchronous = list(rig.lost[link])
                got = await _read_to_eof(peer)
                await _settle()
                return written, len(got), synchronous, list(rig.lost[link])
            finally:
                rig.close()

        written, received, synchronous, lost = asyncio.run(scenario())
        assert synchronous == []  # never from inside close() / abort()
        assert lost == [None]
        if how == "close":
            assert received == written
        else:
            assert received < written

    def test_peer_reset_is_one_on_lost_and_counts_an_armed_session_off(self):
        async def scenario():
            rig = _Rig()
            try:
                peer, link = await rig.peer()
                session = Session("peer", link)
                seen = []
                mark_dead = link.on_lost
                link.on_lost = lambda exc: (seen.append(exc), mark_dead(exc))
                wait = asyncio.create_task(
                    gather_replies([session], "rule_ack", 1, None, timeout_s=5.0)
                )
                await asyncio.sleep(0)
                # SO_LINGER 0: close() sends RST instead of FIN.
                peer.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                peer.close()
                missing, timed_out = await asyncio.wait_for(wait, 5.0)
                await _settle()
                return seen, missing == [session], timed_out, session.connected
            finally:
                rig.close()

        seen, missing, timed_out, connected = asyncio.run(scenario())
        assert len(seen) == 1 and isinstance(seen[0], ConnectionResetError)
        assert missing and not timed_out and not connected


class TestBatchIsolation:
    def test_a_raising_callback_loses_its_link_and_the_batch_goes_on(self):
        n = 26

        async def scenario():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda loop, context: errors.append(context))
            rig = _Rig()
            try:
                for _ in range(n):
                    await rig.peer()
                order = []

                def raising(message, nbytes):
                    order.append(0)
                    # Runs only once this batch's one Handle returned.
                    loop.call_soon(order.append, "next loop iteration")
                    raise RuntimeError("boom")

                rig.links[0].on_frame = raising
                for i in range(1, n):
                    rig.links[i].on_frame = lambda m, nbytes, i=i: order.append(i)
                for peer in rig.peers:  # A first, all in one go
                    peer.send(_ACK(1))
                while len(order) < n + 1:
                    await asyncio.sleep(0.001)
                await _settle()
                return order, errors, [list(rig.lost[link]) for link in rig.links]
            finally:
                rig.close()

        order, errors, lost = asyncio.run(scenario())
        # B..Z were served in A's batch, before the loop ran anything else.
        assert sorted(order[:n]) == list(range(n))
        assert order[n] == "next loop iteration"
        assert len(errors) == 1 and isinstance(errors[0]["exception"], RuntimeError)
        assert len(lost[0]) == 1 and isinstance(lost[0][0], RuntimeError)
        assert all(entry == [] for entry in lost[1:])

    @pytest.mark.parametrize("queued", [False, True], ids=["idle", "flushing"])
    def test_a_link_closed_earlier_in_the_batch_gets_no_callback(self, queued):
        async def scenario():
            rig = _Rig(sndbuf=4096)
            try:
                peer_a, link_a = await rig.peer()
                peer_b, link_b = await rig.peer(rcvbuf=4096)
                if queued:  # B's close() has bytes to flush first
                    _fill_until_paused(link_b)
                frames_b = []
                link_a.on_frame = lambda message, nbytes: link_b.close()
                link_b.on_frame = lambda message, nbytes: frames_b.append(message)
                peer_a.send(_ACK(1))
                peer_b.send(_ACK(1))
                await asyncio.sleep(0.05)
                await _read_to_eof(peer_b)
                await _settle()
                return frames_b, list(rig.lost[link_b]), list(rig.lost[link_a])
            finally:
                rig.close()

        frames_b, lost_b, lost_a = asyncio.run(scenario())
        assert frames_b == []
        assert lost_b == [None]
        assert lost_a == []


class _ExhaustedSocket:
    """The listening socket, with ``accept`` out of descriptors for a while."""

    def __init__(self, sock):
        self._sock = sock
        self.failures = 0
        self.failing = True

    def accept(self):
        if self.failing:
            self.failures += 1
            raise OSError(errno.EMFILE, "Too many open files")
        return self._sock.accept()

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestAcceptBackoff:
    def test_emfile_drops_interest_instead_of_spinning_then_resumes(self, monkeypatch):
        monkeypatch.setattr(pump, "ACCEPT_RETRY_S", 0.3)
        drains = [0]
        drain = pump._Pump._drain

        def counting(self):
            drains[0] += 1
            return drain(self)

        monkeypatch.setattr(pump._Pump, "_drain", counting)

        async def scenario():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda loop, context: errors.append(context))
            rig = _Rig()
            try:
                exhausted = rig.listener._sock = _ExhaustedSocket(rig.listener._sock)
                sock = socket.socket()
                sock.setblocking(False)
                await loop.sock_connect(sock, rig.address)  # queued, not accepted
                rig.peers.append(sock)
                await asyncio.sleep(0.2)
                while_backing_off = (drains[0], exhausted.failures, len(rig.links))
                exhausted.failing = False
                await asyncio.sleep(0.3)
                return while_backing_off, len(rig.links), errors
            finally:
                rig.close()

        (drained, failures, accepted_early), accepted, errors = asyncio.run(scenario())
        # A level-triggered listener left registered would have spun the
        # loop for the whole 0.2 s.
        assert 1 <= failures <= drained <= 2
        assert accepted_early == 0
        assert accepted == 1
        assert len(errors) == failures


class TestMechanism:
    """One descriptor under asyncio, one ``Handle`` per burst."""

    @staticmethod
    async def _flat(n):
        ctrl = LiveGlobalController(default_policy(n), expected_stages=n)
        await ctrl.start()
        stages = [
            LiveVirtualStage(ctrl.host, ctrl.port, f"s-{i:03d}", f"j-{i:03d}")
            for i in range(n)
        ]
        tasks = [asyncio.create_task(s.run()) for s in stages]
        await ctrl.wait_for_stages()
        return ctrl, tasks

    @staticmethod
    async def _stop(ctrl, tasks):
        await ctrl.shutdown()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def test_loop_selector_does_not_grow_with_the_number_of_stages(self):
        async def scenario(n):
            ctrl, tasks = await self._flat(n)
            try:
                await ctrl.run_cycles(1)
                return len(asyncio.get_running_loop()._selector.get_map())
            finally:
                await self._stop(ctrl, tasks)

        assert asyncio.run(scenario(200)) == asyncio.run(scenario(400))

    def test_stages_registering_make_no_selector_calls(self, monkeypatch):
        """Dials sit on the pump's epoll too: registering 200 stages
        neither registers nor unregisters anything with the loop's
        selector (a dial through ``loop.sock_connect`` costs one each)."""
        n = 200

        async def scenario():
            # In-process: the listener puts this loop's pump in place
            # before the count starts (a forked controller's stages would
            # add the pump's one reader with their first dial).
            ctrl = InProcessGlobalController(default_policy(n), expected_stages=n)
            await ctrl.start()
            selector = asyncio.get_running_loop()._selector
            calls = {"register": 0, "unregister": 0}
            for name in calls:

                def counting(*args, _name=name, _method=getattr(selector, name)):
                    calls[_name] += 1
                    return _method(*args)

                monkeypatch.setattr(selector, name, counting)
            tasks = [
                asyncio.create_task(
                    LiveVirtualStage(ctrl.host, ctrl.port, f"s-{i:03d}", "j").run()
                )
                for i in range(n)
            ]
            try:
                await ctrl.wait_for_stages()
                return dict(calls), len(ctrl.sessions)
            finally:
                monkeypatch.undo()
                await self._stop(ctrl, tasks)

        assert asyncio.run(scenario()) == ({"register": 0, "unregister": 0}, n)

    def test_steady_flat_cycle_costs_the_loop_a_handful_of_handles(self, monkeypatch):
        n, cycles = 200, 5
        runs = [0]
        run = asyncio.events.Handle._run

        def counting(handle):
            runs[0] += 1
            return run(handle)

        async def scenario():
            ctrl, tasks = await self._flat(n)
            try:
                await ctrl.run_cycles(2)
                monkeypatch.setattr(asyncio.events.Handle, "_run", counting)
                await ctrl.run_cycles(cycles)
                monkeypatch.undo()
                return ctrl.cycles[-1]
            finally:
                await self._stop(ctrl, tasks)

        cycle = asyncio.run(scenario())
        assert cycle.n_missing == 0
        # Four bursts of 200 frames a cycle: the selector-transport path
        # ran 802 Handles for them, the pump runs about 6.
        assert runs[0] / cycles <= 40

    def test_the_accepting_end_holds_its_acks_for_the_next_frame(self):
        """Not left to the kernel's guess (which flips with the plane's
        pace): after a send, the accepted socket is out of quick-ACK
        mode; the dialling end, which answers at once, is left alone."""

        def quickack(link):
            return link.transport._sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_QUICKACK
            )

        async def scenario():
            rig = _Rig()
            dialled = [FrameLink(on_frame=lambda message, nbytes: None) for _ in "ab"]
            try:
                for link in dialled:
                    await pump.connect(link, *rig.address)
                while len(rig.links) < 2:
                    await asyncio.sleep(0)
                # Each writes on a connection that has carried nothing yet,
                # so the kernel has no guess of its own to make.
                before = quickack(rig.links[0]), quickack(dialled[1])
                rig.links[0].write(b"ping")
                dialled[1].write(b"ping")
                return before, (quickack(rig.links[0]), quickack(dialled[1]))
            finally:
                for link in dialled:
                    link.abort()
                rig.close()

        before, after = asyncio.run(scenario())
        assert before == (1, 1)
        assert after == (0, 1)


def _pumps_alive():
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, pump._Pump)]


def _epoll_targets(the_pump):
    """The descriptors registered with ``the_pump``'s epoll, as the
    kernel lists them."""
    with open(f"/proc/self/fdinfo/{the_pump._ep.fileno()}") as f:
        return {int(line.split()[1]) for line in f if line.startswith("tfd:")}


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestTeardown:
    def test_start_stop_rounds_leave_no_descriptor_and_no_pump(self):
        async def one_round():
            plane = LiveHierPlane(40, 4)
            await plane.start()
            await plane.wait_for_stages()
            await plane.run_cycles(2)
            await plane.stop()

        async def rounds():
            for _ in range(3):
                await one_round()
            await asyncio.sleep(0.05)  # deferred connection_lost steps

        assert _pumps_alive() == []
        before = _open_fds()
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(rounds())
        finally:
            loop.close()
        assert _open_fds() == before
        assert _pumps_alive() == []
        assert len(pump._pumps) == 0

    @pytest.mark.parametrize("listening", [False, True], ids=["alone", "beside-a-listener"])
    def test_a_refused_connect_raises_and_leaves_no_descriptor(self, listening):
        """``ConnectionRefusedError`` is what the reconnect loop
        counts; the dial's socket and registration go with it,
        and a pump it created for itself goes too."""

        async def scenario():
            rig = _Rig() if listening else None
            closed = socket.socket()  # bound, never listening: refused
            closed.bind(("127.0.0.1", 0))
            try:
                link = FrameLink(on_frame=lambda message, nbytes: None)
                with pytest.raises(ConnectionRefusedError):
                    await pump.connect(link, *closed.getsockname())
                the_pump = pump._pumps.get(asyncio.get_running_loop())
                census = None
                if the_pump is not None:
                    census = the_pump._connecting, _epoll_targets(the_pump)
                return census, link.transport
            finally:
                closed.close()
                if rig is not None:
                    rig.close()

        assert _pumps_alive() == []
        before = _open_fds()
        census, transport = asyncio.run(scenario())
        assert transport is None
        if listening:
            connecting, targets = census
            assert connecting == {} and len(targets) == 1  # the listener alone
        else:
            assert census is None
        assert _open_fds() == before
        assert _pumps_alive() == []

    def test_connects_cancelled_mid_dial_leave_no_descriptor_or_registration(self):
        n = 16

        async def scenario():
            rig = _Rig()
            the_pump = pump._pumps[asyncio.get_running_loop()]
            links = [FrameLink(on_frame=lambda message, nbytes: None) for _ in range(n)]
            tasks = [
                asyncio.create_task(pump.connect(link, *rig.address)) for link in links
            ]
            await asyncio.sleep(0)  # each has dialled and waits on the epoll
            dialling = len(the_pump._connecting)
            for task in tasks:
                task.cancel()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await _settle()
            # Whatever the listener accepted meanwhile is a link of its
            # own; nothing else may still be registered.
            census = (
                dict(the_pump._connecting),
                _epoll_targets(the_pump) == set(the_pump._links) | set(the_pump._listeners),
                [link.transport for link in links],
            )
            rig.close()
            await _settle()
            return dialling, results, census, the_pump._ep.closed

        assert _pumps_alive() == []
        before = _open_fds()
        dialling, results, census, closed = asyncio.run(scenario())
        assert dialling == n
        assert all(isinstance(r, asyncio.CancelledError) for r in results)
        assert census == ({}, True, [None] * n)
        assert closed  # the listener was the last one out
        assert _open_fds() == before
        assert _pumps_alive() == []
        assert len(pump._pumps) == 0

    def test_each_event_loop_gets_its_own_pump(self):
        async def scenario():
            rig = _Rig()
            try:
                return pump._pumps[asyncio.get_running_loop()]
            finally:
                rig.close()

        first = asyncio.run(scenario())
        second = asyncio.run(scenario())
        assert first is not second
        assert first._ep.closed and second._ep.closed

    def test_fifty_back_to_back_restarts_rebind_the_pinned_ports(self):
        """The listeners' ``close()`` is synchronous, which is why the
        harness has no ``EADDRINUSE`` retry loop any more."""

        async def scenario():
            plane = LiveHierPlane(40, 4)
            await plane.start()
            await plane.wait_for_stages()
            ports = (plane._ctrl_port, list(plane._agg_ports))
            try:
                for _ in range(50):
                    await plane.plane_restart()
                return ports == (plane._ctrl_port, list(plane._agg_ports))
            finally:
                await plane.stop()

        assert asyncio.run(scenario())
