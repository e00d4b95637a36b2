"""The aggregator tier's process boundary (:mod:`repro.live.tier`).

A ``LiveHierPlane`` forks one child for its aggregators. What the fork
must not do: leave a process or a descriptor behind, keep a socket the
parent closed alive, outlive the parent, or take a Ctrl-C meant for the
parent's shutdown. What it must keep: the counters and fault hooks the
plane's callers read and pull through ``plane.aggregators``.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import repro
from repro.live.faults import kill_aggregator, kill_stage
from repro.live.harness import LiveHierPlane

_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)
_SRC = str(Path(repro.__file__).resolve().parents[1])


def _children():
    """Processes (zombies included) whose parent is this one."""
    found = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            found.add(int(name))
    return found


def _running(pid):
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _fds():
    return len(os.listdir("/proc/self/fd"))


def _in_subprocess(body, **popen):
    """Run ``body`` (a script) in a fresh interpreter with ``repro``."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(body)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        **popen,
    )


class TestNothingLeftBehind:
    def _check(self, scenario):
        children, fds = _children(), _fds()
        loop = asyncio.new_event_loop()
        try:
            inside = loop.run_until_complete(scenario())
            loop.run_until_complete(asyncio.sleep(0.05))  # deferred closes
        finally:
            loop.close()
        assert _children() == children
        assert _fds() == fds
        return inside

    def test_stop(self):
        async def scenario():
            plane = LiveHierPlane(40, 4)
            await plane.start()
            await plane.wait_for_stages()
            await plane.run_cycles(2)
            tier = plane._tier.pid
            await plane.stop()
            return tier

        tier = self._check(scenario)
        assert not _running(tier)

    def test_kill_plane(self):
        async def scenario():
            plane = LiveHierPlane(40, 4, stage_backoff=_BACKOFF)
            await plane.start()
            await plane.wait_for_stages()
            await plane.run_cycles(1)
            tier = plane._tier
            pid = tier.pid
            await plane.kill_plane()
            gone = not _running(pid) and tier.returncode == -signal.SIGKILL
            await plane.stop()
            return gone

        assert self._check(scenario)

    def test_fifty_restarts(self):
        async def scenario():
            plane = LiveHierPlane(40, 4, stage_backoff=_BACKOFF)
            await plane.start()
            await plane.wait_for_stages()
            most = 0
            try:
                for _ in range(50):
                    await plane.plane_restart()
                    most = max(most, len(_children()))
                await plane.wait_for_stages()
                await plane.run_cycles(1)
                missing = plane.controller.cycles[-1].n_missing
            finally:
                await plane.stop()
            return most, missing

        most, missing = self._check(scenario)
        assert most == len(_children()) + 1  # one tier at a time
        assert missing == 0


class TestForkHygiene:
    def test_sockets_the_parent_closes_are_closed(self):
        """After the fork, a listener the parent closes frees its port
        and a connection it closes reaches its peer as EOF — while the
        tier, which inherited both descriptors, is still running."""

        async def scenario():
            listener = socket.create_server(("127.0.0.1", 0))
            port = listener.getsockname()[1]
            acceptor = socket.create_server(("127.0.0.1", 0))
            client = socket.create_connection(acceptor.getsockname())
            server, _ = acceptor.accept()
            acceptor.close()
            plane = LiveHierPlane(4, 2)
            await plane.start()
            try:
                await plane.wait_for_stages()
                tier = plane._tier.pid
                listener.close()
                rebound = socket.socket()
                rebound.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                rebound.bind(("127.0.0.1", port))  # EADDRINUSE if still held
                rebound.listen()
                rebound.close()
                server.close()
                client.settimeout(2.0)
                eof = client.recv(1) == b""
                client.close()
                return eof, _running(tier)
            finally:
                await plane.stop()

        assert asyncio.run(scenario()) == (True, True)

    def test_tier_exits_soon_after_the_parent_is_killed(self):
        """``kill -9`` on the parent closes its end of the control
        channel; the tier exits on that EOF instead of serving nobody."""
        proc = _in_subprocess(
            """
            import asyncio
            from repro.live.harness import LiveHierPlane

            async def main():
                plane = LiveHierPlane(8, 2)
                await plane.start()
                await plane.wait_for_stages()
                await plane.run_cycles(1)
                print(plane._tier.pid, flush=True)
                await asyncio.sleep(60)

            asyncio.run(main())
            """
        )
        try:
            tier = int(proc.stdout.readline())
            assert _running(tier)
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 2.0
            while _running(tier) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _running(tier)
        finally:
            proc.kill()
            proc.communicate()

    def test_tier_exits_when_its_channel_closes(self):
        """The control channel alone decides: with the trunk and every
        stage leg still up, the parent letting go of its end (what its
        death does) ends the tier within 2 s."""

        async def scenario():
            plane = LiveHierPlane(8, 2)
            await plane.start()
            try:
                await plane.wait_for_stages()
                pid = plane._tier.pid
                plane._tier._close()  # let go of the parent's end
                deadline = time.monotonic() + 2.0
                while _running(pid) and time.monotonic() < deadline:
                    await asyncio.sleep(0.02)
                return _running(pid)
            finally:
                await plane.stop()

        assert asyncio.run(scenario()) is False

    def test_sigint_to_the_group_leaves_shutdown_to_the_parent(self):
        """Ctrl-C reaches every process of the group. The tier ignores
        it: the parent still runs a cycle through it, then stops it, and
        it exits cleanly on the shutdown frames."""
        proc = _in_subprocess(
            """
            import asyncio, json, signal
            from repro.live.harness import LiveHierPlane

            async def main():
                plane = LiveHierPlane(8, 2)
                await plane.start()
                await plane.wait_for_stages()
                stop = asyncio.Event()
                asyncio.get_running_loop().add_signal_handler(signal.SIGINT, stop.set)
                tier = plane._tier
                print(tier.pid, flush=True)
                while not stop.is_set():
                    await plane.run_cycles(1)
                    await asyncio.sleep(0.01)
                after = (await plane.run_cycles(1))[-1]
                await plane.stop()
                print(json.dumps({"returncode": tier.returncode,
                                  "missing": after.n_missing}), flush=True)

            asyncio.run(main())
            """,
            start_new_session=True,
        )
        try:
            int(proc.stdout.readline())
            time.sleep(0.2)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "Traceback" not in err, err
        assert json.loads(out.splitlines()[-1]) == {"returncode": 0, "missing": 0}


class TestCountersAcrossTheBoundary:
    def test_evictions_survive_a_restart(self):
        """An aggregator's evictions used to vanish with it at a restart:
        the plane banked only the global controller's."""

        async def scenario():
            plane = LiveHierPlane(
                8,
                2,
                collect_timeout_s=0.5,
                enforce_timeout_s=0.5,
                stage_backoff=_BACKOFF,
            )
            await plane.start()
            await plane.wait_for_stages(timeout_s=15)
            try:
                kill_stage(plane.stages[0], restart=False)
                await plane.run_cycles(2)
                counts = [plane.evictions]
                await plane.plane_restart()
                counts.append(plane.evictions)
            finally:
                await plane.stop()
            counts.append(plane.evictions)
            return counts

        assert asyncio.run(scenario()) == [1, 1, 1]

    def test_handles_read_the_tier(self):
        """Per-session bytes, registration counts and the kill hook all
        reach the aggregators in the tier."""

        async def scenario():
            plane = LiveHierPlane(
                8,
                2,
                collect_timeout_s=0.5,
                enforce_timeout_s=0.5,
                stage_backoff=_BACKOFF,
            )
            await plane.start()
            await plane.wait_for_stages(timeout_s=15)
            try:
                registered = plane.registered_stages
                await plane.run_cycles(2)
                sessions = [agg.sessions for agg in plane.aggregators]
                kill_aggregator(plane.aggregators[0])
                deadline = time.monotonic() + 15
                survivor = plane.aggregators[1]
                while len(survivor.sessions) < 8 and time.monotonic() < deadline:
                    await asyncio.sleep(0.05)  # the orphans re-home
                survivor = survivor.sessions
            finally:
                await plane.stop()
            return registered, sessions, survivor

        registered, sessions, survivor = asyncio.run(scenario())
        assert registered == 8
        assert [len(s) for s in sessions] == [4, 4]
        for per_agg in sessions:
            for counters in per_agg.values():
                assert counters.tx_bytes > 0 and counters.rx_bytes > 0
                assert counters.stale_messages == 0
                assert counters.pending_bytes == 0
        assert len(survivor) == 8
