"""The aggregator tier's process boundary (:mod:`repro.live.tier`).

A ``LiveHierPlane`` forks one child for its aggregators. What a fork
must not do: leave a process or a descriptor behind, keep a socket the
parent closed alive, outlive the parent, or take a Ctrl-C meant for the
parent's shutdown. It must be a fork, not a spawned interpreter: nothing
re-imports the caller's ``__main__``, and a start costs a fork. The
process-boundary cases drive the plane through a small adapter, which
the subprocess cases import. What the tier must also keep: the counters
and fault hooks the plane's callers read and pull through
``plane.aggregators``.
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
_ROOT = str(Path(_SRC).parent)


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
    """Run ``body`` (a script) in a fresh interpreter with ``repro`` and
    this module importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, _ROOT]))
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(body)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        **popen,
    )


class HierPlane:
    """``LiveHierPlane`` as the process-boundary cases drive it: one tier
    for every aggregator, the stages in this process."""

    def __init__(self, n_stages, n_aggregators, **kwargs):
        self.plane = LiveHierPlane(n_stages, n_aggregators, **kwargs)

    async def start(self):
        await self.plane.start()
        await self.ready()

    async def ready(self):
        await self.plane.wait_for_stages()

    def tiers(self):
        tier = self.plane._tier
        return [tier] if tier is not None else []

    async def run_cycles(self, n):
        return await self.plane.run_cycles(n)

    async def kill(self):
        """``kill -9`` on the plane; returns the tiers it killed."""
        tier = self.plane._tier
        await self.plane.kill_plane()
        return [tier]

    async def restart(self):
        await self.plane.plane_restart()

    async def stop(self):
        await self.plane.stop()


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
            plane = HierPlane(40, 4)
            await plane.start()
            await plane.run_cycles(2)
            pids = [tier.pid for tier in plane.tiers()]
            await plane.stop()
            return pids

        pids = self._check(scenario)
        assert not any(_running(pid) for pid in pids)

    def test_kill_plane(self):
        async def scenario():
            plane = HierPlane(40, 4, stage_backoff=_BACKOFF)
            await plane.start()
            await plane.run_cycles(1)
            pids = {tier: tier.pid for tier in plane.tiers()}
            killed = await plane.kill()
            gone = all(
                not _running(pids[tier]) and tier.returncode == -signal.SIGKILL
                for tier in killed
            )
            await plane.stop()
            return gone

        assert self._check(scenario)

    def test_stop_while_every_trunk_redials(self):
        """The controller is gone, so no aggregator gets a shutdown frame
        and each keeps re-dialling its trunk; stopping the plane still
        ends every dial loop, and the tier exits on its own, well inside
        its grace, instead of being SIGKILLed at the end of it."""

        async def scenario():
            plane = LiveHierPlane(8, 2, stage_backoff=_BACKOFF)
            await plane.start()
            await plane.wait_for_stages(timeout_s=15)
            await plane.run_cycles(1)
            plane.controller.kill()
            await asyncio.sleep(0.2)  # every trunk lost, re-dialling
            tier = plane._tier
            started = time.monotonic()
            await plane.stop()
            return tier.returncode, time.monotonic() - started

        returncode, elapsed = self._check(scenario)
        assert returncode == 0
        assert elapsed < 1.5

    def test_fifty_restarts(self):
        async def scenario():
            plane = HierPlane(40, 4, stage_backoff=_BACKOFF)
            await plane.start()
            most = 0
            try:
                for _ in range(50):
                    await plane.restart()
                    most = max(most, len(_children()))
                await plane.ready()
                cycle = (await plane.run_cycles(1))[-1]
                tiers = len(plane.tiers())
            finally:
                await plane.stop()
            return most, tiers, cycle.n_missing

        most, tiers, missing = self._check(scenario)
        assert most == len(_children()) + tiers  # no tier outlives its restart
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
            plane = HierPlane(4, 2)
            await plane.start()
            try:
                pids = [tier.pid for tier in plane.tiers()]
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
                return eof, all(_running(pid) for pid in pids)
            finally:
                await plane.stop()

        assert asyncio.run(scenario()) == (True, True)

    def test_tier_exits_soon_after_the_parent_is_killed(self):
        """``kill -9`` on the parent closes its end of the control
        channel; the tier exits on that EOF instead of serving nobody."""
        proc = _in_subprocess(
            """
            import asyncio
            from tests.live.test_tier import HierPlane as Plane

            async def main():
                plane = Plane(8, 2)
                await plane.start()
                await plane.run_cycles(1)
                print(*(tier.pid for tier in plane.tiers()), flush=True)
                await asyncio.sleep(60)

            asyncio.run(main())
            """
        )
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert pids and all(_running(pid) for pid in pids)
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 2.0
            while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(_running(pid) for pid in pids)
        finally:
            proc.kill()
            proc.communicate()

    def test_tier_exits_when_its_channel_closes(self):
        """The control channel alone decides: with the trunk and every
        stage leg still up, the parent letting go of its end (what its
        death does) ends the tier within 2 s."""

        async def scenario():
            plane = HierPlane(8, 2)
            await plane.start()
            try:
                pids = []
                for tier in plane.tiers():
                    pids.append(tier.pid)
                    tier._close()  # let go of the parent's end
                deadline = time.monotonic() + 2.0
                while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
                    await asyncio.sleep(0.02)
                return any(_running(pid) for pid in pids)
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
            from tests.live.test_tier import HierPlane as Plane

            async def main():
                plane = Plane(8, 2)
                await plane.start()
                stop = asyncio.Event()
                asyncio.get_running_loop().add_signal_handler(signal.SIGINT, stop.set)
                tiers = plane.tiers()
                print(*(tier.pid for tier in tiers), flush=True)
                while not stop.is_set():
                    await plane.run_cycles(1)
                    await asyncio.sleep(0.01)
                after = (await plane.run_cycles(1))[-1]
                await plane.stop()
                print(json.dumps({"returncodes": [t.returncode for t in tiers],
                                  "missing": after.n_missing}), flush=True)

            asyncio.run(main())
            """,
            start_new_session=True,
        )
        try:
            tiers = len(proc.stdout.readline().split())
            time.sleep(0.2)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "Traceback" not in err, err
        assert json.loads(out.splitlines()[-1]) == {
            "returncodes": [0] * tiers,
            "missing": 0,
        }


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

    def test_a_reader_woken_for_data_a_call_took_does_not_wait(self):
        """The loop's reader on the channel can be woken for frames that
        a call, run earlier in the same loop pass, has already read. It
        used to wait for more — the channel held a call's 10 s timeout,
        which ``MSG_DONTWAIT`` does not lift — and then read the timeout
        as the tier's exit, closing the channel and ending the tier. In
        the overload chaos leg that cost every aggregator at once."""

        async def scenario():
            plane = LiveHierPlane(4, 2, stage_backoff=_BACKOFF)
            await plane.start()
            try:
                await plane.wait_for_stages(timeout_s=15)
                tier = plane._tier
                plane.aggregators[0].evictions  # a call: the channel is drained
                started = time.monotonic()
                tier._readable()
                waited = time.monotonic() - started
                alive = tier._sock is not None and tier.call("stats", index=1) is not None
                cycles = await plane.run_cycles(1)
            finally:
                await plane.stop()
            return waited, alive, cycles[-1]

        waited, alive, cycle = asyncio.run(scenario())
        assert waited < 0.5
        assert alive
        assert not cycle.degraded


def test_runs_from_a_script_without_a_main_guard(tmp_path):
    """The tier is forked, not spawned: nothing re-imports the caller's
    ``__main__``, so a script with no ``if __name__ == "__main__"``
    guard starts, cycles and stops a hierarchical plane."""
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""\
        import asyncio
        from repro.live.harness import LiveHierPlane

        async def two_cycles():
            plane = LiveHierPlane(4, 2)
            await plane.start()
            try:
                return len(await plane.run_cycles(2))
            finally:
                await plane.stop()

        print(asyncio.run(two_cycles()))
    """))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"]


def test_start_is_a_fork_not_an_interpreter():
    """A spawned, re-importing interpreter per aggregator subtree took
    1.3–1.7 s to start 48 stages × 4 on a 2-core host; the best of three
    forked ``LiveHierPlane(48, 4)`` starts is under 0.25 s."""

    async def timed_start():
        plane = LiveHierPlane(48, 4)
        began = time.perf_counter()
        try:
            await plane.start()
            return time.perf_counter() - began
        finally:
            await plane.stop()

    assert min(asyncio.run(timed_start()) for _ in range(3)) <= 0.25
