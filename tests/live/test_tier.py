"""The tier's process boundary (:mod:`repro.live.tier`).

A ``LiveHierPlane`` forks one child for its aggregators, and a
``LiveGlobalController`` one for itself. What a fork must not do: leave
a process or a descriptor behind, keep a socket the parent closed alive,
outlive the parent, or take a Ctrl-C meant for the parent's shutdown. It
must be a fork, not a spawned interpreter: nothing re-imports the
caller's ``__main__``, and a start costs a fork. The process-boundary
cases drive a plane through a small adapter, which the subprocess cases
import. What the tier must also keep: the counters and fault hooks the
plane's callers read and pull through ``plane.aggregators``, and — for
the flat controller — the very grants and cycle records the in-process
controller computes.
"""

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.core.control_plane import default_policy
from repro.live import controller_server
from repro.live.controller_server import InProcessGlobalController, LiveGlobalController
from repro.live.faults import kill_aggregator, kill_stage
from repro.live.harness import LiveHierPlane
from repro.live.stage_client import LiveVirtualStage
from repro.live.tier import CALL_TIMEOUT_S
from repro.obs.metrics import MetricsRegistry

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


class FlatPlane:
    """``LiveGlobalController`` as the process-boundary cases drive it:
    the controller forked, its stages in this process."""

    def __init__(self, n_stages, stage_backoff=None):
        self.n_stages = n_stages
        self.ctrl = None
        self.stages = []
        self._tasks = []
        self._port = 0
        self._backoff = stage_backoff or {}

    async def _boot(self):
        self.ctrl = LiveGlobalController(
            default_policy(self.n_stages), self.n_stages, port=self._port
        )
        await self.ctrl.start()
        self._port = self.ctrl.port

    async def start(self):
        await self._boot()
        self.stages = [
            LiveVirtualStage(
                self.ctrl.host, self._port, f"stage-{i:05d}", f"job-{i:05d}",
                **self._backoff,
            )
            for i in range(self.n_stages)
        ]
        self._tasks = [asyncio.create_task(s.run()) for s in self.stages]
        await self.ready()

    async def ready(self):
        await self.ctrl.wait_for_stages()

    def tiers(self):
        tier = self.ctrl._tier if self.ctrl is not None else None
        return [tier] if tier is not None else []

    async def run_cycles(self, n):
        return await self.ctrl.run_cycles(n)

    async def kill(self):
        """``kill -9`` on the controller; returns the tiers it killed."""
        tiers = self.tiers()
        os.kill(self.ctrl.pid, signal.SIGKILL)
        await self.ctrl.shutdown()  # reaps
        return tiers

    async def restart(self):
        """A new controller on the same port; the stages re-dial it."""
        await self.kill()
        await self._boot()

    async def stop(self):
        for stage in self.stages:
            stage.stop()
        await self.ctrl.shutdown()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)


def _left_nothing(scenario):
    """Run ``scenario`` on a fresh loop; no child process and no
    descriptor may outlive it."""
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


class TestNothingLeftBehind:
    def _check(self, scenario):
        return _left_nothing(scenario)

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


class TestFlatController:
    """The flat controller's fork: the tier's flat plan."""

    def test_start_is_a_fork_not_an_interpreter(self):
        """The child runs this process's command line (a spawned
        interpreter would not), is our child, and a start costs a fork:
        the best of three is under 0.25 s."""

        async def timed_start():
            ctrl = LiveGlobalController(default_policy(48), 48)
            began = time.perf_counter()
            await ctrl.start()
            took = time.perf_counter() - began
            try:
                with open(f"/proc/{ctrl.pid}/cmdline", "rb") as fh:
                    cmdline = fh.read()
                with open(f"/proc/{ctrl.pid}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            finally:
                await ctrl.shutdown()
            return took, cmdline, ppid

        runs = [asyncio.run(timed_start()) for _ in range(3)]
        with open("/proc/self/cmdline", "rb") as fh:
            ours = fh.read()
        assert all(cmdline == ours and ppid == os.getpid() for _, cmdline, ppid in runs)
        assert min(took for took, _, _ in runs) <= 0.25

    def test_the_parent_holds_only_the_stage_ends(self):
        """Every stage connection has two ends: the stage's, here, and the
        controller's session, in the child with its listener. This
        process gains one descriptor a stage plus the channel and its
        pump's epoll."""
        n = 40

        async def scenario():
            before = _fds()
            plane = FlatPlane(n)
            await plane.start()
            try:
                parent = _fds() - before
                child = len(os.listdir(f"/proc/{plane.ctrl.pid}/fd"))
            finally:
                await plane.stop()
            return parent, child

        parent, child = asyncio.run(scenario())
        assert n <= parent <= n + 2
        assert child >= n + 1

    def test_the_fork_grants_what_the_in_process_controller_grants(self):
        """Same seeded demands, five cycles: identical grants by stage id
        and identical cycle records, field for field."""
        n, cycles = 12, 5
        rng = random.Random(5)
        trace = [
            [(rng.uniform(200.0, 3200.0), rng.uniform(10.0, 300.0)) for _ in range(n)]
            for _ in range(cycles)
        ]

        async def replay(cls):
            ctrl = cls(default_policy(n), n, collect_timeout_s=2.0)
            await ctrl.start()
            stages = [
                LiveVirtualStage(ctrl.host, ctrl.port, f"s-{i:02d}", f"j-{i % 5}",
                                 demand=trace[0][i])
                for i in range(n)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            seen = []
            try:
                await ctrl.wait_for_stages()
                for row in trace:
                    for stage, demand in zip(stages, row):
                        stage.demand = demand
                    c = (await ctrl.run_cycles(1))[-1]
                    seen.append(
                        (dict(ctrl.last_allocations),
                         (c.epoch, c.n_stages, c.n_missing, c.timed_out))
                    )
            finally:
                await ctrl.shutdown()
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            return seen

        local = asyncio.run(replay(InProcessGlobalController))
        forked = asyncio.run(replay(LiveGlobalController))
        assert forked == local
        assert [record for _, record in forked] == [
            (epoch, n, 0, False) for epoch in range(1, cycles + 1)
        ]

    def test_a_killed_child_fails_the_cycle_instead_of_hanging(self):
        """SIGKILL the controller's process: the next ``run_cycles``
        raises within a call's timeout, and ``shutdown`` still reaps it."""

        async def scenario():
            plane = FlatPlane(8)
            await plane.start()
            try:
                await plane.run_cycles(1)
                tier = plane.tiers()[0]
                pid = plane.ctrl.pid
                os.kill(pid, signal.SIGKILL)
                started = time.monotonic()
                with pytest.raises(RuntimeError):
                    await asyncio.wait_for(plane.run_cycles(1), CALL_TIMEOUT_S)
                took = time.monotonic() - started
            finally:
                await plane.stop()
            return took, tier.returncode, pid

        took, returncode, pid = _left_nothing(scenario)
        assert took < CALL_TIMEOUT_S
        assert returncode == -signal.SIGKILL
        assert not _running(pid)


    def test_an_answer_given_up_on_leaves_no_stale_grants(self, monkeypatch):
        """A ``run_cycles`` that timed out across a membership change (the
        cycle it asked for evicts a stage): its late answer is dropped,
        not kept, and the next answer carries the new stage ids, so every
        grant goes to a stage still registered — and the records of the
        cycle given up on, so the caller's epochs have no gap; its metrics
        reach the caller's registry all the same."""
        monkeypatch.setattr(controller_server, "CALL_TIMEOUT_S", 0.0)
        n = 4
        registry = MetricsRegistry()

        async def scenario():
            ctrl = LiveGlobalController(
                default_policy(n), n, collect_timeout_s=0.05, metrics=registry
            )
            await ctrl.start()
            stages = [
                LiveVirtualStage(ctrl.host, ctrl.port, f"s-{i}", f"j-{i}") for i in range(n)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            try:
                await ctrl.wait_for_stages()
                await ctrl.run_cycles(1)
                before = set(ctrl.last_allocations)
                stages[0].stop()  # the first row leaves: every later id moves
                await asyncio.sleep(0.1)  # its EOF reaches the child
                os.kill(ctrl.pid, signal.SIGSTOP)
                try:
                    with pytest.raises(RuntimeError):
                        await ctrl.run_cycles(1)  # times out: 4 phases of 0.05 s
                finally:
                    os.kill(ctrl.pid, signal.SIGCONT)
                cycles = await ctrl.run_cycles(1)
                counted = sum(
                    c.value for name, _, _, c in registry.series("counter")
                    if name == "repro_cycles_total"
                )
                return (
                    before, dict(ctrl.last_allocations), cycles,
                    dict(ctrl._tier._replies), counted,
                )
            finally:
                await ctrl.shutdown()
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

        before, after, cycles, kept, counted = _left_nothing(scenario)
        assert before == {f"s-{i}" for i in range(n)}
        assert set(after) == {f"s-{i}" for i in range(1, n)}
        assert (cycles[-1].n_stages, cycles[-1].n_missing) == (n - 1, 0)
        assert kept == {}
        assert [c.epoch for c in cycles] == [1, 2, 3]
        assert counted == 3


    def test_the_registry_is_current_with_every_answer(self):
        """The child's metrics ride with each ``run_cycles`` answer: while
        it still runs, the caller's registry has counted every cycle."""
        n = 6

        async def scenario():
            registry = MetricsRegistry()
            ctrl = LiveGlobalController(default_policy(n), n, metrics=registry)
            await ctrl.start()
            stages = [
                LiveVirtualStage(ctrl.host, ctrl.port, f"s-{i}", f"j-{i}") for i in range(n)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            counted = []
            try:
                await ctrl.wait_for_stages()
                for _ in range(3):
                    await ctrl.run_cycles(1)
                    counted.append((
                        sum(c.value for name, _, _, c in registry.series("counter")
                            if name == "repro_cycles_total"),
                        sum(h.histogram.total for name, _, _, h in registry.series("histogram")
                            if name == "repro_cycle_seconds"),
                        [g.value for name, _, _, g in registry.series("gauge")
                         if name == "repro_sessions"],
                    ))
            finally:
                await ctrl.shutdown()
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            return counted

        assert _left_nothing(scenario) == [(k, k, [n]) for k in (1, 2, 3)]


class TestFlatNothingLeftBehind:
    def test_stop(self):
        async def scenario():
            plane = FlatPlane(40)
            await plane.start()
            await plane.run_cycles(2)
            tiers = plane.tiers()
            await plane.stop()
            return [tier.pid for tier in tiers], [tier.returncode for tier in tiers]

        pids, returncodes = _left_nothing(scenario)
        assert pids == [None] and returncodes == [0]

    def test_fifty_restarts(self):
        async def scenario():
            plane = FlatPlane(40, stage_backoff=_BACKOFF)
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

        most, tiers, missing = _left_nothing(scenario)
        assert most == len(_children()) + tiers  # no child outlives its restart
        assert missing == 0
