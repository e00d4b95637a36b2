"""The floors under ``flat-2500``: the same traffic, none of our frame code.

One end writes a 14 B frame to each of N loopback connections and waits
for N 54 B echoes, then a 43 B frame and N 27 B echoes — the sizes of
``collect_req`` / ``metrics_reply`` / ``rule`` / ``rule_ack`` (138 B per
stage-cycle). The same two bare protocols run three times:

* on asyncio's selector transports (``loop.create_server`` /
  ``loop.create_connection``), both ends in one process — where the
  live plane's sockets used to sit: one loop ``Handle`` per readable
  socket;
* on ``repro.live.pump``'s ``listen`` / ``connect``, both ends in one
  process — where they sit now: one loop ``Handle`` per burst;
* on the pump, with the accepting (controller) end in a forked child
  and the echo (stage) ends in this process, as ``LiveGlobalController``
  splits ``flat-2500``. The child is reaped before the line prints.

None of ``FrameLink``, ``sessions`` or the controllers is involved. The
third line is the floor under ``bench_e2e``'s ``cycle_p50_ms`` on
``flat-2500`` (what reads above it is the repository's own per-frame
Python); the second is the floor of the one-process layout, and the
difference between the first two is asyncio's per-event transport path,
which the pump removed.

Both ends are ``BufferedProtocol``s reading into one shared buffer, like
``repro.live.protocol.FrameLink``: a plain ``Protocol`` makes the
transport allocate 256 KiB per ``recv``, which a fresh process pays for
with two page faults per read (about 4x this number).

    python scripts/wire_floor.py [--stages 2500] [--cycles 60]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.live import pump  # noqa: E402

HOST = "127.0.0.1"
PHASES = ((b"q" * 14, b"r" * 54), (b"q" * 43, b"r" * 27))
REPLY = {len(request): reply for request, reply in PHASES}
BUFFER = bytearray(256 * 1024)
clients: list = []


class Echo(asyncio.BufferedProtocol):
    def connection_made(self, transport):
        self.transport = transport

    def get_buffer(self, sizehint):
        return BUFFER

    def buffer_updated(self, nbytes):
        self.transport.write(REPLY[nbytes])


class Counter(asyncio.BufferedProtocol):
    pending = 0
    done: asyncio.Future

    def connection_made(self, transport):
        self.transport = transport
        clients.append(self)

    def get_buffer(self, sizehint):
        return BUFFER

    def buffer_updated(self, nbytes):
        Counter.pending -= 1
        if not Counter.pending:
            Counter.done.set_result(None)


async def on_asyncio(stages: int):
    """N echo connections on asyncio's transports; returns the server."""
    loop = asyncio.get_running_loop()
    server = await loop.create_server(Counter, HOST, 0, backlog=4096)
    port = server.sockets[0].getsockname()[1]
    for _ in range(stages):
        await loop.create_connection(Echo, HOST, port)
    return server


async def on_pump(stages: int):
    """The same connections on the pump; returns the listener."""
    listener = pump.listen(Counter, HOST, 0, 4096)
    port = listener.sockets[0].getsockname()[1]
    for _ in range(stages):
        await pump.connect(Echo(), HOST, port)
    return listener


async def floor(connect, stages: int, cycles: int) -> float:
    """p50 seconds per two-phase cycle over ``connect``'s connections."""
    return await measure(await connect(stages), stages, cycles)


async def measure(server, stages: int, cycles: int) -> float:
    """p50 seconds per two-phase cycle once ``server`` has accepted
    ``stages`` connections; closes them all."""
    loop = asyncio.get_running_loop()
    while len(clients) < stages:
        await asyncio.sleep(0.01)
    samples = []
    for _ in range(cycles):
        t0 = time.perf_counter()
        for request, _ in PHASES:
            Counter.pending, Counter.done = stages, loop.create_future()
            for client in clients:
                client.transport.write(request)
            await Counter.done
        samples.append(time.perf_counter() - t0)
    server.close()
    for client in clients:  # the echo ends see EOF and close themselves
        client.transport.abort()
    clients.clear()
    await asyncio.sleep(0.1)
    return statistics.median(samples[len(samples) // 4 :])


async def controller_child(stages: int, cycles: int, out: int) -> None:
    """The forked child: listen, tell the parent the port, measure, and
    write the p50 (``%.9f``) to ``out``."""
    listener = pump.listen(Counter, HOST, 0, 4096)
    os.write(out, b"%8d" % listener.sockets[0].getsockname()[1])
    os.write(out, b"%.9f" % await measure(listener, stages, cycles))


async def echo_fleet(stages: int, port: int, result: int) -> float:
    """This process's side: ``stages`` echo ends until the child's p50."""
    loop = asyncio.get_running_loop()
    echoes = [Echo() for _ in range(stages)]
    for echo in echoes:
        await pump.connect(echo, HOST, port)
    done = loop.create_future()
    loop.add_reader(result, lambda: done.done() or done.set_result(None))
    await done
    loop.remove_reader(result)
    for echo in echoes:  # the child has aborted its ends already
        echo.transport.abort()
    return float(os.read(result, 64))


def forked(stages: int, cycles: int) -> float:
    """The pump floor with the controller end in a forked child."""
    result, out = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        code = 1
        try:
            os.close(result)
            asyncio.run(controller_child(stages, cycles, out))
            code = 0
        finally:
            os._exit(code)
    os.close(out)
    try:
        port = int(os.read(result, 8))
        return asyncio.run(echo_fleet(stages, port, result))
    finally:
        os.close(result)
        os.waitpid(pid, 0)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--stages", type=int, default=2500)
    parser.add_argument("--cycles", type=int, default=60)
    args = parser.parse_args()
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    need = 2 * args.stages + 64
    if soft < need:
        unlimited = hard == resource.RLIM_INFINITY
        resource.setrlimit(
            resource.RLIMIT_NOFILE, (need if unlimited else min(need, hard), hard)
        )
    warm = args.cycles - args.cycles // 4
    print(f"{args.stages} connections, {warm} cycles, nproc {os.cpu_count()}; "
          "p50 per two-phase cycle")
    for name, connect in (("asyncio transports", on_asyncio), ("repro.live.pump", on_pump)):
        p50 = asyncio.run(floor(connect, args.stages, args.cycles))
        print(f"  {name:<28}{p50 * 1e3:6.1f} ms")
    p50 = forked(args.stages, args.cycles)
    print(f"  {'repro.live.pump, forked':<28}{p50 * 1e3:6.1f} ms")
