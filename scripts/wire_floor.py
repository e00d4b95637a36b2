"""The syscall floor under ``flat-2500``: the same traffic, none of our code.

A bare asyncio server writes one 14 B frame to each of N loopback
connections and waits for N 54 B echoes, then one 43 B frame and N 27 B
echoes — the sizes of ``collect_req`` / ``metrics_reply`` / ``rule`` /
``rule_ack`` (138 B per stage-cycle). What ``bench_e2e``'s
``cycle_p50_ms`` reads above this number is the repository's own Python.

Both ends are ``BufferedProtocol``s reading into one shared buffer, like
``repro.live.protocol.FrameLink``: a plain ``Protocol`` makes the
transport allocate 256 KiB per ``recv``, which a fresh process pays for
with two page faults per read (about 4x this number).

    python scripts/wire_floor.py [--stages 2500] [--cycles 60]
"""

from __future__ import annotations

import argparse
import asyncio
import resource
import statistics
import time

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


async def main(stages: int, cycles: int) -> None:
    loop = asyncio.get_running_loop()
    server = await loop.create_server(Counter, "127.0.0.1", 0, backlog=4096)
    port = server.sockets[0].getsockname()[1]
    for _ in range(stages):
        await loop.create_connection(Echo, "127.0.0.1", port)
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
    warm = samples[len(samples) // 4 :]
    print(f"{stages} connections, {len(warm)} cycles: "
          f"p50 {statistics.median(warm) * 1e3:.1f} ms per two-phase cycle")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
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
    asyncio.run(main(args.stages, args.cycles))
