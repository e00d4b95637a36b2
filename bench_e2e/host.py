"""Host stamp, preflight and speed probe: what ran the numbers, may it
run them, and how disturbed was it while it did."""

from __future__ import annotations

import os
import platform
import resource
import socket
import struct
import sys
from time import perf_counter
from typing import Dict

__all__ = ["Refused", "STAMP_KEYS", "SpeedProbe", "host_stamp", "preflight"]

#: Descriptors kept free beyond two per stage (listeners, store files,
#: the REST door, the interpreter's own).
_FD_SLACK = 256

#: Fields two reports must share before ``compare`` will diff them.
STAMP_KEYS = ("nproc", "cpu_model", "python", "numpy", "event_loop")


class Refused(RuntimeError):
    """The host cannot run the benchmark as specified."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def preflight(descriptors: int) -> int:
    """Refuse hosts that would distort the run; returns the soft fd limit.

    ``descriptors`` is what the workload opens at once (two per loopback
    stage connection). The soft limit is raised toward the hard one when
    it is too low; a hard limit that is too low, or fewer than two cores
    (one for the cycle loop, one for the REST client thread), refuses.
    """
    if _nproc() < 2:
        raise Refused(
            f"bench_e2e needs >= 2 cores (found {_nproc()}): with one, the "
            "REST client thread and the cycle loop time-slice each other"
        )
    needed = descriptors + _FD_SLACK
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != resource.RLIM_INFINITY and soft < needed:
        if hard != resource.RLIM_INFINITY and hard < needed:
            raise Refused(
                f"ulimit -n hard limit {hard} < {needed} descriptors needed "
                f"({descriptors} for loopback connections + {_FD_SLACK} slack)"
            )
        resource.setrlimit(resource.RLIMIT_NOFILE, (needed, hard))
        soft = needed
    return soft


def host_stamp(event_loop: str, nofile_soft: int) -> Dict[str, object]:
    """What ``compare`` must see unchanged before it diffs two reports."""
    import numpy

    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "event_loop": event_loop,
        "ulimit_n": nofile_soft,
        "platform": sys.platform,
    }


class SpeedProbe:
    """How much slower than the reference host this host runs *right now*.

    The hosts this benchmark runs on are shared. With identical code, 45
    consecutive scratch runs of ``flat-2500`` read a median cycle anywhere
    from 413 to 707 ms: slow drift plus episodes of +30-70 % lasting one
    to four minutes (neighbours contending for cache and memory
    bandwidth; the guest sees no steal time). An episode outlasts several
    consecutive runs, so no statistic *within* a run can tell it from a
    regression — only work whose cost does not depend on this repository
    can. :meth:`slowdown` times three fixed loops that load what a
    control cycle loads — interpreter work (bytecode, struct packing,
    string building, dict lookups), small socket send/recv pairs, and
    memory copies — and returns the mean of their costs relative to the
    reference timings below (this host class when quiet). The runner
    calls it immediately before every timed cycle and every set-up
    (~15 ms, outside the timed region) and divides that one wall time by
    the reading.

    On those 45 runs the correction took the inter-quartile spread of the
    median cycle from 13.8 % to 8.0 % and max/min from 1.71 to 1.25. It
    cannot hide a change to the program: nothing here imports ``repro``
    or creates a container after construction (so no reading depends on
    the program's heap or triggers a collection over its objects), and a
    change that claims a gain may not edit this file. The uncorrected
    median is reported beside it (``host.wall_cycle_p50_ms``) with the
    factor itself (``host.slowdown_p50``).
    """

    #: Quiet-host seconds for the three loops (2.1 GHz Firecracker guest).
    REF_INTERP_S = 3.8e-3
    REF_SOCKET_S = 0.8e-3
    REF_COPY_S = 2.6e-3

    _PACK = struct.Struct(">qdd")

    def __init__(self) -> None:
        self._a, self._b = socket.socketpair()
        # Everything the loops touch is allocated here, once: a reading
        # must not depend on the state of the program's heap or trigger
        # garbage collections over the program's objects.
        self._block = memoryview(bytearray(16 << 20))
        self._table = {"stage-%05d" % i: float(i) for i in range(4096)}

    def close(self) -> None:
        self._a.close()
        self._b.close()

    def _interpreter(self) -> float:
        """Bytecode, struct packing, string building, dict lookups."""
        pack, buf, table = self._PACK, bytearray(24), self._table
        total = 0.0
        started = perf_counter()
        for i in range(8000):
            pack.pack_into(buf, 0, i, 1.5, 2.5)
            total += table["stage-%05d" % (i & 4095)] + buf[7]
        return perf_counter() - started

    def _sockets(self) -> float:
        """Small send/recv pairs: the syscall path a frame takes."""
        a, b, payload = self._a, self._b, b"x" * 64
        started = perf_counter()
        for _ in range(600):
            a.send(payload)
            b.recv(64)
        return perf_counter() - started

    def _copy(self) -> float:
        """4 x 8 MiB moved within one buffer: cache and memory bandwidth."""
        block, half = self._block, len(self._block) // 2
        started = perf_counter()
        for _ in range(4):
            block[half:] = block[:half]
        return perf_counter() - started

    def slowdown(self) -> float:
        """Mean cost of the three loops over their reference timings."""
        # Best of two: a timer tick inside a 3 ms loop is not host speed.
        return (
            min(self._interpreter(), self._interpreter()) / self.REF_INTERP_S
            + min(self._sockets(), self._sockets()) / self.REF_SOCKET_S
            + min(self._copy(), self._copy()) / self.REF_COPY_S
        ) / 3.0
