"""Live REMORA counterpart: resource accounting from ``/proc``.

The paper collects per-controller CPU, memory, and NIC usage with TACC's
REMORA tool (Tables II–IV). The simulated plane reproduces those tables
from modelled counters (:mod:`repro.monitoring.remora`); this module
produces the same rows from a *live* run by sampling the real kernel:

* ``/proc/self/stat`` — utime/stime (process CPU seconds);
* ``/proc/self/status`` — ``VmRSS`` (resident memory);
* ``/proc/net/dev`` — per-interface byte counters (loopback carries the
  localhost TCP control traffic).

Controllers that share a process get per-controller attribution from
:class:`ComponentUsageMeter`: exact per-session byte counters for the
NIC columns, and CPU seconds accumulated around each controller's
synchronous critical sections (serialisation, PSFA compute) for the CPU
column. Memory is reported as process RSS on every row — co-located
controllers share one heap, which the docs call out next to Tables
II–IV. Controllers hosted by another process (the live hierarchy's
aggregator tier) are read the way REMORA reads a node:
:meth:`LiveUsageSession.attach` names the process, and its CPU and RSS
come from that process's own ``/proc/<pid>``, one reading per process,
split across the controllers it hosts by their meters.

On platforms without ``/proc`` the sampler degrades gracefully
(``resource``/``time`` fallbacks, zero NIC rates); see
:func:`procfs_available`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.monitoring.remora import ControllerUsage, RemoraReport

__all__ = [
    "ComponentUsageMeter",
    "LiveUsageSession",
    "ProcSample",
    "ProcessSampler",
    "procfs_available",
    "read_cpu_seconds",
    "read_net_bytes",
    "read_rss_bytes",
    "read_task_cpu_seconds",
]

_GB = 1024.0**3
_MB = 1e6  # REMORA reports decimal MB/s


def procfs_available() -> bool:
    """True when the Linux ``/proc`` files this module reads exist."""
    return (
        os.path.exists("/proc/self/stat")
        and os.path.exists("/proc/self/status")
        and os.path.exists("/proc/net/dev")
    )


def read_cpu_seconds() -> float:
    """Process CPU seconds (utime+stime) from ``/proc/self/stat``.

    Falls back to :func:`time.process_time` where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as fh:
            stat = fh.read()
    except OSError:
        return time.process_time()
    # Field 2 (comm) may contain spaces; parse after the closing paren.
    fields = stat.rsplit(")", 1)[-1].split()
    utime_ticks = float(fields[11])  # stat field 14
    stime_ticks = float(fields[12])  # stat field 15
    return (utime_ticks + stime_ticks) / os.sysconf("SC_CLK_TCK")


def read_task_cpu_seconds(pid: int) -> float:
    """CPU seconds of process ``pid``'s main thread, in nanoseconds'
    resolution, from ``/proc/<pid>/schedstat`` (still readable while the
    process is a zombie); ``/proc/<pid>/stat`` clock ticks where the
    kernel keeps no schedstat. The reading for a single-threaded child."""
    try:
        with open(f"/proc/{pid}/schedstat", "r", encoding="ascii") as fh:
            return int(fh.read().split()[0]) / 1e9
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[-1].split()
    except OSError:
        return 0.0
    return (float(fields[11]) + float(fields[12])) / os.sysconf("SC_CLK_TCK")


def read_rss_bytes(pid="self") -> int:
    """Resident set size from ``/proc/<pid>/status`` (``VmRSS``).

    For this process, falls back to ``resource.getrusage`` peak RSS
    where ``/proc`` is missing; returns 0 if neither source exists (and
    for a process that has exited).
    """
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    if pid != "self":
        return 0
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return 0


def read_net_bytes() -> Dict[str, tuple]:
    """Per-interface ``(rx_bytes, tx_bytes)`` from ``/proc/net/dev``.

    Empty on platforms without ``/proc`` (NIC columns then read zero).
    """
    counters: Dict[str, tuple] = {}
    try:
        with open("/proc/net/dev", "r", encoding="ascii") as fh:
            lines = fh.readlines()[2:]  # two header lines
    except OSError:
        return counters
    for line in lines:
        if ":" not in line:
            continue
        name, rest = line.split(":", 1)
        fields = rest.split()
        counters[name.strip()] = (int(fields[0]), int(fields[8]))
    return counters


@dataclass(frozen=True)
class ProcSample:
    """One periodic reading of the process-wide counters."""

    t: float
    cpu_s: float
    rss_bytes: int
    net_rx_bytes: int
    net_tx_bytes: int


def _take_sample() -> ProcSample:
    net = read_net_bytes()
    return ProcSample(
        t=time.perf_counter(),
        cpu_s=read_cpu_seconds(),
        rss_bytes=read_rss_bytes(),
        net_rx_bytes=sum(rx for rx, _ in net.values()),
        net_tx_bytes=sum(tx for _, tx in net.values()),
    )


class ProcessSampler:
    """Samples the process at a fixed interval (REMORA's periodic mode).

    ``start()``/``stop()`` bracket the measurement window inside a
    running event loop; :meth:`usage` reduces the window to one
    whole-process :class:`~repro.monitoring.remora.ControllerUsage` row
    from first/last counter deltas, with the periodic samples kept in
    :attr:`samples` for time-series inspection.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive: {interval_s}")
        self.interval_s = interval_s
        self.samples: List[ProcSample] = []
        self._task: Optional[asyncio.Task] = None

    async def _run(self) -> None:
        while True:
            self.samples.append(_take_sample())
            await asyncio.sleep(self.interval_s)

    def start(self) -> None:
        """Take a baseline sample and begin periodic sampling."""
        self.samples.append(_take_sample())
        self._task = asyncio.get_event_loop().create_task(self._run())

    async def stop(self) -> None:
        """Take a final sample and cancel the sampling task."""
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        self.samples.append(_take_sample())

    @property
    def elapsed_s(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return self.samples[-1].t - self.samples[0].t

    @property
    def rss_bytes(self) -> int:
        """Most recent resident-set reading."""
        return self.samples[-1].rss_bytes if self.samples else 0

    def usage(self, name: str = "process", cores: int = 1) -> ControllerUsage:
        """Whole-process average usage over the sampled window."""
        if len(self.samples) < 2 or self.elapsed_s <= 0:
            raise RuntimeError("need a started+stopped sampling window")
        first, last = self.samples[0], self.samples[-1]
        elapsed = self.elapsed_s
        return ControllerUsage(
            name=name,
            cpu_percent=100.0 * (last.cpu_s - first.cpu_s) / (elapsed * cores),
            memory_gb=last.rss_bytes / _GB,
            transmitted_mb_s=(last.net_tx_bytes - first.net_tx_bytes) / elapsed / _MB,
            received_mb_s=(last.net_rx_bytes - first.net_rx_bytes) / elapsed / _MB,
        )


class ComponentUsageMeter:
    """Per-controller usage attribution inside the shared live process.

    NIC columns are exact: the session layer feeds every framed byte it
    writes/reads through :meth:`add_tx`/:meth:`add_rx`. The CPU column
    accumulates :func:`time.process_time` deltas measured around the
    component's synchronous critical sections via :meth:`cpu` — awaits
    that actually suspend must stay outside the measured region, so the
    attributed seconds are this component's own work.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.cpu_seconds = 0.0
        self.tx_bytes = 0
        self.rx_bytes = 0

    @contextlib.contextmanager
    def cpu(self) -> Iterator[None]:
        """Attribute the CPU time of the enclosed (synchronous) section."""
        start = time.process_time()
        try:
            yield
        finally:
            self.cpu_seconds += time.process_time() - start

    def add_tx(self, nbytes: int) -> None:
        self.tx_bytes += nbytes

    def add_rx(self, nbytes: int) -> None:
        self.rx_bytes += nbytes

    def usage(self, elapsed_s: float, rss_bytes: int) -> ControllerUsage:
        """This component's table row over a measurement window."""
        if elapsed_s <= 0:
            raise ValueError(f"elapsed_s must be positive: {elapsed_s}")
        return ControllerUsage(
            name=self.name,
            cpu_percent=100.0 * self.cpu_seconds / elapsed_s,
            memory_gb=rss_bytes / _GB,
            transmitted_mb_s=self.tx_bytes / elapsed_s / _MB,
            received_mb_s=self.rx_bytes / elapsed_s / _MB,
        )


class _Hosted:
    """A process hosting named meters, and its readings in the window."""

    __slots__ = ("names", "first_cpu_s", "rss_bytes")

    def __init__(self, names: Tuple[str, ...]) -> None:
        self.names = names
        #: CPU seconds read when the window opened (or the process joined).
        self.first_cpu_s: Optional[float] = None
        self.rss_bytes = 0

    def read(self, pid: int) -> float:
        rss = read_rss_bytes(pid)
        if rss:  # an exited process keeps its last resident reading
            self.rss_bytes = rss
        return read_task_cpu_seconds(pid)


class LiveUsageSession:
    """Bundles the process sampler with per-controller meters.

    The live harness creates one per run: controllers receive meters
    from :meth:`meter`, and :meth:`report` reduces everything to a
    :class:`~repro.monitoring.remora.RemoraReport` whose rows line up
    with the simulated plane's Tables II–IV (``RemoraReport.table_row``
    renders either source). Meters of controllers that run in another
    process are filled in by that process's owner; :meth:`attach` /
    :meth:`detach` bracket the process so their CPU and memory columns
    come from its own ``/proc/<pid>``.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        self.sampler = ProcessSampler(interval_s=interval_s)
        self.meters: Dict[str, ComponentUsageMeter] = {}
        self._hosted: Dict[int, _Hosted] = {}
        self._open = False
        # Per group of hosted meter names: CPU seconds its processes
        # spent inside the window, and their last resident set.
        self._hosted_cpu_s: Dict[Tuple[str, ...], float] = {}
        self._hosted_rss: Dict[Tuple[str, ...], int] = {}

    def meter(self, name: str) -> ComponentUsageMeter:
        """The (singleton) meter for a named controller."""
        if name not in self.meters:
            self.meters[name] = ComponentUsageMeter(name)
        return self.meters[name]

    def attach(self, pid: int, names: Sequence[str]) -> None:
        """Charge process ``pid`` (a child hosting the controllers
        ``names``) to those controllers' rows from now on."""
        for name in names:
            self.meter(name)
        hosted = self._hosted[pid] = _Hosted(tuple(names))
        if self._open:
            hosted.first_cpu_s = hosted.read(pid)

    def detach(self, pid: int) -> None:
        """Take ``pid``'s last reading (call before it is reaped)."""
        hosted = self._hosted.pop(pid, None)
        if hosted is not None and self._open:
            self._fold(hosted, hosted.read(pid))

    def _fold(self, hosted: _Hosted, cpu_s: float) -> None:
        key = hosted.names
        spent = cpu_s - hosted.first_cpu_s
        self._hosted_cpu_s[key] = self._hosted_cpu_s.get(key, 0.0) + spent
        self._hosted_rss[key] = hosted.rss_bytes

    def start(self) -> None:
        self.sampler.start()
        self._open = True
        for pid, hosted in self._hosted.items():
            hosted.first_cpu_s = hosted.read(pid)

    async def stop(self) -> None:
        await self.sampler.stop()
        for pid, hosted in self._hosted.items():
            self._fold(hosted, hosted.read(pid))
        self._hosted.clear()
        self._open = False

    def report(self) -> RemoraReport:
        """Per-controller usage rows over the sampled window."""
        elapsed = self.sampler.elapsed_s
        if elapsed <= 0:
            raise RuntimeError("usage session never ran")
        rss = self.sampler.rss_bytes
        per_host = {
            name: meter.usage(elapsed, rss)
            for name, meter in self.meters.items()
        }
        # One reading per hosting process, split across the controllers
        # it hosts by their metered CPU (evenly if none was metered).
        for names, cpu_s in self._hosted_cpu_s.items():
            weights = [self.meters[name].cpu_seconds for name in names]
            total = sum(weights)
            for name, weight in zip(names, weights):
                share = weight / total if total > 0 else 1.0 / len(names)
                per_host[name] = replace(
                    per_host[name],
                    cpu_percent=100.0 * cpu_s * share / elapsed,
                    memory_gb=self._hosted_rss[names] / _GB,
                )
        return RemoraReport(per_host)
