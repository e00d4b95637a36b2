"""Simulated compute nodes with CPU and memory accounting.

A :class:`SimHost` models a Frontera-class compute node: a fixed number of
CPU cores, a NIC with byte counters, and a resident-memory gauge. The
control-plane processes charge CPU work to their host via
:meth:`SimHost.execute`; the REMORA-like monitor later turns the
accumulated busy time into the CPU-% figures of Tables II–IV.

Two execution styles are supported:

* ``yield host.execute(seconds)`` — serialize the work on a core (the
  normal path for controller loops; it is what creates the latency that
  the paper measures).
* ``host.charge(seconds)`` — account busy time without simulating the
  delay (used for background bookkeeping that the paper's measurements
  fold into message costs).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.simnet.engine import Environment, Event
from repro.simnet.resources import Resource

__all__ = ["NICCounters", "SimHost"]


class NICCounters:
    """Byte/message counters for one host's network interface."""

    __slots__ = ("tx_bytes", "rx_bytes", "tx_messages", "rx_messages")

    def __init__(self) -> None:
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.tx_messages = 0
        self.rx_messages = 0

    def record_tx(self, size: int) -> None:
        self.tx_bytes += size
        self.tx_messages += 1

    def record_rx(self, size: int) -> None:
        self.rx_bytes += size
        self.rx_messages += 1


class SimHost:
    """A compute node: named, with cores, a NIC, and a memory gauge.

    Frontera nodes have two 28-core Xeons; ``cores`` defaults to 56.
    ``busy_seconds`` accumulates core-seconds of work charged to this host,
    which the monitor converts to utilisation percentages.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        cores: int = 56,
        memory_bytes: int = 192 * 2**30,
    ) -> None:
        self.env = env
        self.name = name
        self.cores = int(cores)
        self.memory_capacity = int(memory_bytes)
        self._cpu: Optional[Resource] = None
        self.nic = NICCounters()
        self.busy_seconds = 0.0
        self.resident_bytes = 0
        self._peak_resident = 0

    # -- CPU ---------------------------------------------------------------
    @property
    def cpu(self) -> Resource:
        """The cores :meth:`execute` queues on, built on first use (a
        stage host only calls :meth:`charge`, so it never builds them)."""
        if self._cpu is None:
            self._cpu = Resource(self.env, capacity=self.cores)
        return self._cpu

    def execute(self, seconds: float, cores: int = 1) -> Event:
        """Run ``seconds`` of work on ``cores`` core(s), serialized.

        Returns a process event that fires when the work completes. Busy
        time is charged on completion.
        """
        if not seconds >= 0:  # NaN too
            raise ValueError(f"work must be >= 0: {seconds}")
        return self.env.process(self._execute(seconds, cores), name=f"{self.name}.exec")

    def _execute(self, seconds: float, cores: int) -> Generator:
        requests = [self.cpu.request() for _ in range(cores)]
        for req in requests:
            yield req
        try:
            yield self.env.timeout(seconds)
            self.busy_seconds += seconds * cores
        finally:
            for req in requests:
                self.cpu.release(req)

    def charge(self, seconds: float, cores: int = 1) -> None:
        """Account CPU busy time without simulating a delay."""
        if not seconds >= 0:  # NaN too
            raise ValueError(f"work must be >= 0: {seconds}")
        self.busy_seconds += seconds * cores

    # -- memory --------------------------------------------------------------
    def allocate(self, nbytes: int) -> None:
        """Grow resident memory (e.g. controller per-stage state)."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        self.resident_bytes += int(nbytes)
        if self.resident_bytes > self.memory_capacity:
            raise MemoryError(
                f"{self.name}: resident {self.resident_bytes} exceeds "
                f"capacity {self.memory_capacity}"
            )
        self._peak_resident = max(self._peak_resident, self.resident_bytes)

    @property
    def peak_resident_bytes(self) -> int:
        """High-water mark of resident memory."""
        return self._peak_resident

    def utilisation(self, elapsed: float, since_busy: float = 0.0) -> float:
        """Average CPU utilisation (%) over ``elapsed`` seconds.

        ``since_busy`` is the busy_seconds reading at window start; the
        result is normalised by the node's core count, matching how REMORA
        reports whole-node CPU %.
        """
        if elapsed <= 0:
            return 0.0
        window_busy = self.busy_seconds - since_busy
        return 100.0 * window_busy / (elapsed * self.cores)

