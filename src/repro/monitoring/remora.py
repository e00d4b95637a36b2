"""REMORA-like resource usage collection for controller nodes.

The paper collects CPU, memory, and network usage on every node running a
controller, using TACC's REMORA tool [37]. This module reproduces that
reporting convention on simulated hosts:

* **CPU (%)** — whole-node utilisation averaged over the run (busy
  core-seconds / elapsed / cores x 100);
* **Memory (GB)** — resident set of the controller process (steady-state,
  which for our controllers equals the registration-time allocation);
* **Transmitted / Received (MB/s)** — NIC byte rates averaged over the
  measurement window.

Tables II–IV are produced by :meth:`RemoraReport.table_row` per
controller role, with aggregator columns averaged across aggregator
instances exactly as Table III does ("average resource consumption per
aggregator controller").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.simnet.engine import Environment
from repro.simnet.monitor import HostSampler, ResourceSeries
from repro.simnet.node import SimHost

__all__ = ["ControllerUsage", "RemoraReport", "RemoraSession"]

_GB = 1024.0**3
_MB = 1e6  # REMORA reports decimal MB/s


@dataclass(frozen=True)
class ControllerUsage:
    """Steady-state usage of one controller node (one table cell group)."""

    name: str
    cpu_percent: float
    memory_gb: float
    transmitted_mb_s: float
    received_mb_s: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "cpu_percent": self.cpu_percent,
            "memory_gb": self.memory_gb,
            "transmitted_mb_s": self.transmitted_mb_s,
            "received_mb_s": self.received_mb_s,
        }


@dataclass
class RemoraReport:
    """Usage for every monitored controller, plus role-level averages."""

    per_host: Dict[str, ControllerUsage]

    def average(self, host_names: List[str], label: str) -> ControllerUsage:
        """Mean usage across a set of hosts (Table III's per-aggregator
        averages)."""
        if not host_names:
            raise ValueError("no hosts to average")
        rows = [self.per_host[h] for h in host_names]
        return ControllerUsage(
            name=label,
            cpu_percent=float(np.mean([r.cpu_percent for r in rows])),
            memory_gb=float(np.mean([r.memory_gb for r in rows])),
            transmitted_mb_s=float(np.mean([r.transmitted_mb_s for r in rows])),
            received_mb_s=float(np.mean([r.received_mb_s for r in rows])),
        )

    def global_usage(self) -> ControllerUsage:
        """The global controller's row (host named ``global-ctrl``).

        For coordinated-flat planes (no single global), returns the mean
        across the peer controllers.
        """
        for name, usage in self.per_host.items():
            if name.startswith("global"):
                return usage
        peers = [n for n in self.per_host if n.startswith("peer")]
        if peers:
            return self.average(peers, "peer (mean)")
        raise KeyError("no global controller host monitored")

    def aggregator_usage(self) -> Optional[ControllerUsage]:
        """Average across aggregator hosts, or None for flat planes."""
        agg_hosts = [n for n in self.per_host if n.startswith("aggregator")]
        if not agg_hosts:
            return None
        return self.average(agg_hosts, "aggregator (mean)")

    def table_row(self, role: str = "global") -> List[str]:
        """One formatted row of Tables II–IV.

        ``role`` is ``"global"`` (peer-mean fallback for coordinated
        planes), ``"aggregator"`` (mean across aggregator hosts, as in
        Table III), or an exact monitored host name. Columns: name,
        CPU %, memory GB, transmitted MB/s, received MB/s — the same
        order the paper's tables use, so simulated and live
        (:mod:`repro.obs.procfs`) sources render identically.
        """
        if role == "global":
            usage = self.global_usage()
        elif role == "aggregator":
            usage = self.aggregator_usage()
            if usage is None:
                raise KeyError("no aggregator hosts monitored")
        else:
            usage = self.usage(role)
        return [
            usage.name,
            f"{usage.cpu_percent:.1f}",
            f"{usage.memory_gb:.3f}",
            f"{usage.transmitted_mb_s:.3f}",
            f"{usage.received_mb_s:.3f}",
        ]


class RemoraSession:
    """Monitors a set of controller hosts for the duration of a run."""

    def __init__(
        self,
        env: Environment,
        hosts: Mapping[str, SimHost],
        interval_s: float = 1.0,
    ) -> None:
        self.env = env
        self.hosts = dict(hosts)
        self.sampler = HostSampler(env, list(self.hosts.values()), interval=interval_s)
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        self._baseline: Dict[str, tuple] = {}

    def start(self) -> None:
        """Record counter baselines and begin periodic sampling."""
        self._started_at = self.env.now
        for name, host in self.hosts.items():
            self._baseline[name] = (
                host.busy_seconds,
                host.nic.tx_bytes,
                host.nic.rx_bytes,
            )
        self.sampler.start()

    def stop(self) -> None:
        self._stopped_at = self.env.now
        self.sampler.stop()

    def report(self) -> RemoraReport:
        """Whole-run average usage per monitored host.

        Averages are computed from counter deltas over the full measured
        window (REMORA's ≥5-minute runs amount to the same thing); the
        periodic samples remain available via ``self.sampler.series`` for
        time-series inspection.
        """
        if self._started_at is None:
            raise RuntimeError("session never started")
        end = self._stopped_at if self._stopped_at is not None else self.env.now
        elapsed = end - self._started_at
        if elapsed <= 0:
            raise RuntimeError("empty measurement window")
        per_host: Dict[str, ControllerUsage] = {}
        for name, host in self.hosts.items():
            busy0, tx0, rx0 = self._baseline[name]
            per_host[name] = ControllerUsage(
                name=name,
                cpu_percent=100.0
                * (host.busy_seconds - busy0)
                / (elapsed * host.cores),
                memory_gb=host.resident_bytes / _GB,
                transmitted_mb_s=(host.nic.tx_bytes - tx0) / elapsed / _MB,
                received_mb_s=(host.nic.rx_bytes - rx0) / elapsed / _MB,
            )
        return RemoraReport(per_host)
