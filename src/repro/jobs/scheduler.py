"""Job arrival/departure churn over a running control plane.

HPC systems are dynamic — "jobs frequently entering and leaving the
system" (paper §I). :class:`JobScheduler` generates Poisson arrivals of
jobs with exponential lifetimes and applies the membership changes to a
flat control plane's global controller while it is running its stress
loop, exercising registration, deregistration, and connection-slot
recycling under load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

from repro.core.controller import ChildChannel, GlobalController
from repro.dataplane.virtual_stage import VirtualStage
from repro.simnet.engine import Environment, Process
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import Cluster

__all__ = ["ChurnEvent", "JobScheduler"]


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change applied to the control plane."""

    time: float
    action: str  # "arrive" | "depart"
    stage_id: str
    job_id: str


class JobScheduler:
    """Drives stage churn against a flat global controller.

    Parameters
    ----------
    arrival_rate_per_s:
        Mean job arrivals per second (Poisson).
    mean_lifetime_s:
        Mean job lifetime (exponential).
    source_factory:
        Metric source for newly arrived stages.
    max_stages:
        Hard cap on concurrently registered stages (connection budget).
    """

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        controller: GlobalController,
        controller_endpoint,
        stage_host,
        streams: RandomStreams,
        source_factory: Callable[[str], object],
        arrival_rate_per_s: float = 2.0,
        mean_lifetime_s: float = 5.0,
        max_stages: int = 1000,
    ) -> None:
        if arrival_rate_per_s <= 0 or mean_lifetime_s <= 0:
            raise ValueError("rates must be positive")
        if max_stages < 1:
            raise ValueError(f"max_stages must be >= 1: {max_stages}")
        self.env = env
        self.cluster = cluster
        self.controller = controller
        self.controller_endpoint = controller_endpoint
        self.stage_host = stage_host
        self.rng = streams.stream("scheduler")
        self.source_factory = source_factory
        self.arrival_rate = float(arrival_rate_per_s)
        self.mean_lifetime = float(mean_lifetime_s)
        self.max_stages = int(max_stages)
        self.events: List[ChurnEvent] = []
        self.active: Dict[str, VirtualStage] = {}
        self._next_id = 0
        self.rejected_arrivals = 0

    def start(self, duration_s: float) -> Process:
        """Run churn for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        return self.env.process(self._run(duration_s), name="job-scheduler")

    # -- internals ---------------------------------------------------------
    def _run(self, duration_s: float) -> Generator:
        end = self.env.now + duration_s
        while self.env.now < end:
            gap = float(self.rng.exponential(1.0 / self.arrival_rate))
            yield self.env.timeout(gap)
            if self.env.now >= end:
                break
            self._arrive()
        # Drain: departures continue via their own scheduled callbacks.

    def _arrive(self) -> None:
        if len(self.active) >= self.max_stages:
            self.rejected_arrivals += 1
            return
        self._next_id += 1
        stage_id = f"churn-stage-{self._next_id:05d}"
        job_id = f"churn-job-{self._next_id:05d}"
        stage = VirtualStage(
            self.env,
            stage_id,
            job_id,
            source=self.source_factory(stage_id),
            costs=self.controller.costs,
        )
        stage.attach(self.cluster.network, self.stage_host, stage_id)
        conn = self.cluster.network.connect(self.controller_endpoint, stage)
        self.controller.add_stage(
            stage_id,
            job_id,
            ChildChannel(stage_id, "stage", conn, self.controller_endpoint),
        )
        self.active[stage_id] = stage
        self.events.append(ChurnEvent(self.env.now, "arrive", stage_id, job_id))
        lifetime = float(self.rng.exponential(self.mean_lifetime))
        self.env.call_at(self.env.now + lifetime, lambda: self._depart(stage_id, job_id))

    def _depart(self, stage_id: str, job_id: str) -> None:
        if stage_id not in self.active:
            return
        del self.active[stage_id]
        self.controller.remove_stage(stage_id)
        self.events.append(ChurnEvent(self.env.now, "depart", stage_id, job_id))
