"""Controller failure injection (paper §VI, dependability).

The paper's future work highlights control-plane dependability: a failed
controller does not take the storage offline — stages keep enforcing the
last rules they received — but policy enforcement degrades until
recovery. This module injects exactly those faults into a running
simulation:

* :func:`crash_aggregator` — stops an aggregator's serve loop for a
  downtime window, then restarts it. With a ``collect_timeout_s`` set on
  the global controller, cycles continue with partial metrics; without
  one, the control plane stalls (both behaviours are tested).
* :class:`FailureLog` — records injected events for assertions.

Stage-side guarantees under failure are provided by the epoch check in
:class:`~repro.dataplane.virtual_stage.VirtualStage`: late or replayed
rules never roll a stage's limit backwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.controller import AggregatorController
from repro.simnet.engine import Environment

__all__ = ["FailureEvent", "FailureLog", "crash_aggregator"]


@dataclass(frozen=True)
class FailureEvent:
    """One injected fault or recovery."""

    time: float
    target: str
    action: str  # "crash" | "recover"


@dataclass
class FailureLog:
    """Chronological record of injected failures."""

    events: List[FailureEvent] = field(default_factory=list)

    def record(self, time: float, target: str, action: str) -> None:
        self.events.append(FailureEvent(time, target, action))

    def crashes(self) -> List[FailureEvent]:
        return [e for e in self.events if e.action == "crash"]

    def recoveries(self) -> List[FailureEvent]:
        return [e for e in self.events if e.action == "recover"]


def crash_aggregator(
    env: Environment,
    aggregator: AggregatorController,
    at: float,
    downtime: float,
    log: Optional[FailureLog] = None,
) -> FailureLog:
    """Schedule a crash of ``aggregator`` at ``at`` for ``downtime`` seconds.

    While down, the aggregator's serve loop is stopped; requests pile up in
    its inbox. On recovery the loop restarts and drains them — replies for
    finished epochs are discarded as stale by the global controller.
    """
    if at < env.now:
        raise ValueError(f"crash time {at} in the simulated past")
    if downtime <= 0:
        raise ValueError(f"downtime must be positive: {downtime}")
    log = log if log is not None else FailureLog()

    def down() -> None:
        aggregator.stop()
        log.record(env.now, aggregator.agg_id, "crash")

    def up() -> None:
        aggregator.start()
        log.record(env.now, aggregator.agg_id, "recover")

    env.call_at(at, down)
    env.call_at(at + downtime, up)
    return log
