"""Trace-driven workloads: record, generate, and replay demand series.

The paper's future work calls for studying the control planes "with real
workloads and applications". Real facility traces are not redistributable,
so this module provides the standard substitute:

* :class:`TraceSource` — a metric source replaying an explicit
  ``(time, data_iops, metadata_iops)`` step series (which can be exported
  from any I/O monitoring system, e.g. Darshan or LMT summaries);
* :func:`generate_facility_trace` — a synthetic facility-scale trace
  built from a mix of the workload archetypes in
  :mod:`repro.jobs.workloads` plus a diurnal load envelope, matching the
  qualitative statistics published for production PFS traffic (bursty,
  heavy-tailed, metadata-spiky — e.g. Patel et al., SC'19).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.simnet.rng import RandomStreams

__all__ = [
    "TracePoint",
    "TraceSource",
    "generate_facility_trace",
]


@dataclass(frozen=True)
class TracePoint:
    """One step of a demand trace (rates hold until the next point)."""

    time_s: float
    data_iops: float
    metadata_iops: float

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"negative trace time: {self.time_s}")
        if self.data_iops < 0 or self.metadata_iops < 0:
            raise ValueError("negative trace rate")


class TraceSource:
    """Replays a step-wise demand trace as a stage metric source.

    Sampling before the first point returns zeros; after the last point
    the trace either holds its final value (``hold_last=True``) or wraps
    around periodically (default), which suits steady-state stress runs.
    """

    def __init__(
        self,
        points: Sequence[TracePoint],
        hold_last: bool = False,
    ) -> None:
        if not points:
            raise ValueError("trace needs at least one point")
        times = [p.time_s for p in points]
        if times != sorted(times):
            raise ValueError("trace points must be time-ordered")
        if len(set(times)) != len(times):
            raise ValueError("duplicate trace times")
        self.points: Tuple[TracePoint, ...] = tuple(points)
        self.hold_last = bool(hold_last)
        self._times = times
        self._span = times[-1]

    def sample(self, stage_id: str, now: float) -> Tuple[float, float]:
        t = now
        if not self.hold_last and self._span > 0:
            t = now % self._span if now > self._span else now
        idx = bisect_right(self._times, t) - 1
        if idx < 0:
            return (0.0, 0.0)
        point = self.points[idx]
        return (point.data_iops, point.metadata_iops)

    @property
    def duration_s(self) -> float:
        return self._span


def generate_facility_trace(
    duration_s: float = 120.0,
    step_s: float = 1.0,
    seed: int = 0,
    base_data_iops: float = 800.0,
    base_metadata_iops: float = 120.0,
    burst_probability: float = 0.05,
    burst_multiplier: float = 8.0,
    diurnal_amplitude: float = 0.3,
) -> List[TracePoint]:
    """A synthetic facility demand trace with production-like features.

    Composition per step: a diurnal-style sinusoidal envelope, log-normal
    multiplicative noise (heavy tail), and Bernoulli bursts that multiply
    the rate for one step — metadata bursting harder than data, as DL/LLM
    characterisations report.
    """
    if duration_s <= 0 or step_s <= 0:
        raise ValueError("duration and step must be positive")
    if not 0 <= burst_probability <= 1:
        raise ValueError(f"burst probability out of range: {burst_probability}")
    rng = RandomStreams(seed).stream("facility-trace")
    n_steps = int(duration_s / step_s)
    points: List[TracePoint] = []
    for i in range(n_steps):
        t = i * step_s
        envelope = 1.0 + diurnal_amplitude * np.sin(2 * np.pi * t / duration_s)
        noise = float(rng.lognormal(mean=0.0, sigma=0.3))
        data = base_data_iops * envelope * noise
        metadata = base_metadata_iops * envelope * float(
            rng.lognormal(mean=0.0, sigma=0.5)
        )
        if rng.random() < burst_probability:
            data *= burst_multiplier
            metadata *= burst_multiplier * 1.5
        points.append(TracePoint(t, float(data), float(metadata)))
    return points
