"""Metric records exchanged between stages and controllers.

The study's control loop collects two counters from every stage each cycle
(paper §III-C): the rate of **data** operations (read/write IOPS) and the
rate of **metadata** operations (open/stat/close per second) the stage is
currently submitting towards the PFS. Aggregator controllers merge many
stage records into one :class:`AggregatedMetrics` before forwarding, which
is what shrinks the global controller's receive path in the hierarchical
design.

Wire sizes are modelled separately in the cost model
(:mod:`repro.harness.calibration`); these classes carry the semantic
content only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["AggregatedMetrics", "MetricsWindow", "StageMetrics"]


@dataclass(frozen=True)
class StageMetrics:
    """One stage's report for one control cycle."""

    stage_id: str
    job_id: str
    data_iops: float
    metadata_iops: float
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.data_iops < 0:
            raise ValueError(f"negative data_iops: {self.data_iops}")
        if self.metadata_iops < 0:
            raise ValueError(f"negative metadata_iops: {self.metadata_iops}")

    @property
    def total_iops(self) -> float:
        """Combined demand this stage currently submits to the PFS."""
        return self.data_iops + self.metadata_iops


@dataclass(frozen=True)
class AggregatedMetrics:
    """Pre-merged metrics for one aggregator's stage partition.

    Carries per-stage demand vectors in compact (array) form plus the
    per-job totals the aggregator already computed, so the global
    controller does per-entry work that is cheaper than parsing full
    :class:`StageMetrics` records (paper Obs. #7).
    """

    aggregator_id: str
    stage_ids: Tuple[str, ...]
    job_ids: Tuple[str, ...]
    data_iops: Tuple[float, ...]
    metadata_iops: Tuple[float, ...]
    job_totals: Dict[str, float]
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.stage_ids)
        if not (len(self.job_ids) == len(self.data_iops) == len(self.metadata_iops) == n):
            raise ValueError("aggregated metric vectors must have equal length")

    @property
    def n_stages(self) -> int:
        return len(self.stage_ids)

    @property
    def total_iops(self) -> float:
        return float(sum(self.data_iops) + sum(self.metadata_iops))


def aggregate(
    aggregator_id: str,
    reports: Sequence[StageMetrics],
    timestamp: float = 0.0,
) -> AggregatedMetrics:
    """Merge stage reports into one :class:`AggregatedMetrics`.

    Per-job totals are summed across the partition; per-stage vectors are
    preserved (the global controller needs them to compute per-stage rules,
    which is why hierarchical memory usage still scales with N).
    """
    job_totals: Dict[str, float] = {}
    for r in reports:
        job_totals[r.job_id] = job_totals.get(r.job_id, 0.0) + r.total_iops
    return AggregatedMetrics(
        aggregator_id=aggregator_id,
        stage_ids=tuple(r.stage_id for r in reports),
        job_ids=tuple(r.job_id for r in reports),
        data_iops=tuple(r.data_iops for r in reports),
        metadata_iops=tuple(r.metadata_iops for r in reports),
        job_totals=job_totals,
        timestamp=timestamp,
    )


class MetricsWindow:
    """A sliding window of recent demand per stage, for smoothing.

    Controllers may base PSFA demands on an exponentially weighted moving
    average instead of the instantaneous report, damping reaction to bursty
    workloads. ``alpha=1`` degenerates to "use the latest report", which is
    the paper's stress-test behaviour.

    The window sits on the per-cycle hot path of every controller, so it
    is allocation-lean: ``__slots__`` instances, the ``1 - alpha``
    complement precomputed once, and :meth:`demands` filling its array
    via ``np.fromiter`` instead of materialising an intermediate list.
    The built demand vector is also cached between reports: repeated
    :meth:`demands` calls over the same id sequence with no intervening
    :meth:`update` / :meth:`forget` / :meth:`adopt` return the same
    array object without touching the dict (callers must not mutate it).
    """

    __slots__ = ("alpha", "_decay", "_ewma", "_demands_cache")

    def __init__(self, alpha: float = 1.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self.alpha = float(alpha)
        self._decay = 1.0 - self.alpha
        self._ewma: Dict[str, float] = {}
        self._demands_cache: Optional[Tuple[Tuple[str, ...], np.ndarray]] = None

    def update(self, stage_id: str, demand: float) -> float:
        """Fold a new observation in; returns the smoothed demand."""
        if demand < 0:
            raise ValueError(f"negative demand: {demand}")
        prev = self._ewma.get(stage_id)
        value = demand if prev is None else self.alpha * demand + self._decay * prev
        self._ewma[stage_id] = value
        self._demands_cache = None
        return value

    def update_many(self, reports: Iterable[StageMetrics]) -> None:
        for r in reports:
            self.update(r.stage_id, r.total_iops)

    def demand(self, stage_id: str) -> float:
        """Smoothed demand for a stage (0.0 if never reported)."""
        return self._ewma.get(stage_id, 0.0)

    def demands(self, stage_ids: Sequence[str]) -> np.ndarray:
        """Vector of smoothed demands in ``stage_ids`` order (cached).

        The array is reused verbatim while no observation has changed
        and the id sequence matches the last call — do not mutate it.
        """
        ids = stage_ids if isinstance(stage_ids, tuple) else tuple(stage_ids)
        cached = self._demands_cache
        if cached is not None and cached[0] == ids:
            return cached[1]
        get = self._ewma.get
        arr = np.fromiter(
            (get(s, 0.0) for s in ids), dtype=float, count=len(ids)
        )
        self._demands_cache = (ids, arr)
        return arr

    def forget(self, stage_id: str) -> None:
        """Drop state for a departed stage."""
        self._ewma.pop(stage_id, None)
        self._demands_cache = None

    def snapshot(self) -> Dict[str, float]:
        """Copy of the smoothed demands (hot-standby state transfer)."""
        return dict(self._ewma)

    def adopt(self, demands: Dict[str, float]) -> None:
        """Install demands for stages with no local observation.

        Used on hot-standby takeover: locally observed stages keep their
        own (fresher) smoothed value; stages the standby never heard from
        inherit the primary's last-known demand.
        """
        for stage_id, value in demands.items():
            self._ewma.setdefault(stage_id, value)
        self._demands_cache = None

    def __len__(self) -> int:
        return len(self._ewma)
