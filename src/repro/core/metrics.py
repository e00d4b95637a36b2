"""Metric records exchanged between stages and controllers.

The study's control loop collects two counters from every stage each cycle
(paper §III-C): the rate of **data** operations (read/write IOPS) and the
rate of **metadata** operations (open/stat/close per second) the stage is
currently submitting towards the PFS. Aggregator controllers land many
stage records in their partition's rows and forward one
:class:`AggregatedMetrics` of vectors, which is what shrinks the global
controller's receive path in the hierarchical design.

Wire sizes are modelled separately in the cost model
(:mod:`repro.harness.calibration`); these classes carry the semantic
content only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["AggregatedMetrics", "MetricsWindow", "StageMetrics"]


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, eq=False)
class AggregatedMetrics:
    """One aggregator's partition report, in rows (paper Obs. #7).

    No stage ids: the receiver holds the partition's order (the ids it
    registered the aggregator with) and every vector is laid out in it —
    per slot the last-known data and metadata demand, and whether the
    stage answered this collect (a silent slot carries its last-known
    value, which the receiver does not read). The global controller
    still needs per-stage vectors to compute per-stage rules, which is
    why hierarchical memory usage scales with N. The vectors are copied
    on construction and read-only.
    """

    aggregator_id: str
    data_iops: np.ndarray
    metadata_iops: np.ndarray
    answered: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        for name, dtype in (
            ("data_iops", float), ("metadata_iops", float), ("answered", bool)
        ):
            values = np.array(getattr(self, name), dtype=dtype)
            if values.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if not (
            self.data_iops.size == self.metadata_iops.size == self.answered.size
        ):
            raise ValueError("aggregated metric vectors must have equal length")

    @property
    def n_stages(self) -> int:
        """Slots in the partition's order."""
        return self.data_iops.size

    @property
    def n_answered(self) -> int:
        """Slots whose stage answered this collect."""
        return int(np.count_nonzero(self.answered))

    @property
    def total_iops(self) -> float:
        """Demand reported this collect (answered slots only)."""
        answered = self.answered
        return float(
            self.data_iops[answered].sum() + self.metadata_iops[answered].sum()
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
