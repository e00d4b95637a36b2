"""Demand clamping: PSFA's "no false allocation" against lying stages.

PSFA's waterfill already caps what an *active* liar can win in a single
allocation round (nobody gets more than the water level times their
weight), but two paths let an absurd demand report steal capacity
anyway:

* **orphan-demand reservation** — the hierarchical controller reserves
  last-known demand for orphaned stages verbatim; an orphaned stage that
  reported 1e9 IOPS before its aggregator died would eat the whole
  budget, and
* **leftover redistribution** — inflated demand shifts the
  demand-limited bookkeeping that decides who absorbs slack.

:class:`DemandClamp` closes both: every reported demand is capped at
``factor ×`` the stage's *trust score*, an asymmetric EWMA of what the
stage was actually granted and used. Honest stages never notice (their
reports track their usage, so ``factor=8`` leaves generous ramp headroom
above the ``floor_iops`` cold-start credit); a stage whose reports
wildly exceed its usage converges to ``factor × usage`` within a cycle
or two. The smoothing is deliberately asymmetric: usage rises fast
(``alpha_up``, so a legitimately ramping tenant un-caps within a cycle
or two) but decays slowly (``alpha_down``, so one idle cycle doesn't
collapse a tenant's trust to the floor).

Trust is the ``trust`` column of the controller's
:class:`~repro.core.columnar.StageColumns`, so it lives exactly as long
as the stage's row and both calls here are one array operation per
cycle over the compute gather's rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.columnar import StageColumns

__all__ = ["DemandClamp"]


class DemandClamp:
    """Cap reported demand at a multiple of observed usage per stage."""

    __slots__ = (
        "factor",
        "floor_iops",
        "alpha_up",
        "alpha_down",
        "clamps",
        "clamped_iops_total",
        "columns",
        "_previous",
    )

    def __init__(
        self,
        factor: float = 8.0,
        floor_iops: float = 200.0,
        alpha_up: float = 0.5,
        alpha_down: float = 0.1,
    ) -> None:
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1: {factor}")
        if floor_iops <= 0:
            raise ValueError(f"floor_iops must be positive: {floor_iops}")
        for name, alpha in (("alpha_up", alpha_up), ("alpha_down", alpha_down)):
            if not 0.0 < alpha <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]: {alpha}")
        self.factor = float(factor)
        self.floor_iops = float(floor_iops)
        self.alpha_up = float(alpha_up)
        self.alpha_down = float(alpha_down)
        #: Monotone counters: how often / how much lying was trimmed.
        self.clamps = 0
        self.clamped_iops_total = 0.0
        #: The store whose rows are scored (see :meth:`attach`).
        self.columns: Optional[StageColumns] = None
        self._previous: Optional[StageColumns] = None

    def attach(self, columns: StageColumns) -> None:
        """Score ``columns``' rows from now on.

        A controller attaches its own store at construction. One clamp
        shared across controller generations keeps the store it scored
        before, so a stage re-registering after a restart gets the trust
        it had earned back (:meth:`inherit`).
        """
        self._previous, self.columns = self.columns, columns

    def inherit(self, stage_id: str, row: int) -> None:
        """Hand a just-registered ``row`` the trust ``stage_id`` earned
        under the previously attached store, once."""
        previous = self._previous
        if previous is not None:
            old = previous.row_of(stage_id)
            if old is not None and np.isnan(self.columns.trust[row]):
                self.columns.trust[row] = previous.trust[old]
                previous.trust[old] = np.nan

    def cap(self, rows: np.ndarray) -> np.ndarray:
        """Maximum believable demand of each row right now."""
        # fmax: a row with no usage yet (NaN) stands on the floor.
        return self.factor * np.fmax(self.columns.trust[rows], self.floor_iops)

    def clamp(self, rows: np.ndarray, reported: np.ndarray) -> np.ndarray:
        """Trim each row's demand report to its trust cap."""
        cap = self.cap(rows)
        over = reported > cap
        if not over.any():
            return reported
        self.clamps += int(np.count_nonzero(over))
        # Row order, one add at a time: the total does not depend on how
        # many reports a cycle happens to trim together.
        for excess in (reported[over] - cap[over]).tolist():
            self.clamped_iops_total += excess
        return np.where(over, cap, reported)

    def observe(
        self, rows: np.ndarray, reported: np.ndarray, granted: np.ndarray
    ) -> None:
        """Fold one cycle's outcome into each row's trust score.

        Usage evidence is ``min(reported, granted)``: a stage can't earn
        trust beyond what it was actually allocated, and an allocation it
        didn't ask for doesn't count either. Call once per cycle, after
        allocation. A row's first observation is taken verbatim.
        """
        usage = np.maximum(np.minimum(reported, granted), 0.0)
        trust = self.columns.trust
        prev = trust[rows]
        alpha = np.where(usage >= prev, self.alpha_up, self.alpha_down)
        trust[rows] = np.where(
            np.isnan(prev), usage, alpha * usage + (1.0 - alpha) * prev
        )
