"""Adaptive control periods: volatility-driven cycle pacing (paper §V).

The paper leaves the control period to the administrator: bursty
workloads want tight cycles, calm ones want few. This module closes that
loop. :class:`AdaptivePeriodController` paces a
:class:`~repro.core.controller.GlobalController` by the *measured demand
volatility*:

* after each cycle it compares the fresh demand vector with the previous
  one (mean relative change per stage);
* volatility at/above ``target_volatility`` drives the period toward
  ``min_period_s`` (react fast while things are moving);
* calm demand lets the period decay toward ``max_period_s`` (save
  controller resources when nothing changes).

The controller's work per cycle is unchanged — only the spacing adapts,
so this composes with any design and with changed-only enforcement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

import numpy as np

from repro.core.controller import GlobalController
from repro.simnet.engine import Environment, Process

__all__ = ["AdaptivePeriodController", "PeriodSample"]

_EPS = 1e-9


@dataclass(frozen=True)
class PeriodSample:
    """One pacing decision."""

    time: float
    volatility: float
    period_s: float


class AdaptivePeriodController:
    """Paces control cycles by observed demand volatility.

    Parameters
    ----------
    min_period_s / max_period_s:
        The pacing range. The paper's stress mode is ``min == max == 0``
        (back-to-back); production deployments use e.g. 0.1 s – 10 s.
    target_volatility:
        Mean relative per-stage demand change that should map to the
        fastest pacing. 0.2 means "20 % average movement between cycles
        deserves the minimum period".
    smoothing:
        EWMA factor on the volatility estimate (1 = use raw estimate).
    """

    def __init__(
        self,
        controller: GlobalController,
        min_period_s: float = 0.1,
        max_period_s: float = 10.0,
        target_volatility: float = 0.2,
        smoothing: float = 0.5,
    ) -> None:
        if min_period_s <= 0 or max_period_s < min_period_s:
            raise ValueError(
                f"invalid period range [{min_period_s}, {max_period_s}]"
            )
        if target_volatility <= 0:
            raise ValueError(f"target volatility must be positive: {target_volatility}")
        if not 0 < smoothing <= 1:
            raise ValueError(f"smoothing must be in (0, 1]: {smoothing}")
        self.controller = controller
        self.env: Environment = controller.env
        self.min_period_s = float(min_period_s)
        self.max_period_s = float(max_period_s)
        self.target_volatility = float(target_volatility)
        self.smoothing = float(smoothing)
        self.samples: List[PeriodSample] = []
        self._previous_demand: Optional[tuple] = None
        self._volatility_ewma: Optional[float] = None

    # -- public API --------------------------------------------------------
    def run_for(self, duration_s: float) -> Process:
        """Run adaptively paced cycles for ``duration_s``."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        return self.env.process(
            self._run(duration_s), name="adaptive-controller"
        )

    @property
    def current_period_s(self) -> float:
        """The most recent pacing decision (max period before any data)."""
        return self.samples[-1].period_s if self.samples else self.max_period_s

    def mean_period_s(self) -> float:
        if not self.samples:
            return self.max_period_s
        return float(np.mean([s.period_s for s in self.samples]))

    # -- internals -----------------------------------------------------------
    def _measure_volatility(self) -> float:
        arrays = self.controller.columns.to_arrays()
        seen = arrays["seen"]
        current = (arrays["ids"], arrays["data"] + arrays["meta"], seen)
        previous = self._previous_demand
        self._previous_demand = current
        if previous is None or not seen.any():
            return self.target_volatility  # no evidence yet: stay neutral
        ids, now, _ = current
        old_ids, before, old_seen = previous
        if old_ids != ids:  # membership moved: line the old rows up by id
            slot = {stage_id: i for i, stage_id in enumerate(old_ids)}
            came_from = np.array([slot.get(s, -1) for s in ids], dtype=np.intp)
            known = came_from >= 0
            before = np.where(known, before[came_from], 0.0)
            old_seen = known & old_seen[came_from]
        both = seen & old_seen
        changes = np.abs(now[both] - before[both]) / np.maximum(before[both], 1.0)
        raw = float(np.mean(changes)) if changes.size else 0.0
        if self._volatility_ewma is None:
            self._volatility_ewma = raw
        else:
            self._volatility_ewma = (
                self.smoothing * raw + (1 - self.smoothing) * self._volatility_ewma
            )
        return self._volatility_ewma

    def _pick_period(self, volatility: float) -> float:
        # Inverse-proportional mapping, clamped to the configured range:
        # at target volatility (or above) -> min period; at zero -> max.
        if volatility <= _EPS:
            return self.max_period_s
        period = self.min_period_s * (self.target_volatility / volatility)
        return float(np.clip(period, self.min_period_s, self.max_period_s))

    def _run(self, duration_s: float) -> Generator:
        end = self.env.now + duration_s
        while self.env.now < end:
            started = self.env.now
            yield from self.controller._cycle()
            volatility = self._measure_volatility()
            period = self._pick_period(volatility)
            self.samples.append(PeriodSample(self.env.now, volatility, period))
            delay = min(started + period, end) - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
