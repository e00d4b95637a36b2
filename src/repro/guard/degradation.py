"""Graceful-degradation ladder for the control brain.

When collect deadlines start missing (network partition, slow stages, a
metadata storm starving the event loop), the controller should *shed its
own work* before it sheds correctness. The ladder encodes that as four
rungs, climbed one at a time after ``trip_after`` consecutive degraded
cycles and descended after ``recover_after`` consecutive clean ones
(hysteresis — a single good cycle mid-storm doesn't reset the defense):

=====  =============  =====================================================
Level  Name           Effect on the cycle
=====  =============  =====================================================
0      NORMAL         Full collect → compute → enforce.
1      CACHED_DEMAND  Compute from last-known demand; collect deadline is
                      tightened (``collect_timeout_multiplier``) so slow
                      stages can't drag the cycle.
2      STRETCH        Additionally stretch the cycle interval
                      (``interval_multiplier``) — fewer cycles, each
                      cheaper to miss.
3      CHANGED_ONLY   Additionally force changed-only enforcement: only
                      rules whose limits moved are shipped.
=====  =============  =====================================================

Each rung *adds* to the ones below it, so the properties are monotone in
the level. The controller calls :meth:`DegradationLadder.observe` once
per cycle with that cycle's degraded flag and reads the four effect
properties when building the next one.
"""

from __future__ import annotations

__all__ = ["DegradationLadder"]


class DegradationLadder:
    """Hysteresis ladder: escalate on sustained misses, recover slowly."""

    NORMAL = 0
    CACHED_DEMAND = 1
    STRETCH = 2
    CHANGED_ONLY = 3

    NAMES = {
        NORMAL: "normal",
        CACHED_DEMAND: "cached-demand",
        STRETCH: "stretch",
        CHANGED_ONLY: "changed-only",
    }
    MAX_LEVEL = CHANGED_ONLY

    __slots__ = (
        "trip_after", "recover_after", "collect_timeout_factor",
        "interval_factor", "level", "_bad_streak", "_good_streak",
        "escalations", "recoveries",
    )

    def __init__(
        self,
        trip_after: int = 3,
        recover_after: int = 5,
        collect_timeout_factor: float = 0.5,
        interval_factor: float = 2.0,
    ) -> None:
        if trip_after < 1:
            raise ValueError(f"trip_after must be >= 1: {trip_after}")
        if recover_after < 1:
            raise ValueError(f"recover_after must be >= 1: {recover_after}")
        if not 0.0 < collect_timeout_factor <= 1.0:
            raise ValueError(
                f"collect_timeout_factor must be in (0, 1]: {collect_timeout_factor}"
            )
        if interval_factor < 1.0:
            raise ValueError(
                f"interval_factor must be >= 1: {interval_factor}"
            )
        self.trip_after = int(trip_after)
        self.recover_after = int(recover_after)
        self.collect_timeout_factor = float(collect_timeout_factor)
        self.interval_factor = float(interval_factor)
        self.level = self.NORMAL
        self._bad_streak = 0
        self._good_streak = 0
        #: Monotone rung-change counters.
        self.escalations = 0
        self.recoveries = 0

    def observe(self, degraded: bool) -> int:
        """Record one cycle's outcome; returns the (possibly new) level.

        Escalation and recovery both move ONE rung at a time and reset
        both streaks, so a flapping signal oscillates between adjacent
        rungs instead of slamming between NORMAL and CHANGED_ONLY.
        """
        if degraded:
            self._good_streak = 0
            self._bad_streak += 1
            if self._bad_streak >= self.trip_after and self.level < self.MAX_LEVEL:
                self.level += 1
                self.escalations += 1
                self._bad_streak = 0
        else:
            self._bad_streak = 0
            self._good_streak += 1
            if self._good_streak >= self.recover_after and self.level > self.NORMAL:
                self.level -= 1
                self.recoveries += 1
                self._good_streak = 0
        return self.level

    @property
    def use_cached_demand(self) -> bool:
        return self.level >= self.CACHED_DEMAND

    @property
    def collect_timeout_multiplier(self) -> float:
        """Scale the collect deadline (≤ 1 once degraded)."""
        return self.collect_timeout_factor if self.level >= self.CACHED_DEMAND else 1.0

    @property
    def interval_multiplier(self) -> float:
        """Scale the cycle interval (≥ 1 once stretched)."""
        return self.interval_factor if self.level >= self.STRETCH else 1.0

    @property
    def force_changed_only(self) -> bool:
        return self.level >= self.CHANGED_ONLY
