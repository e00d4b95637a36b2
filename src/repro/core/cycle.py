"""Control-cycle records and statistics.

A control cycle (paper footnote 1) is: *collect* metrics from all stages,
*compute* the control algorithm, *enforce* the resulting rules. The
latency of each phase, per cycle, is the paper's primary measurement
(Figs. 4–6); :class:`CycleStats` produces the averages and the breakdown
exactly as the figures report them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

__all__ = ["ControlCycle", "CycleStats", "PhaseBreakdown", "PHASES"]

#: Canonical phase names, in execution order.
PHASES = ("collect", "compute", "enforce")


@dataclass(frozen=True)
class ControlCycle:
    """Timing record of one completed control cycle (seconds).

    ``n_missing`` and ``timed_out`` describe *degraded* cycles: a cycle
    that proceeded on partial metrics because some children never
    replied (dead sockets, phase deadline). Both default to the healthy
    values, so records built by older callers are unchanged.
    """

    epoch: int
    started_at: float
    collect_s: float
    compute_s: float
    enforce_s: float
    n_stages: int
    n_missing: int = 0
    timed_out: bool = False

    def __post_init__(self) -> None:
        for name in ("collect_s", "compute_s", "enforce_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative phase duration: {name}")
        if self.n_missing < 0:
            raise ValueError(f"negative n_missing: {self.n_missing}")

    @property
    def degraded(self) -> bool:
        """True when the cycle ran on partial metrics or hit a deadline."""
        return self.n_missing > 0 or self.timed_out

    @property
    def total_s(self) -> float:
        return self.collect_s + self.compute_s + self.enforce_s

    def phase(self, name: str) -> float:
        return {
            "collect": self.collect_s,
            "compute": self.compute_s,
            "enforce": self.enforce_s,
        }[name]

    def emit_spans(self, tracer, **fields) -> None:
        """Record the cycle on ``tracer``: one span per phase, back to
        back from ``started_at``, under a ``cycle`` span with ``fields``."""
        t = self.started_at
        for name in PHASES:
            duration = self.phase(name)
            tracer.emit(name, t, duration, parent="cycle", epoch=self.epoch)
            t += duration
        tracer.emit(
            "cycle", self.started_at, self.total_s,
            epoch=self.epoch, n_stages=self.n_stages, **fields,
        )


@dataclass(frozen=True)
class PhaseBreakdown:
    """Mean per-phase latencies (milliseconds), as plotted in Figs. 4–6."""

    collect_ms: float
    compute_ms: float
    enforce_ms: float

    @property
    def total_ms(self) -> float:
        return self.collect_ms + self.compute_ms + self.enforce_ms

    def as_dict(self) -> Dict[str, float]:
        return {
            "collect": self.collect_ms,
            "compute": self.compute_ms,
            "enforce": self.enforce_ms,
        }

    def fraction(self, phase: str) -> float:
        """Share of the cycle spent in ``phase`` (0..1)."""
        total = self.total_ms
        if total <= 0:
            return 0.0
        return self.as_dict()[phase] / total


class CycleStats:
    """Aggregates :class:`ControlCycle` records into reportable statistics."""

    def __init__(self, cycles: Sequence[ControlCycle], warmup: int = 0) -> None:
        if warmup < 0:
            raise ValueError(f"negative warmup: {warmup}")
        self.all_cycles: List[ControlCycle] = list(cycles)
        self.cycles = self.all_cycles[warmup:]
        self.warmup = warmup

    # -- scalar summaries ---------------------------------------------------
    def _totals_ms(self) -> np.ndarray:
        return np.array([c.total_s for c in self.cycles]) * 1e3

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @property
    def mean_ms(self) -> float:
        """Average control-cycle latency in milliseconds."""
        if not self.cycles:
            return 0.0
        return float(self._totals_ms().mean())

    @property
    def std_ms(self) -> float:
        if len(self.cycles) < 2:
            return 0.0
        return float(self._totals_ms().std(ddof=1))

    @property
    def relative_std(self) -> float:
        """Std/mean — the paper reports this below 6 % everywhere."""
        mean = self.mean_ms
        return self.std_ms / mean if mean > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        if not self.cycles:
            return 0.0
        return float(np.percentile(self._totals_ms(), q))

    # -- degraded-cycle accounting -------------------------------------------
    @property
    def degraded_cycles(self) -> int:
        """Cycles that ran on partial metrics or hit a phase deadline."""
        return sum(1 for c in self.cycles if c.degraded)

    @property
    def missing_total(self) -> int:
        """Total missing child replies across all (post-warmup) cycles."""
        return sum(c.n_missing for c in self.cycles)

    @property
    def timeout_cycles(self) -> int:
        """Cycles in which a collect/enforce deadline fired."""
        return sum(1 for c in self.cycles if c.timed_out)

    def phase_percentile_ms(self, phase: str, q: float) -> float:
        """Percentile of one phase's per-cycle latency (ms).

        Tail behaviour per phase matters for dependability work: a
        timeout-extended collect shows up here long before it moves the
        mean.
        """
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; choose from {PHASES}")
        if not self.cycles:
            return 0.0
        values = np.array([c.phase(phase) for c in self.cycles]) * 1e3
        return float(np.percentile(values, q))

    # -- phase breakdown -----------------------------------------------------
    def breakdown(self) -> PhaseBreakdown:
        """Mean per-phase latencies (ms), the bar segments of Figs. 4–6."""
        if not self.cycles:
            return PhaseBreakdown(0.0, 0.0, 0.0)
        collect = float(np.mean([c.collect_s for c in self.cycles])) * 1e3
        compute = float(np.mean([c.compute_s for c in self.cycles])) * 1e3
        enforce = float(np.mean([c.enforce_s for c in self.cycles])) * 1e3
        return PhaseBreakdown(collect, compute, enforce)

    def summary(self) -> Dict[str, float]:
        """Flat dict of every reported statistic (for tables/JSON)."""
        bd = self.breakdown()
        return {
            "cycles": float(self.n_cycles),
            "mean_ms": self.mean_ms,
            "std_ms": self.std_ms,
            "relative_std": self.relative_std,
            "p99_ms": self.percentile_ms(99.0),
            "collect_ms": bd.collect_ms,
            "compute_ms": bd.compute_ms,
            "enforce_ms": bd.enforce_ms,
            "collect_p99_ms": self.phase_percentile_ms("collect", 99.0),
            "enforce_p99_ms": self.phase_percentile_ms("enforce", 99.0),
            "degraded_cycles": float(self.degraded_cycles),
            "missing_total": float(self.missing_total),
        }
