"""Log-bucketed latency histograms for I/O observability.

QoS work lives and dies by tail latency, and means hide tails. This is a
fixed-memory, log-spaced histogram (HdrHistogram-style, much simplified)
used by the data-plane interceptor to record per-operation latencies and
by :mod:`repro.obs.metrics` to expose them as Prometheus buckets.
"""

from __future__ import annotations

import math
from typing import List, Tuple

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Log-spaced histogram over ``[min_value_s, max_value_s]``.

    ``buckets_per_decade`` controls resolution (10 gives ~26 % bucket
    width, plenty for latency work). Out-of-range observations clamp to
    the end buckets and are counted separately.
    """

    def __init__(
        self,
        min_value_s: float = 1e-6,
        max_value_s: float = 100.0,
        buckets_per_decade: int = 10,
    ) -> None:
        if min_value_s <= 0 or max_value_s <= min_value_s:
            raise ValueError(
                f"invalid range [{min_value_s}, {max_value_s}]"
            )
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1: {buckets_per_decade}"
            )
        self.min_value_s = float(min_value_s)
        self.max_value_s = float(max_value_s)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(max_value_s / min_value_s)
        self._n_buckets = max(1, math.ceil(decades * buckets_per_decade))
        self._counts = [0] * self._n_buckets
        self.total = 0
        self.underflow = 0
        self.overflow = 0
        self._sum = 0.0

    # -- recording ----------------------------------------------------------
    def _bucket_of(self, value_s: float) -> int:
        ratio = math.log10(value_s / self.min_value_s)
        idx = int(ratio * self.buckets_per_decade)
        return min(max(idx, 0), self._n_buckets - 1)

    def record(self, value_s: float) -> None:
        """Record one latency observation (seconds)."""
        if value_s < 0:
            raise ValueError(f"negative latency: {value_s}")
        self.total += 1
        self._sum += value_s
        if value_s < self.min_value_s:
            self.underflow += 1
            self._counts[0] += 1
            return
        if value_s > self.max_value_s:
            self.overflow += 1
            self._counts[-1] += 1
            return
        self._counts[self._bucket_of(value_s)] += 1

    def state(self) -> list:
        """Everything recorded, as plain data (what :meth:`absorb` adds)."""
        return [list(self._counts), self.total, self.underflow, self.overflow, self._sum]

    def absorb(self, state: list) -> None:
        """Add another histogram's :meth:`state` into this one; both must
        have the same buckets."""
        counts, total, underflow, overflow, sum_s = state
        if len(counts) != self._n_buckets:
            raise ValueError(f"{len(counts)} buckets, not {self._n_buckets}")
        for i, count in enumerate(counts):
            self._counts[i] += count
        self.total += total
        self.underflow += underflow
        self.overflow += overflow
        self._sum += sum_s

    # -- queries --------------------------------------------------------------
    def _bucket_upper(self, idx: int) -> float:
        return self.min_value_s * 10 ** ((idx + 1) / self.buckets_per_decade)

    @property
    def mean(self) -> float:
        return self._sum / self.total if self.total else 0.0

    def nonzero_buckets(self) -> List[Tuple[float, int]]:
        """(bucket upper edge, count) for every populated bucket."""
        return [
            (self._bucket_upper(i), c)
            for i, c in enumerate(self._counts)
            if c
        ]
