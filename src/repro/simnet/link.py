"""Network link models: latency, bandwidth, and jitter.

Frontera's fabric is Mellanox InfiniBand HDR-100 (100 Gb/s per port) in a
fat-tree; small-message one-way latencies between arbitrary compute nodes
are a handful of microseconds. We model a message's transfer time as::

    delay = propagation_latency * hops + size_bytes / bandwidth + jitter

where jitter comes from a pluggable :class:`DelayModel`. This is the level
of fidelity the paper's measurements depend on — per-message wire time is
tiny compared to controller CPU time (Section IV attributes the latency to
per-stage processing), so a calibrated linear model suffices.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["DelayModel", "FixedDelay", "Link", "NormalJitterDelay"]

#: InfiniBand HDR-100 nominal data rate in bytes/second.
HDR100_BANDWIDTH = 100e9 / 8
#: Per-hop propagation + switching latency (seconds) typical of HDR IB.
DEFAULT_HOP_LATENCY = 1.0e-6


class DelayModel:
    """Base class for per-message jitter distributions (default: none)."""

    def sample(self) -> float:
        """Extra delay in seconds added to the deterministic transfer time."""
        return 0.0


class FixedDelay(DelayModel):
    """Deterministic extra delay (useful for tests and calibration)."""

    def __init__(self, delay: float = 0.0) -> None:
        if not 0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and >= 0: {delay}")
        self.delay = float(delay)

    def sample(self) -> float:
        return self.delay


class NormalJitterDelay(DelayModel):
    """Truncated-normal jitter, the common empirical fit for IB fabrics."""

    def __init__(
        self,
        rng: np.random.Generator,
        mean: float = 0.0,
        std: float = 0.5e-6,
    ) -> None:
        if not math.isfinite(mean):
            raise ValueError(f"mean must be finite: {mean}")
        if not 0 <= std < math.inf:
            raise ValueError(f"std must be finite and >= 0: {std}")
        self._rng = rng
        self.mean = float(mean)
        self.std = float(std)

    def sample(self) -> float:
        return max(0.0, float(self._rng.normal(self.mean, self.std)))


class Link:
    """A point-to-point (or hop-aggregated) network path.

    ``transfer_time(size, hops)`` is pure and cheap — the transport layer
    calls it once per message.
    """

    def __init__(
        self,
        hop_latency: float = DEFAULT_HOP_LATENCY,
        bandwidth: float = HDR100_BANDWIDTH,
        jitter: Optional[DelayModel] = None,
    ) -> None:
        if not 0 <= hop_latency < math.inf:
            raise ValueError(f"hop latency must be finite and >= 0: {hop_latency}")
        if not 0 < bandwidth < math.inf:
            raise ValueError(f"bandwidth must be positive and finite: {bandwidth}")
        self.hop_latency = float(hop_latency)
        self.bandwidth = float(bandwidth)
        self.jitter = jitter or DelayModel()

    def transfer_time(self, size_bytes: int, hops: int = 1) -> float:
        """One-way wire time for a message of ``size_bytes`` over ``hops``."""
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        if hops < 0:
            raise ValueError(f"negative hop count: {hops}")
        return (
            self.hop_latency * hops
            + size_bytes / self.bandwidth
            + self.jitter.sample()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link(hop_latency={self.hop_latency!r}, "
            f"bandwidth={self.bandwidth!r})"
        )
