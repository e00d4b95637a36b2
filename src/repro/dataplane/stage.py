"""The full data-plane stage: rate-limits a job's I/O to the PFS.

Where :class:`~repro.dataplane.virtual_stage.VirtualStage` only *mimics*
a stage's control-plane footprint, this class implements the real data
path (paper Fig. 1): job I/O operations pass through per-class token
buckets whose rates are set by the controller's enforcement rules. The
QoS examples use it to show PSFA actually shaping traffic; the stress
benches use the virtual variant, exactly like the paper.

Demand accounting: the stage counts *offered* operations (arrivals,
including ones that had to wait) between metric requests and reports the
offered rate. Reporting offered rather than admitted demand is what lets
PSFA raise a throttled job's allocation when capacity frees up.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.core.costs import CostModel, FRONTERA_COST_MODEL
from repro.dataplane.token_bucket import TokenBucket
from repro.dataplane.virtual_stage import MetricSource, VirtualStage
from repro.simnet.engine import Environment

__all__ = ["DataPlaneStage"]

#: Operation classes a stage distinguishes (paper §III-C collects both).
DATA, METADATA = "data", "metadata"


class _MeasuredSource:
    """Reports the stage's own measured offered rates."""

    def __init__(self, stage: "DataPlaneStage") -> None:
        self.stage = stage

    def sample(self, stage_id: str, now: float) -> Tuple[float, float]:
        return self.stage._drain_window(now)


class DataPlaneStage(VirtualStage):
    """A stage that actually mediates I/O through token buckets.

    Use :meth:`admit` from job processes::

        delay = yield from stage.admit("data")
        # ... operation has been admitted; submit it to the PFS ...
    """

    def __init__(
        self,
        env: Environment,
        stage_id: str,
        job_id: str,
        costs: CostModel = FRONTERA_COST_MODEL,
        initial_data_limit: float = float("inf"),
        initial_metadata_limit: float = float("inf"),
        burst_seconds: float = 0.1,
        source: Optional[MetricSource] = None,
    ) -> None:
        # ``source`` is accepted for ControlPlaneConfig.stage_cls
        # compatibility but ignored: a full stage always reports its own
        # measured offered rates, never a synthetic generator.
        super().__init__(env, stage_id, job_id, source=None, costs=costs)
        self.source: MetricSource = _MeasuredSource(self)
        if burst_seconds <= 0:
            raise ValueError(f"burst_seconds must be positive: {burst_seconds}")
        self.burst_seconds = float(burst_seconds)
        clock = lambda: env.now
        self.buckets = {
            DATA: TokenBucket(initial_data_limit, clock, self._burst(initial_data_limit)),
            METADATA: TokenBucket(
                initial_metadata_limit, clock, self._burst(initial_metadata_limit)
            ),
        }
        self._offered = {DATA: 0, METADATA: 0}
        self._admitted = {DATA: 0, METADATA: 0}
        self._window_started = env.now
        self.total_wait_s = 0.0

    def _burst(self, rate: float) -> float:
        if rate == float("inf"):
            return 1e12
        return max(rate * self.burst_seconds, 1.0)

    # -- enforcement -------------------------------------------------------------
    def _apply(self, data_limit: float, metadata_limit: float) -> None:
        self.buckets[DATA].set_rate(data_limit, self._burst(data_limit))
        self.buckets[METADATA].set_rate(metadata_limit, self._burst(metadata_limit))

    # -- data path ------------------------------------------------------------------
    def admit(self, op_class: str = DATA) -> Generator:
        """Admit one operation of ``op_class``; yields until allowed.

        Returns the seconds the operation waited (0.0 when the bucket had
        tokens). Job processes drive this with ``yield from``.
        """
        bucket = self.buckets.get(op_class)
        if bucket is None:
            raise ValueError(f"unknown op class: {op_class!r}")
        self._offered[op_class] += 1
        waited = 0.0
        while not bucket.try_acquire(1.0):
            delay = bucket.delay_for(1.0)
            if delay == float("inf"):
                # Zero-rate rule: re-check each control period; a new rule
                # may restore service.
                delay = 1.0
            # Clamp below so float round-off can never produce a wait too
            # small to advance the simulation clock.
            delay = max(delay, 1e-6)
            yield self.env.timeout(delay)
            waited += delay
        self._admitted[op_class] += 1
        self.total_wait_s += waited
        return waited

    # -- metric window -----------------------------------------------------------------
    def _drain_window(self, now: float) -> Tuple[float, float]:
        """Offered rates since the last metric request, then reset."""
        elapsed = now - self._window_started
        if elapsed <= 0:
            return (0.0, 0.0)
        data_rate = self._offered[DATA] / elapsed
        metadata_rate = self._offered[METADATA] / elapsed
        self._offered = {DATA: 0, METADATA: 0}
        self._admitted = {DATA: 0, METADATA: 0}
        self._window_started = now
        return (data_rate, metadata_rate)

    @property
    def enforced_data_rate(self) -> float:
        return self.buckets[DATA].rate

    @property
    def enforced_metadata_rate(self) -> float:
        return self.buckets[METADATA].rate
