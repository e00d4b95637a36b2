"""The controller compute phase over :class:`StageColumns`, and its oracle.

Every job-level compute phase in this repo is the same four steps:
gather per-stage demand into vectors, reduce to per-job demand, run an
allocation brain over jobs, split the grants back to stages.

* :class:`ColumnarCompute` is the one production implementation: demand
  lives in flat ``float64`` columns, the gather is a cached fancy-index,
  the job index (in :meth:`StageColumns.job_view`'s order) and the QoS
  weight / guarantee vectors are cached per (membership generation,
  policy version) and rebuilt only when membership or policy changes.
* :class:`ScalarComputeState` + :func:`scalar_allocations` are the
  retained reference: one ``MetricsWindow`` dict entry and one
  ``latest`` tuple per stage, list-comprehension gathers, the per-stage
  job-index rebuild every call. Nothing in the control planes calls
  them; ``tests/properties/test_columnar_equivalence.py`` pins the two
  byte-identical (they call the identical vectorized brains on identical
  arrays).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import StageColumns
from repro.core.metrics import MetricsWindow

__all__ = [
    "ColumnarCompute",
    "ScalarComputeState",
    "scalar_allocations",
    "split_to_stages",
]


def split_to_stages(
    stage_demand: np.ndarray,
    job_demand: np.ndarray,
    job_alloc: np.ndarray,
    job_index: np.ndarray,
    n_jobs: int,
) -> np.ndarray:
    """Split each job's grant across its stages, demand-proportionally;
    stages of an idle job share its (zero) grant equally."""
    denom = np.where(job_demand > 0, job_demand, 1.0)
    share = np.where(
        job_demand[job_index] > 0,
        stage_demand / denom[job_index],
        1.0
        / np.maximum(np.bincount(job_index, minlength=n_jobs), 1)[job_index],
    )
    return job_alloc[job_index] * share


def _allocate_jobs(
    stage_demand: np.ndarray,
    job_index: np.ndarray,
    job_ids: Sequence[str],
    policy,
    capacity: float,
    algorithm,
    weights: Optional[np.ndarray] = None,
    guarantees: Optional[np.ndarray] = None,
    use_guarantees: bool = True,
) -> np.ndarray:
    n_jobs = len(job_ids)
    job_demand = np.zeros(n_jobs)
    np.add.at(job_demand, job_index, stage_demand)
    if weights is None:
        weights = policy.weights(job_ids)
    if use_guarantees and guarantees is None:
        guarantees = policy.guarantees(job_ids)
    result = algorithm.allocate(
        job_demand, weights, capacity, guarantees if use_guarantees else None
    )
    return split_to_stages(
        stage_demand, job_demand, result.allocations, job_index, n_jobs
    )


class ScalarComputeState:
    """Reference per-stage state: dict EWMA + latest raw axes per stage."""

    __slots__ = ("window", "latest")

    def __init__(self, alpha: float = 1.0) -> None:
        self.window = MetricsWindow(alpha)
        self.latest: Dict[str, Tuple[float, float]] = {}

    def observe(
        self, stage_id: str, data_iops: float, metadata_iops: float
    ) -> None:
        self.latest[stage_id] = (data_iops, metadata_iops)
        self.window.update(stage_id, data_iops + metadata_iops)

    def forget(self, stage_id: str) -> None:
        self.latest.pop(stage_id, None)
        self.window.forget(stage_id)


def scalar_allocations(
    state: ScalarComputeState,
    stage_ids: Sequence[str],
    job_ids: Sequence[str],
    policy,
    algorithm,
    metadata_algorithm=None,
    job_order: Sequence[str] = (),
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The scalar compute phase, verbatim controller semantics.

    ``stage_ids``/``job_ids`` are parallel (one job id per stage);
    ``job_order`` lists jobs whose place in the job vector is already
    decided (a registry's order), any other job follows in order of
    first occurrence. Returns ``(limits, metadata_limits)`` with
    ``metadata_limits`` None under an undifferentiated policy — the
    exact contract of ``GlobalController._compute_allocations``.
    """
    if not stage_ids:
        return np.zeros(0), None
    # Per-call job-index rebuild: this per-stage Python loop is part of
    # the scalar cost being referenced.
    job_pos: Dict[str, int] = {j: i for i, j in enumerate(job_order)}
    for j in job_ids:
        if j not in job_pos:
            job_pos[j] = len(job_pos)
    job_order = list(job_pos)
    job_index = np.array([job_pos[j] for j in job_ids], dtype=np.intp)

    if not policy.differentiated:
        stage_demand = state.window.demands(stage_ids)
        total = _allocate_jobs(
            stage_demand, job_index, job_order, policy,
            policy.allocatable_iops, algorithm,
        )
        return total, None

    latest = state.latest
    data_demand = np.array(
        [latest[s][0] if s in latest else 0.0 for s in stage_ids]
    )
    metadata_demand = np.array(
        [latest[s][1] if s in latest else 0.0 for s in stage_ids]
    )
    axes = getattr(algorithm, "allocate_axes", None)
    if axes is not None:
        n_jobs = len(job_order)
        job_data = np.zeros(n_jobs)
        np.add.at(job_data, job_index, data_demand)
        job_meta = np.zeros(n_jobs)
        np.add.at(job_meta, job_index, metadata_demand)
        weights = policy.weights(job_order)
        data_res, meta_res = axes(
            job_data,
            job_meta,
            weights,
            policy.allocatable_iops,
            policy.allocatable_metadata_iops,
            guarantees=policy.guarantees(job_order),
        )
        data = split_to_stages(
            data_demand, job_data, data_res.allocations, job_index, n_jobs
        )
        metadata = split_to_stages(
            metadata_demand, job_meta, meta_res.allocations, job_index, n_jobs
        )
        return data, metadata
    data = _allocate_jobs(
        data_demand, job_index, job_order, policy,
        policy.allocatable_iops, algorithm,
    )
    metadata = _allocate_jobs(
        metadata_demand, job_index, job_order, policy,
        policy.allocatable_metadata_iops,
        metadata_algorithm if metadata_algorithm is not None else algorithm,
        use_guarantees=False,
    )
    return data, metadata


class ColumnarCompute:
    """Compute phase over :class:`StageColumns`.

    Byte-identical to :func:`scalar_allocations` on the same
    observations: both reduce with ``np.add.at`` in row order, hand the
    same job-ordered vectors to the same brains, and split with the same
    expression. The columnar side just skips the per-stage Python.
    """

    __slots__ = ("columns", "_policy_cache")

    def __init__(self, columns: StageColumns) -> None:
        self.columns = columns
        # (generation, id(policy), policy.version) -> (weights, guarantees)
        self._policy_cache: Optional[Tuple[tuple, np.ndarray, np.ndarray]] = None

    def _job_vectors(self, policy, job_ids: List[str]):
        key = (
            self.columns.generation,
            id(policy),
            getattr(policy, "version", -1),
        )
        cached = self._policy_cache
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]
        weights = policy.weights(job_ids)
        guarantees = policy.guarantees(job_ids)
        self._policy_cache = (key, weights, guarantees)
        return weights, guarantees

    def allocations(
        self, policy, algorithm, metadata_algorithm=None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        cols = self.columns
        if cols.n_active == 0:
            return np.zeros(0), None
        job_ids, job_index = cols.job_view()
        weights, guarantees = self._job_vectors(policy, job_ids)

        if not policy.differentiated:
            total = _allocate_jobs(
                cols.ewma_active(), job_index, job_ids, policy,
                policy.allocatable_iops, algorithm,
                weights=weights, guarantees=guarantees,
            )
            return total, None

        data_demand = cols.data_active()
        metadata_demand = cols.meta_active()
        axes = getattr(algorithm, "allocate_axes", None)
        if axes is not None:
            n_jobs = len(job_ids)
            job_data = np.zeros(n_jobs)
            np.add.at(job_data, job_index, data_demand)
            job_meta = np.zeros(n_jobs)
            np.add.at(job_meta, job_index, metadata_demand)
            data_res, meta_res = axes(
                job_data,
                job_meta,
                weights,
                policy.allocatable_iops,
                policy.allocatable_metadata_iops,
                metadata_caps=self._job_caps(job_index, n_jobs),
                guarantees=guarantees,
            )
            data = split_to_stages(
                data_demand, job_data, data_res.allocations, job_index, n_jobs
            )
            metadata = split_to_stages(
                metadata_demand, job_meta, meta_res.allocations,
                job_index, n_jobs,
            )
            return data, metadata
        data = _allocate_jobs(
            data_demand, job_index, job_ids, policy,
            policy.allocatable_iops, algorithm,
            weights=weights, guarantees=guarantees,
        )
        metadata = _allocate_jobs(
            metadata_demand, job_index, job_ids, policy,
            policy.allocatable_metadata_iops,
            metadata_algorithm if metadata_algorithm is not None else algorithm,
            weights=weights, use_guarantees=False,
        )
        return data, metadata

    def _job_caps(
        self, job_index: np.ndarray, n_jobs: int
    ) -> Optional[np.ndarray]:
        """Per-job metadata caps from the ``cap`` column (min over rows).

        Returns ``None`` when every row is uncapped — the default — so
        brains fall back to their built-in cap fraction exactly as the
        scalar controller path does.
        """
        cols = self.columns
        row_caps = cols.cap[cols.active_rows()]
        if not np.any(np.isfinite(row_caps)):
            return None
        job_caps = np.full(n_jobs, np.inf)
        np.minimum.at(job_caps, job_index, row_caps)
        return job_caps
