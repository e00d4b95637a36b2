"""The controller compute phase over :class:`StageColumns`, and its oracle.

Every compute phase in this repo is the same four steps: gather
per-stage demand into vectors, reduce to per-job demand, run an
allocation brain over jobs (weights and floors are per job), split the
grants back to stages. This module is the one place a brain is called
for a control cycle: :class:`GlobalCompute`, the compute half every
global controller (DES, coordinated peer, both live ones) shares, and
:func:`partition_allocations` for an aggregator running its partition
against a budget under decision offload.

* :class:`ColumnarCompute`, under :class:`GlobalCompute`, is the one
  production implementation: demand lives in flat ``float64`` columns,
  the gather is a fancy index over the live rows or over the rows the
  caller names (live rows plus the *reserved* ones — evicted stages
  inside their grace, orphans — whose share must stay allocated), the
  job index (in :meth:`StageColumns.job_view`'s order) and the QoS
  weight / guarantee vectors are cached and rebuilt only when
  membership or policy changes. An optional
  :class:`~repro.guard.trust.DemandClamp` trims each row's report to
  what the stage is believed to use *before* the job reduce and is shown
  the grants after it.
* :class:`ScalarComputeState` + :func:`scalar_allocations` are the
  retained reference: one ``MetricsWindow`` dict entry and one
  ``latest`` tuple per stage, list-comprehension gathers, the per-stage
  job-index rebuild every call. Nothing in the control planes calls
  them; ``tests/properties/test_columnar_equivalence.py`` pins the two
  byte-identical (from the job reduce on they are the same code on
  identical arrays).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.algorithms.psfa import PSFA
from repro.core.columnar import StageColumns
from repro.core.cycle import ControlCycle
from repro.core.metrics import MetricsWindow
from repro.core.slots import SlotLedger, grant_by_row

__all__ = [
    "ColumnarCompute",
    "GlobalCompute",
    "ScalarComputeState",
    "partition_allocations",
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
    n_jobs: int,
    capacity: float,
    algorithm,
    weights: np.ndarray,
    guarantees: Optional[np.ndarray],
) -> np.ndarray:
    """One axis: reduce to jobs, run the brain, split back to stages."""
    job_demand = np.zeros(n_jobs)
    np.add.at(job_demand, job_index, stage_demand)
    result = algorithm.allocate(job_demand, weights, capacity, guarantees)
    return split_to_stages(
        stage_demand, job_demand, result.allocations, job_index, n_jobs
    )


def partition_allocations(
    stage_demand: np.ndarray,
    stage_jobs: Sequence[str],
    budget: float,
    policy,
    algorithm,
) -> np.ndarray:
    """One axis of an offloaded partition (paper §VI): reduce to the
    partition's jobs (in order of first occurrence), run the brain with
    job weights against ``budget``, split back to stages. Floors are
    cluster-wide, so they stay out."""
    job_pos: Dict[str, int] = {}
    job_index = np.array(
        [job_pos.setdefault(job, len(job_pos)) for job in stage_jobs], dtype=np.intp
    )
    return _allocate_jobs(
        stage_demand, job_index, len(job_pos), budget, algorithm,
        policy.weights(list(job_pos)), None,
    )


def _allocate_axes(
    policy,
    algorithm,
    metadata_algorithm,
    total: Optional[np.ndarray],
    data: Optional[np.ndarray],
    meta: Optional[np.ndarray],
    job_index: np.ndarray,
    weights: np.ndarray,
    guarantees: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Steps two to four over per-stage demand vectors (``total`` is read
    under an undifferentiated policy, ``data`` / ``meta`` otherwise).

    Returns ``(limits, metadata_limits)``: with an undifferentiated
    policy the first vector bounds *total* IOPS and the second is
    ``None``; otherwise the brain runs per operation class against its
    own budget — through ``allocate_axes`` if it has one, else twice,
    the metadata axis on ``metadata_algorithm`` (a stateful brain must
    not alternate axes through one instance) and without floors, which
    are defined on the data axis.
    """
    n_jobs = weights.size
    if not policy.differentiated:
        limits = _allocate_jobs(
            total, job_index, n_jobs, policy.allocatable_iops,
            algorithm, weights, guarantees,
        )
        return limits, None
    axes = getattr(algorithm, "allocate_axes", None)
    if axes is None:
        return (
            _allocate_jobs(
                data, job_index, n_jobs, policy.allocatable_iops,
                algorithm, weights, guarantees,
            ),
            _allocate_jobs(
                meta, job_index, n_jobs, policy.allocatable_metadata_iops,
                metadata_algorithm if metadata_algorithm is not None else algorithm,
                weights, None,
            ),
        )
    job_data = np.zeros(n_jobs)
    np.add.at(job_data, job_index, data)
    job_meta = np.zeros(n_jobs)
    np.add.at(job_meta, job_index, meta)
    data_res, meta_res = axes(
        job_data,
        job_meta,
        weights,
        policy.allocatable_iops,
        policy.allocatable_metadata_iops,
        guarantees=guarantees,
    )
    return (
        split_to_stages(data, job_data, data_res.allocations, job_index, n_jobs),
        split_to_stages(meta, job_meta, meta_res.allocations, job_index, n_jobs),
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

    total = data = meta = None
    if not policy.differentiated:
        total = state.window.demands(stage_ids)
    else:
        latest = state.latest
        data = np.array([latest[s][0] if s in latest else 0.0 for s in stage_ids])
        meta = np.array([latest[s][1] if s in latest else 0.0 for s in stage_ids])
    return _allocate_axes(
        policy, algorithm, metadata_algorithm, total, data, meta, job_index,
        policy.weights(job_order), policy.guarantees(job_order),
    )


class ColumnarCompute:
    """Compute phase over :class:`StageColumns`.

    Byte-identical to :func:`scalar_allocations` on the same
    observations: both reduce with ``np.add.at`` in row order and hand
    the same job-ordered vectors to the same brains. The columnar side
    just skips the per-stage Python.
    """

    __slots__ = ("columns", "_policy_cache")

    def __init__(self, columns: StageColumns) -> None:
        self.columns = columns
        # (job_ids, (id(policy), policy.version), weights, guarantees)
        self._policy_cache: Optional[tuple] = None

    def _job_vectors(self, policy, job_ids: List[str]):
        # ``job_ids`` is the columns' cached list: a new one means
        # membership (or the rows asked about) changed.
        key = (id(policy), getattr(policy, "version", -1))
        cached = self._policy_cache
        if cached is not None and cached[0] is job_ids and cached[1] == key:
            return cached[2], cached[3]
        weights = policy.weights(job_ids)
        guarantees = policy.guarantees(job_ids)
        self._policy_cache = (job_ids, key, weights, guarantees)
        return weights, guarantees

    def allocations(
        self,
        policy,
        algorithm,
        metadata_algorithm=None,
        rows: Optional[np.ndarray] = None,
        clamp=None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(limits, metadata_limits | None)``, one entry per live row
        in registration order, or per entry of ``rows``.

        ``clamp`` (a :class:`~repro.guard.trust.DemandClamp` scoring
        these columns) believes a row's report only up to a multiple of
        what the stage has been using. It scores *total* demand, so a
        trimmed report shrinks both axes by the same ratio — the liar's
        split is preserved, its magnitude is not — and the cycle's
        grants are folded back into the scores.
        """
        cols = self.columns
        if (cols.n_active if rows is None else rows.size) == 0:
            return np.zeros(0), None
        live = rows is None
        job_ids, job_index = cols.job_view(rows)
        if live:
            rows = cols.active_rows()
        # Only the vectors this policy (and the clamp) will read.
        total = data = meta = None
        if not policy.differentiated:
            total = cols.ewma_active() if live else cols.ewma[rows]
        if policy.differentiated or clamp is not None:
            data = cols.data_active() if live else cols.data[rows]
            meta = cols.meta_active() if live else cols.meta[rows]
        if clamp is not None:
            reported = data + meta
            believed = clamp.clamp(rows, reported)
            trimmed = believed < reported
            if trimmed.any():
                ratio = np.divide(
                    believed, reported, out=np.ones_like(reported), where=trimmed
                )
                data, meta = data * ratio, meta * ratio
                if total is not None:
                    total = np.where(trimmed, data + meta, total)
        weights, guarantees = self._job_vectors(policy, job_ids)
        limits, meta_limits = _allocate_axes(
            policy, algorithm, metadata_algorithm, total, data, meta,
            job_index, weights, guarantees,
        )
        if clamp is not None:
            clamp.observe(
                rows, reported, limits if meta_limits is None else limits + meta_limits
            )
        return limits, meta_limits


class GlobalCompute:
    """A global controller's compute half, free of I/O and clocks: one
    row per stage in :attr:`columns` (``alpha`` smooths reported demand;
    1, the paper's, takes each report as is) and the one
    :class:`ColumnarCompute` over them, the policy, the brain and its
    metadata-axis twin, the optional demand clamp, changed-only
    enforcement and the rules it withheld, the epoch, the cycle records.
    A cycle: :meth:`begin_cycle`, replies landed in the columns,
    :meth:`allocate`, :meth:`partition_batch` per partition, a record
    appended to :attr:`cycles`."""

    def __init__(
        self, policy, algorithm, *, alpha: float, enforce_changed_only: bool,
        rule_change_tolerance: float, initial_epoch: int, demand_clamp,
    ) -> None:
        if rule_change_tolerance < 0:
            raise ValueError(
                f"negative rule change tolerance: {rule_change_tolerance}"
            )
        if initial_epoch < 0:
            raise ValueError(f"initial_epoch must be >= 0: {initial_epoch}")
        self.policy = policy
        self.algorithm = algorithm or PSFA()
        # A stateful brain (PID) must not alternate the two axes through
        # one instance: the metadata axis runs on a twin.
        self.metadata_algorithm = copy.deepcopy(self.algorithm)
        self.columns = StageColumns(alpha=alpha)
        self._compute = ColumnarCompute(self.columns)
        #: Trims each report to a multiple of the stage's observed usage;
        #: share one across controller generations (trust survives them).
        self.demand_clamp = demand_clamp
        if demand_clamp is not None:
            demand_clamp.attach(self.columns)
        #: Ship only rules that moved by more than ``rule_change_tolerance``.
        self.enforce_changed_only = enforce_changed_only
        self.rule_change_tolerance = rule_change_tolerance
        self.rules_suppressed = 0
        self.epoch = initial_epoch
        self.cycles: List[ControlCycle] = []

    def begin_cycle(self) -> int:
        """The next epoch. Cycle start is the one safe point to drop and
        renumber rows: expired reservations go, the columns compact."""
        self.epoch += 1
        self.columns.release_expired(self.epoch)
        self.columns.maybe_compact()
        return self.epoch

    def register_row(self, stage_id: str, job_id: str) -> int:
        """A live row for a joining stage (a reserved id's moves into it)."""
        row = self.columns.register(stage_id, job_id)
        if self.demand_clamp is not None:
            self.demand_clamp.inherit(stage_id, row)
        return row

    def allocate(self) -> Tuple[np.ndarray, bool, np.ndarray]:
        """The brain over ``columns.gather_rows()``: live rows, at
        last-known demand where no report landed, then reserved ones,
        whose share stays allocated. Returns ``(limits, differentiated,
        grant)``: one limit per gathered row (*total* IOPS unless the
        policy differentiates, then data IOPS, the brain run per class),
        whether there are metadata limits, and the limits by column row
        (:func:`~repro.core.slots.grant_by_row`)."""
        rows = self.columns.gather_rows()
        limits, meta_limits = self._compute.allocations(
            self.policy, self.algorithm, self.metadata_algorithm,
            rows=rows, clamp=self.demand_clamp,
        )
        return limits, meta_limits is not None, grant_by_row(rows, limits, meta_limits)

    def partition_batch(
        self, grant: np.ndarray, ledger: SlotLedger, rows: np.ndarray,
        force_changed_only: bool,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """One partition's rules out of ``grant``: ``(batch, ship, withheld)``.

        ``rows`` is the column row behind each slot of ``ledger``'s order
        (-1: not ours); ``batch`` is ``(2, n slots)``, data over metadata,
        ``NaN`` for no rule — a slot that is not ours, or a stage whose
        row is newer than the grant, waits for the next cycle. Under
        changed-only enforcement (configured, or forced by the caller)
        the ledger's verdict withholds a limit that did not move: ``NaN``
        in the batch, counted into ``rules_suppressed``. ``ship`` is what
        to record in the ledger *if the batch goes out*.
        """
        batch = ledger.gather(grant, rows)
        if not (force_changed_only or self.enforce_changed_only):
            return batch, ~np.isnan(batch[0]), 0
        ship, withheld = ledger.ship(batch, self.rule_change_tolerance)
        if withheld:
            self._suppressed(withheld)
        return np.where(ship, batch, np.nan), ship, withheld

    def _suppressed(self, withheld: int) -> None:
        self.rules_suppressed += withheld
