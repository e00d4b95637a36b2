"""Columnar per-stage controller state — the one layout under every controller.

The sim :class:`~repro.core.controller.GlobalController` (so also each
coordinated peer, which is one) and both live controllers keep what they
believe about each stage in a :class:`StageColumns`: one ``float64``
ndarray per metric plus a stage-id ↔ row registry. Replies are written
once, into rows; every compute phase gathers with a fancy index over
rows.

====================  =====================================================
column                meaning
====================  =====================================================
``data``              latest raw data-IOPS demand reported by the row
``meta``              latest raw metadata-IOPS demand
``ewma``              smoothed *total* demand (``MetricsWindow`` semantics)
``usage``             last granted IOPS (written by enforce)
``trust``             asymmetric EWMA of granted-and-used IOPS, scored by
                      :class:`repro.guard.trust.DemandClamp` (NaN = none yet)
====================  =====================================================

QoS weights, floors and metadata caps are per *job* and live in the
policy, not here: :class:`~repro.core.compute.ColumnarCompute` — the one
compute path over these columns — reads them per job vector.

A row is *live*, *reserved* or *dead*:

* ``register`` appends a live row at the tail, so live-row order equals
  registration order — the order of a live controller's session dict
  (and of ``StageRegistry.stage_ids``, the property tests' oracle).
* ``reserve`` takes a live row out of the live set but keeps it in the
  gather (:meth:`gather_rows`: live rows, then reserved rows in
  departure order) and keeps its id resolvable: a flat stage evicted
  with a grace period and a hierarchical orphan are both a stage that is
  gone from the tree yet still enforcing its last rule, so its share
  stays allocated; a coordinated peer holds the other peers' part of
  each job in one, which is allocated but never sent a rule. Registering
  a reserved id again releases the reservation: the stage gets a fresh
  tail row that carries the old row's state over.
* ``evict`` (and :meth:`release_expired`, for reservations whose epoch
  has passed) tombstones the row: it leaves the registry at once, never
  moves another row, and its values stay readable for the rest of the
  cycle. A re-registered id gets a **new** fresh row at the tail.
* ``maybe_compact`` reclaims tombstones while preserving row order. It
  renumbers rows, so it only runs at a safe point (start of a control
  cycle, before any row snapshot is taken); ``generation`` changes so
  cached row maps invalidate.

**Job order** is first registration among jobs that still have a live
row (a job whose last row leaves and later returns goes to the tail);
a job held only by reserved rows follows those, in departure order. It
breaks water-fill ties, so it is decided here and nowhere else:
:meth:`job_view` is what every compute path reads.

Reports are validated where they enter the columns (:meth:`observe`,
:meth:`observe_rows`): a negative or non-finite axis is rejected and
counted in :attr:`StageColumns.reports_rejected`, and the row keeps its
last-known demand. The EWMA fold is the IEEE expression of
:meth:`MetricsWindow.update` (``alpha*d + (1-alpha)*prev``, elementwise),
so the retained scalar reference in :mod:`repro.core.compute` and the
columns produce bit-identical demand vectors.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["StageColumns"]

_MIN_CAPACITY = 64

#: Serialized column names, in wire order (see :meth:`StageColumns.to_arrays`).
_ARRAY_COLUMNS = ("data", "meta", "ewma", "usage", "trust")

#: What a fresh row holds in each column (0.0 where not listed).
_FRESH = {"trust": np.nan}

_DEAD, _LIVE, _RESERVED = 0, 1, 2
_INF = float("inf")


class StageColumns:
    """Columnar stage state with a stable stage-id ↔ row registry."""

    __slots__ = (
        "alpha",
        "_decay",
        "generation",
        "reports_rejected",
        "_n",
        "data",
        "meta",
        "ewma",
        "usage",
        "trust",
        "_state",
        "_seen",
        "_ids",
        "_jobs",
        "_row_of",
        "_n_live",
        "_job_live",
        "reserved",
        "_views",
        "_gathers",
    )

    def __init__(self, alpha: float = 1.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self.alpha = float(alpha)
        self._decay = 1.0 - self.alpha
        #: Bumped whenever row numbering or membership changes; external
        #: caches key on it.
        self.generation = 0
        #: Reports refused at the door (negative or non-finite axis,
        #: malformed batch); each left its row at last-known demand.
        self.reports_rejected = 0
        # Rows in use, tombstones included. Every row past it holds
        # ``_FRESH`` values (``_grow`` and compaction see to that), so
        # registering a stage writes no column but ``_state``.
        self._n = 0
        cap = _MIN_CAPACITY
        for name in _ARRAY_COLUMNS:
            setattr(self, name, np.full(cap, _FRESH.get(name, 0.0)))
        self._state = np.zeros(cap, dtype=np.int8)
        self._seen = np.zeros(cap, dtype=bool)
        self._ids: List[Optional[str]] = [None] * cap
        self._jobs: List[Optional[str]] = [None] * cap
        #: Live and reserved ids -> row.
        self._row_of: Dict[str, int] = {}
        self._n_live = 0
        #: job -> live-row count, in job order (see module docstring).
        self._job_live: Dict[Optional[str], int] = {}
        #: Reserved ids -> last epoch the reservation holds for (None:
        #: until the id registers again), in departure order. Read-only
        #: outside this class.
        self.reserved: Dict[str, Optional[int]] = {}
        # Derived views, dropped on any membership change ...
        self._views: Dict[object, object] = {}
        # ... and value gathers, dropped on any observation as well.
        self._gathers: Dict[str, np.ndarray] = {}

    # -- registry ---------------------------------------------------------------
    @property
    def n_active(self) -> int:
        return self._n_live

    @property
    def n_tombstones(self) -> int:
        return self._n - len(self._row_of)

    def __contains__(self, stage_id: str) -> bool:
        return stage_id in self._row_of

    def _grow(self, need: int) -> None:
        cap = len(self._ids)
        new_cap = max(cap * 2, need, _MIN_CAPACITY)
        for name in _ARRAY_COLUMNS + ("_state", "_seen"):
            old = getattr(self, name)
            fresh = np.empty(new_cap, dtype=old.dtype)
            fresh[:cap] = old
            fresh[cap:] = _FRESH.get(name, 0)
            setattr(self, name, fresh)
        self._ids.extend([None] * (new_cap - cap))
        self._jobs.extend([None] * (new_cap - cap))

    def _touch_membership(self) -> None:
        self.generation += 1
        self._views.clear()
        self._gathers.clear()

    def register(self, stage_id: str, job_id: Optional[str] = None) -> int:
        """Append a live row for ``stage_id``; returns its row index.

        A reserved id is released into the new row: demand, smoothing
        and trust carry over, the old row is tombstoned.
        """
        prior = self._row_of.get(stage_id)
        if prior is not None and stage_id not in self.reserved:
            raise ValueError(f"stage already registered: {stage_id}")
        row = self._n
        if row >= len(self._ids):
            self._grow(row + 1)
        self._n = row + 1
        if prior is not None:  # else: rows past ``_n`` are kept fresh
            for name in _ARRAY_COLUMNS + ("_seen",):
                column = getattr(self, name)
                column[row] = column[prior]
            del self.reserved[stage_id]
            self._state[prior] = _DEAD
        self._state[row] = _LIVE
        self._ids[row] = stage_id
        self._jobs[row] = job_id
        self._row_of[stage_id] = row
        self._n_live += 1
        self._job_live[job_id] = self._job_live.get(job_id, 0) + 1
        self._touch_membership()
        return row

    def register_many(
        self, stage_ids: Sequence[str], job_ids: Sequence[Optional[str]]
    ) -> None:
        """Append fresh live rows for a batch of unknown ids, in order."""
        n = len(stage_ids)
        if len(job_ids) != n:
            raise ValueError("stage_ids and job_ids lengths differ")
        first = self._n
        fresh = dict(zip(stage_ids, range(first, first + n)))
        if len(fresh) != n or not self._row_of.keys().isdisjoint(fresh):
            raise ValueError("stage already registered in batch")
        self._row_of.update(fresh)
        if first + n > len(self._ids):
            self._grow(first + n)
        self._n = first + n
        self._state[first : first + n] = _LIVE
        self._ids[first : first + n] = stage_ids
        self._jobs[first : first + n] = job_ids
        self._n_live += n
        job_live = self._job_live
        for job_id in job_ids:
            job_live[job_id] = job_live.get(job_id, 0) + 1
        self._touch_membership()

    def row_of(self, stage_id: str) -> Optional[int]:
        return self._row_of.get(stage_id)

    def job_of(self, stage_id: str) -> Optional[str]:
        row = self._row_of.get(stage_id)
        return None if row is None else self._jobs[row]

    def _leave_live(self, row: int) -> None:
        self._n_live -= 1
        job = self._jobs[row]
        left = self._job_live[job] - 1
        if left:
            self._job_live[job] = left
        else:
            del self._job_live[job]

    def reserve(self, stage_id: str, until: Optional[int] = None) -> bool:
        """Keep a departed stage's share: its live row becomes reserved.

        The row stays in :meth:`gather_rows` through epoch ``until``
        (``None``: until the id registers again).
        """
        row = self._row_of.get(stage_id)
        if row is None or stage_id in self.reserved:
            return False
        self._leave_live(row)
        self._state[row] = _RESERVED
        self.reserved[stage_id] = until
        self._touch_membership()
        return True

    def evict(self, stage_id: str) -> bool:
        """Tombstone a row; values remain readable until compaction."""
        row = self._row_of.pop(stage_id, None)
        if row is None:
            return False
        if stage_id in self.reserved:
            del self.reserved[stage_id]
        else:
            self._leave_live(row)
        self._state[row] = _DEAD
        self._touch_membership()
        return True

    def release_expired(self, epoch: int) -> None:
        """Tombstone every reservation that does not hold for ``epoch``."""
        expired = [
            stage_id
            for stage_id, until in self.reserved.items()
            if until is not None and until < epoch
        ]
        for stage_id in expired:
            self.evict(stage_id)

    def maybe_compact(self, min_tombstones: int = 32) -> bool:
        """Reclaim tombstoned rows, preserving the order of the others.

        Only call at a safe point (cycle start): row indices change, so
        any externally held row snapshot must be retaken (the bumped
        ``generation`` signals that).
        """
        kept = len(self._row_of)
        dead = self._n - kept
        if dead < min_tombstones or dead < kept:
            return False
        rows = np.flatnonzero(self._state[: self._n])
        for name in _ARRAY_COLUMNS + ("_state", "_seen"):
            col = getattr(self, name)
            col[:kept] = col[rows]
            col[kept : self._n] = _FRESH.get(name, 0)
        kept_ids = [self._ids[r] for r in rows]
        kept_jobs = [self._jobs[r] for r in rows]
        blank = [None] * dead
        self._ids[: self._n] = kept_ids + blank
        self._jobs[: self._n] = kept_jobs + blank
        self._row_of = {sid: i for i, sid in enumerate(kept_ids)}
        self._n = kept
        self._touch_membership()
        return True

    # -- row snapshots ----------------------------------------------------------
    def active_rows(self) -> np.ndarray:
        """Row indices of live rows, in registration order (cached)."""
        rows = self._views.get("rows")
        if rows is None:
            rows = self._views["rows"] = np.flatnonzero(
                self._state[: self._n] == _LIVE
            )
        return rows

    def gather_rows(self) -> np.ndarray:
        """Live rows, then reserved rows in departure order (cached)."""
        if not self.reserved:
            return self.active_rows()
        rows = self._views.get("gather")
        if rows is None:
            row_of = self._row_of
            held = [row_of[stage_id] for stage_id in self.reserved]
            rows = self._views["gather"] = np.concatenate(
                [self.active_rows(), np.array(held, dtype=np.intp)]
            )
        return rows

    def active_ids(self) -> Tuple[str, ...]:
        """Live stage ids in registration order (cached)."""
        ids = self._views.get("ids")
        if ids is None:
            all_ids = self._ids
            ids = self._views["ids"] = tuple(
                [all_ids[r] for r in self.active_rows().tolist()]
            )
        return ids

    def _gather(self, name: str) -> np.ndarray:
        arr = self._gathers.get(name)
        if arr is None:
            arr = self._gathers[name] = getattr(self, name)[self.active_rows()]
        return arr

    def data_active(self) -> np.ndarray:
        """Raw data demand over live rows (cached; do not mutate)."""
        return self._gather("data")

    def meta_active(self) -> np.ndarray:
        """Raw metadata demand over live rows (cached; do not mutate)."""
        return self._gather("meta")

    def ewma_active(self) -> np.ndarray:
        """Smoothed total demand over live rows (cached; do not mutate)."""
        return self._gather("ewma")

    def seen_active(self) -> np.ndarray:
        """Whether each live row has had a report taken (cached; do not
        mutate)."""
        return self._gather("_seen")

    # -- observations -----------------------------------------------------------
    def observe(self, stage_id: str, data_iops: float, metadata_iops: float) -> bool:
        """Fold one stage's raw two-axis report in; ``False`` = not taken
        (rejected and counted, or no such row)."""
        row = self._row_of.get(stage_id)
        if row is None:
            return False
        # Chained comparisons: NaN fails them too.
        if not (0.0 <= data_iops < _INF and 0.0 <= metadata_iops < _INF):
            self.reports_rejected += 1
            return False
        total = data_iops + metadata_iops
        self.data[row] = data_iops
        self.meta[row] = metadata_iops
        if self._decay and self._seen[row]:
            total = self.alpha * total + self._decay * self.ewma[row]
        self._seen[row] = True
        self.ewma[row] = total
        self._gathers.clear()
        return True

    def rows_for(self, stage_ids: Sequence[str]) -> np.ndarray:
        """Row-index vector for a batch of ids (-1 where unknown).

        The resolved map is cached keyed on the id sequence, so repeated
        batches with the same shape (an aggregator re-sending its
        partition every cycle) resolve without per-id dict lookups.
        """
        n = len(stage_ids)
        if n == 0:
            return np.empty(0, dtype=np.intp)
        key = (stage_ids[0], n)
        ids = stage_ids if isinstance(stage_ids, tuple) else tuple(stage_ids)
        hit = self._views.get(key)
        if hit is not None and hit[0] == ids:
            return hit[1]
        get = self._row_of.get
        rows = np.array([get(s, -1) for s in ids], dtype=np.intp)
        self._views[key] = (ids, rows)
        return rows

    @staticmethod
    def valid_reports(data_iops: np.ndarray, metadata_iops: np.ndarray) -> np.ndarray:
        """Mask of the two-axis reports the columns take: finite and
        non-negative on both axes (NaN fails the comparisons too)."""
        return (
            (data_iops >= 0.0) & (data_iops < _INF)
            & (metadata_iops >= 0.0) & (metadata_iops < _INF)
        )

    def observe_rows(self, rows: np.ndarray, data_iops, metadata_iops) -> int:
        """Vectorized :meth:`observe` over resolved rows (unique ids).

        Returns how many entries were rejected: a negative or
        non-finite axis costs that entry, a batch whose vectors do not
        line up with ``rows`` (or are not numbers) is refused whole.
        Entries whose row is -1 (unknown id) are skipped, not counted.
        """
        try:
            data_iops = np.asarray(data_iops, dtype=float)
            metadata_iops = np.asarray(metadata_iops, dtype=float)
        except (TypeError, ValueError, OverflowError):
            data_iops = metadata_iops = np.empty(0)
        if data_iops.shape != rows.shape or metadata_iops.shape != rows.shape:
            self.reports_rejected += rows.size
            return int(rows.size)
        known = rows >= 0
        keep = known & self.valid_reports(data_iops, metadata_iops)
        rejected = 0
        if not keep.all():
            rejected = int(np.count_nonzero(known & ~keep))
            self.reports_rejected += rejected
            rows, data_iops, metadata_iops = (
                rows[keep], data_iops[keep], metadata_iops[keep]
            )
        total = data_iops + metadata_iops
        self.data[rows] = data_iops
        self.meta[rows] = metadata_iops
        if self._decay:
            # Same IEEE expression, elementwise, as the scalar update.
            folded = self.alpha * total + self._decay * self.ewma[rows]
            total = np.where(self._seen[rows], folded, total)
        self.ewma[rows] = total
        self._seen[rows] = True
        self._gathers.clear()
        return rejected

    def observe_many(
        self, stage_ids: Sequence[str], data_iops, metadata_iops
    ) -> int:
        """Batch :meth:`observe` by id (ids must be unique within the
        batch); returns the number of entries rejected."""
        return self.observe_rows(self.rows_for(stage_ids), data_iops, metadata_iops)

    def axes(self, stage_id: str) -> Tuple[float, float]:
        """Last raw (data, metadata) demand; ``(0.0, 0.0)`` if unknown."""
        row = self._row_of.get(stage_id)
        if row is None:
            return (0.0, 0.0)
        return (float(self.data[row]), float(self.meta[row]))

    def demand(self, stage_id: str) -> float:
        """Smoothed total demand for a stage (0.0 if unknown)."""
        row = self._row_of.get(stage_id)
        return 0.0 if row is None else float(self.ewma[row])

    # -- derived views ----------------------------------------------------------
    def job_view(
        self, rows: Optional[np.ndarray] = None
    ) -> Tuple[List[str], np.ndarray]:
        """``(job_ids, row → job index)`` over the live rows (default) or
        over ``rows``, cached until membership — or ``rows`` — changes.

        Job order is the module docstring's rule: the live jobs in
        theirs, then any job ``rows`` reaches only through a reserved
        (or just-tombstoned) row, in order of first occurrence. The
        index vector is in row order.
        """
        key = "job_view" if rows is None else "job_view_of"
        view = self._views.get(key)
        if view is None or view[0] is not rows:
            job_pos = {job: i for i, job in enumerate(self._job_live)}
            jobs = self._jobs
            index = np.array(
                [
                    job_pos.setdefault(jobs[r], len(job_pos))
                    for r in (self.active_rows() if rows is None else rows).tolist()
                ],
                dtype=np.intp,
            )
            view = self._views[key] = (rows, list(job_pos), index)
        return view[1], view[2]

    # -- flat-array transfer ----------------------------------------------------
    def to_arrays(self) -> Dict[str, object]:
        """Flat-array snapshot of live rows (state transfer).

        Everything is a tuple of ids or a compact ndarray — no nested
        dicts of Python floats to copy element-by-element.
        """
        rows = self.active_rows()
        out: Dict[str, object] = {
            "alpha": self.alpha,
            "ids": self.active_ids(),
            "jobs": tuple([self._jobs[r] for r in rows.tolist()]),
            "seen": self._seen[rows],
        }
        for name in _ARRAY_COLUMNS:
            out[name] = getattr(self, name)[rows]
        return out

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, object]) -> "StageColumns":
        """Rebuild from :meth:`to_arrays` output (order preserved)."""
        cols = cls(alpha=float(arrays.get("alpha", 1.0)))
        ids: Sequence[str] = arrays["ids"]  # type: ignore[assignment]
        if ids:
            cols.register_many(ids, arrays["jobs"])  # type: ignore[arg-type]
            n = len(ids)
            cols._seen[:n] = np.asarray(arrays["seen"], dtype=bool)
            for name in _ARRAY_COLUMNS:
                getattr(cols, name)[:n] = np.asarray(arrays[name], dtype=float)
        return cols

    def adopt(self, arrays: Mapping[str, object]) -> None:
        """Install another store's demand where this one has none.

        ``arrays`` is a :meth:`to_arrays` snapshot (hot-standby state
        transfer): rows this store has observed itself keep their own,
        fresher, values; rows it never heard from inherit the snapshot's
        demand on every axis. Ids without a row here are ignored.
        """
        rows = self.rows_for(arrays["ids"])  # type: ignore[arg-type]
        take = np.asarray(arrays["seen"], dtype=bool) & (rows >= 0)
        take[take] = ~self._seen[rows[take]]
        rows = rows[take]
        for name in ("data", "meta", "ewma"):
            getattr(self, name)[rows] = np.asarray(arrays[name])[take]
        self._seen[rows] = True
        self._gathers.clear()
