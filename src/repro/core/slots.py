"""One slot ledger under every fan: the per-partition bookkeeping of a cycle.

A fan lays its children out in *slots* — a stage one, a simulated
aggregator the span of its partition. The DES controllers, the live
stage fan and each aggregator partition on the live hier trunk keep one
:class:`SlotLedger` each: pure and synchronous (no socket, clock or
simulator), it owns the order and its generation, per-slot demand,
answered / ever-seen flags and shipped record — carried across a
relayout by child object (a DES channel, a live session), never by
stage id — the aligned column rows, the one ``observe_rows`` scatter,
the gather of the compute's grant into slots and the one changed-only
verdict. Each user keeps only its substrate's routing.

Limits are ``(2, n)``, data over metadata. A ``NaN`` data limit means
"no rule": never shipped, never counted as withheld. A ``NaN`` metadata
limit means "no metadata limit", as ``inf`` does.
"""

from __future__ import annotations

from array import array
from typing import Callable, Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import StageColumns

__all__ = ["SlotLedger", "changed_limits", "grant_by_row"]

_INF = float("inf")
#: A limit below this magnitude is measured from it: a rule moving off
#: zero has a finite relative change (``diff_rules``' floor).
_ZERO_FLOOR = 1e-12


def changed_limits(
    shipped: np.ndarray, limits: np.ndarray, tolerance: float = 0.0
) -> np.ndarray:
    """The changed-only verdict: the slots whose rule must ship.

    ``shipped`` is what was last put on the wire per slot (``NaN`` data:
    nothing yet), ``limits`` what the compute gave now (``NaN`` data: no
    rule). Entry by entry this is :func:`repro.core.rules.diff_rules`: an
    axis moved if its values differ (equal values never move, ``inf``
    included) and its base ``max(|old|, 1e-12)`` is infinite or the
    relative change exceeds ``tolerance``. A slot ships if it has a rule
    and nothing was shipped to it, or either axis moved.
    """
    if tolerance < 0:
        raise ValueError(f"negative tolerance: {tolerance}")
    old = shipped.copy()
    new = limits.copy()
    # No metadata limit is an unlimited one.
    old[1, np.isnan(old[1])] = _INF
    new[1, np.isnan(new[1])] = _INF
    with np.errstate(invalid="ignore"):  # inf - inf, NaN data
        base = np.maximum(np.abs(old), _ZERO_FLOOR)
        moved = (new != old) & (
            (base == _INF) | (np.abs(new - old) / base > tolerance)
        )
    return ~np.isnan(new[0]) & (np.isnan(old[0]) | moved[0] | moved[1])


def grant_by_row(
    rows: np.ndarray, limits: np.ndarray, meta_limits: Optional[np.ndarray]
) -> np.ndarray:
    """The compute's limits (one per entry of ``rows``) laid out by
    column row: ``(2, max row + 2)``, data over metadata, ``NaN`` where
    there is none — and one spare ``NaN`` column last, which row -1 (a
    slot that is not ours) reads."""
    grant = np.full((2, 2 + int(rows.max(initial=-1))), np.nan)
    grant[0, rows] = limits
    if meta_limits is not None:
        grant[1, rows] = meta_limits
    return grant


class SlotLedger:
    """The slot order of one partition and everything kept per slot.

    ``children`` holds one child per span, in order; ``ids`` the stage id
    behind each slot; ``span_of`` maps a child to its ``[first, stop)``.
    ``data`` / ``meta`` are ``array('d')`` (a reply writes one float
    without numpy), ``answered`` / ``seen`` ``bytearray``, ``shipped`` a
    ``(2, n)`` array and ``shipped_epoch`` its epochs (0: none).
    """

    def __init__(self) -> None:
        #: Bumped (mod 2**32, the live wire's width) by every relayout;
        #: -1 until the first.
        self.generation = -1
        self.children: Tuple[Hashable, ...] = ()
        self.ids: Tuple[str, ...] = ()
        self.span_of: dict = {}
        self.data = array("d")
        self.meta = array("d")
        self.answered = bytearray()
        self.seen = bytearray()
        self.shipped = np.full((2, 0), np.nan)
        self.shipped_epoch = np.zeros(0, dtype=np.int64)
        self._aligned: tuple = (None, None)

    def __len__(self) -> int:
        return len(self.ids)

    # -- the order -------------------------------------------------------------
    def relayout(self, spans: Iterable[Tuple[Hashable, Sequence[str]]]) -> None:
        """Lay ``(child, stage ids)`` spans out in the given order under
        the next generation. A child of the previous layout whose span
        kept its width keeps its demand, ever-seen flag and shipped
        record; every other slot starts blank. Nobody has answered yet."""
        ids, span_of = [], {}
        source = []  # per new slot, its slot in the previous layout (-1: none)
        for child, stage_ids in spans:
            first = len(ids)
            ids.extend(stage_ids)
            span_of[child] = (first, len(ids))
            prior = self.span_of.get(child)
            if prior is not None and prior[1] - prior[0] == len(ids) - first:
                source.extend(range(*prior))
            else:
                source.extend([-1] * (len(ids) - first))
        n = len(ids)
        source = np.array(source, dtype=np.intp)
        kept = source >= 0
        source = source[kept]

        def carried(values: np.ndarray, fill) -> np.ndarray:
            out = np.full(values.shape[:-1] + (n,), fill, dtype=values.dtype)
            out[..., kept] = values[..., source]
            return out

        self.data = array("d", carried(np.frombuffer(self.data), 0.0).tobytes())
        self.meta = array("d", carried(np.frombuffer(self.meta), 0.0).tobytes())
        self.seen = bytearray(
            carried(np.frombuffer(self.seen, dtype=bool), False).tobytes()
        )
        self.answered = bytearray(n)
        self.shipped = carried(self.shipped, np.nan)
        self.shipped_epoch = carried(self.shipped_epoch, 0)
        self.children, self.ids, self.span_of = tuple(span_of), tuple(ids), span_of
        self.generation = (self.generation + 1) & 0xFFFFFFFF

    # -- rows ------------------------------------------------------------------
    def aligned_rows(
        self, columns: StageColumns, owns: Optional[Callable[[Hashable], bool]] = None
    ) -> np.ndarray:
        """The column row behind each slot (-1: none, or a child that
        ``owns`` disowns), cached until the order moves or ``columns``
        renumber. A caller whose ownership can move without either calls
        :meth:`invalidate`."""
        key = (self.generation, columns.generation)
        if self._aligned[0] != key:
            rows = columns.rows_for(self.ids)
            if owns is not None:
                mine = [owns(child) for child in self.children]
                widths = [stop - first for first, stop in self.span_of.values()]
                rows = np.where(np.repeat(mine, widths), rows, -1)
            self._aligned = (key, rows)
        return self._aligned[1]

    def invalidate(self) -> None:
        """Drop the cached aligned rows."""
        self._aligned = (None, None)

    # -- collect ---------------------------------------------------------------
    def begin_collect(self) -> None:
        self.answered = bytearray(len(self.ids))

    def end_collect(self) -> np.ndarray:
        """The answered mask of the collect just finished, folded into
        the ever-seen one."""
        answered = np.frombuffer(self.answered, dtype=bool)
        seen = np.frombuffer(self.seen, dtype=bool)
        np.logical_or(seen, answered, out=seen)
        return answered

    def known(self) -> np.ndarray:
        """Slots with a known demand: answered at least once, and the
        last sample is one the columns take."""
        return np.frombuffer(self.seen, dtype=bool) & StageColumns.valid_reports(
            np.frombuffer(self.data), np.frombuffer(self.meta)
        )

    def observe(
        self, columns: StageColumns, rows: np.ndarray, answered_only: bool = False
    ) -> Tuple[int, np.ndarray]:
        """Scatter the slots' demand into ``columns`` through ``rows`` —
        every slot with a row, or only those that answered this collect —
        in one ``observe_rows``. Returns ``(offered, refused)``: how many
        slots were offered, and the slots whose report the columns
        refused (they ride at last-known demand)."""
        data, meta = np.frombuffer(self.data), np.frombuffer(self.meta)
        offered = rows >= 0
        if answered_only:
            offered &= np.frombuffer(self.answered, dtype=bool)
        n = int(np.count_nonzero(offered))
        if n < offered.size:
            rows, data, meta = rows[offered], data[offered], meta[offered]
        if not columns.observe_rows(rows, data, meta):
            return n, np.empty(0, dtype=np.intp)
        valid = columns.valid_reports(np.frombuffer(self.data), np.frombuffer(self.meta))
        return n, np.flatnonzero(offered & ~valid)

    # -- enforce ---------------------------------------------------------------
    @staticmethod
    def gather(grant: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """A :func:`grant_by_row` gathered into slots through ``rows``:
        ``(2, n)``. A row the grant does not cover (registered since the
        compute) reads the spare column, as row -1 does."""
        n_rows = grant.shape[1] - 1
        return grant[:, np.where(rows < n_rows, rows, -1)]

    def ship(self, limits: np.ndarray, tolerance: float) -> Tuple[np.ndarray, int]:
        """Changed-only enforcement: which slots get their rule out of
        ``limits`` (``(2, n)``) — :func:`changed_limits` against the last
        one shipped — and how many rules are withheld."""
        changed = changed_limits(self.shipped, limits, tolerance)
        n_rules = int(np.count_nonzero(~np.isnan(limits[0])))
        return changed, n_rules - int(np.count_nonzero(changed))

    def record(self, slots, limits: np.ndarray, epoch: int) -> None:
        """``limits[:, slots]`` went on the wire at ``epoch``."""
        self.shipped[:, slots] = limits[:, slots]
        self.shipped_epoch[slots] = epoch
