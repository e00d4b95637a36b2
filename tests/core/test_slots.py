"""The slot ledger under generated membership.

Children join (owning one or more stage ids), leave, come back under
the same ids as *new* children, and the ledger is laid out again, while
the columns register, evict and compact underneath. After every step:

* each per-slot array — demand, ever-seen, shipped limits and epoch —
  holds what was last written for the child that sits there now;
* a child the previous layout did not have starts blank, with nothing
  shipped to it, whatever ids it carries;
* the aligned rows are ``columns.rows_for(ids)`` masked to the slots of
  children still registered, rebuilt whenever the columns renumber.

CI runs this file once more under the derandomized ``ci`` hypothesis
profile.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import StageColumns
from repro.core.slots import SlotLedger


class _Child:
    """A child is its identity; ``ids`` are the stage ids behind its slots."""

    def __init__(self, name, width):
        self.name = name
        self.ids = tuple(f"{name}/{j}" for j in range(width))


_BLANK = (0.0, 0.0, False, (math.nan, math.nan), 0)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5), st.integers(1, 3)),
        st.tuples(st.just("remove"), st.integers(0, 5)),
        st.tuples(st.just("relayout")),
        st.tuples(st.just("compact")),
        st.tuples(
            st.just("write"),
            st.integers(0, 30),
            st.floats(0.0, 1e6),
            st.floats(0.0, 1e6),
            st.booleans(),
        ),
    ),
    max_size=40,
)


def _check(ledger, columns, members, model):
    n = len(ledger)
    assert len(ledger.data) == len(ledger.meta) == n
    assert len(ledger.seen) == len(ledger.answered) == n
    assert ledger.shipped.shape == (2, n) and ledger.shipped_epoch.shape == (n,)
    for child in ledger.children:
        first, stop = ledger.span_of[child]
        assert ledger.ids[first:stop] == child.ids
        for slot, want in zip(range(first, stop), model[child]):
            data, meta, seen, shipped, epoch = want
            assert (ledger.data[slot], ledger.meta[slot]) == (data, meta)
            assert bool(ledger.seen[slot]) == seen
            assert np.array_equal(ledger.shipped[:, slot], shipped, equal_nan=True)
            assert ledger.shipped_epoch[slot] == epoch

    def owns(child):
        return members.get(child.name) is child

    rows = ledger.aligned_rows(columns, owns)
    owned = np.repeat(
        [owns(c) for c in ledger.children],
        [len(c.ids) for c in ledger.children],
    ).astype(bool)
    want = np.where(owned, columns.rows_for(ledger.ids), -1)
    assert np.array_equal(rows, want)
    assert ledger.aligned_rows(columns, owns) is rows  # cached until a change


@settings(deadline=None, max_examples=200)
@given(_ops)
def test_per_slot_state_follows_its_child(ops):
    ledger, columns = SlotLedger(), StageColumns()
    members = {}  # name -> registered child
    model = {}  # laid-out child -> per slot (data, meta, seen, shipped, epoch)
    epoch = 0
    for op in ops:
        kind = op[0]
        if kind == "add" and op[1] not in members:
            child = members[op[1]] = _Child(op[1], op[2])
            for stage_id in child.ids:
                columns.register(stage_id, "job")
        elif kind == "remove" and op[1] in members:
            for stage_id in members.pop(op[1]).ids:
                columns.evict(stage_id)
        elif kind == "relayout":
            generation = ledger.generation
            order = [members[name] for name in sorted(members)]
            ledger.relayout([(c, c.ids) for c in order])
            assert ledger.generation == generation + 1
            model = {c: model.get(c, [_BLANK] * len(c.ids)) for c in order}
            assert not any(ledger.answered)
        elif kind == "compact":
            generation = columns.generation
            if columns.maybe_compact(min_tombstones=1):
                assert columns.generation != generation
        elif kind == "write" and ledger.children:
            _, pick, data, meta, seen = op
            child = ledger.children[pick % len(ledger.children)]
            first, stop = ledger.span_of[child]
            slot = first + pick % (stop - first)
            epoch += 1
            ledger.data[slot], ledger.meta[slot] = data, meta
            ledger.seen[slot] = seen
            limits = np.full((2, len(ledger)), np.nan)
            limits[:, slot] = (data, meta)
            ledger.record([slot], limits, epoch)
            model[child][slot - first] = (data, meta, seen, (data, meta), epoch)
        _check(ledger, columns, members, model)


def test_a_child_back_under_the_same_ids_starts_blank():
    ledger, columns = SlotLedger(), StageColumns()
    old = _Child("a", 2)
    for stage_id in old.ids:
        columns.register(stage_id, "job")
    ledger.relayout([(old, old.ids)])
    ledger.data[1] = 7.0
    ledger.record([0, 1], np.ones((2, 2)), 4)
    new = _Child("a", 2)
    ledger.relayout([(new, new.ids)])
    assert ledger.ids == old.ids
    assert list(ledger.data) == [0.0, 0.0]
    assert np.isnan(ledger.shipped).all() and not ledger.shipped_epoch.any()


def test_aligned_rows_are_rebuilt_after_a_compaction():
    ledger, columns = SlotLedger(), StageColumns()
    for i in range(8):
        columns.register(f"gone-{i}", "job")
    kept = _Child("k", 3)
    for stage_id in kept.ids:
        columns.register(stage_id, "job")
    ledger.relayout([(kept, kept.ids)])
    assert ledger.aligned_rows(columns).tolist() == [8, 9, 10]
    for i in range(8):
        columns.evict(f"gone-{i}")
    assert columns.maybe_compact(min_tombstones=1)
    assert ledger.aligned_rows(columns).tolist() == [0, 1, 2]
