"""The aggregator trunk: orders shipped once, vectors every cycle.

``agg_metrics_reply`` and ``rule_batch`` name no stage; the aggregator
owns its partition's order and announces it under a generation number
only when membership changes. These tests move membership under a
running plane and check that no value ever lands in another stage's row,
pin the slot ledger's changed-only verdict under the controller's
partition batch to ``diff_rules``, the per-rule reference, and count —
host-independently — what the trunk puts on the wire per cycle.

CI runs this file once more under the derandomized ``ci`` hypothesis
profile (``tests/conftest.py``).
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_plane import default_policy
from repro.core.rules import UNLIMITED, EnforcementRule, diff_rules
from repro.core.slots import SlotLedger
from repro.live.aggregator_server import LiveAggregator
from repro.live.codec import BINARY_MAGIC
from repro.live.controller_server import LiveHierGlobalController
from repro.live.harness import LiveHierPlane
from repro.live.stage_client import LiveVirtualStage
from repro.obs.metrics import MetricsRegistry

_BACKOFF = dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.1)


def _demand(stage_id):
    """A demand no other stage reports: the row it lands in names it."""
    n = int(stage_id.split("-")[1])
    return (100.0 + n, 10.0 + n)


def _stage(agg, stage_id, **kwargs):
    return LiveVirtualStage(
        agg.host, agg.port, stage_id, "job-" + stage_id,
        demand=_demand(stage_id), **_BACKOFF, **kwargs,
    )


async def _until(condition, timeout_s=5.0):
    for _ in range(int(timeout_s / 0.01)):
        if condition():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached")


class TestMembership:
    def test_evict_and_adopt_inside_one_cycle_cost_one_partition_frame(self):
        """Between two collects one stage is evicted for good, one is
        evicted and comes back on a fresh socket, and a new one registers
        in the middle of the id order: the aggregator's generation moves
        once, one ``partition`` frame goes up, and every demand and every
        limit still reaches the stage it belongs to."""

        async def scenario():
            ctrl = LiveHierGlobalController(
                default_policy(8), expected_aggregators=2, collect_timeout_s=2.0
            )
            await ctrl.start()
            owned = [["s-10", "s-20", "s-30"], ["s-11", "s-21", "s-31"]]
            aggs, stages, tasks = [], {}, []
            for a, ids in enumerate(owned):
                agg = LiveAggregator(
                    f"agg-{a}", ctrl.host, ctrl.port, expected_stages=len(ids),
                    collect_timeout_s=1.0,
                )
                await agg.start()
                aggs.append(agg)
                for sid in ids:
                    stages[sid] = _stage(agg, sid)
                    tasks.append(asyncio.create_task(stages[sid].run()))
                tasks.append(asyncio.create_task(agg.run()))
            await ctrl.wait_for_aggregators(timeout_s=10.0)
            sent_up = []
            send_up = aggs[0]._send_up
            aggs[0]._send_up = lambda m: (sent_up.append(m), send_up(m))[1]
            try:
                await ctrl.run_cycles(2)
                before = (aggs[0].ledger.generation, aggs[1].ledger.generation)
                # One cycle's worth of churn on aggregator 0. (A dead
                # socket is evicted by the phase that trips over it, so
                # the two kills surface inside the next collect — still
                # laid out for generation 0, both stages flagged.)
                stages["s-30"].reconnect = False
                stages["s-30"].kill()
                stages["s-20"].kill()  # comes back
                await ctrl.run_cycles(1)
                tripped = ctrl.cycles[-1]
                stages["s-15"] = _stage(aggs[0], "s-15")
                tasks.append(asyncio.create_task(stages["s-15"].run()))
                await _until(
                    lambda: aggs[0].evictions == 2
                    and sorted(aggs[0].sessions) == ["s-10", "s-15", "s-20"]
                )
                assert (aggs[0].ledger.generation, tripped.n_missing) == (0, 2)
                await ctrl.run_cycles(1)
                churned = ctrl.cycles[-1]
                grants = dict(ctrl.last_allocations)
                applied = {sid: s.applied_limit for sid, s in stages.items()}
                await ctrl.run_cycles(1)
                after = (aggs[0].ledger.generation, aggs[1].ledger.generation)
            finally:
                await ctrl.shutdown()
                for t in tasks:
                    t.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            return ctrl, stages, sent_up, before, after, churned, grants, applied

        ctrl, stages, sent_up, before, after, churned, grants, applied = asyncio.run(
            scenario()
        )
        assert before == (0, 0)
        assert after == (1, 0)
        partitions = [m for m in sent_up if m["kind"] == "partition"]
        assert len(partitions) == 1
        assert partitions[0]["generation"] == 1
        assert partitions[0]["stage_ids"] == ["s-10", "s-15", "s-20"]
        assert partitions[0]["job_ids"] == ["job-s-10", "job-s-15", "job-s-20"]
        # Nothing per stage went up besides that: no other JSON frame of
        # the run names a stage.
        assert not [m for m in sent_up if m["kind"] != "partition" and "stage_ids" in m]
        # No demand was scattered into another stage's row ...
        live = ["s-10", "s-15", "s-20", "s-11", "s-21", "s-31"]
        for sid in live:
            assert ctrl.columns.axes(sid) == _demand(sid), sid
        # ... and no limit gathered from one: in the churn cycle itself
        # every live stage applied exactly the limit computed for it.
        for sid in live:
            assert applied[sid] == grants[sid], sid
            assert stages[sid].applied_epoch == ctrl.epoch
        # The stage that left for good is an orphan at last-known demand:
        # its share is held, it is the one stage counted missing.
        assert ctrl.orphans == {"s-30": "job-s-30"}
        assert ctrl.columns.axes("s-30") == _demand("s-30")
        assert churned.n_missing == 1 and churned.n_stages == 7
        assert ctrl.n_stages == 6

    def test_stage_listed_by_two_aggregators_is_ruled_by_the_last(self):
        """A stage that re-homed from a live aggregator sits in both
        orders until its old home notices. The old home's slot for it
        goes blank: its value there is not read, no rule is sent there."""

        async def scenario():
            ctrl = LiveHierGlobalController(
                default_policy(4), expected_aggregators=2, collect_timeout_s=2.0
            )
            await ctrl.start()
            aggs, stages, tasks = [], {}, []
            for a, ids in enumerate((["s-10", "s-20"], ["s-11"])):
                agg = LiveAggregator(
                    f"agg-{a}", ctrl.host, ctrl.port, expected_stages=len(ids)
                )
                await agg.start()
                aggs.append(agg)
                for sid in ids:
                    stages[sid] = _stage(agg, sid)
                    tasks.append(asyncio.create_task(stages[sid].run()))
                tasks.append(asyncio.create_task(agg.run()))
            await ctrl.wait_for_aggregators(timeout_s=10.0)
            try:
                await ctrl.run_cycles(1)
                # A second process claims s-20's id at aggregator 1 and
                # reports another demand; aggregator 0 still lists (and
                # still serves) the first.
                twin = LiveVirtualStage(
                    aggs[1].host, aggs[1].port, "s-20", "job-s-20", demand=(7.0, 3.0)
                )
                twin.reconnect = False
                tasks.append(asyncio.create_task(twin.run()))
                await _until(lambda: "s-20" in aggs[1].sessions)
                await ctrl.run_cycles(2)
                grants = dict(ctrl.last_allocations)
            finally:
                await ctrl.shutdown()
                for t in tasks:
                    t.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            return ctrl, stages, twin, grants

        ctrl, stages, twin, grants = asyncio.run(scenario())
        assert ctrl.rehomes == 1 and ctrl.n_stages == 3
        assert ctrl.columns.axes("s-20") == (7.0, 3.0)  # the twin's, not 120/30
        assert twin.applied_epoch == ctrl.epoch
        assert twin.applied_limit == grants["s-20"]
        assert stages["s-20"].applied_epoch == 1  # nothing since the move
        assert stages["s-10"].applied_epoch == ctrl.epoch
        assert not any(c.n_missing for c in ctrl.cycles)


def _controller(tolerance, metrics=None):
    return LiveHierGlobalController(
        default_policy(4), 1, enforce_changed_only=True,
        rule_change_tolerance=tolerance, metrics=metrics,
    )


def _partition_rules(ctrl, shipped, limits):
    """One partition through the controller's batch: a ledger whose slot
    ``i`` reads column row ``i`` and last shipped ``shipped[:, i]``;
    ``limits`` is the compute's grant by row. Returns ``(batch, ship)``."""
    n = limits.shape[1]
    ledger = SlotLedger()
    ledger.relayout([(f"s{i}", (f"s{i}",)) for i in range(n)])
    ledger.shipped = shipped
    grant = np.concatenate([limits, np.full((2, 1), np.nan)], axis=1)
    batch, ship, _ = ctrl.partition_batch(grant, ledger, np.arange(n), False)
    return batch, ship


_limit = st.one_of(
    st.sampled_from([0.0, 1e-12, 4e-10, 1.0, 100.0, 100.0 * (1 + 1e-3), 101.0, 1e9]),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
)
#: One row: (what was shipped | None, data limit now | None, metadata
#: limit now). A row without a data limit has no rule this cycle.
_previous = st.one_of(st.none(), st.tuples(_limit, st.one_of(st.none(), _limit)))
_rows = st.lists(
    st.tuples(_previous, st.one_of(st.none(), _limit), _limit), min_size=0, max_size=12
)


class TestChangedOnlyIsOneMask:
    @settings(deadline=None)
    @given(
        rows=_rows,
        differentiated=st.booleans(),
        tolerance=st.sampled_from([0.0, 1e-6, 0.01, 0.5]),
    )
    def test_vector_verdicts_and_counts_match_the_per_rule_loop(
        self, rows, differentiated, tolerance
    ):
        """The partition batch ships exactly the rules ``diff_rules`` — the
        per-rule reference — ships, under tolerance 0 and > 0, a first
        ship, a metadata limit appearing and disappearing, and a row
        without a rule; it withholds the rest (``NaN`` in the batch) and
        counts each into ``rules_suppressed`` and the metric."""
        ctrl = _controller(tolerance, MetricsRegistry())
        nan = float("nan")
        ids = [f"s{i}" for i in range(len(rows))]
        shipped = np.array(
            [
                [nan if p is None else p[0] for p, _, _ in rows],
                [nan if p is None or p[1] is None else p[1] for p, _, _ in rows],
            ]
        ).reshape(2, len(rows))
        limits = np.array(
            [
                [nan if limit is None else limit for _, limit, _ in rows],
                [meta if differentiated else nan for _, _, meta in rows],
            ]
        ).reshape(2, len(rows))
        batch, ship = _partition_rules(ctrl, shipped, limits)

        previous = {
            stage_id: EnforcementRule(
                stage_id, 1, p[0], UNLIMITED if p[1] is None else p[1]
            )
            for stage_id, (p, _, _) in zip(ids, rows)
            if p is not None
        }
        current = [
            EnforcementRule(stage_id, 2, limit, meta if differentiated else UNLIMITED)
            for stage_id, (_, limit, meta) in zip(ids, rows)
            if limit is not None
        ]
        want = {r.stage_id for r in diff_rules(previous, current, tolerance)}
        assert {ids[i] for i in np.flatnonzero(ship)} == want
        assert np.isnan(batch[0, ~ship]).all()
        assert np.array_equal(batch[:, ship], limits[:, ship], equal_nan=True)
        withheld = len(current) - len(want)
        assert ctrl.rules_suppressed == withheld
        assert ctrl._m_suppressed.value == withheld

    def test_a_row_without_a_rule_is_neither_shipped_nor_counted(self):
        ctrl = _controller(0.5)
        nan = float("nan")
        shipped = np.array([[100.0, nan, 100.0], [nan, nan, nan]])
        limits = np.array([[nan, nan, 100.0], [nan, nan, nan]])
        batch, ship = _partition_rules(ctrl, shipped, limits)
        assert ship.tolist() == [False, False, False]
        assert np.isnan(batch).all()
        assert ctrl.rules_suppressed == 1

    @pytest.mark.parametrize(
        "shipped, now, tolerance, ships",
        [
            # Off zero: measured from the 1e-12 floor, a 400x move.
            ((0.0, float("nan")), (4e-10, float("nan")), 0.5, True),
            # Unlimited stays unlimited: equal values never move.
            ((100.0, UNLIMITED), (100.0, UNLIMITED), 0.0, False),
        ],
    )
    def test_the_verdicts_the_planes_used_to_disagree_on(
        self, shipped, now, tolerance, ships
    ):
        ctrl = _controller(tolerance)
        _, ship = _partition_rules(
            ctrl, np.array(shipped).reshape(2, 1), np.array(now).reshape(2, 1)
        )
        assert ship.tolist() == [ships]
        assert ctrl.rules_suppressed == (not ships)

    def test_steady_demand_ships_once_then_only_what_moved(self):
        """End to end on the live hier plane: the first cycle ships every
        rule, a steady second cycle none (the batch still goes out — its
        ack paces the phase), a moved demand re-ships what moved."""

        async def scenario():
            plane = LiveHierPlane(8, 2, enforce_changed_only=True)
            await plane.start()
            await plane.wait_for_stages(timeout_s=10.0)
            applied = []
            try:
                for step in range(4):
                    if step == 3:
                        plane.stages[0].demand = (5.0, 1.0)
                    await plane.run_cycles(1)
                    applied.append(sum(s.rules_applied for s in plane.stages))
                suppressed = plane.controller.rules_suppressed
                epochs = [s.applied_epoch for s in plane.stages]
            finally:
                await plane.stop()
            return applied, suppressed, epochs

        applied, suppressed, epochs = asyncio.run(scenario())
        assert applied[:3] == [8, 8, 8]  # shipped once, then withheld twice
        assert applied[3] > 8  # the moved demand re-levels the water
        assert suppressed == 16 + (8 - (applied[3] - 8))
        assert max(epochs) == 4 and min(epochs) in (1, 4)


def _wire_counts(n_stages, n_aggregators, cycles=3):
    """Bytes on every wire leg over ``cycles`` steady cycles, and the
    share of the trunk's that was JSON."""

    async def scenario():
        plane = LiveHierPlane(n_stages, n_aggregators)
        await plane.start()
        await plane.wait_for_stages(timeout_s=30.0)
        ctrl = plane.controller
        try:
            await plane.run_cycles(2)  # past registration and topology

            def sessions():
                found = list(ctrl.sessions.values())
                for agg in plane.aggregators:
                    found.extend(agg.sessions.values())
                return found

            json_bytes = 0
            for session in ctrl.sessions.values():
                def wrap(fn):
                    def counted(data, *args):
                        nonlocal json_bytes
                        # Frames on the trunk: every JSON one opens "{".
                        pos = 0
                        view = memoryview(data)
                        while pos < len(view):
                            size = 4 + int.from_bytes(view[pos : pos + 4], "big")
                            if view[pos + 4] != BINARY_MAGIC:
                                json_bytes += size
                            pos += size
                        return fn(data, *args)
                    return counted

                link = session.link
                link.write = wrap(link.write)  # controller -> aggregator
                on_frame = link.on_frame

                def counted_frame(message, nbytes, on_frame=on_frame):
                    nonlocal json_bytes
                    if message.__class__ is not tuple:
                        json_bytes += nbytes
                    on_frame(message, nbytes)

                link.on_frame = counted_frame  # aggregator -> controller
            before = sum(s.tx_bytes + s.rx_bytes for s in sessions())
            await plane.run_cycles(cycles)
            wire = sum(s.tx_bytes + s.rx_bytes for s in sessions()) - before
            trunk_json = json_bytes  # before the farewell frames
            assert not any(c.degraded for c in ctrl.cycles)
        finally:
            await plane.stop()
        return wire / (cycles * n_stages), trunk_json / cycles

    return asyncio.run(scenario())


class TestMechanismCounts:
    """Host-independent: bytes, not milliseconds (ROADMAP 1b)."""

    def test_trunk_json_does_not_grow_with_the_partition(self):
        """What is still JSON on a steady trunk — the collect request
        and the batch ack — names no stage: 8 or 64 stages behind each
        aggregator, the same bytes per cycle. And everything on every
        wire, both trunk vectors and both per-stage legs, is at most 170
        bytes per stage-cycle."""
        small_per_stage, small_json = _wire_counts(16, 2)
        large_per_stage, large_json = _wire_counts(128, 2)
        assert small_json == large_json > 0
        assert large_per_stage <= 170.0
        assert small_per_stage <= 170.0 + small_json / 16

    def test_stage_legs_are_counted_across_the_tier_boundary(self):
        """The aggregators run in the plane's tier process, and their
        stage legs are read from there: every wire, trunk and stage legs
        alike, comes to the bytes per stage-cycle the one-process plane
        counted — not the trunk's share alone."""
        per_stage, _ = _wire_counts(128, 2)
        assert per_stage == 164.46875
