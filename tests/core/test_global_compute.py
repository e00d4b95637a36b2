"""The global controller's compute half, stepped by hand.

``GlobalCompute`` is what the DES controller and both live controllers
share: cycle start, the one grant, the per-partition batch and its
changed-only verdict. No socket, no simulator: these tests drive it
directly.
"""

import numpy as np
import pytest

from repro.core.algorithms.pid import PIDController
from repro.core.compute import GlobalCompute
from repro.core.policies import QoSPolicy
from repro.core.slots import SlotLedger


def _core(policy=None, algorithm=None, changed_only=False, tolerance=0.0, epoch=0):
    return GlobalCompute(
        policy or QoSPolicy(pfs_capacity_iops=1000.0),
        algorithm,
        alpha=1.0,
        enforce_changed_only=changed_only,
        rule_change_tolerance=tolerance,
        initial_epoch=epoch,
        demand_clamp=None,
    )


def _stages(core, n, demand=(400.0, 100.0)):
    ids = [f"s-{i}" for i in range(n)]
    for stage_id in ids:
        core.register_row(stage_id, "j-" + stage_id)
    core.columns.observe_many(ids, [demand[0]] * n, [demand[1]] * n)
    return ids


def _ledger(ids):
    ledger = SlotLedger()
    ledger.relayout([(stage_id, (stage_id,)) for stage_id in ids])
    return ledger


class TestCycleStart:
    def test_epoch_moves_from_the_initial_one(self):
        core = _core(epoch=7)
        assert [core.begin_cycle(), core.begin_cycle()] == [8, 9]
        assert core.epoch == 9 and core.cycles == []

    def test_a_reservation_is_released_after_its_last_epoch(self):
        core = _core()
        _stages(core, 3)
        core.columns.reserve("s-1", until=2)
        core.begin_cycle()
        core.begin_cycle()
        assert list(core.columns.reserved) == ["s-1"]  # holds through 2
        core.begin_cycle()
        assert core.columns.reserved == {} and "s-1" not in core.columns

    def test_tombstones_are_compacted(self):
        core = _core()
        ids = _stages(core, 40)
        for stage_id in ids[:36]:
            core.columns.evict(stage_id)
        assert core.columns.n_tombstones == 36
        core.begin_cycle()
        assert core.columns.n_tombstones == 0
        assert core.columns.active_ids() == tuple(ids[36:])

    @pytest.mark.parametrize("kwargs", [{"tolerance": -0.1}, {"epoch": -1}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            _core(**kwargs)


class TestGrant:
    def test_one_limit_per_gathered_row_reserved_included(self):
        core = _core()
        _stages(core, 4)
        core.columns.reserve("s-2")
        rows = core.columns.gather_rows()
        limits, differentiated, grant = core.allocate()
        assert not differentiated
        assert limits.shape == (rows.size,) == (4,)
        # 4 x 500 IOPS against 1,000: the reserved row holds its share.
        assert limits.tolist() == [250.0] * 4
        assert grant[0, rows].tolist() == limits.tolist()
        assert np.isnan(grant[1]).all()

    def test_the_spare_column_reads_no_rule(self):
        core = _core()
        _stages(core, 3)
        _, _, grant = core.allocate()
        assert grant.shape == (2, 3 + 1)
        assert np.isnan(grant[:, -1]).all()
        batch, ship, _ = core.partition_batch(
            grant, _ledger(["s-0", "x"]), np.array([0, -1]), False
        )
        assert ship.tolist() == [True, False]
        assert np.isnan(batch[:, 1]).all()

    def test_differentiated_policy_limits_both_axes(self):
        policy = QoSPolicy(pfs_capacity_iops=600.0, metadata_capacity_iops=100.0)
        core = _core(policy)
        _stages(core, 2)
        limits, differentiated, grant = core.allocate()
        assert differentiated
        assert limits.tolist() == [300.0, 300.0]
        assert grant[1, :2].tolist() == [50.0, 50.0]

    def test_the_metadata_twin_is_a_distinct_brain(self):
        core = _core(algorithm=PIDController())
        assert type(core.metadata_algorithm) is PIDController
        assert core.metadata_algorithm is not core.algorithm


class TestBatch:
    def _grant_twice(self, core, ids, force=False):
        ledger = _ledger(ids)
        rows = core.columns.rows_for(ids)
        out = []
        for _ in range(2):
            _, _, grant = core.allocate()
            batch, ship, withheld = core.partition_batch(grant, ledger, rows, force)
            ledger.record(ship, batch, core.begin_cycle())
            out.append((ship.tolist(), withheld))
        return out

    def test_without_the_verdict_every_rule_ships(self):
        core = _core()
        ids = _stages(core, 3)
        assert self._grant_twice(core, ids) == [([True] * 3, 0)] * 2
        assert core.rules_suppressed == 0

    def test_changed_only_withholds_what_did_not_move(self):
        core = _core(changed_only=True)
        ids = _stages(core, 3)
        assert self._grant_twice(core, ids) == [([True] * 3, 0), ([False] * 3, 3)]
        assert core.rules_suppressed == 3

    def test_a_forced_verdict_withholds_too(self):
        core = _core()
        ids = _stages(core, 3)
        assert self._grant_twice(core, ids, force=True)[1] == ([False] * 3, 3)
        assert core.rules_suppressed == 3

    def test_a_withheld_rule_is_nan_in_the_batch(self):
        core = _core(changed_only=True, tolerance=0.5)
        ids = _stages(core, 2)
        ledger = _ledger(ids)
        rows = core.columns.rows_for(ids)
        _, _, grant = core.allocate()
        batch, ship, _ = core.partition_batch(grant, ledger, rows, False)
        ledger.record(ship, batch, 1)
        core.columns.observe_many(ids, [400.0, 450.0], [100.0, 100.0])
        _, _, grant = core.allocate()
        batch, ship, withheld = core.partition_batch(grant, ledger, rows, False)
        assert (ship.tolist(), withheld) == ([False, False], 2)
        assert np.isnan(batch).all()
