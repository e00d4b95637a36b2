"""Demand clamp over the trust column: liars converge to their cap,
honest stages pass, and trust lives exactly as long as the stage's row."""

import numpy as np
import pytest

from repro.core.columnar import StageColumns
from repro.guard import DemandClamp


def _clamp(*stage_ids, **kwargs):
    """A clamp attached to fresh columns holding ``stage_ids``; returns
    ``(clamp, columns, rows)``."""
    cols = StageColumns()
    for stage_id in stage_ids:
        cols.register(stage_id, "j")
    dc = DemandClamp(**kwargs)
    dc.attach(cols)
    return dc, cols, cols.active_rows()


def _f(*values):
    return np.array(values, dtype=float)


class TestUsageWindow:
    """The asymmetric usage EWMA behind the trust score (once the
    ``UsageWindow`` dict, now the ``trust`` column folded by
    :meth:`DemandClamp.observe`)."""

    def test_first_observation_is_taken_verbatim(self):
        dc, cols, rows = _clamp("s")
        assert np.isnan(cols.trust[0])
        dc.observe(rows, _f(100.0), _f(100.0))
        assert cols.trust[0] == 100.0

    def test_rises_fast_decays_slow(self):
        dc, cols, rows = _clamp("up", "down", alpha_up=0.5, alpha_down=0.1)
        dc.observe(rows, _f(100.0, 1000.0), _f(100.0, 1000.0))
        dc.observe(rows, _f(1000.0, 100.0), _f(1000.0, 100.0))
        up, down = cols.trust[rows]
        assert up == 0.5 * 1000.0 + 0.5 * 100.0
        # After one step the decayed value retains far more of the old
        # high level than the risen value retains of the old low level.
        assert down == 0.1 * 100.0 + 0.9 * 1000.0
        assert down > 1000.0 - up

    def test_forget(self):
        # Trust goes with the row: an evicted stage that registers again
        # starts from nothing.
        dc, cols, rows = _clamp("s")
        dc.observe(rows, _f(50.0), _f(50.0))
        cols.evict("s")
        row = cols.register("s", "j")
        assert np.isnan(cols.trust[row])

    def test_alphas_validated(self):
        with pytest.raises(ValueError):
            DemandClamp(alpha_up=0.0)
        with pytest.raises(ValueError):
            DemandClamp(alpha_down=1.5)


class TestDemandClamp:
    def test_cold_start_cap_covers_honest_default(self):
        # A fresh stage with the repo's default demand (1000 + 200 IOPS)
        # must not be clamped before it has any usage history.
        dc, _, rows = _clamp("fresh")
        assert dc.cap(rows)[0] >= 1200.0
        assert dc.clamp(rows, _f(1200.0))[0] == 1200.0
        assert dc.clamps == 0

    def test_liar_is_capped(self):
        dc, _, rows = _clamp("liar", "honest", factor=8.0, floor_iops=200.0)
        capped = dc.clamp(rows, _f(1e9, 1500.0))
        assert list(capped) == [8.0 * 200.0, 1500.0]
        assert dc.clamps == 1
        assert dc.clamped_iops_total == 1e9 - 1600.0

    def test_trust_grows_with_real_usage(self):
        dc, _, rows = _clamp("big", factor=4.0, floor_iops=100.0)
        # A tenant legitimately using 5000 IOPS earns headroom fast.
        for _ in range(5):
            dc.observe(rows, reported=_f(5000.0), granted=_f(5000.0))
        assert dc.cap(rows)[0] >= 4.0 * 4000.0
        assert dc.clamp(rows, _f(6000.0))[0] == 6000.0

    def test_liar_cannot_earn_trust_beyond_grant(self):
        dc, _, rows = _clamp("liar", factor=4.0, floor_iops=100.0)
        # Reports 1e6, but the plane only ever granted 500.
        for _ in range(20):
            dc.observe(rows, reported=_f(1e6), granted=_f(500.0))
        assert dc.cap(rows)[0] <= 4.0 * 500.0 + 1e-6

    def test_idle_cycle_does_not_collapse_trust(self):
        dc, _, rows = _clamp("s", factor=4.0, floor_iops=100.0)
        for _ in range(10):
            dc.observe(rows, reported=_f(2000.0), granted=_f(2000.0))
        before = dc.cap(rows)[0]
        dc.observe(rows, reported=_f(0.0), granted=_f(2000.0))
        # Slow decay: one idle cycle keeps most of the earned headroom.
        assert dc.cap(rows)[0] > 0.8 * before

    def test_forget_resets_to_floor(self):
        dc, cols, rows = _clamp("s", factor=8.0, floor_iops=200.0)
        dc.observe(rows, _f(5000.0), _f(5000.0))
        assert dc.cap(rows)[0] == 8.0 * 5000.0
        cols.evict("s")
        cols.register("s", "j")
        assert dc.cap(cols.active_rows())[0] == 1600.0

    def test_trust_survives_a_controller_generation(self):
        # One clamp shared across restarts: a stage that registers with
        # the next controller gets back what it earned under the last
        # one, once; a stage the old controller never scored starts cold.
        dc, old, rows = _clamp("kept", "cold")
        dc.observe(rows[:1], _f(3000.0), _f(3000.0))
        new = StageColumns()
        dc.attach(new)
        for stage_id in ("cold", "kept", "stranger"):
            dc.inherit(stage_id, new.register(stage_id, "j"))
        assert new.trust[new.row_of("kept")] == 3000.0
        assert np.isnan(new.trust[new.row_of("cold")])
        assert np.isnan(new.trust[new.row_of("stranger")])
        # Handed over, not copied: evicted and back, it starts cold.
        new.evict("kept")
        dc.inherit("kept", new.register("kept", "j"))
        assert np.isnan(new.trust[new.row_of("kept")])
