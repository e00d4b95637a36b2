"""End-to-end smoke of the live sharded plane: real processes, real TCP.

Sized for a small CI box: few stages, two workers, a handful of cycles.
The assertions cover the whole contract — every cycle completes
undegraded, every stage's rule lands (counted from inside the worker
processes via their stats rows), and the per-shard usage rows carry real
NIC byte counts.
"""

import pytest

from repro.shard import ShardedControlPlane, run_live_sharded

N_STAGES = 6
N_WORKERS = 2
N_CYCLES = 4


class TestRunLiveSharded:
    @pytest.fixture(scope="class")
    def result(self):
        return run_live_sharded(
            n_stages=N_STAGES, n_workers=N_WORKERS, n_cycles=N_CYCLES
        )

    def test_all_cycles_complete_undegraded(self, result):
        assert len(result.cycles) == N_CYCLES
        assert result.degraded_cycles == 0
        assert result.evictions == 0

    def test_every_rule_applied_in_worker_processes(self, result):
        # Counted by the stages inside the spawned workers, not the
        # parent: proves frames crossed the process boundary both ways.
        assert result.rules_applied_total == N_STAGES * N_CYCLES

    def test_one_usage_row_per_shard(self, result):
        assert len(result.shard_rows) == N_WORKERS
        assert sorted(r["shard_id"] for r in result.shard_rows) == list(
            range(N_WORKERS)
        )
        for row in result.shard_rows:
            assert row["cycles_served"] == N_CYCLES
            assert row["tx_bytes"] > 0
            assert row["rx_bytes"] > 0
            assert row["n_stages"] >= 1

    def test_stats_are_well_formed(self, result):
        stats = result.stats()
        assert stats.mean_ms > 0.0
        assert result.cpu_count >= 1


class TestValidation:
    def test_more_workers_than_stages_rejected(self):
        with pytest.raises(ValueError):
            run_live_sharded(n_stages=2, n_workers=3, n_cycles=1)

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            run_live_sharded(n_stages=2, n_workers=1, n_cycles=0)

    def test_plane_ctor_validates(self):
        with pytest.raises(ValueError):
            ShardedControlPlane(0, 1)
        with pytest.raises(ValueError):
            ShardedControlPlane(4, 0)
