"""Partition-parallel DES correctness, anchored on the monolithic engine.

Two guarantees, checked in order of strength:

1. ``workers=1`` is *byte-identical* to today's engine: the full message
   delivery trace (timestamp, kind, sender, recipient, size) and the
   per-cycle phase timings of ``run_partitioned_hier(..., workers=1)``
   hash to the same sha256 as a ``HierarchicalControlPlane`` built and
   run directly. No tolerance, no sampling.
2. ``workers=2`` composes the same cycle timings as ``workers=1`` for a
   symmetric partition: the conservative barrier composition charges
   exactly the costs the monolithic global controller charges, so the
   phase latencies agree to float precision even though the subtrees
   ran in separate processes on separate Environments.
"""

import hashlib
import json

import pytest

from repro.core.policies import QoSPolicy
from repro.shard import run_partitioned_hier

N_STAGES = 40
N_AGGREGATORS = 2
N_CYCLES = 4


def _digest(trace, cycles):
    return hashlib.sha256(
        json.dumps([trace, cycles], separators=(",", ":")).encode()
    ).hexdigest()


def _spy_deliveries():
    """Patch Endpoint._deliver to record every delivery; returns undo."""
    from repro.simnet.transport import Endpoint

    trace = []
    original = Endpoint._deliver

    def spy(self, message, connection):
        trace.append(
            [
                f"{self.env.now:.9f}",
                message.kind,
                message.sender,
                message.recipient,
                message.size_bytes,
            ]
        )
        return original(self, message, connection)

    Endpoint._deliver = spy

    def undo():
        Endpoint._deliver = original

    return trace, undo


def _format_cycles(cycles):
    return [
        [c.epoch, f"{c.started_at:.9f}", f"{c.collect_s:.9f}",
         f"{c.compute_s:.9f}", f"{c.enforce_s:.9f}"]
        for c in cycles
    ]


class TestSingleWorkerByteIdentical:
    def test_trace_digest_matches_direct_engine(self):
        from repro.core.control_plane import (
            ControlPlaneConfig,
            HierarchicalControlPlane,
        )

        # Reference: the monolithic engine, driven directly.
        trace, undo = _spy_deliveries()
        try:
            cfg = ControlPlaneConfig(n_stages=N_STAGES)
            plane = HierarchicalControlPlane.build(cfg, N_AGGREGATORS)
            plane.env.run(
                plane.global_controller.run_cycles(N_CYCLES)
            )
        finally:
            undo()
        reference = _digest(
            trace, _format_cycles(plane.global_controller.cycles)
        )
        assert trace, "spy must have captured deliveries"

        # Candidate: the same run through the partitioned entry point.
        trace2, undo = _spy_deliveries()
        try:
            result = run_partitioned_hier(
                N_STAGES, N_AGGREGATORS, N_CYCLES, workers=1
            )
        finally:
            undo()
        candidate = _digest(trace2, _format_cycles(result.cycles))

        assert len(trace2) == len(trace)
        assert candidate == reference


class TestPartitionedComposition:
    def test_two_workers_match_single_worker_timings(self):
        # A symmetric partition (stages divide evenly over aggregators,
        # identical constant demand) must compose identical phase
        # timings: max over equal subtree times == any subtree time.
        # Differentiated, the brain runs once per axis on both sides.
        for policy in (
            None,
            QoSPolicy(pfs_capacity_iops=18000.0, metadata_capacity_iops=2000.0),
        ):
            single = run_partitioned_hier(20, 2, 3, workers=1, policy=policy)
            double = run_partitioned_hier(20, 2, 3, workers=2, policy=policy)
            assert len(double.cycles) == len(single.cycles) == 3
            for a, b in zip(single.cycles, double.cycles):
                assert a.epoch == b.epoch
                assert b.collect_s == pytest.approx(a.collect_s, rel=1e-9)
                assert b.compute_s == pytest.approx(a.compute_s, rel=1e-9)
                assert b.enforce_s == pytest.approx(a.enforce_s, rel=1e-9)

    def test_result_records_partitioning(self):
        result = run_partitioned_hier(8, 2, 2, workers=2)
        assert result.workers == 2
        assert result.n_aggregators == 2
        assert result.n_stages == 8
        assert result.stats().mean_ms > 0.0


class TestValidation:
    def test_workers_bounded_by_aggregators(self):
        with pytest.raises(ValueError):
            run_partitioned_hier(8, 2, 2, workers=3)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_partitioned_hier(0, 1, 1)
        with pytest.raises(ValueError):
            run_partitioned_hier(4, 8, 1)
