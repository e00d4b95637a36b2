"""Ablations for the beyond-the-paper mechanisms.

* **Changed-only enforcement** — ship rules only when limits move: the
  enforce phase collapses for steady workloads and degrades gracefully to
  the paper's always-push behaviour for volatile ones.
* **Hot-standby failover** — dependability's price (extra connections,
  heartbeats) and payoff (bounded control-gap after a global-controller
  crash), quantifying §VI's dependability discussion.
"""

import pytest

from benchmarks.conftest import emit
from repro.core.control_plane import ControlPlaneConfig, FlatControlPlane
from repro.core.failover import HotStandby, attach_standby
from repro.core.policies import QoSPolicy
from repro.harness.report import format_table
from repro.jobs.workloads import source_factory


def test_ablation_rule_diffing(benchmark):
    """Enforce traffic vs change tolerance under fluctuating demand.

    With ``enforce_changed_only`` the enforce phase's cost tracks how many
    allocations actually moved: tolerance 0 ships nearly every rule under
    Poisson demand (allocations track demand exactly), while a small
    relative tolerance suppresses noise-level changes and converges to the
    steady-state floor.
    """

    def run():
        rows = []
        # Baseline: the paper's always-push behaviour.
        plane = FlatControlPlane.build(
            ControlPlaneConfig(
                n_stages=400,
                policy=QoSPolicy(pfs_capacity_iops=1_000_000.0),
                source_factory=source_factory("poisson", seed=5),
            )
        )
        plane.run_stress(n_cycles=8)
        rows.append(
            ["always-push", "-", plane.stats(warmup=2).breakdown().enforce_ms, 0]
        )
        for tol in (0.0, 0.02, 0.10):
            plane = FlatControlPlane.build(
                ControlPlaneConfig(
                    n_stages=400,
                    policy=QoSPolicy(pfs_capacity_iops=1_000_000.0),
                    enforce_changed_only=True,
                    rule_change_tolerance=tol,
                    source_factory=source_factory("poisson", seed=5),
                )
            )
            plane.run_stress(n_cycles=8)
            rows.append(
                [
                    "diffing",
                    f"{tol:.2f}",
                    plane.stats(warmup=2).breakdown().enforce_ms,
                    plane.global_controller.rules_suppressed,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        format_table(
            ["enforce mode", "tolerance", "enforce (ms)", "suppressed"],
            rows,
            title="Ablation — changed-only rule enforcement (400 stages, Poisson demand)",
        )
    )
    baseline, tol0, tol2, tol10 = rows
    # Zero tolerance under fluctuating demand ships nearly everything.
    assert tol0[3] < 400  # few suppressions
    # Growing tolerance suppresses monotonically more...
    assert tol0[3] <= tol2[3] <= tol10[3]
    # ...and the largest tolerance beats the always-push enforce cost.
    assert tol10[2] < baseline[2] / 2


def test_ablation_failover_gap(benchmark):
    """Take-over gap scales with the heartbeat budget, not cluster size."""

    def run():
        rows = []
        for hb, missed in ((0.005, 2), (0.02, 3), (0.05, 3)):
            plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=100))
            standby = attach_standby(plane)
            hs = HotStandby(
                plane.env,
                plane.global_controller,
                standby,
                heartbeat_interval_s=hb,
                missed_heartbeats=missed,
            )
            watch = hs.start(n_cycles=300)
            kill_at = 0.031
            plane.env.call_at(kill_at, hs.kill_primary)
            plane.env.run(watch)
            gap_ms = hs.failover.gap_s * 1e3
            rows.append(
                [f"{hb*1e3:.0f} ms x {missed}", gap_ms, hs.total_cycles()]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        format_table(
            ["heartbeat budget", "control gap (ms)", "cycles completed"],
            rows,
            title="Ablation — hot-standby take-over gap (100 stages, crash at t=31 ms)",
        )
    )
    gaps = [r[1] for r in rows]
    assert gaps == sorted(gaps)  # tighter heartbeats, smaller gap
    assert all(r[2] == 300 for r in rows)  # no cycles lost in any config
