#!/usr/bin/env python
"""Live dependability: kill stages — and a whole aggregator — mid-run.

The live-plane counterpart of ``examples/failure_recovery.py``, in two
acts over real localhost TCP connections, on the planes ``repro live``
runs:

1. **Stage loss (flat).** A :class:`~repro.live.harness.LiveFlatPlane`
   (its controller forked into a process of its own) keeps cycling while
   two stages are killed mid-run: cycles that miss replies complete on
   partial metrics, dead sessions are evicted, and the victims return
   through their reconnect loop (exponential backoff, re-registration).
2. **Aggregator loss (hierarchical).** A
   :class:`~repro.live.harness.LiveHierPlane` loses an entire aggregator
   in its forked tier — a whole partition of stages goes dark at once.
   The global controller detects the dead child, re-homes its orphaned
   stages onto the surviving aggregators (``rehome`` frames redirect each
   stage client), and later cycles run clean again with nothing orphaned.

Run:  python examples/live_failure_recovery.py
"""

import asyncio

from repro.core.cycle import CycleStats
from repro.harness.report import degraded_note, format_table
from repro.live.harness import LiveFlatPlane, LiveHierPlane

N_STAGES = 20
KILL = (3, 11)  # stage indices killed mid-run
COLLECT_TIMEOUT_S = 0.25

# Act 2: hierarchical cluster shape.
HIER_STAGES = 9
HIER_AGGREGATORS = 3


async def run() -> None:
    plane = LiveFlatPlane(N_STAGES, collect_timeout_s=COLLECT_TIMEOUT_S)
    ctrl, stages = plane.controller, plane.stages
    try:
        await plane.start()
        await plane.run_cycles(5)  # healthy baseline

        for i in KILL:
            stages[i].kill()  # reconnect stays on: they will return
        await plane.run_cycles(5)  # degraded: eviction, partial metrics

        # Give the backoff loops a moment, then cycle until both victims
        # have re-registered and answer again.
        for _ in range(40):
            await asyncio.sleep(0.05)
            cycles = await plane.run_cycles(1)
            if cycles[-1].n_stages == N_STAGES and cycles[-1].n_missing == 0:
                break
    finally:
        await plane.stop()

    print(
        format_table(
            ["epoch", "stages", "missing", "deadline hit", "cycle (ms)"],
            [
                [c.epoch, c.n_stages, c.n_missing, "yes" if c.timed_out else "", c.total_s * 1e3]
                for c in ctrl.cycles
            ],
            title=f"Live control cycles around killing stages {KILL}",
        )
    )
    note = degraded_note(CycleStats(ctrl.cycles, warmup=0))
    if note:
        print(f"\n{note}")
    print(
        f"evictions: {ctrl.evictions} dead sessions dropped; every cycle "
        f"completed over the survivors"
    )
    reconnected = [stages[i] for i in KILL]
    print(
        f"recovery: {sum(s.reconnects for s in reconnected)} re-registrations "
        f"after backoff; final cycle back to {ctrl.cycles[-1].n_stages}/"
        f"{N_STAGES} stages with {ctrl.cycles[-1].n_missing} missing"
    )
    print(
        f"stale frames drained by epoch checks: {ctrl.stale_messages} "
        f"(late replies never corrupt a newer cycle)"
    )


async def run_hier() -> None:
    """Act 2: kill an aggregator; its stages re-home to the survivors."""
    plane = LiveHierPlane(
        HIER_STAGES,
        HIER_AGGREGATORS,
        collect_timeout_s=0.5,
        stage_backoff=dict(backoff_base_s=0.02, backoff_max_s=0.1),
    )
    try:
        await plane.start()
        ctrl, stages = plane.controller, plane.stages
        await plane.wait_for_stages()
        for _ in range(3):  # healthy baseline
            await plane.run_cycles(1)
            await asyncio.sleep(0.1)

        victim = plane.aggregators[0]
        victim.kill()
        for _ in range(6):  # degraded, then re-homed
            await plane.run_cycles(1)
            await asyncio.sleep(0.1)
    finally:
        await plane.stop()

    print(
        format_table(
            ["epoch", "stages", "missing", "cycle (ms)"],
            [
                [c.epoch, c.n_stages, c.n_missing, c.total_s * 1e3]
                for c in ctrl.cycles
            ],
            title=f"Hier control cycles around killing {victim.aggregator_id}",
        )
    )
    moved = sum(s.failovers for s in stages)
    print(
        f"re-home: {ctrl.rehomes} orphaned stages adopted by survivors "
        f"({moved} stage clients switched aggregator); "
        f"{len(ctrl.orphans)} still orphaned"
    )
    converged = sum(1 for s in stages if s.applied_epoch == ctrl.epoch)
    print(
        f"convergence: {converged}/{HIER_STAGES} stages on the final epoch "
        f"{ctrl.epoch}; last cycle missing {ctrl.cycles[-1].n_missing}"
    )


def main() -> None:
    """Entry point: run both live kill/recover scenarios end to end."""
    print("=== Act 1: stage loss on the flat live plane ===\n")
    asyncio.run(run())
    print("\n=== Act 2: aggregator loss on the hierarchical live plane ===\n")
    asyncio.run(run_hier())


if __name__ == "__main__":
    main()
