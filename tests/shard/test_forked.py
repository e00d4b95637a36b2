"""The shard planes on forked children: what forking buys over spawning.

Each shard is an :class:`~repro.live.tier.AggregatorTier` forked from the
caller, and so is each worker of the partitioned DES, so nothing
re-imports the caller's ``__main__``; a start costs a fork rather than a
fresh interpreter, and a shard's usage row is its
whole process (the process-boundary cases live in
``tests/live/test_tier.py``).
"""

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.shard import ShardedControlPlane, run_live_sharded

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _children_cpu_s():
    times = os.times()
    return times.children_user + times.children_system


@pytest.mark.parametrize(
    "call, printed",
    [
        ("run_live_sharded(8, 2, 2).rules_applied_total", "16"),
        ("len(run_partitioned_hier(8, 2, 2, workers=2).cycles)", "2"),
    ],
    ids=["live", "sim"],
)
def test_runs_from_a_script_without_a_main_guard(tmp_path, call, printed):
    """A spawned worker re-imported the caller's ``__main__``: a script
    with no ``if __name__ == "__main__"`` guard failed to start — the
    live shard's workers and the partitioned DES's alike."""
    script = tmp_path / "unguarded.py"
    script.write_text(
        "from repro.shard import run_live_sharded, run_partitioned_hier\n"
        f"print({call})\n"
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [printed]


def test_usage_rows_hold_the_whole_process_cpu():
    """The rows used to time only the aggregator's instrumented sections
    (about a sixth of the process); now they read the child's own CPU,
    which the parent also counts once it has reaped the child."""
    before = _children_cpu_s()
    result = run_live_sharded(600, 2, 20)
    spent = _children_cpu_s() - before
    assert len(result.shard_rows) == 2
    assert sum(r["cpu_seconds"] for r in result.shard_rows) >= 0.8 * spent > 0


def test_start_is_a_fork_not_an_interpreter():
    """``start()`` at 48 stages × 4 shards took 1.3–1.7 s spawning and
    re-importing on a 2-core host; the best of three forked starts is
    under 0.25 s."""

    async def timed_start():
        plane = ShardedControlPlane(48, 4)
        began = time.perf_counter()
        try:
            await plane.start()
            return time.perf_counter() - began
        finally:
            await plane.shutdown()

    assert min(asyncio.run(timed_start()) for _ in range(3)) <= 0.25
