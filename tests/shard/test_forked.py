"""Forked children, not spawned interpreters: what forking buys.

The live hierarchy's aggregator tier (:class:`~repro.live.tier.
AggregatorTier`) is forked from the caller, and so is each worker of the
partitioned DES, so nothing re-imports the caller's ``__main__`` and a
start costs a fork rather than a fresh interpreter (the
process-boundary cases live in ``tests/live/test_tier.py``).
"""

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.live.harness import LiveHierPlane

_SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "call, printed",
    [("len(run_partitioned_hier(8, 2, 2, workers=2).cycles)", "2")],
    ids=["sim"],
)
def test_runs_from_a_script_without_a_main_guard(tmp_path, call, printed):
    """A spawned worker re-imported the caller's ``__main__``: a script
    with no ``if __name__ == "__main__"`` guard failed to start the
    partitioned DES's workers."""
    script = tmp_path / "unguarded.py"
    script.write_text(f"from repro.shard import run_partitioned_hier\nprint({call})\n")
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [printed]


def test_start_is_a_fork_not_an_interpreter():
    """A spawned, re-importing interpreter per aggregator subtree took
    1.3–1.7 s to start 48 stages × 4 on a 2-core host; the best of three
    forked ``LiveHierPlane(48, 4)`` starts is under 0.25 s."""

    async def timed_start():
        plane = LiveHierPlane(48, 4)
        began = time.perf_counter()
        try:
            await plane.start()
            return time.perf_counter() - began
        finally:
            await plane.stop()

    assert min(asyncio.run(timed_start()) for _ in range(3)) <= 0.25
