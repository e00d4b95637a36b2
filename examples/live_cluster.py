#!/usr/bin/env python
"""Run the control plane for real: asyncio TCP over localhost.

Unlike the other examples, nothing here is simulated — a real
:class:`~repro.live.controller_server.LiveGlobalController` listens on a
TCP port, real stage clients connect, and the same PSFA implementation
allocates IOPS over metrics that crossed actual sockets. Wall-clock cycle
latencies are reported for a small node sweep, reproducing the shape of
Fig. 4's low end on your machine.

Run:  python examples/live_cluster.py
"""

from repro.harness.report import format_table
from repro.live import run_live

NODE_COUNTS = (10, 25, 50, 100)
CYCLES = 25


def main() -> None:
    rows = []
    for n in NODE_COUNTS:
        result = run_live(n_stages=n, n_cycles=CYCLES)
        stats = result.stats(warmup=5)
        bd = stats.breakdown()
        rows.append(
            [
                n,
                stats.mean_ms,
                bd.collect_ms,
                bd.compute_ms,
                bd.enforce_ms,
                f"{stats.relative_std:.1%}",
            ]
        )
        assert result.rules_applied_total == n * CYCLES
    print(
        format_table(
            ["stages", "cycle (ms)", "collect", "compute", "enforce", "rel. std"],
            rows,
            title=f"Live flat control plane over localhost TCP ({CYCLES} cycles)",
        )
    )
    print(
        "\nEvery stage applied every epoch's rule exactly once; latency"
        "\ngrows with the stage count just as the paper's Fig. 4 shows"
        "\n(absolute values reflect this machine, not Frontera)."
    )


if __name__ == "__main__":
    main()
