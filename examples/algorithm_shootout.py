#!/usr/bin/env python
"""Controller-brain shootout: PSFA vs PID vs PADLL-style vs baselines.

Every brain replays the *identical* seeded traces — a mid-run demand
burst and a metadata storm — so the scorecard isolates the algorithm:

* **convergence** — cycles for the bursting job's grant to settle after
  it steps to 5x demand. Water-fillers snap in one cycle; the PID loop
  ramps over several (the price of its smoothness under noise).
* **fairness** — Jain's index over weight-normalised grants among the
  contended jobs. 1.0 means every constrained job sits exactly on its
  weighted-fair line.
* **overshoot** — worst-case total grant above the capacity line; every
  shipped brain clips, so a nonzero value here is a bug.
* **utilization** — useful grant over the contended optimum. This is
  where demand-blind brains (static partition, naive proportional) pay
  for stranding budget on trickling jobs.
* **storm containment** — the metadata-storming tenant's final share of
  the MDS budget. Plain water-fill hands the storm all the leftover;
  the PADLL-style per-tenant cap bounds it by construction, while still
  serving the innocent tenants in full (victim column).

The race is deterministic, and ``tests/core/test_shootout.py`` byte-checks
its scoring columns against ``tests/core/golden_shootout.json``, so these
numbers are CI-checked.

Run:  python examples/algorithm_shootout.py
"""

from repro.core.shootout import run_shootout
from repro.harness.report import format_table

CYCLES = 60


def main() -> None:
    result = run_shootout(cycles=CYCLES)
    rows = [
        [
            name,
            f"{row['convergence_cycles']}",
            f"{row['jain_index']:.3f}",
            f"{row['overshoot_frac']:.3f}",
            f"{row['utilization']:.0%}",
            f"{row['storm_share']:.0%}",
            f"{row['victim_share']:.0%}",
            f"{row['meta_utilization']:.0%}",
        ]
        for name, row in result["contenders"].items()
    ]
    print(
        format_table(
            [
                "brain",
                "conv (cycles)",
                "jain",
                "overshoot",
                "util",
                "storm share",
                "victim",
                "MDS util",
            ],
            rows,
            title=(
                f"Controller-brain shootout — seed {result['seed']}, "
                f"{result['cycles']} cycles, {result['n_jobs']} jobs"
            ),
        )
    )
    print()
    for metric, winner in result["winners"].items():
        print(f"  best {metric:>17s}: {winner}")
    print(
        "\nThe trade-off in one line: plain water-fill maximises"
        " utilization but lets the storm pocket the leftover MDS budget;"
        " the PADLL-style cap contains the storm at its cap while the"
        " victims stay fully served; demand-blind brains contain by"
        " accident and strand budget doing it."
    )


if __name__ == "__main__":
    main()
