"""End-to-end benchmark: whole control cycles with a per-layer ledger.

Self-contained (see README.md): drives ``repro`` only through public
entry points, passes no performance knobs, and keeps every probe in this
directory. ``python -m bench_e2e.run`` is one workload in one process (the
contract ``BENCHMARK.json`` describes); ``python -m bench_e2e`` runs all
four workloads, each in a fresh subprocess, and writes one report.
"""

from pathlib import Path

#: The checkout root: ``BENCHMARK.json`` and ``src/`` live here.
ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes (store directories, suite detail files) goes
#: under here, inside the checkout, and is removed when the run ends.
SCRATCH_ROOT = ROOT / ".bench_e2e_tmp"
