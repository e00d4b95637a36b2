"""repro — reproduction of "Can Current SDS Controllers Scale To Modern HPC
Infrastructures?" (SC 2024).

The package implements, from scratch:

* :mod:`repro.simnet` — a discrete-event HPC-cluster simulator (hosts,
  links, connection-limited transport, fat-tree topologies);
* :mod:`repro.core` — the SDS control plane under study: flat and
  hierarchical designs around the PSFA control algorithm;
* :mod:`repro.dataplane` — data-plane stages (full and "virtual" stress
  variants) with token-bucket rate limiting;
* :mod:`repro.jobs` — synthetic HPC job workloads and facility demand
  traces;
* :mod:`repro.monitoring` — a REMORA-like resource usage monitor;
* :mod:`repro.harness` — calibration, experiment running, and reporting
  that regenerate every figure and table in the paper;
* :mod:`repro.live` — a real asyncio/TCP deployment of the same control
  plane for laptop-scale validation.

Quickstart::

    from repro import run_flat_experiment

    result = run_flat_experiment(n_stages=500, cycles=50, seed=7)
    print(result.latency.mean_ms, result.phase_means_ms())
"""

__version__ = "1.0.0"

_LAZY = {
    "ExperimentResult": "repro.harness.experiment",
    "run_flat_experiment": "repro.harness.experiment",
    "run_hierarchical_experiment": "repro.harness.experiment",
}

__all__ = ["__version__", *sorted(_LAZY)]


def __getattr__(name):
    """Lazily import the heavyweight harness entry points."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
