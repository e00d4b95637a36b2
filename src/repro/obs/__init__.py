"""Unified observability for both control planes (spans, usage, metrics).

The paper's evidence is (a) per-phase control-cycle latency (Figs. 4–6)
and (b) per-controller CPU/memory/NIC usage collected with REMORA
(Tables II–IV). This package makes both first-class for the simulated
*and* the live deployment:

* :mod:`repro.obs.spans` — a span tracer with pluggable clocks
  (sim virtual time or wall clock) recording every control cycle as a
  ``cycle`` span with ``collect``/``compute``/``enforce`` children;
* :mod:`repro.obs.chrome_trace` — a Chrome trace-event exporter so one
  Perfetto timeline renders either plane;
* :mod:`repro.obs.procfs` — a live REMORA counterpart sampling
  ``/proc`` plus per-controller byte/CPU meters, producing
  :class:`~repro.monitoring.remora.RemoraReport` rows from real runs;
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry with
  Prometheus text exposition and an optional ``GET /metrics`` endpoint,
  a one-route handler on :class:`repro.service.http.HttpServer`.

Entry points: ``repro live --obs-out trace.json --metrics-port 0`` and
``repro flat/hier/coordinated --trace-out trace.json``.
"""

from repro.obs.chrome_trace import (
    export_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry, MetricsServer
from repro.obs.procfs import (
    ComponentUsageMeter,
    LiveUsageSession,
    ProcessSampler,
    procfs_available,
)
from repro.obs.spans import (
    NullSpanTracer,
    SpanRecord,
    SpanTracer,
    sim_clock,
    wall_clock,
)

__all__ = [
    "ComponentUsageMeter",
    "LiveUsageSession",
    "MetricsRegistry",
    "MetricsServer",
    "NullSpanTracer",
    "ProcessSampler",
    "SpanRecord",
    "SpanTracer",
    "export_chrome_trace",
    "procfs_available",
    "sim_clock",
    "validate_chrome_trace",
    "wall_clock",
    "write_chrome_trace",
]
