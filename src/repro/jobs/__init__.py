"""HPC job and workload models.

Supplies both sides of the study's workload story:

* **Metric sources** (:mod:`repro.jobs.workloads`) — what virtual stages
  report each cycle: the paper's constant *stress* source plus the
  dynamic patterns its Discussion reasons about (bursty on/off, DL
  training epochs, checkpoint storms);
* **Traces** (:mod:`repro.jobs.traces`) — step-series replay and a
  synthetic facility-scale trace (the trace-replay example);
* **Job processes** (:mod:`repro.jobs.job`) — generator-based jobs that
  issue real (simulated) I/O through a data-plane stage, whose token
  buckets enforce the controller's limits (the QoS enforcement example).
"""

from repro.jobs.job import Job, JobPhase, run_job
from repro.jobs.traces import TracePoint, TraceSource, generate_facility_trace
from repro.jobs.workloads import (
    BurstySource,
    CheckpointSource,
    DLTrainingSource,
    PoissonSource,
    StressSource,
    source_factory,
)

__all__ = [
    "BurstySource",
    "CheckpointSource",
    "DLTrainingSource",
    "Job",
    "JobPhase",
    "PoissonSource",
    "StressSource",
    "TracePoint",
    "TraceSource",
    "generate_facility_trace",
    "run_job",
    "source_factory",
]
