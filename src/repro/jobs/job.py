"""Job processes that issue real (simulated) I/O.

A :class:`Job` describes an HPC application's I/O behaviour as a sequence
of :class:`JobPhase` records; :func:`run_job` drives it as a simulation
process through a data-plane interceptor, so the controller's rate limits
and the PFS's contention both shape what the job achieves. Used by the
QoS enforcement examples (the paper's motivation made concrete).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from repro.dataplane.interceptor import IOInterceptor
from repro.simnet.engine import Environment

__all__ = ["Job", "JobPhase", "JobResult", "run_job"]


@dataclass(frozen=True)
class JobPhase:
    """One homogeneous stretch of job behaviour.

    ``duration_s`` of issuing ``data_iops``/``metadata_iops`` *offered*
    load; data ops carry ``io_size_bytes`` each. A compute-only phase has
    zero rates.
    """

    duration_s: float
    data_iops: float = 0.0
    metadata_iops: float = 0.0
    io_size_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"phase duration must be positive: {self.duration_s}")
        if self.data_iops < 0 or self.metadata_iops < 0:
            raise ValueError("negative phase rate")
        if self.io_size_bytes < 0:
            raise ValueError(f"negative I/O size: {self.io_size_bytes}")


@dataclass(frozen=True)
class Job:
    """A job: identity, QoS class, and an I/O script."""

    job_id: str
    qos_class: str
    phases: tuple

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("job needs at least one phase")

    @property
    def duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)


@dataclass
class JobResult:
    """What a job achieved end-to-end."""

    job_id: str
    ops_completed: int = 0
    data_ops: int = 0
    metadata_ops: int = 0
    total_throttle_wait_s: float = 0.0
    finished_at: float = 0.0


def run_job(
    env: Environment,
    job: Job,
    interceptor: IOInterceptor,
    result: Optional[JobResult] = None,
) -> Generator:
    """Drive ``job`` through ``interceptor`` as a simulation process.

    Each phase issues operations at its offered rate (fixed inter-arrival
    times; the data/metadata mix interleaves proportionally). Throttling
    by the stage pushes completions later — offered load
    stays the job's intent, which is exactly the demand signal PSFA uses.
    """
    result = result if result is not None else JobResult(job.job_id)
    for phase in job.phases:
        phase_end = env.now + phase.duration_s
        rate = phase.data_iops + phase.metadata_iops
        if rate <= 0:
            yield env.timeout(phase.duration_s)
            continue
        interval = 1.0 / rate
        metadata_share = phase.metadata_iops / rate
        issued = 0
        # Deterministic proportional interleaving of op classes.
        meta_credit = 0.0
        while env.now < phase_end:
            meta_credit += metadata_share
            if meta_credit >= 1.0:
                meta_credit -= 1.0
                op = yield from interceptor.stat()
                result.metadata_ops += 1
            else:
                op = yield from interceptor.read(phase.io_size_bytes)
                result.data_ops += 1
            result.ops_completed += 1
            result.total_throttle_wait_s += op.throttle_wait_s
            issued += 1
            # Pace to the offered rate; if throttled behind schedule, issue
            # the next op immediately (closed-loop backlog draining).
            next_issue = op.issued_at + interval
            if next_issue > env.now:
                yield env.timeout(next_issue - env.now)
    result.finished_at = env.now
    return result
