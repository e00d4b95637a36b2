"""POSIX-like I/O interception shim.

SDS data planes intercept application I/O transparently (LD_PRELOAD in
PAIO/Cheferd; paper Fig. 1 shows the stage between the job and the PFS
client). This module is the simulation equivalent: job processes issue
``open``/``read``/``write``/``stat``/``close`` calls against an
:class:`IOInterceptor`, which

1. classifies each call as a *data* or *metadata* operation, and
2. admits it through the job's :class:`~repro.dataplane.stage.DataPlaneStage`
   (where the controller's rate limits bite).

Every call is a generator to be driven with ``yield from`` inside a
simulation process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.dataplane.stage import DATA, METADATA, DataPlaneStage
from repro.simnet.engine import Environment

__all__ = ["IOInterceptor", "IOOp", "OP_CLASSES"]

#: POSIX-ish call → operation class, as Cheferd's differentiation does.
OP_CLASSES = {
    "open": METADATA,
    "close": METADATA,
    "stat": METADATA,
    "mkdir": METADATA,
    "unlink": METADATA,
    "readdir": METADATA,
    "read": DATA,
    "write": DATA,
}


@dataclass(frozen=True)
class IOOp:
    """A completed, timed I/O operation."""

    call: str
    op_class: str
    size_bytes: int
    issued_at: float
    completed_at: float
    throttle_wait_s: float

    @property
    def latency_s(self) -> float:
        return self.completed_at - self.issued_at


class IOInterceptor:
    """Routes a job's I/O calls through its stage."""

    def __init__(self, env: Environment, stage: DataPlaneStage) -> None:
        from repro.monitoring.histogram import LatencyHistogram

        self.env = env
        self.stage = stage
        self.completed: int = 0
        self.total_throttle_wait_s = 0.0
        #: End-to-end latency distribution per op.
        self.latency = LatencyHistogram()

    def call(self, name: str, size_bytes: int = 0) -> Generator:
        """Issue one intercepted call; returns the :class:`IOOp` record."""
        op_class = OP_CLASSES.get(name)
        if op_class is None:
            raise ValueError(f"unknown I/O call: {name!r}")
        if size_bytes < 0:
            raise ValueError(f"negative size: {size_bytes}")
        issued = self.env.now
        throttle_wait = yield from self.stage.admit(op_class)
        op = IOOp(
            call=name,
            op_class=op_class,
            size_bytes=size_bytes,
            issued_at=issued,
            completed_at=self.env.now,
            throttle_wait_s=throttle_wait,
        )
        self.completed += 1
        self.total_throttle_wait_s += throttle_wait
        self.latency.record(op.latency_s)
        return op

    # Convenience wrappers -----------------------------------------------------
    def open(self) -> Generator:
        return self.call("open")

    def stat(self) -> Generator:
        return self.call("stat")

    def read(self, size_bytes: int) -> Generator:
        return self.call("read", size_bytes)

    def write(self, size_bytes: int) -> Generator:
        return self.call("write", size_bytes)
