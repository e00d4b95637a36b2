"""Common interface for control algorithms.

A control algorithm maps the cycle's observed state — per-job demand,
per-job weight, the PFS capacity budget, optional floors — to per-job IOPS
allocations. Most implementations are pure, vectorized NumPy functions of
their inputs — no hidden state, so a cycle can be replayed offline.
Feedback controllers (``PIDController``) are the documented exception:
they carry integrator/derivative state between cycles, reset it whenever
the job population changes size, and expose ``reset()`` so a replay can
start from a clean slate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["AllocationResult", "ControlAlgorithm", "validate_inputs"]


@dataclass(frozen=True)
class AllocationResult:
    """The outcome of one allocation computation."""

    allocations: np.ndarray
    #: True for jobs whose grant was capped below their weighted share by
    #: their own demand (they received everything they asked for).
    demand_limited: np.ndarray
    #: Capacity that remained unassigned (0 when redistribution is on and
    #: at least one job is active).
    unallocated: float

    def __post_init__(self) -> None:
        if self.allocations.shape != self.demand_limited.shape:
            raise ValueError("allocation vectors must share a shape")

    @property
    def total_allocated(self) -> float:
        return float(self.allocations.sum())


def validate_inputs(
    demands: np.ndarray,
    weights: np.ndarray,
    capacity: float,
    guarantees: Optional[np.ndarray] = None,
) -> None:
    """Shared input validation for all algorithms."""
    demands = np.asarray(demands)
    weights = np.asarray(weights)
    if demands.ndim != 1 or weights.ndim != 1:
        raise ValueError("demands and weights must be 1-D")
    if demands.shape != weights.shape:
        raise ValueError(
            f"shape mismatch: demands {demands.shape} vs weights {weights.shape}"
        )
    if capacity <= 0:
        raise ValueError(f"capacity must be positive: {capacity}")
    if np.any(demands < 0):
        raise ValueError("negative demand")
    if np.any(weights <= 0):
        raise ValueError("non-positive weight")
    if guarantees is not None:
        guarantees = np.asarray(guarantees)
        if guarantees.shape != demands.shape:
            raise ValueError("guarantees shape mismatch")
        if np.any(guarantees < 0):
            raise ValueError("negative guarantee")
        if guarantees.sum() > capacity + 1e-9:
            raise ValueError("guarantees exceed capacity")


class ControlAlgorithm(ABC):
    """Base class for per-cycle allocation algorithms."""

    #: Human-readable identifier used in experiment reports.
    name: str = "abstract"

    @abstractmethod
    def allocate(
        self,
        demands: np.ndarray,
        weights: np.ndarray,
        capacity: float,
        guarantees: Optional[np.ndarray] = None,
    ) -> AllocationResult:
        """Compute per-job allocations for one control cycle.

        Parameters
        ----------
        demands:
            Observed per-job IOPS submission rates (collect phase output).
        weights:
            Per-job sharing weights from the QoS policy.
        capacity:
            The PFS operation budget for this cycle.
        guarantees:
            Optional per-job minimum floors (honoured only for active
            jobs; an idle job's floor is not falsely allocated).
        """

