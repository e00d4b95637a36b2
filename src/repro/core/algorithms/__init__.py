"""Control algorithms executed by the global controller each cycle."""

from repro.core.algorithms.base import AllocationResult, ControlAlgorithm
from repro.core.algorithms.baselines import (
    MaxMinFair,
    NaiveProportional,
    StaticPartition,
    UniformShare,
)
from repro.core.algorithms.padll import PADLLThrottler
from repro.core.algorithms.pid import PIDController
from repro.core.algorithms.psfa import PSFA, weighted_waterfill

__all__ = [
    "AllocationResult",
    "ControlAlgorithm",
    "MaxMinFair",
    "NaiveProportional",
    "PADLLThrottler",
    "PIDController",
    "PSFA",
    "StaticPartition",
    "UniformShare",
    "weighted_waterfill",
]
