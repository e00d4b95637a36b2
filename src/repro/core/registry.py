"""Stage and job membership tracked by controllers.

HPC environments are dynamic: jobs enter and leave continuously, each
bringing data-plane stages with them (paper §I, "static and uncoordinated
control" critique). The registry is a controller-side membership table:
which stages exist, which job each belongs to, and which controller
partition owns it, with the stable orderings the vectorized algorithms
rely on. The coordinated-flat peers keep one; the global controllers'
membership is their :class:`~repro.core.columnar.StageColumns`, which
follows the same ordering rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["RegistryError", "StageRecord", "StageRegistry", "partition_stages"]


class RegistryError(KeyError):
    """Raised on inconsistent membership operations."""


@dataclass(frozen=True)
class StageRecord:
    """One registered data-plane stage."""

    stage_id: str
    job_id: str
    host_name: str
    registered_at: float = 0.0


class StageRegistry:
    """Ordered membership table with job grouping.

    Iteration order is registration order, which gives every component —
    algorithms, rule builders, partitioners — one consistent stage
    ordering per epoch.
    """

    def __init__(self) -> None:
        self._stages: Dict[str, StageRecord] = {}
        self._job_stages: Dict[str, List[str]] = {}
        self.generation = 0

    # -- membership ---------------------------------------------------------
    def register(self, record: StageRecord) -> None:
        """Add a stage; duplicate ids are an error."""
        if record.stage_id in self._stages:
            raise RegistryError(f"duplicate stage id: {record.stage_id!r}")
        self._stages[record.stage_id] = record
        self._job_stages.setdefault(record.job_id, []).append(record.stage_id)
        self.generation += 1

    def deregister(self, stage_id: str) -> StageRecord:
        """Remove a stage (job departure); unknown ids are an error."""
        record = self._stages.pop(stage_id, None)
        if record is None:
            raise RegistryError(f"unknown stage id: {stage_id!r}")
        job_list = self._job_stages[record.job_id]
        job_list.remove(stage_id)
        if not job_list:
            del self._job_stages[record.job_id]
        self.generation += 1
        return record

    def __contains__(self, stage_id: str) -> bool:
        return stage_id in self._stages

    def __len__(self) -> int:
        return len(self._stages)

    def get(self, stage_id: str) -> StageRecord:
        try:
            return self._stages[stage_id]
        except KeyError:
            raise RegistryError(f"unknown stage id: {stage_id!r}") from None

    # -- ordered views --------------------------------------------------------
    @property
    def stage_ids(self) -> List[str]:
        """All stage ids in registration order."""
        return list(self._stages)

    @property
    def job_ids(self) -> List[str]:
        """All job ids, ordered by first stage registration."""
        return list(self._job_stages)

    def stages_of(self, job_id: str) -> List[str]:
        """Stage ids of one job, in registration order."""
        try:
            return list(self._job_stages[job_id])
        except KeyError:
            raise RegistryError(f"unknown job id: {job_id!r}") from None

    def job_of(self, stage_id: str) -> str:
        return self.get(stage_id).job_id


def partition_stages(
    stage_ids: Sequence[str],
    n_partitions: int,
) -> List[List[str]]:
    """Split stages into ``n_partitions`` disjoint, contiguous subsets.

    Mirrors the paper's setup: each aggregator owns a disjoint set of
    stages, sized as evenly as possible (e.g. 4 aggregators x 2,500 stages
    for the 10,000-node experiment). Partitions differ in size by at most
    one stage.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1: {n_partitions}")
    if n_partitions > max(len(stage_ids), 1):
        raise ValueError(
            f"more partitions ({n_partitions}) than stages ({len(stage_ids)})"
        )
    n = len(stage_ids)
    base, extra = divmod(n, n_partitions)
    partitions: List[List[str]] = []
    start = 0
    for i in range(n_partitions):
        size = base + (1 if i < extra else 0)
        partitions.append(list(stage_ids[start : start + size]))
        start += size
    return partitions
