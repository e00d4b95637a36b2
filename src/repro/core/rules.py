"""Enforcement rules pushed from controllers to data-plane stages.

A rule sets the IOPS rate limit a stage's token bucket must apply until the
next cycle replaces it. Rules carry a monotonically increasing ``epoch``
(the cycle number) so stale rules arriving late — possible during
controller failover — are discarded by stages rather than re-applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = ["EnforcementRule", "diff_rules"]

#: Rate value meaning "unlimited" (no throttling).
UNLIMITED = float("inf")


@dataclass(frozen=True, slots=True)
class EnforcementRule:
    """A per-stage rate assignment for one control epoch."""

    stage_id: str
    epoch: int
    data_iops_limit: float
    metadata_iops_limit: float = UNLIMITED

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"negative epoch: {self.epoch}")
        if self.data_iops_limit < 0:
            raise ValueError(f"negative data limit: {self.data_iops_limit}")
        if self.metadata_iops_limit < 0:
            raise ValueError(f"negative metadata limit: {self.metadata_iops_limit}")

    @property
    def total_limit(self) -> float:
        return self.data_iops_limit + self.metadata_iops_limit

    def supersedes(self, other: Optional["EnforcementRule"]) -> bool:
        """True if this rule should replace ``other`` at a stage."""
        return other is None or self.epoch > other.epoch


def diff_rules(
    previous: Dict[str, EnforcementRule],
    current: Sequence[EnforcementRule],
    tolerance: float = 0.0,
) -> List[EnforcementRule]:
    """Rules in ``current`` that differ from ``previous`` beyond ``tolerance``.

    An optional optimisation (not used in the paper's stress workload,
    which always pushes every rule): only ship rules whose limits moved by
    more than ``tolerance`` relative change, cutting enforce-phase traffic
    for steady workloads. This is the per-rule reference: every
    controller ships by :func:`repro.core.slots.changed_limits`, which
    the tests hold to this verdict.
    """
    if tolerance < 0:
        raise ValueError(f"negative tolerance: {tolerance}")
    changed: List[EnforcementRule] = []
    for rule in current:
        old = previous.get(rule.stage_id)
        if old is None:
            changed.append(rule)
            continue
        for new_v, old_v in (
            (rule.data_iops_limit, old.data_iops_limit),
            (rule.metadata_iops_limit, old.metadata_iops_limit),
        ):
            if new_v == old_v:
                continue
            base = max(abs(old_v), 1e-12)
            if base == float("inf"):
                if new_v != old_v:
                    changed.append(rule)
                    break
                continue
            if abs(new_v - old_v) / base > tolerance:
                changed.append(rule)
                break
    return changed

