"""PSFA — proportional sharing without false allocation.

The state-of-the-art control algorithm the paper runs at the global
controller (paper §III-C, introduced by Cheferd). Semantics:

1. Jobs are weighted by their QoS class; backlogged jobs split the PFS
   budget in proportion to weight.
2. **No false allocation**: a job never consumes budget it is not using.
   Idle jobs (zero observed demand) receive nothing; a job demanding less
   than its weighted share receives exactly its demand, and the surplus is
   redistributed to jobs that can use it (weighted water-filling).
3. **No under-provisioning**: when total demand exceeds capacity, the full
   budget is handed out (work conservation); when it does not, each active
   job additionally receives a proportional slice of the leftover as a
   growth margin, so rising demand is not throttled for a full control
   period.
4. Optional per-job minimum floors are carved out first for active jobs.

The core is :func:`weighted_waterfill`, an O(n log n) exact water-filling
via sorting and prefix sums — fully vectorized, following the
numpy-optimisation guidance this project is built under (no Python loop
over jobs; 10,000-job allocations take well under a millisecond).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.algorithms.base import (
    AllocationResult,
    ControlAlgorithm,
    validate_inputs,
)

__all__ = ["PSFA", "weighted_waterfill"]

_EPS = 1e-12


def weighted_waterfill(
    demands: np.ndarray,
    weights: np.ndarray,
    capacity: float,
) -> np.ndarray:
    """Weighted max-min allocation with demand caps.

    Returns ``alloc`` with ``alloc[i] = min(demands[i], level * weights[i])``
    where ``level`` is the water level at which allocations sum to
    ``capacity`` — or ``alloc = demands`` when everything fits.

    Exact, sort-based, O(n log n):

    * sort jobs by the level ``r_i = d_i / w_i`` at which they saturate;
    * the first ``k`` jobs (lowest ``r``) are fully granted; the rest sit
      at the water level ``level(k) = (C - sum_{i<k} d_i) / sum_{i>=k} w_i``;
    * the correct ``k`` is the smallest one whose implied level does not
      exceed the next job's saturation point.
    """
    demands = np.asarray(demands, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = demands.size
    if n == 0:
        return np.zeros(0)
    total_demand = float(demands.sum())
    if total_demand <= capacity:
        return demands.copy()

    # This function is exported on its own (callable without
    # validate_inputs), so degenerate weights must be guarded here: a
    # zero weight divides by zero below, and a 0-demand/0-weight pair
    # yields nan — which poisons the argsort and the whole allocation.
    # Clamping to _EPS keeps positive-weight behavior bit-identical and
    # gives zero-weight jobs a saturation ratio so large they are only
    # granted once everyone else is satisfied.
    weights = np.maximum(weights, _EPS)

    ratio = demands / weights
    order = np.argsort(ratio, kind="stable")
    d_sorted = demands[order]
    w_sorted = weights[order]
    r_sorted = ratio[order]

    # Cumulative demand of fully granted prefix and weight of the rest,
    # for every candidate split point k = 0..n-1.
    demand_before = np.concatenate(([0.0], np.cumsum(d_sorted)[:-1]))
    weight_from = np.cumsum(w_sorted[::-1])[::-1]
    levels = (capacity - demand_before) / np.maximum(weight_from, _EPS)

    feasible = levels <= r_sorted + _EPS
    # Some k is feasible because total demand exceeds capacity.
    k = int(np.argmax(feasible))
    level = levels[k]

    alloc_sorted = np.minimum(d_sorted, level * w_sorted)
    alloc_sorted[:k] = d_sorted[:k]
    alloc = np.empty(n)
    alloc[order] = alloc_sorted
    return alloc


class PSFA(ControlAlgorithm):
    """Proportional sharing without false allocation.

    Parameters
    ----------
    redistribute_leftover:
        Hand unrequested budget to active jobs as growth margin
        (the paper's configuration). When False, allocations equal the
        demand-capped water-fill and surplus stays unallocated.
    activity_threshold_iops:
        Demand at or below this value marks a job *idle* (receives zero —
        the "without false allocation" property).
    """

    name = "psfa"

    def __init__(
        self,
        redistribute_leftover: bool = True,
        activity_threshold_iops: float = 0.0,
    ) -> None:
        if activity_threshold_iops < 0:
            raise ValueError(
                f"negative activity threshold: {activity_threshold_iops}"
            )
        self.redistribute_leftover = bool(redistribute_leftover)
        self.activity_threshold_iops = float(activity_threshold_iops)

    def allocate(
        self,
        demands: np.ndarray,
        weights: np.ndarray,
        capacity: float,
        guarantees: Optional[np.ndarray] = None,
    ) -> AllocationResult:
        validate_inputs(demands, weights, capacity, guarantees)
        demands = np.asarray(demands, dtype=float)
        weights = np.asarray(weights, dtype=float)
        n = demands.size
        alloc = np.zeros(n)
        demand_limited = np.zeros(n, dtype=bool)

        active = demands > self.activity_threshold_iops
        if not np.any(active):
            return AllocationResult(alloc, demand_limited, float(capacity))

        d_act = demands[active]
        w_act = weights[active]

        if guarantees is not None:
            g_act = np.asarray(guarantees, dtype=float)[active]
        else:
            g_act = np.zeros(d_act.size)

        # Floors are honoured only for active jobs (no false allocation of
        # an idle job's guarantee). Capacity above the floors is
        # water-filled over the demand that exceeds each floor.
        floors = g_act
        spare_capacity = capacity - float(floors.sum())
        excess_demand = np.maximum(d_act - floors, 0.0)
        filled = weighted_waterfill(excess_demand, w_act, spare_capacity)
        grants = floors + filled

        demand_limited_act = grants >= d_act - _EPS

        leftover = capacity - float(grants.sum())
        if self.redistribute_leftover and leftover > _EPS:
            grants = grants + leftover * w_act / float(w_act.sum())
            leftover = 0.0

        alloc[active] = grants
        demand_limited[active] = demand_limited_act
        return AllocationResult(alloc, demand_limited, max(leftover, 0.0))
