"""Capacity planning: which design, and how many aggregators?

The paper's Discussion (§V) leaves the operator with a judgement call:
*how many aggregators does my machine need for my reaction-time target?*
:class:`CapacityPlanner` turns the study's data into that answer: given a
node count, a control-cycle latency target, and the per-node connection
ceiling, it recommends a design (flat vs hierarchical) and the minimum
aggregator count that meets the target, with the predicted latency and
controller-node cost (``repro plan``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.costs import CostModel, FRONTERA_COST_MODEL
from repro.harness.calibration import predict_flat_ms, predict_hier_ms

__all__ = ["CapacityPlanner", "DesignRecommendation"]


@dataclass(frozen=True)
class DesignRecommendation:
    """The planner's answer for one deployment question."""

    design: str  # "flat" | "hierarchical"
    n_aggregators: int
    predicted_latency_ms: float
    controller_nodes: int
    meets_target: bool
    reason: str

    def summary(self) -> str:
        verdict = "meets" if self.meets_target else "CANNOT MEET"
        return (
            f"{self.design} ({self.n_aggregators} aggregators, "
            f"{self.controller_nodes} controller node(s)): "
            f"{self.predicted_latency_ms:.1f} ms/cycle — {verdict} target. "
            f"{self.reason}"
        )


class CapacityPlanner:
    """Recommend a control-plane design for a target infrastructure.

    Uses the calibrated analytic predictors, so recommendations carry the
    same fidelity caveats as the cost model (shapes and crossovers, not
    testbed-exact milliseconds).
    """

    def __init__(
        self,
        costs: CostModel = FRONTERA_COST_MODEL,
        connection_limit: int = 2500,
        max_aggregators: int = 512,
    ) -> None:
        if connection_limit < 1:
            raise ValueError(f"connection_limit must be >= 1: {connection_limit}")
        if max_aggregators < 1:
            raise ValueError(f"max_aggregators must be >= 1: {max_aggregators}")
        self.costs = costs
        self.connection_limit = int(connection_limit)
        self.max_aggregators = int(max_aggregators)

    # -- building blocks ------------------------------------------------------
    def min_aggregators(self, n_nodes: int) -> int:
        """Connection-ceiling floor on the aggregator count."""
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1: {n_nodes}")
        return math.ceil(n_nodes / self.connection_limit)

    def flat_viable(self, n_nodes: int) -> bool:
        return n_nodes <= self.connection_limit

    def predicted_flat_ms(self, n_nodes: int) -> float:
        return predict_flat_ms(self.costs, n_nodes)["total"]

    def predicted_hier_ms(self, n_nodes: int, n_aggregators: int) -> float:
        return predict_hier_ms(self.costs, n_nodes, n_aggregators)["total"]

    # -- the planner ------------------------------------------------------------
    def recommend(
        self,
        n_nodes: int,
        target_latency_ms: float,
        prefer_fewest_controllers: bool = True,
    ) -> DesignRecommendation:
        """Pick the cheapest design meeting ``target_latency_ms``.

        Preference order (paper §V): a flat single controller when it is
        both viable and fast enough; otherwise the hierarchical design
        with the fewest aggregators that meets the target; if no explored
        configuration meets it, the fastest achievable one, flagged.
        """
        if target_latency_ms <= 0:
            raise ValueError(f"target must be positive: {target_latency_ms}")
        if self.flat_viable(n_nodes):
            flat_ms = self.predicted_flat_ms(n_nodes)
            if flat_ms <= target_latency_ms:
                return DesignRecommendation(
                    design="flat",
                    n_aggregators=0,
                    predicted_latency_ms=flat_ms,
                    controller_nodes=1,
                    meets_target=True,
                    reason=(
                        f"{n_nodes} nodes fit under the "
                        f"{self.connection_limit}-connection ceiling and one "
                        "controller meets the reaction-time target "
                        "(Obs. #1)."
                    ),
                )

        floor = self.min_aggregators(n_nodes)
        best: Optional[Tuple[int, float]] = None
        for a in range(floor, self.max_aggregators + 1):
            ms = self.predicted_hier_ms(n_nodes, a)
            if best is None or ms < best[1]:
                best = (a, ms)
            if ms <= target_latency_ms and prefer_fewest_controllers:
                return DesignRecommendation(
                    design="hierarchical",
                    n_aggregators=a,
                    predicted_latency_ms=ms,
                    controller_nodes=1 + a,
                    meets_target=True,
                    reason=(
                        f"smallest aggregator count >= the connection floor "
                        f"({floor}) whose predicted cycle meets "
                        f"{target_latency_ms:.0f} ms (Obs. #5 trade-off)."
                    ),
                )
            # Adding aggregators stops helping once the per-partition term
            # is negligible; bail out when improvements stall.
            if a > floor + 4 and best is not None and ms > best[1] * 0.999:
                break
        assert best is not None
        a_best, ms_best = best
        return DesignRecommendation(
            design="hierarchical",
            n_aggregators=a_best,
            predicted_latency_ms=ms_best,
            controller_nodes=1 + a_best,
            meets_target=ms_best <= target_latency_ms,
            reason=(
                "no explored configuration meets the target; reporting the "
                "fastest one. Lower-latency control would need a faster "
                "controller substrate (see the CPU-scaling ablation)."
            ),
        )
