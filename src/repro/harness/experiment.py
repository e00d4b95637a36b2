"""High-level experiment runners — the package's main entry points.

Each runner stands up a fresh simulation, executes the paper's stress
workload for a number of control cycles, and returns an
:class:`ExperimentResult` bundling latency statistics and per-controller
resource usage. Repetitions (the paper repeats every test >= 3 times)
re-run the whole deployment with distinct seeds and pool the cycles.

These are what the benches, the examples, and the README quickstart call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.control_plane import (
    ControlPlaneConfig,
    CoordinatedFlatControlPlane,
    FlatControlPlane,
    HierarchicalControlPlane,
)
from repro.core.costs import CostModel, FRONTERA_COST_MODEL
from repro.core.cycle import ControlCycle, CycleStats
from repro.monitoring.remora import ControllerUsage

__all__ = [
    "ExperimentResult",
    "run_coordinated_experiment",
    "run_flat_experiment",
    "run_hierarchical_experiment",
]

#: Cycles dropped from statistics at the head of each repetition.
DEFAULT_WARMUP = 2


@dataclass
class ExperimentResult:
    """Pooled outcome of one experiment configuration."""

    design: str
    n_stages: int
    n_aggregators: int
    repetitions: int
    latency: CycleStats
    global_usage: ControllerUsage
    aggregator_usage: Optional[ControllerUsage]
    per_repeat_mean_ms: List[float] = field(default_factory=list)
    #: Sim-clock spans from the *last* repetition (repetitions replay the
    #: same virtual timeline, so pooling them would overlap); empty
    #: unless the runner was asked to ``trace_spans``.
    spans: List = field(default_factory=list)

    @property
    def mean_ms(self) -> float:
        return self.latency.mean_ms

    def phase_means_ms(self) -> Dict[str, float]:
        return self.latency.breakdown().as_dict()

    @property
    def across_repeat_relative_std(self) -> float:
        """Std/mean of per-repetition means (the paper's repeatability)."""
        if len(self.per_repeat_mean_ms) < 2:
            return 0.0
        arr = np.array(self.per_repeat_mean_ms)
        return float(arr.std(ddof=1) / arr.mean()) if arr.mean() > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        out = {
            "design": self.design,
            "n_stages": self.n_stages,
            "n_aggregators": self.n_aggregators,
            **self.latency.summary(),
        }
        out.update(
            {f"global_{k}": v for k, v in self.global_usage.as_dict().items()}
        )
        if self.aggregator_usage is not None:
            out.update(
                {
                    f"aggregator_{k}": v
                    for k, v in self.aggregator_usage.as_dict().items()
                }
            )
        return out


def _pool(
    design: str,
    n_stages: int,
    n_aggregators: int,
    build_and_run: Callable[[int], tuple],
    repeats: int,
    warmup: int,
) -> ExperimentResult:
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1: {repeats}")
    pooled: List[ControlCycle] = []
    global_rows: List[ControllerUsage] = []
    agg_rows: List[ControllerUsage] = []
    per_repeat: List[float] = []
    spans: List = []
    for rep in range(repeats):
        cycles, report, spans = build_and_run(rep)
        kept = cycles[warmup:] if len(cycles) > warmup else cycles
        pooled.extend(kept)
        per_repeat.append(CycleStats(kept).mean_ms)
        global_rows.append(report.global_usage())
        agg = report.aggregator_usage()
        if agg is not None:
            agg_rows.append(agg)
    return ExperimentResult(
        design=design,
        n_stages=n_stages,
        n_aggregators=n_aggregators,
        repetitions=repeats,
        latency=CycleStats(pooled, warmup=0),
        global_usage=ControllerUsage.mean(global_rows, "global"),
        aggregator_usage=(
            ControllerUsage.mean(agg_rows, "aggregator (mean)") if agg_rows else None
        ),
        per_repeat_mean_ms=per_repeat,
        spans=spans,
    )


def run_flat_experiment(
    n_stages: int,
    cycles: int = 12,
    repeats: int = 1,
    seed: int = 0,
    costs: CostModel = FRONTERA_COST_MODEL,
    config_kwargs: Optional[dict] = None,
    warmup: int = DEFAULT_WARMUP,
    trace_spans: bool = False,
) -> ExperimentResult:
    """The paper's flat-design experiment (Fig. 4 / Table II points)."""

    def build_and_run(rep: int):
        cfg = ControlPlaneConfig(
            n_stages=n_stages,
            costs=costs,
            trace_spans=trace_spans,
            **(config_kwargs or {}),
        )
        plane = FlatControlPlane.build(cfg)
        plane.run_stress(n_cycles=cycles)
        return plane.global_controller.cycles, plane.resource_report(), plane.spans

    return _pool("flat", n_stages, 0, build_and_run, repeats, warmup)


def run_hierarchical_experiment(
    n_stages: int,
    n_aggregators: int,
    cycles: int = 10,
    repeats: int = 1,
    seed: int = 0,
    costs: CostModel = FRONTERA_COST_MODEL,
    decision_offload: bool = False,
    levels: int = 2,
    config_kwargs: Optional[dict] = None,
    warmup: int = DEFAULT_WARMUP,
    trace_spans: bool = False,
) -> ExperimentResult:
    """The paper's hierarchical experiment (Figs. 5–6 / Tables III–IV)."""

    def build_and_run(rep: int):
        cfg = ControlPlaneConfig(
            n_stages=n_stages,
            costs=costs,
            trace_spans=trace_spans,
            **(config_kwargs or {}),
        )
        plane = HierarchicalControlPlane.build(
            cfg,
            n_aggregators=n_aggregators,
            decision_offload=decision_offload,
            levels=levels,
        )
        plane.run_stress(n_cycles=cycles)
        result = plane.global_controller.cycles, plane.resource_report(), plane.spans
        # Stopped between runs, the plane is freed as soon as it is dropped
        # instead of waiting for the cyclic collector.
        for agg in plane.aggregators:
            agg.stop()
        return result

    design = "hierarchical-offload" if decision_offload else "hierarchical"
    if levels == 3:
        design += "-3level"
    return _pool(design, n_stages, n_aggregators, build_and_run, repeats, warmup)


def run_coordinated_experiment(
    n_stages: int,
    n_controllers: int,
    cycles: int = 10,
    repeats: int = 1,
    costs: CostModel = FRONTERA_COST_MODEL,
    config_kwargs: Optional[dict] = None,
    warmup: int = DEFAULT_WARMUP,
    trace_spans: bool = False,
) -> ExperimentResult:
    """The §VI coordinated-flat design (beyond-the-paper experiment)."""
    from repro.core.coordination import merge_peer_cycles

    def build_and_run(rep: int):
        cfg = ControlPlaneConfig(
            n_stages=n_stages,
            costs=costs,
            trace_spans=trace_spans,
            **(config_kwargs or {}),
        )
        plane = CoordinatedFlatControlPlane.build(cfg, n_controllers=n_controllers)
        plane.run_stress(n_cycles=cycles)
        merged = merge_peer_cycles([p.cycles for p in plane.peers])
        return merged, plane.resource_report(), plane.spans

    return _pool(
        "coordinated-flat", n_stages, n_controllers, build_and_run, repeats, warmup
    )
