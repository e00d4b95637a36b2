"""Controller/stage cost model: CPU, wire, and memory constants.

The simulator runs the *actual* control-plane protocol; this module
supplies the per-operation costs that turn protocol steps into simulated
time, bytes, and resident memory. The defaults
(:data:`FRONTERA_COST_MODEL`) are calibrated against every number the
paper reports for Frontera (latencies of Figs. 4–6, resource usage of
Tables II–IV); :mod:`repro.harness.calibration` contains the analytic
predictors and the least-squares fitting code that produced them, so the
model can be recalibrated to a different machine.

Cost taxonomy
-------------
*Critical-path CPU* — work serialized on the controller's event loop that
directly lengthens the control cycle (message serialization/parsing, rule
building, the PSFA sweep).

*Background CPU* — work the controller's node performs off the critical
path (kernel/NIC interrupts, RPC worker threads, memory management). It
does not extend cycle latency but dominates the CPU-% columns of
Tables II–IV: a controller that owns N stage connections burns roughly
76 µs of background core-time per stage per cycle.

*Wire sizes* — bytes per message kind; the MB/s columns are emergent
(bytes per cycle / cycle latency).

*Memory* — per-stage controller state (policy, last metrics, rule history,
connection buffers). Flat global state is the heaviest (~450 KB/stage,
Table II); hierarchical global keeps ~347 KB/stage with ~5 MB per
aggregator; aggregators keep a light ~60 KB/stage record (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

__all__ = ["CostModel", "FRONTERA_COST_MODEL"]

_KB = 1024
_MB = 1024 * 1024


@dataclass(frozen=True)
class CostModel:
    """Every constant the simulated control plane charges against.

    All times in seconds, sizes in bytes. See module docstring for the
    taxonomy and calibration provenance.
    """

    # -- wire sizes (bytes) --------------------------------------------------
    request_bytes: int = 40
    metrics_reply_bytes: int = 60
    rule_bytes: int = 117
    ack_bytes: int = 32
    agg_request_bytes: int = 48
    agg_reply_header_bytes: int = 64
    agg_reply_entry_bytes: int = 15
    rule_batch_header_bytes: int = 64
    rule_batch_entry_bytes: int = 45
    agg_ack_bytes: int = 40

    # -- critical-path CPU at a controller that talks directly to stages ----
    tx_request_s: float = 2.5e-6
    rx_reply_s: float = 3.2e-6
    rule_build_s: float = 2.5e-6
    tx_rule_s: float = 4.3e-6
    rx_ack_s: float = 1.0e-6

    # -- compute phase --------------------------------------------------------
    compute_fixed_s: float = 150e-6
    psfa_per_stage_s: float = 2.5e-6
    #: Per-stage compute cost when metrics arrive pre-merged by an
    #: aggregator — cheaper than the flat path (paper Obs. #7).
    psfa_per_stage_hier_s: float = 2.0e-6

    # -- hierarchical-specific critical-path CPU ------------------------------
    agg_merge_s: float = 3.0e-6
    agg_summarize_fixed_s: float = 50e-6
    rx_agg_reply_fixed_s: float = 20e-6
    rx_agg_entry_s: float = 1.3e-6
    rule_build_hier_s: float = 2.6e-6
    batch_unpack_s: float = 3.5e-6
    tx_batch_s: float = 30e-6
    rx_agg_ack_s: float = 10e-6

    # -- background CPU per cycle ---------------------------------------------
    bg_per_stage_direct_s: float = 76e-6
    bg_per_stage_global_hier_s: float = 8.6e-6
    bg_fixed_s: float = 0.0

    # -- stage side -------------------------------------------------------------
    stage_service_s: float = 60e-6
    stage_cpu_per_msg_s: float = 3.0e-6

    # -- memory footprints (bytes) ------------------------------------------------
    global_fixed_mem: int = 50 * _MB
    flat_per_stage_mem: int = 485 * _KB
    hier_per_stage_mem: int = 347 * _KB
    per_agg_mem_at_global: int = 5 * _MB
    agg_fixed_mem: int = 10 * _MB
    agg_per_stage_mem: int = 60 * _KB

    # -- execution granularity ---------------------------------------------------
    #: Messages serialized per CPU burst; models event-loop batching and
    #: bounds simulator event counts without changing totals.
    send_chunk: int = 64

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and value < 0:
                raise ValueError(f"cost model field {f.name} negative: {value}")
        if self.send_chunk < 1:
            raise ValueError(f"send_chunk must be >= 1: {self.send_chunk}")

    # -- convenience -----------------------------------------------------------
    def scaled(self, cpu_factor: float = 1.0, net_factor: float = 1.0) -> "CostModel":
        """A copy with all CPU costs (and/or wire sizes) scaled.

        Used by the ablation benches to explore slower controllers or
        fatter payloads without redefining every constant.
        """
        if cpu_factor <= 0 or net_factor <= 0:
            raise ValueError("scale factors must be positive")
        updates: Dict[str, float] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_s"):
                updates[f.name] = value * cpu_factor
            elif f.name.endswith("_bytes"):
                updates[f.name] = int(round(value * net_factor))
        return replace(self, **updates)

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Default model, calibrated to the paper's Frontera measurements.
FRONTERA_COST_MODEL = CostModel()
