"""Chaos harness: seeded fault schedules + per-cycle invariant checking.

The dependability counterpart of the scaling benchmarks (paper §VI): a
control plane that only survives the happy path has not been tested at
all. This package draws a reproducible fault schedule from a seed
(:mod:`repro.chaos.schedule`), runs it against the simulated plane or
the live planes the package ships (:mod:`repro.chaos.runner`: one
per-cycle driver over ``LiveHierPlane`` and ``ControlService``, so
aggregator faults cross their forked tier), and asserts the tentpole
invariants after every control cycle (:mod:`repro.chaos.invariants`):
enforced allocations never exceed capacity, applied epochs never move
backwards, orphaned stages re-home within the configured bound, and a
standby takeover stays inside the heartbeat-budget gap.

Full-restart schedules (PR 7) add the durable-store invariant: kill -9
the *whole* plane mid-schedule, restart from the store, and assert the
rebooted controller never issues a rule epoch at or below its last
durable epoch (``repro chaos --plane live --schedule full-restart``).

Overload schedules (PR 8) turn tenants adversarial instead of killing
processes: demand liars, noisy neighbors and metadata storms run while
a client floods the REST front door at 10x the admission rate, and the
invariants flip to graceful degradation — honest stages keep their
weighted fair share, per-session outbound queues stay bounded, and
``/healthz`` answers throughout (``repro chaos --schedule overload``).

CLI: ``repro chaos --plane live --design hier --seed 7`` (exit 1 on any
violation; ``--report-out`` writes the JSON report, the CI artifact).
"""

from repro.chaos.invariants import ChaosReport, InvariantChecker, Violation
from repro.chaos.runner import (
    run_chaos_live,
    run_chaos_overload,
    run_chaos_restart,
    run_chaos_sim,
)
from repro.chaos.schedule import (
    ChaosSchedule,
    FaultAction,
    generate_overload_schedule,
    generate_restart_schedule,
    generate_schedule,
)

__all__ = [
    "ChaosReport",
    "ChaosSchedule",
    "FaultAction",
    "InvariantChecker",
    "Violation",
    "generate_overload_schedule",
    "generate_restart_schedule",
    "generate_schedule",
    "run_chaos_live",
    "run_chaos_overload",
    "run_chaos_restart",
    "run_chaos_sim",
]
