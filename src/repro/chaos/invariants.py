"""Per-cycle invariant checks and the chaos report.

The harness asserts four properties after every control cycle, whatever
faults the schedule injected (tentpole invariants, paper §VI):

* **capacity** — the sum of limits the stages actually enforce never
  exceeds the policy's allocatable capacity (within float tolerance).
  This is the property the orphan-demand reservation exists to protect:
  a dead aggregator's stages keep enforcing their last rules, so their
  share must stay reserved until they re-home.
* **epoch monotonicity** — a stage's applied epoch never decreases; late
  rules from dead controllers are fenced, takeovers jump *forward* via
  ``EPOCH_SLACK``.
* **re-home bound** — no stage stays orphaned longer than
  ``rehome_bound_cycles`` cycles after its aggregator was declared dead.
* **adaptation gap** — after a primary kill, the standby's measured gap
  is ≤ ``heartbeat_interval_s × missed_heartbeats`` + one control cycle.
* **catch-up** (simulated hierarchy) — a stage whose own fault and
  whose aggregator's fault have both cleared holds the current epoch's
  rule within ``CATCH_UP_CYCLES`` cycles: a fault may degrade the cycles
  it spans, not wedge its partition after it is gone.
* **resume floor** (full-restart schedules, PR 7) — a controller
  rebooted from the durable store never issues a rule epoch at or below
  the store's last durable epoch; otherwise stage-side fencing would
  silently discard every post-restart rule.

Overload schedules (PR 8) add three more:

* **honest share** — every honest (non-adversarial) stage's allocation
  stays at or above a fraction of its weighted fair entitlement
  ``min(demand, capacity × w / W)``, whatever the demand liars report.
* **queue bound** — no controller/aggregator session's pending outbound
  bytes exceed the configured outbox bound (plus a small non-sheddable
  residue allowance); backpressure must shed, not buffer.
* **healthz** — the liveness probe stays answerable under flood: its
  p99 latency is bounded and no probe fails outright.

Violations are collected, not raised: a chaos run always completes and
reports everything it saw (:class:`ChaosReport`, JSON-serialisable for
the CI artifact).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = ["Violation", "ChaosReport", "InvariantChecker"]

#: Relative slack for float comparisons against capacity.
CAPACITY_EPS = 1e-6
#: Clean cycles a stage gets to reach the current epoch once its faults
#: have cleared.
CATCH_UP_CYCLES = 2


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the cycle that exposed it."""

    cycle: int
    #: One of "capacity" | "epoch" | "catch-up" | "rehome" | "gap"
    #: | "resume" | "share" | "queue" | "healthz" | "shed".
    invariant: str
    detail: str


@dataclass
class ChaosReport:
    """Outcome of one chaos run: schedule echo + violations + counters."""

    seed: int
    plane: str  # "sim" | "live"
    design: str  # "hier" | "flat"
    n_cycles: int
    n_stages: int
    n_aggregators: int
    actions: List[Dict] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    checks: int = 0
    cycles_completed: int = 0
    cycles_degraded: int = 0
    rehomes: int = 0
    takeovers: int = 0
    #: Full-plane kill/restart round-trips completed (restart schedules).
    restarts: int = 0
    gap_s: Optional[float] = None
    #: Overload-schedule counters: offered/admitted/shed HTTP requests
    #: during the flood, and the liveness probe's p99 under it.
    requests_flooded: int = 0
    requests_admitted: int = 0
    requests_shed: int = 0
    healthz_p99_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        data = asdict(self)
        data["ok"] = self.ok
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"chaos[{self.plane}/{self.design}] seed={self.seed} "
            f"cycles={self.cycles_completed}/{self.n_cycles} "
            f"faults={len(self.actions)} degraded={self.cycles_degraded} "
            f"rehomes={self.rehomes} takeovers={self.takeovers} "
            f"restarts={self.restarts} checks={self.checks}: {verdict}"
        )


class InvariantChecker:
    """Stateful per-cycle checker; feed it after every completed cycle."""

    def __init__(
        self,
        capacity_iops: float,
        rehome_bound_cycles: int = 3,
    ) -> None:
        if capacity_iops <= 0:
            raise ValueError(f"capacity must be positive: {capacity_iops}")
        if rehome_bound_cycles < 1:
            raise ValueError(
                f"rehome_bound_cycles must be >= 1: {rehome_bound_cycles}"
            )
        self.capacity_iops = float(capacity_iops)
        self.rehome_bound_cycles = int(rehome_bound_cycles)
        self.violations: List[Violation] = []
        self.checks = 0
        self._last_epoch: Dict[str, int] = {}
        self._orphan_age: Dict[str, int] = {}
        self._clean_for: Dict[str, int] = {}

    # -- per-cycle checks ----------------------------------------------------
    def check_capacity(self, cycle: int, limits: Mapping[str, float]) -> None:
        """Sum of *enforced* limits must fit the allocatable capacity."""
        self.checks += 1
        total = sum(limits.values())
        bound = self.capacity_iops * (1.0 + CAPACITY_EPS)
        if total > bound:
            self.violations.append(
                Violation(
                    cycle,
                    "capacity",
                    f"enforced {total:.3f} iops > capacity "
                    f"{self.capacity_iops:.3f} across {len(limits)} stages",
                )
            )

    def check_epochs(self, cycle: int, epochs: Mapping[str, int]) -> None:
        """A stage's applied epoch never moves backwards."""
        self.checks += 1
        for stage_id, epoch in epochs.items():
            prev = self._last_epoch.get(stage_id)
            if prev is not None and epoch < prev:
                self.violations.append(
                    Violation(
                        cycle,
                        "epoch",
                        f"{stage_id} applied epoch went {prev} -> {epoch}",
                    )
                )
            self._last_epoch[stage_id] = max(epoch, prev or 0)

    def check_caught_up(
        self,
        cycle: int,
        epochs: Mapping[str, int],
        current_epoch: int,
        faulted: Iterable[str],
    ) -> None:
        """A stage clear of faults reaches the current epoch in time.

        ``epochs`` holds every stage's applied epoch (0: no rule yet),
        ``faulted`` the stages whose own fault or whose aggregator's
        fault was active this cycle. Once a stage has been clear for
        ``CATCH_UP_CYCLES`` cycles it must hold ``current_epoch``.
        """
        self.checks += 1
        down = set(faulted)
        for stage_id, epoch in epochs.items():
            if stage_id in down:
                self._clean_for[stage_id] = 0
                continue
            clean = self._clean_for.get(stage_id, 0) + 1
            self._clean_for[stage_id] = clean
            if clean >= CATCH_UP_CYCLES and epoch != current_epoch:
                self.violations.append(
                    Violation(
                        cycle,
                        "catch-up",
                        f"{stage_id} at epoch {epoch} (current "
                        f"{current_epoch}), {clean} cycles after its "
                        "faults cleared",
                    )
                )

    def check_orphans(self, cycle: int, orphans: Iterable[str]) -> None:
        """No stage stays orphaned past the configured re-home bound."""
        self.checks += 1
        current = set(orphans)
        for stage_id in list(self._orphan_age):
            if stage_id not in current:
                del self._orphan_age[stage_id]
        for stage_id in current:
            age = self._orphan_age.get(stage_id, 0) + 1
            self._orphan_age[stage_id] = age
            if age > self.rehome_bound_cycles:
                self.violations.append(
                    Violation(
                        cycle,
                        "rehome",
                        f"{stage_id} orphaned for {age} cycles "
                        f"(bound {self.rehome_bound_cycles})",
                    )
                )

    def check_resume(
        self, cycle: int, issued_epoch: int, floor_epoch: int
    ) -> None:
        """A restarted controller's issued epochs stay above the floor.

        ``floor_epoch`` is the durable store's highest leased/recorded
        epoch at the moment of the kill; every epoch the rebooted
        controller issues must be strictly greater, or stage fencing
        (``epoch > applied_epoch``) discards its rules forever.
        """
        self.checks += 1
        if issued_epoch <= floor_epoch:
            self.violations.append(
                Violation(
                    cycle,
                    "resume",
                    f"issued epoch {issued_epoch} <= durable floor "
                    f"{floor_epoch} after restart",
                )
            )

    def check_honest_share(
        self,
        cycle: int,
        allocations: Mapping[str, float],
        demands: Mapping[str, float],
        weights: Mapping[str, float],
        adversaries: Iterable[str],
        fraction: float = 0.9,
    ) -> None:
        """Honest stages keep ≥ ``fraction`` of their weighted fair share.

        Entitlement for stage *i* is ``min(demand_i, capacity × w_i / W)``
        — a stage cannot claim more than it asked for, nor more than its
        weighted slice of capacity. Adversarial stages (the liars and
        flooders named by the schedule) are excluded: the invariant is
        about what their behaviour does to *everyone else*.
        """
        self.checks += 1
        hostile = set(adversaries)
        total_weight = sum(weights.values())
        if total_weight <= 0:
            return
        for stage_id, demand in demands.items():
            if stage_id in hostile or stage_id not in allocations:
                continue
            weight = weights.get(stage_id, 0.0)
            entitled = min(
                demand, self.capacity_iops * weight / total_weight
            )
            floor = fraction * entitled
            granted = allocations[stage_id]
            if granted < floor - CAPACITY_EPS * self.capacity_iops:
                self.violations.append(
                    Violation(
                        cycle,
                        "share",
                        f"honest {stage_id} granted {granted:.1f} iops < "
                        f"{fraction:.0%} of entitlement {entitled:.1f}",
                    )
                )

    def check_queue_bounds(
        self,
        cycle: int,
        pending_bytes: Mapping[str, int],
        bound_bytes: int,
        residue_bytes: int = 4096,
    ) -> None:
        """No session's pending outbound queue exceeds the outbox bound.

        ``residue_bytes`` allows for non-sheddable control frames (acks,
        welcome, partition updates) that a bounded outbox must never
        drop and may briefly carry past the sheddable bound.
        """
        self.checks += 1
        limit = bound_bytes + residue_bytes
        for peer_id, pending in pending_bytes.items():
            if pending > limit:
                self.violations.append(
                    Violation(
                        cycle,
                        "queue",
                        f"{peer_id} pending outbound {pending} B > "
                        f"bound {bound_bytes} B (+{residue_bytes} residue)",
                    )
                )

    def check_healthz(
        self,
        cycle: int,
        p99_s: Optional[float],
        bound_s: float,
        probes: int,
        failures: int,
    ) -> None:
        """The liveness probe stayed answerable throughout the flood."""
        self.checks += 1
        if probes == 0:
            self.violations.append(
                Violation(cycle, "healthz", "no healthz probes completed")
            )
            return
        if failures > 0:
            self.violations.append(
                Violation(
                    cycle,
                    "healthz",
                    f"{failures}/{probes} healthz probes failed under flood",
                )
            )
        if p99_s is not None and p99_s > bound_s:
            self.violations.append(
                Violation(
                    cycle,
                    "healthz",
                    f"healthz p99 {p99_s:.3f}s > bound {bound_s:.3f}s",
                )
            )

    def check_gap(self, cycle: int, gap_s: float, bound_s: float) -> None:
        """Measured takeover gap must respect the heartbeat-budget bound."""
        self.checks += 1
        if gap_s > bound_s:
            self.violations.append(
                Violation(
                    cycle,
                    "gap",
                    f"adaptation gap {gap_s:.3f}s > bound {bound_s:.3f}s",
                )
            )
