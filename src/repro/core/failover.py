"""Hot-standby failover for the global controller (paper §VI).

The paper's Discussion flags control-plane dependability as unexplored:
a dead global controller does not take storage down (stages keep
enforcing their last rules) but QoS adaptation stops until recovery.
This module implements the standard remedy — a **hot standby**:

* the primary global controller emits a heartbeat (carrying its latest
  epoch) to the standby every ``heartbeat_interval_s``;
* the standby, which holds its *own pre-established connections* to the
  same children, monitors heartbeats; after ``missed_heartbeats`` silent
  intervals it declares the primary dead and takes over, resuming control
  cycles from an epoch safely above the primary's last one (so stages'
  staleness checks accept its rules and discard any late primary rules);
* take-over time — the QoS-adaptation gap — is therefore bounded by
  ``heartbeat_interval_s * missed_heartbeats`` plus one control cycle.

The standby's extra cost while passive is just the heartbeat traffic and
its connection slots, quantifying the §VI dependability trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.core.controller import GlobalController
from repro.simnet.engine import Environment, Interrupt, Process

__all__ = [
    "FailoverEvent",
    "HotStandby",
    "attach_flat_standby",
    "attach_hier_standby",
    "resume_epoch",
]

#: Heartbeat wire size (tiny control message).
HEARTBEAT_BYTES = 24
#: Epoch slack added on take-over to dominate any in-flight primary rules.
EPOCH_SLACK = 1


def resume_epoch(last_known_epoch: int) -> int:
    """Epoch floor a successor controller resumes at.

    One rule for both recovery paths — hot-standby takeover (live
    primary's last heartbeat epoch) and boot-from-store restart (the
    durable store's highest leased/recorded epoch): resume at
    ``last_known + EPOCH_SLACK`` so the first *issued* epoch (the
    controller increments before computing) strictly dominates anything
    the predecessor could have put on the wire.
    """
    if last_known_epoch < 0:
        raise ValueError(f"last_known_epoch must be >= 0: {last_known_epoch}")
    return last_known_epoch + EPOCH_SLACK


@dataclass(frozen=True)
class FailoverEvent:
    """Record of a take-over decision."""

    time: float
    last_primary_epoch: int
    resumed_epoch: int


class HotStandby:
    """Couples a primary and a standby :class:`GlobalController`.

    Both controllers must be fully built (children registered) before
    :meth:`start`. The standby stays passive — no collect/enforce traffic
    — until the primary's heartbeats stop.
    """

    def __init__(
        self,
        env: Environment,
        primary: GlobalController,
        standby: GlobalController,
        heartbeat_interval_s: float = 0.05,
        missed_heartbeats: int = 3,
    ) -> None:
        if heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat interval must be positive: {heartbeat_interval_s}"
            )
        if missed_heartbeats < 1:
            raise ValueError(
                f"missed_heartbeats must be >= 1: {missed_heartbeats}"
            )
        if primary is standby:
            raise ValueError("primary and standby must be distinct controllers")
        self.env = env
        self.primary = primary
        self.standby = standby
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.missed_heartbeats = int(missed_heartbeats)
        self.last_heartbeat_at: Optional[float] = None
        self.last_primary_epoch = 0
        self._state_snapshot: Optional[dict] = None
        self.failover: Optional[FailoverEvent] = None
        self.heartbeats_sent = 0
        self._hb_proc: Optional[Process] = None
        self._watch_proc: Optional[Process] = None
        self._primary_proc: Optional[Process] = None
        self._standby_cycles = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self, n_cycles: int) -> Process:
        """Run the primary for ``n_cycles`` with failover protection.

        Returns the watchdog process, which finishes when either the
        primary completes all cycles or the standby has completed the
        remaining cycles after a take-over.
        """
        if n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1: {n_cycles}")
        self.last_heartbeat_at = self.env.now
        self._primary_proc = self.primary.run_cycles(n_cycles)
        # Observe the primary's termination so a crash (failed process
        # event) is handled by the watchdog instead of aborting the run.
        self._primary_proc.callbacks.append(lambda _ev: None)
        self._hb_proc = self.env.process(self._heartbeat(), name="hb")
        self._watch_proc = self.env.process(
            self._watchdog(n_cycles), name="standby-watchdog"
        )
        return self._watch_proc

    def kill_primary(self) -> None:
        """Crash the primary mid-run (failure injection)."""
        if self._primary_proc is not None and self._primary_proc.is_alive:
            self._primary_proc.interrupt("killed")
        if self._hb_proc is not None and self._hb_proc.is_alive:
            self._hb_proc.interrupt("killed")

    @property
    def active_controller(self) -> GlobalController:
        """Whoever is currently (or was last) driving control cycles."""
        return self.standby if self.failover is not None else self.primary

    def total_cycles(self) -> int:
        """Cycles completed across primary + standby."""
        return len(self.primary.cycles) + len(self.standby.cycles)

    # -- internals --------------------------------------------------------------
    def _heartbeat(self) -> Generator:
        """Primary-side heartbeat emission (piggybacks the live epoch)."""
        try:
            while self._primary_proc is not None and self._primary_proc.is_alive:
                yield self.env.timeout(self.heartbeat_interval_s)
                if self._primary_proc is None or not self._primary_proc.is_alive:
                    return
                # Charged as plain state, not via the network: standby and
                # primary keep a dedicated control channel whose cost is
                # negligible next to cycle traffic.
                self.last_heartbeat_at = self.env.now
                self.last_primary_epoch = self.primary.epoch
                # The heartbeat carries a state snapshot (the latest demand
                # columns, as flat arrays), so a takeover preserves the
                # primary's reservations for partitions that are currently
                # dark — without it the standby would re-allocate a dead
                # partition's share to the survivors while its zombie
                # stages still enforce old rules.
                self._state_snapshot = self.primary.columns.to_arrays()
                self.heartbeats_sent += 1
                self.primary.host.charge(1e-6)
        except Interrupt:
            return

    def _watchdog(self, n_cycles: int) -> Generator:
        """Standby-side monitor: detect silence, take over."""
        silence_budget = self.heartbeat_interval_s * self.missed_heartbeats
        while True:
            yield self.env.timeout(self.heartbeat_interval_s)
            proc = self._primary_proc
            finished_cleanly = proc is not None and proc.triggered and proc.ok
            if finished_cleanly:
                return
            crashed = proc is not None and proc.triggered and not proc.ok
            silent_for = self.env.now - (self.last_heartbeat_at or 0.0)
            if not crashed and silent_for < silence_budget:
                continue

            remaining = n_cycles - len(self.primary.cycles)
            if remaining <= 0:
                return
            # Resume above the highest epoch the primary is known to have
            # used, so stages accept standby rules and discard any late
            # primary traffic via their staleness checks.
            last_known = max(self.last_primary_epoch, self.primary.epoch)
            resume_epoch = last_known + EPOCH_SLACK
            if self._state_snapshot is not None:
                self.standby.columns.adopt(self._state_snapshot)
            self.failover = FailoverEvent(
                time=self.env.now,
                last_primary_epoch=last_known,
                resumed_epoch=resume_epoch + 1,
            )
            self.standby.epoch = resume_epoch
            yield self.standby.run_cycles(remaining)
            return


def attach_flat_standby(plane) -> GlobalController:
    """Add a hot-standby global controller to a built flat plane.

    The standby runs on its own compute node with its own pre-established
    connection to every stage (stages happily serve multiple controller
    connections; replies go back over whichever connection a request
    arrived on). Returns the standby controller, ready to be wrapped in a
    :class:`HotStandby` together with ``plane.global_controller``.
    """
    from repro.core.controller import ChildChannel

    config = plane.config
    cluster = plane.cluster
    host = plane._controller_host("standby-ctrl", system_slots=0)
    endpoint = cluster.network.attach(host, "standby-controller")
    standby = GlobalController(
        plane.env,
        host,
        endpoint,
        policy=config.policy,
        algorithm=config.algorithm,
        costs=config.costs,
        collect_timeout_s=config.collect_timeout_s,
        name="standby",
    )
    for stage in plane.stages:
        conn = cluster.network.connect(endpoint, stage.endpoint)
        standby.add_stage(
            stage.stage_id,
            stage.job_id,
            ChildChannel(stage.stage_id, "stage", conn, endpoint),
        )
    return standby


def attach_hier_standby(plane) -> GlobalController:
    """Add a hot-standby *global* controller to a built hierarchical plane.

    The standby pre-establishes its own connection to every **top-level**
    aggregator (aggregators serve requests over whichever upstream
    connection they arrive on), so after a take-over it drives the same
    tree the primary did — including any aggregator that is currently
    crashed, whose partition simply rides at last-known demand through
    the standby's collect timeout. Returns the standby, ready to be
    wrapped in a :class:`HotStandby` with ``plane.global_controller``.
    """
    from repro.core.controller import ChildChannel

    config = plane.config
    cluster = plane.cluster
    primary = plane.global_controller
    host = plane._controller_host("standby-ctrl")
    endpoint = cluster.network.attach(host, "standby-controller")
    standby = GlobalController(
        plane.env,
        host,
        endpoint,
        policy=config.policy,
        algorithm=config.algorithm,
        costs=config.costs,
        collect_timeout_s=config.collect_timeout_s,
        name="standby",
    )
    stage_jobs = {s.stage_id: s.job_id for s in plane.stages}
    top_level = {
        c.child_id: c for c in primary.children if c.kind == "aggregator"
    }
    for agg in plane.aggregators:
        channel = top_level.get(agg.agg_id)
        if channel is None:
            continue  # sub-aggregator of a 3-level tree; not a direct child
        conn = cluster.network.connect(endpoint, agg.endpoint)
        standby.add_aggregator(
            ChildChannel(
                agg.agg_id,
                "aggregator",
                conn,
                endpoint,
                stage_ids=channel.stage_ids,
            ),
            stage_jobs,
        )
    return standby
