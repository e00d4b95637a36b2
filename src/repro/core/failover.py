"""Hot-standby failover for the global controller (paper §VI).

A dead global controller does not take storage down (stages keep
enforcing their last rules) but QoS adaptation stops until recovery. The
remedy is a **hot standby**, whose takeover rule is :class:`StandbyRule`,
free of I/O and clocks: the primary streams heartbeats carrying its epoch;
once the stream closes or falls silent for ``missed_heartbeats``
intervals, the standby fences the primary (it stops) and resumes at
:func:`resume_epoch` of the highest epoch the primary used, so stages'
staleness checks accept its rules and discard late ones. The
QoS-adaptation gap (:attr:`FailoverEvent.gap_s`) is bounded by
``heartbeat_interval_s * missed_heartbeats`` plus one control cycle.

Two shells drive the rule: :class:`HotStandby` as DES processes, and
:class:`repro.live.failover.LiveHotStandby` as asyncio tasks. While
passive, the standby costs its heartbeat traffic and connection slots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Generator, Optional, Tuple

from repro.core.controller import GlobalController
from repro.simnet.engine import Environment, Interrupt, Process

__all__ = ["FailoverEvent", "HotStandby", "StandbyRule", "attach_standby", "resume_epoch"]

#: Epoch slack added on take-over to dominate any in-flight primary rules.
EPOCH_SLACK = 1


def resume_epoch(last_known_epoch: int) -> int:
    """Epoch floor a successor controller resumes at, for a standby's
    takeover and a boot from the durable store alike: the first epoch
    it *issues* (a controller increments before computing) strictly
    dominates anything the predecessor could have put on the wire."""
    if last_known_epoch < 0:
        raise ValueError(f"last_known_epoch must be >= 0: {last_known_epoch}")
    return last_known_epoch + EPOCH_SLACK


@dataclass(frozen=True)
class FailoverEvent:
    """A take-over: when the standby decided, the epochs either side, and
    ``gap_s``, the QoS-adaptation gap from the primary's loss (its stream
    closing, else its last beat) to the end of the standby's first cycle."""

    time: float
    last_primary_epoch: int
    resumed_epoch: int
    gap_s: float


class StandbyRule:
    """The standby's takeover decision, as a pure state machine.

    A shell feeds it what a standby on another node sees of the primary —
    each heartbeat (:meth:`beat`), the stream closing (:meth:`lost`) —
    with times on the shell's clock, and asks :meth:`due` at each
    watchdog tick. It never looks at the primary itself.
    """

    def __init__(self, heartbeat_interval_s: float, missed_heartbeats: int) -> None:
        if heartbeat_interval_s <= 0:
            raise ValueError(f"heartbeat interval must be positive: {heartbeat_interval_s}")
        if missed_heartbeats < 1:
            raise ValueError(f"missed_heartbeats must be >= 1: {missed_heartbeats}")
        self.interval_s = float(heartbeat_interval_s)
        self.budget_s = self.interval_s * int(missed_heartbeats)
        #: When the silence clock last restarted (:meth:`watch`, a beat).
        self.last_beat_at: Optional[float] = None
        self.last_epoch = 0
        self.beats = 0
        self.lost_at: Optional[float] = None
        #: ``(time, last primary epoch)`` once the standby has taken over.
        self.taken: Optional[Tuple[float, int]] = None

    def watch(self, now: float) -> None:
        """The run begins: start the silence clock."""
        self.last_beat_at = now

    def beat(self, now: float, epoch: int) -> None:
        self.last_beat_at = now
        self.last_epoch = max(self.last_epoch, epoch)
        self.beats += 1

    def lost(self, now: float) -> None:
        """The heartbeat stream closed. Once the standby took over, the
        close is its own fence's doing, not the primary's loss."""
        if self.lost_at is None and self.taken is None:
            self.lost_at = now

    def due(self, now: float) -> bool:
        """Take over now: the stream closed, or the beats fell silent."""
        if self.taken is not None or self.last_beat_at is None:
            return False
        return self.lost_at is not None or now - self.last_beat_at >= self.budget_s

    def take_over(self, now: float, fenced_epoch: int) -> int:
        """Decide; returns the epoch the standby resumes at, above every
        beat's and ``fenced_epoch``, the primary's once the fence stopped it."""
        last = max(self.last_epoch, fenced_epoch)
        self.taken = (now, last)
        return resume_epoch(last)

    def event(self, first_cycle_end: float) -> FailoverEvent:
        """The takeover's record, once the standby's first cycle ended."""
        time, last = self.taken
        origin = self.lost_at if self.lost_at is not None else self.last_beat_at
        return FailoverEvent(time, last, resume_epoch(last) + 1, first_cycle_end - origin)


class HotStandby:
    """:class:`StandbyRule` as DES processes — the primary's heartbeat,
    the standby's watchdog — over two fully built :class:`GlobalController`\\ s.
    The standby sends no collect/enforce traffic until it takes over."""

    def __init__(
        self,
        env: Environment,
        primary: GlobalController,
        standby: GlobalController,
        heartbeat_interval_s: float = 0.05,
        missed_heartbeats: int = 3,
    ) -> None:
        if primary is standby:
            raise ValueError("primary and standby must be distinct controllers")
        self.rule = StandbyRule(heartbeat_interval_s, missed_heartbeats)
        self.env = env
        self.primary = primary
        self.standby = standby
        self.failover: Optional[FailoverEvent] = None
        self._snapshot: Optional[dict] = None
        self._procs: Tuple[Process, ...] = ()

    def start(self, n_cycles: int) -> Process:
        """Run the plane to ``n_cycles`` cycles in all — both controllers',
        any run before this call included — with failover protection.
        Returns the watchdog process, which finishes with the run."""
        if n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1: {n_cycles}")
        self.rule.watch(self.env.now)
        remaining = n_cycles - self.total_cycles()
        if remaining > 0:
            primary = self.primary.run_cycles(remaining)
            # A killed primary fails its process: observed, not raised.
            primary.callbacks.append(lambda _ev: None)
            self._procs = (primary, self.env.process(self._heartbeat(primary), name="hb"))
        return self.env.process(self._watchdog(n_cycles), name="standby-watchdog")

    def kill_primary(self) -> None:
        """Crash the primary (failure injection): its cycles and heartbeats
        stop, and the standby sees its heartbeat stream close."""
        self._stop_primary("killed")
        self.rule.lost(self.env.now)

    @property
    def active_controller(self) -> GlobalController:
        """Whoever is currently (or was last) driving control cycles."""
        return self.standby if self.standby.cycles else self.primary

    def total_cycles(self) -> int:
        return len(self.primary.cycles) + len(self.standby.cycles)

    def _stop_primary(self, cause: str) -> bool:
        """Interrupt the primary's processes; whether any was running."""
        running = [proc for proc in self._procs if proc.is_alive]
        for proc in running:
            proc.interrupt(cause)
        return bool(running)

    def _heartbeat(self, primary: Process) -> Generator:
        """Primary-side heartbeat emission (piggybacks the live epoch)."""
        try:
            while primary.is_alive:
                yield self.env.timeout(self.rule.interval_s)
                if not primary.is_alive:
                    return
                # Charged as plain state, not via the network: standby and
                # primary keep a dedicated control channel whose cost is
                # negligible next to cycle traffic.
                self.rule.beat(self.env.now, self.primary.epoch)
                # The beat carries the latest demand columns, so a takeover
                # keeps the primary's reservations for partitions that are
                # dark now — without them the standby would re-allocate a
                # dead partition's share while its zombie stages still
                # enforce old rules.
                self._snapshot = self.primary.columns.to_arrays()
                self.primary.host.charge(1e-6)
        except Interrupt:
            return

    def _watchdog(self, n_cycles: int) -> Generator:
        """Standby-side monitor: ask the rule each interval, take over."""
        env, rule = self.env, self.rule
        while True:
            yield env.timeout(rule.interval_s)
            if self.total_cycles() >= n_cycles:
                return
            if not rule.due(env.now):
                continue
            # The fence: a silent but running primary stops before the
            # standby resumes (its interrupt lands within this instant).
            if self._stop_primary("fenced"):
                yield env.timeout(0)
                if self.total_cycles() >= n_cycles:
                    return  # its last cycle ended in this very instant
            remaining = n_cycles - self.total_cycles()
            self.standby.epoch = rule.take_over(env.now, self.primary.epoch)
            if self._snapshot is not None:
                self.standby.columns.adopt(self._snapshot)
            yield self.standby.run_cycles(remaining)
            first = self.standby.cycles[0]
            self.failover = rule.event(first.started_at + first.total_s)
            return


def attach_standby(plane) -> GlobalController:
    """Add a hot-standby global controller to a built plane, ready to be
    wrapped in a :class:`HotStandby` with ``plane.global_controller``.

    The standby runs on its own node with its own connection to each of
    the primary's top-level children, stage or aggregator (both answer
    over whichever connection a request arrived on), so after a takeover
    it drives the same tree — a crashed aggregator's partition riding at
    last-known demand through its collect timeout.
    """
    standby = plane._global_controller("standby-ctrl", "standby-controller", name="standby")
    network, endpoint = plane.cluster.network, standby.endpoint
    stage_jobs = {s.stage_id: s.job_id for s in plane.stages}
    endpoints = {s.stage_id: s.endpoint for s in plane.stages}
    endpoints.update((a.agg_id, a.endpoint) for a in plane.aggregators)
    for child in plane.global_controller.children:
        connection = network.connect(endpoint, endpoints[child.child_id])
        channel = replace(child, connection=connection, endpoint=endpoint)
        if child.kind == "stage":
            standby.add_stage(child.child_id, stage_jobs[child.child_id], channel)
        else:
            standby.add_aggregator(channel, stage_jobs)
    return standby
