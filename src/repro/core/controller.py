"""Global and aggregator controller state machines.

These are the actors of the paper's two control-plane designs:

* :class:`GlobalController` — runs the feedback loop (collect → compute →
  enforce) over its children. In the **flat** design the children are
  data-plane stages (Fig. 2); in the **hierarchical** design they are
  :class:`AggregatorController` instances (Fig. 3).
* :class:`AggregatorController` — the extra control level: fans collect
  requests out to its stage partition, lands the replies in its
  per-slot demand arrays and ships them upstream as one row-form report,
  and turns a rule batch's limit vectors into per-stage rule messages.
  With ``decision_offload`` (paper §VI) it instead receives a capacity
  *budget* (one per axis under a differentiated policy) and runs the
  brain locally over its partition's jobs.

Both controllers charge every protocol step to their host through the
:class:`~repro.core.costs.CostModel`, so cycle latency, phase breakdown,
CPU %, memory, and NIC throughput all emerge from the simulation.

Rows, not records, on the trunk
-------------------------------
Both controllers lay their children out in *slots* in a
:class:`~repro.core.slots.SlotLedger` — the one the live fans keep
too: a stage child holds one slot, an aggregator child the span of its
partition — its channel's ``stage_ids``, which is the aggregator's own
order. Per-slot state follows its channel across a relayout, so a stage
added between cycles starts with nothing shipped to it.
What the controllers' base, :class:`_Fan`, keeps beside it is the DES
routing and plumbing: a reply lands in the slots
of its sender's endpoint name, so the trunk carries no stage ids — an
:class:`~repro.core.metrics.AggregatedMetrics` is the partition's data
and metadata vectors plus which slots answered, a rule batch one limit
vector per axis. The global controller scatters the answered slots into
its :class:`~repro.core.columnar.StageColumns` with the ledger's one
``observe_rows`` (a silent slot is not observed and counts in
``n_missing``), gathers the compute's limits back into slots and ships
by the ledger's changed-only verdict; an aggregator sends each stage its
rule as ``(epoch, data_limit, metadata_limit)``, checked as an
:class:`~repro.core.rules.EnforcementRule` would check it, and no
controller builds a rule record in a cycle.
``latest_metrics``, ``latest_rules`` and ``latest_reports`` are views
built on demand from the columns and the ledger.

Message protocol (kind, payload):

=================  ==========================================  ===========
kind               payload                                     direction
=================  ==========================================  ===========
collect_req        epoch                                       ctrl → stage
metrics_reply      (epoch, data_iops, metadata_iops)           stage → ctrl
rule               (epoch, data_limit, metadata_limit)         ctrl → stage
rule_ack           epoch                                       stage → ctrl
agg_collect_req    epoch                                       global → agg
agg_metrics_reply  (epoch, AggregatedMetrics)                  agg → global
rule_batch         (epoch, data limits, metadata limits)       global → agg
batch_ack          epoch                                       agg → global
budget_grant       (epoch, data budget, metadata budget)       global → agg
budget_ack         epoch                                       agg → global
=================  ==========================================  ===========

A rule batch's vectors are read-only ``float64`` arrays, one entry per
slot of the aggregator's order (metadata ``inf``: unlimited). A budget
grant's metadata budget is ``None`` under an undifferentiated policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.algorithms.base import ControlAlgorithm
from repro.core.algorithms.psfa import PSFA
from repro.core.compute import GlobalCompute, partition_allocations
from repro.core.costs import CostModel, FRONTERA_COST_MODEL
from repro.core.cycle import ControlCycle
from repro.core.metrics import AggregatedMetrics, StageMetrics
from repro.core.policies import QoSPolicy
from repro.core.rules import EnforcementRule
from repro.core.slots import SlotLedger
from repro.obs.spans import NullSpanTracer
from repro.simnet.engine import Environment, Process
from repro.simnet.node import SimHost
from repro.simnet.transport import Connection, Endpoint

__all__ = ["AggregatorController", "ChildChannel", "GlobalController"]

_INF = float("inf")


def _chunks(seq: List, size: int) -> Iterable[List]:
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


@dataclass(eq=False, slots=True)
class ChildChannel:
    """A controller's link to one child (stage or sub-controller); one
    object per link, so it is its own identity (a slot ledger's key)."""

    child_id: str
    kind: str  # "stage" | "aggregator"
    connection: Connection
    endpoint: Endpoint  # our side of the connection
    stage_ids: Tuple[str, ...] = ()

    @property
    def slot_ids(self) -> Tuple[str, ...]:
        """The stage ids this child's slots stand for, in order."""
        return self.stage_ids if self.kind == "aggregator" else (self.child_id,)

    @property
    def n_stages(self) -> int:
        return len(self.stage_ids) if self.kind == "aggregator" else 1


class _Fan:
    """A controller over children laid out in slots: the slot ledger, the
    endpoint-name spans replies are routed by, the phase-start point where
    children added between cycles take effect, and the plumbing — chunked
    charging, sending and reply collection."""

    def __init__(
        self,
        env: Environment,
        host: SimHost,
        endpoint: Endpoint,
        costs: CostModel,
        name: str,
    ) -> None:
        self.env = env
        self.host = host
        self.endpoint = endpoint
        self.costs = costs
        self.name = name
        #: Messages discarded because they arrived for a finished epoch or
        #: with an unexpected kind (late replies after a collect timeout,
        #: duplicates after failover, ...).
        self.stale_messages = 0
        #: Kinds that must never be dropped when they arrive while another
        #: phase is waiting (e.g. peer summaries landing mid-collect in
        #: the coordinated-flat design). They park in ``_deferred`` until
        #: a later :meth:`_await_replies` asks for them.
        self.defer_kinds: set = set()
        self._deferred: List = []
        self.children: List[ChildChannel] = []
        #: The layout the current cycle runs on; children added since
        #: are laid out at the next phase start.
        self.ledger = SlotLedger()
        self._order_stale = False
        #: A child's endpoint name — what a reply's ``sender`` says — to
        #: its ``[first, stop)`` slots, and the children by kind.
        self._span_of: Dict[str, Tuple[int, int]] = {}
        self._stages: List[ChildChannel] = []
        self._aggregators: List[ChildChannel] = []

    def _execute(self, seconds: float):
        """Charge critical-path CPU (serialized on this controller's loop)."""
        return self.host.execute(seconds)

    def _deadline(self) -> Optional[float]:
        """A phase starting now ends by this (``None``: no timeout)."""
        timeout = self.collect_timeout_s
        return self.env.now + timeout if timeout else None

    def _send_all(
        self,
        channels: List[ChildChannel],
        kind: str,
        payloads: Callable[[List[ChildChannel]], Sequence],
        size_bytes: Union[int, Callable[[List[ChildChannel]], Sequence[int]]],
        per_item_cost: float,
    ) -> Generator:
        """Serialize and transmit one message per channel, in chunks.

        Chunking (``costs.send_chunk``) models event-loop batching: the CPU
        burst for a chunk completes before its messages hit the wire, so
        early recipients respond while later sends are still serializing.
        Returns the number of messages sent. Each chunk is one
        :meth:`~repro.simnet.transport.Network.send_many` burst:
        ``payloads(chunk)`` gives its channels' payloads, in order, and
        ``size_bytes`` is every message's size or, callable, gives one
        per channel of the chunk.
        """
        for chunk in _chunks(channels, self.costs.send_chunk):
            yield self._execute(len(chunk) * per_item_cost)
            chunk[0].connection.network.send_many(
                [(ch.connection, ch.endpoint) for ch in chunk],
                kind,
                payloads(chunk),
                size_bytes(chunk) if callable(size_bytes) else size_bytes,
            )
        return len(channels)

    def _await_replies(
        self,
        expected: int,
        epoch: int,
        kind_costs: Mapping[str, float],
        on_message: Optional[Callable[[object], None]] = None,
        deadline: Optional[float] = None,
    ) -> Generator:
        """Receive ``expected`` messages of the given kinds for ``epoch``.

        Messages already queued are drained and charged as one CPU burst,
        modelling a server loop that batches its ready work: the counting
        barrier is ``received``, not one wake-up event per child. A batch
        whose messages are already queued is consumed inline, without a
        recv event round-trip, and the phase deadline is one reusable
        Timeout rather than one per wake-up. Returns the number received
        (short on timeout). ``on_message`` sees each message received
        (``None``: arrival alone counts).
        """
        received = 0
        env = self.env
        inbox = self.endpoint.inbox

        # Consume matching messages parked by earlier phases first.
        if self._deferred:
            ready = [
                m
                for m in self._deferred
                if m.kind in kind_costs
                and (m.payload[0] if isinstance(m.payload, tuple) else m.payload)
                == epoch
            ]
            if ready:
                ready_set = set(map(id, ready))
                self._deferred = [
                    m for m in self._deferred if id(m) not in ready_set
                ]
                yield self._execute(sum(kind_costs[m.kind] for m in ready))
                if on_message is not None:
                    for msg in ready:
                        on_message(msg)
                received += len(ready)

        defer_kinds = self.defer_kinds
        deferred = self._deferred
        get_cost = kind_costs.get
        deadline_ev = None

        while received < expected:
            if inbox.items:
                # Ready work: drain without a recv event round-trip. The
                # deadline check mirrors the blocking path (a phase past
                # its deadline leaves queued messages for the next phase
                # to classify as stale).
                if deadline is not None and deadline - env.now <= 0:
                    break
                batch = inbox.drain()
            else:
                recv_ev = self.endpoint.recv()
                if deadline is None:
                    first = yield recv_ev
                else:
                    remaining = deadline - env.now
                    if remaining <= 0:
                        recv_ev.cancel()
                        break
                    if deadline_ev is None:
                        deadline_ev = env.timeout(remaining)
                    yield env.any_of([recv_ev, deadline_ev])
                    if not recv_ev.triggered:
                        recv_ev.cancel()
                        break
                    first = recv_ev.value
                batch = [first]
                batch.extend(inbox.drain())
            charge = 0.0
            relevant = []
            stale = 0
            for msg in batch:
                cost = get_cost(msg.kind)
                payload = msg.payload
                msg_epoch = payload[0] if isinstance(payload, tuple) else payload
                if cost is not None and msg_epoch == epoch:
                    charge += cost
                    relevant.append(msg)
                elif msg.kind in defer_kinds:
                    deferred.append(msg)
                else:
                    stale += 1
            if stale:
                self.stale_messages += stale
            if charge:
                yield self._execute(charge)
            if on_message is not None:
                for msg in relevant:
                    on_message(msg)
            received += len(relevant)
            # Landed: what nobody kept (parked in ``deferred``, held by
            # ``on_message``) goes back to the engine's message pool.
            relevant = msg = None
            env.recycle(batch)
        return received

    def _add_child(self, channel: ChildChannel) -> None:
        self.children.append(channel)
        self._order_stale = True

    def _relayout(self) -> SlotLedger:
        """Lay the children out again if they changed (call only at the
        start of a phase); per-slot state follows its channel."""
        ledger = self.ledger
        if self._order_stale:
            ledger.relayout([(ch, ch.slot_ids) for ch in self.children])
            self._span_of = {
                ch.connection.peer_of(ch.endpoint).name: ledger.span_of[ch]
                for ch in self.children
            }
            self._stages = [ch for ch in self.children if ch.kind == "stage"]
            self._aggregators = [ch for ch in self.children if ch.kind != "stage"]
            self._order_stale = False
        return ledger

    def _land(self, msg) -> None:
        """A reply writes its sender's slots: a stage's report one slot,
        an aggregator's report its whole span (and which of it answered)."""
        span = self._span_of.get(msg.sender)
        if span is None:
            return
        first, stop = span
        ledger = self.ledger
        payload = msg.payload
        if msg.kind == "metrics_reply":
            # Taken as sent: whoever observes the slot judges the sample.
            ledger.data[first] = payload[1]
            ledger.meta[first] = payload[2]
            ledger.answered[first] = 1
            return
        report = payload[1]
        if report.n_stages == stop - first:
            np.frombuffer(ledger.data)[first:stop] = report.data_iops
            np.frombuffer(ledger.meta)[first:stop] = report.metadata_iops
            np.frombuffer(ledger.answered, dtype=bool)[first:stop] = report.answered

    def _fan_collect(
        self, epoch: int, deadline: Optional[float], merge_s: float = 0.0
    ) -> Generator:
        """The collect fan-out over the current layout, every reply
        landed in its slots; returns ``(received, expected)``. Each stage
        reply costs ``merge_s`` on top of its receive."""
        cm = self.costs
        self.ledger.begin_collect()
        expected = 0
        if self._stages:
            expected += yield from self._send_all(
                self._stages,
                "collect_req",
                lambda chunk: [epoch] * len(chunk),
                cm.request_bytes,
                cm.tx_request_s,
            )
        aggregators = self._aggregators
        # Per-aggregated-reply cost scales with the partition size; model
        # it with the mean partition size (partitions are near-uniform).
        agg_entry_cost = cm.rx_agg_reply_fixed_s
        if aggregators:
            expected += yield from self._send_all(
                aggregators,
                "agg_collect_req",
                lambda chunk: [epoch] * len(chunk),
                cm.agg_request_bytes,
                cm.tx_request_s,
            )
            mean_part = sum(c.n_stages for c in aggregators) / len(aggregators)
            agg_entry_cost += mean_part * cm.rx_agg_entry_s
        got = yield from self._await_replies(
            expected,
            epoch,
            {"metrics_reply": cm.rx_reply_s + merge_s, "agg_metrics_reply": agg_entry_cost},
            self._land,
            deadline,
        )
        return got, expected

    def _send_rules(
        self,
        targets: List[ChildChannel],
        epoch: int,
        data: List[float],
        meta: Optional[List[float]],
        per_item_cost: float,
        sent_slots: Optional[List[int]] = None,
    ) -> Generator:
        """One ``rule`` per stage child in ``targets``, its payload
        ``(epoch, data_limit, metadata_limit)`` taken from its slot's entry
        of ``data`` / ``meta`` (``None``: unlimited) as it is sent, each
        slot appended to ``sent_slots``; returns how many were sent. A
        negative epoch or limit raises before its chunk is sent, with
        :class:`~repro.core.rules.EnforcementRule`'s messages."""
        if epoch < 0:
            raise ValueError(f"negative epoch: {epoch}")
        span_of = self.ledger.span_of

        def payloads(chunk: List[ChildChannel]) -> List[Tuple[int, float, float]]:
            slots = [span_of[ch][0] for ch in chunk]
            out = []
            for slot in slots:
                limit = data[slot]
                if limit < 0:
                    raise ValueError(f"negative data limit: {limit}")
                meta_limit = _INF if meta is None else meta[slot]
                if meta_limit < 0:
                    raise ValueError(f"negative metadata limit: {meta_limit}")
                out.append((epoch, limit, meta_limit))
            if sent_slots is not None:
                sent_slots.extend(slots)
            return out

        return (
            yield from self._send_all(
                targets, "rule", payloads, self.costs.rule_bytes, per_item_cost
            )
        )


class GlobalController(_Fan, GlobalCompute):
    """The top-level controller executing the control algorithm: a fan
    over DES channels plus the compute half every global controller
    shares (:class:`~repro.core.compute.GlobalCompute`).

    Children are registered with :meth:`add_stage` (flat design) or
    :meth:`add_aggregator` (hierarchical design); mixing kinds is allowed
    by the implementation but not used in the paper's experiments.

    Parameters
    ----------
    policy:
        The cluster QoS contract (capacity, weights, floors).
    algorithm:
        The per-cycle allocation algorithm (PSFA by default).
    collect_timeout_s:
        Optional per-phase deadline. When set, a cycle proceeds with
        whatever metrics/acks arrived by the deadline instead of blocking
        on failed children (dependability experiments).
    decision_offload:
        Hierarchical only: ship per-aggregator budgets instead of rule
        batches, moving PSFA execution down to the aggregators (§VI).
    enforce_changed_only, rule_change_tolerance:
        Stage rules ship only when they moved (less enforce traffic,
        stages hold older but equivalent epochs); batches ship whole.
    metrics_alpha:
        EWMA smoothing of reported demand (1: the paper's, none).
    """

    def __init__(
        self,
        env: Environment,
        host: SimHost,
        endpoint: Endpoint,
        policy: QoSPolicy,
        algorithm: Optional[ControlAlgorithm] = None,
        costs: CostModel = FRONTERA_COST_MODEL,
        collect_timeout_s: Optional[float] = None,
        decision_offload: bool = False,
        enforce_changed_only: bool = False,
        rule_change_tolerance: float = 0.0,
        metrics_alpha: float = 1.0,
        name: str = "global",
        span_tracer=None,
    ) -> None:
        super().__init__(env, host, endpoint, costs, name)
        GlobalCompute.__init__(
            self, policy, algorithm, alpha=metrics_alpha,
            enforce_changed_only=enforce_changed_only,
            rule_change_tolerance=rule_change_tolerance,
            initial_epoch=0, demand_clamp=None,
        )
        self.tracer = span_tracer if span_tracer is not None else NullSpanTracer()
        self.collect_timeout_s = collect_timeout_s
        self.decision_offload = decision_offload
        self.collect_timeouts = 0
        self._proc: Optional[Process] = None
        host.allocate(costs.global_fixed_mem)

    # -- membership -----------------------------------------------------------
    def add_stage(self, stage_id: str, job_id: str, channel: ChildChannel) -> None:
        """Register a directly managed stage (flat design)."""
        self.register_row(stage_id, job_id)
        self._add_child(channel)
        self.host.allocate(self.costs.flat_per_stage_mem)

    def add_aggregator(
        self,
        channel: ChildChannel,
        stage_jobs: Mapping[str, str],
    ) -> None:
        """Register an aggregator child and the stages behind it.

        ``channel.stage_ids`` is the aggregator's order: its trunk
        vectors are laid out in it.
        """
        self.columns.register_many(
            channel.stage_ids, [stage_jobs[s] for s in channel.stage_ids]
        )
        self.host.allocate(
            len(channel.stage_ids) * int(self.costs.hier_per_stage_mem)
        )
        self._add_child(channel)
        self.host.allocate(self.costs.per_agg_mem_at_global)

    @property
    def n_stages(self) -> int:
        return self.columns.n_active

    # -- views ----------------------------------------------------------------
    @property
    def latest_metrics(self) -> Dict[str, StageMetrics]:
        """Last accepted report per live stage, built from the columns."""
        cols = self.columns.to_arrays()
        return {
            stage_id: StageMetrics(stage_id, job_id, data, meta)
            for stage_id, job_id, data, meta, seen in zip(
                cols["ids"],
                cols["jobs"],
                cols["data"].tolist(),
                cols["meta"].tolist(),
                cols["seen"].tolist(),
            )
            if seen
        }

    @property
    def latest_rules(self) -> Dict[str, EnforcementRule]:
        """Last rule put on the wire per stage of the current order."""
        ledger = self.ledger
        ids = ledger.ids
        data, meta = ledger.shipped.tolist()
        epochs = ledger.shipped_epoch.tolist()
        return {
            ids[i]: EnforcementRule(ids[i], epochs[i], data[i], meta[i])
            for i in np.flatnonzero(ledger.shipped_epoch).tolist()
        }

    # -- main loop -----------------------------------------------------------
    def run_cycles(self, n_cycles: int) -> Process:
        """Run ``n_cycles`` back-to-back cycles (the paper's stress mode)."""
        if n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1: {n_cycles}")
        self._proc = self.env.process(self._run(n_cycles, None), name=f"{self.name}.loop")
        return self._proc

    def run_for(self, duration_s: float, period_s: float = 0.0) -> Process:
        """Run cycles for ``duration_s``, optionally paced by ``period_s``.

        ``period_s`` is the administrator-set control period (paper §II-B);
        a cycle that finishes early sleeps until the next period boundary.
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        self._proc = self.env.process(
            self._run(None, (duration_s, period_s)), name=f"{self.name}.loop"
        )
        return self._proc

    def _run(self, n_cycles: Optional[int], timed) -> Generator:
        if not self.children:
            raise RuntimeError("controller has no children to manage")
        if timed is None:
            for _ in range(n_cycles):
                yield from self._cycle()
            return
        duration, period = timed
        end = self.env.now + duration
        while self.env.now < end:
            started = self.env.now
            yield from self._cycle()
            if period > 0:
                next_tick = started + period
                if next_tick > self.env.now:
                    yield self.env.timeout(next_tick - self.env.now)

    # -- one cycle --------------------------------------------------------------
    def _cycle(self) -> Generator:
        epoch = self.begin_cycle()
        cm = self.costs
        # Cycle start is also the one safe point to move the order: no
        # slot snapshot is live.
        ledger = self._relayout()
        started = self.env.now

        # ---- collect ----
        stage_children = self._stages
        agg_children = self._aggregators
        got, expected = yield from self._fan_collect(epoch, self._deadline())
        if got < expected:
            self.collect_timeouts += 1
        # One scatter of the answered slots into the columns; a refused
        # report leaves its stage at last-known demand, as a silent one.
        offered, refused = ledger.observe(
            self.columns, ledger.aligned_rows(self.columns), answered_only=True
        )
        reported_stages = offered - refused.size
        extra_compute_s = yield from self._exchange(epoch)
        t_collect = self.env.now - started

        # ---- compute ----
        compute_started = self.env.now
        n = self.columns.n_active
        if self.decision_offload and agg_children:
            # Global only computes per-aggregator budgets; PSFA over the
            # stages runs at the aggregators (§VI decision offloading).
            yield self._execute(
                cm.compute_fixed_s + len(agg_children) * cm.psfa_per_stage_s
            )
        else:
            per_stage_cost = (
                cm.psfa_per_stage_hier_s if agg_children else cm.psfa_per_stage_s
            )
            _, differentiated, grant = self._compute_allocations()
            if differentiated:
                # Differentiated QoS runs the algorithm once per class.
                per_stage_cost *= 2
            # Into slots now, while the rows are the ones computed on (a
            # slot without a live row, and a row without a slot, get no
            # rule). Batches to aggregators ship whole; stage rules by
            # the changed-only verdict.
            rows = ledger.aligned_rows(self.columns)
            if agg_children:
                limits, ship, withheld = ledger.gather(grant, rows), None, 0
            else:
                limits, ship, withheld = self.partition_batch(grant, ledger, rows, False)
            if not differentiated:
                limits[1] = _INF
            limits.flags.writeable = False
            yield self._execute(
                cm.compute_fixed_s + n * per_stage_cost + extra_compute_s
            )
        t_compute = self.env.now - compute_started

        # ---- enforce ----
        enforce_started = self.env.now
        enforce_deadline = self._deadline()
        if self.decision_offload and agg_children:
            yield from self._enforce_offload(agg_children, epoch, enforce_deadline)
        else:
            if stage_children:
                yield from self._enforce_stages(
                    stage_children, limits, ship, withheld, epoch, enforce_deadline
                )
            if agg_children:
                yield from self._enforce_batches(
                    agg_children, limits, epoch, enforce_deadline
                )
        t_enforce = self.env.now - enforce_started

        # Off-critical-path CPU this cycle (RPC workers, kernel, GC).
        bg_per_stage = (
            cm.bg_per_stage_global_hier_s if agg_children else cm.bg_per_stage_direct_s
        )
        self.host.charge(cm.bg_fixed_s + n * bg_per_stage)

        self.cycles.append(
            ControlCycle(
                epoch=epoch,
                started_at=started,
                collect_s=t_collect,
                compute_s=t_compute,
                enforce_s=t_enforce,
                n_stages=n,
                # Registered stages without a fresh report this epoch:
                # they rode at last-known demand (same semantics as the
                # live controllers' degraded-cycle accounting).
                n_missing=max(0, n - reported_stages),
                timed_out=got < expected,
            )
        )
        if self.tracer.enabled:
            self.cycles[-1].emit_spans(self.tracer)

    def _exchange(self, epoch: int) -> Generator:
        """The end of the collect phase, once the columns took the
        replies: where a subclass learns demand from elsewhere (a
        coordinated peer's summary exchange). Returns the compute
        seconds that adds; here none, and no simulated event."""
        return 0.0
        yield  # makes this a generator

    # -- compute ---------------------------------------------------------------
    def _compute_allocations(self):
        """:meth:`~repro.core.compute.GlobalCompute.allocate`, under a name
        of the DES controller's own (the simulated compute is timed by it)."""
        return self.allocate()

    # -- enforce helpers --------------------------------------------------------
    def _enforce_stages(
        self,
        stage_children: List[ChildChannel],
        limits: np.ndarray,
        ship: np.ndarray,
        withheld: int,
        epoch: int,
        deadline: Optional[float],
    ) -> Generator:
        """Rules to the stage children (changed-only: those ``ship`` names)."""
        cm = self.costs
        ledger = self.ledger
        targets = stage_children
        if self.enforce_changed_only:
            span_of, ship = ledger.span_of, ship.tolist()
            targets = [ch for ch in stage_children if ship[span_of[ch][0]]]
        # Rule-building effort for suppressed rules is still paid (the
        # diff needs the candidate values), without the wire costs.
        if withheld:
            yield self._execute(withheld * cm.rule_build_s)

        data, meta = limits.tolist()
        shipped: List[int] = []
        try:
            sent = yield from self._send_rules(
                targets, epoch, data, meta, cm.rule_build_s + cm.tx_rule_s, shipped
            )
        finally:
            ledger.record(np.array(shipped, dtype=np.intp), limits, epoch)
        yield from self._await_replies(
            sent,
            epoch,
            {"rule_ack": cm.rx_ack_s},
            deadline=deadline,
        )

    def _enforce_batches(
        self,
        agg_children: List[ChildChannel],
        limits: np.ndarray,
        epoch: int,
        deadline: Optional[float],
    ) -> Generator:
        cm = self.costs
        ledger = self.ledger
        # Building every per-stage rule happens at the global controller
        # even in the hierarchical design (paper §IV-B: the global
        # controller "must calculate rules for all data plane stages").
        total_stages = sum(ch.n_stages for ch in agg_children)
        yield self._execute(total_stages * cm.rule_build_hier_s)

        def payloads(chunk: List[ChildChannel]) -> List[Tuple]:
            out = []
            for ch in chunk:
                span = slice(*ledger.span_of[ch])
                ledger.record(span, limits, epoch)
                out.append((epoch, limits[0, span], limits[1, span]))
            return out

        sent = yield from self._send_all(
            agg_children,
            "rule_batch",
            payloads,
            lambda chunk: [
                cm.rule_batch_header_bytes + ch.n_stages * cm.rule_batch_entry_bytes
                for ch in chunk
            ],
            cm.tx_batch_s,
        )
        yield from self._await_replies(
            sent,
            epoch,
            {"batch_ack": cm.rx_agg_ack_s},
            deadline=deadline,
        )

    def _enforce_offload(
        self,
        agg_children: List[ChildChannel],
        epoch: int,
        deadline: Optional[float],
    ) -> Generator:
        """Ship per-aggregator budgets; aggregators run the brain locally
        (§VI). A differentiated policy splits each axis's budget over that
        axis's demand; otherwise total demand shares one budget."""
        cm = self.costs
        policy = self.policy
        cols = self.columns
        if policy.differentiated:
            data = self._budgets(agg_children, cols.data, policy.allocatable_iops)
            meta = self._budgets(
                agg_children, cols.meta, policy.allocatable_metadata_iops
            )
        else:
            data = self._budgets(agg_children, cols.ewma, policy.allocatable_iops)
            meta = [None] * len(agg_children)
        budget_of = dict(zip([ch.child_id for ch in agg_children], zip(data, meta)))
        sent = yield from self._send_all(
            agg_children,
            "budget_grant",
            lambda chunk: [(epoch, *budget_of[ch.child_id]) for ch in chunk],
            cm.agg_request_bytes,
            cm.tx_request_s,
        )
        yield from self._await_replies(
            sent,
            epoch,
            {"budget_ack": cm.rx_agg_ack_s},
            deadline=deadline,
        )

    def _budgets(
        self, agg_children: List[ChildChannel], column: np.ndarray, capacity: float
    ) -> List[float]:
        """Water-fill ``capacity`` over each partition's demand in
        ``column``; what is left over is spread evenly."""
        from repro.core.algorithms.psfa import weighted_waterfill

        rows = self.ledger.aligned_rows(self.columns)
        demand = np.where(rows >= 0, column[rows], 0.0).tolist()
        span_of = self.ledger.span_of
        part_demand = np.array(
            [sum(demand[slice(*span_of[ch])]) for ch in agg_children]
        )
        budgets = weighted_waterfill(part_demand, np.ones(len(agg_children)), capacity)
        leftover = capacity - budgets.sum()
        if leftover > 0 and len(agg_children):
            budgets = budgets + leftover / len(agg_children)
        return budgets.tolist()

    # -- reporting ----------------------------------------------------------------
    def stats(self, warmup: int = 1):
        """Cycle statistics (drops ``warmup`` leading cycles)."""
        from repro.core.cycle import CycleStats

        return CycleStats(self.cycles, warmup=min(warmup, max(len(self.cycles) - 1, 0)))


class AggregatorController(_Fan):
    """The intermediate control level of the hierarchical design.

    Reacts to the requests of the level above (served in arrival order;
    one that lands while a phase waits on children is parked, not
    dropped); owns a partition of stages (or, in deeper hierarchies, a
    set of child aggregators). ``collect_timeout_s`` bounds every wait
    on children: a phase past it replies upstream with what arrived, so
    one silent stage costs its partition at most that much per phase
    instead of wedging it.
    """

    #: Requests from the level above.
    _UPLINK_KINDS = frozenset({"agg_collect_req", "rule_batch", "budget_grant"})

    def __init__(
        self,
        env: Environment,
        host: SimHost,
        endpoint: Endpoint,
        agg_id: str,
        costs: CostModel = FRONTERA_COST_MODEL,
        policy: Optional[QoSPolicy] = None,
        algorithm: Optional[ControlAlgorithm] = None,
        span_tracer=None,
        collect_timeout_s: Optional[float] = None,
    ) -> None:
        super().__init__(env, host, endpoint, costs, agg_id)
        self.tracer = span_tracer if span_tracer is not None else NullSpanTracer()
        self.agg_id = agg_id
        self.policy = policy
        self.algorithm = algorithm or PSFA()
        self.collect_timeout_s = collect_timeout_s
        self.defer_kinds = set(self._UPLINK_KINDS)
        self.stage_jobs: Dict[str, str] = {}
        self.cycles_served = 0
        self._proc: Optional[Process] = None
        host.allocate(costs.agg_fixed_mem)

    # -- membership ---------------------------------------------------------
    def add_stage(self, stage_id: str, job_id: str, channel: ChildChannel) -> None:
        self._add_child(channel)
        self.stage_jobs[stage_id] = job_id
        self.host.allocate(self.costs.agg_per_stage_mem)

    def add_child_aggregator(self, channel: ChildChannel, stage_jobs: Mapping[str, str]) -> None:
        """Attach a lower-level aggregator (three-level hierarchies)."""
        self._add_child(channel)
        for stage_id in channel.stage_ids:
            self.stage_jobs[stage_id] = stage_jobs[stage_id]
            self.host.allocate(self.costs.agg_per_stage_mem)

    @property
    def stage_ids(self) -> Tuple[str, ...]:
        """The partition order (what the trunk vectors are laid out in)."""
        if self._order_stale:
            return tuple(chain.from_iterable(ch.slot_ids for ch in self.children))
        return self.ledger.ids

    @property
    def latest_reports(self) -> Dict[str, StageMetrics]:
        """Last-known report per slot with a known demand."""
        ledger, jobs = self.ledger, self.stage_jobs
        ids, data, meta = ledger.ids, ledger.data, ledger.meta
        return {
            ids[i]: StageMetrics(ids[i], jobs[ids[i]], data[i], meta[i])
            for i in np.flatnonzero(ledger.known()).tolist()
        }

    # -- main loop -----------------------------------------------------------
    def start(self) -> Process:
        """Start serving requests from the level above."""
        if self._proc is not None and self._proc.is_alive:
            raise RuntimeError(f"{self.agg_id} already running")
        self._proc = self.env.process(self._serve(), name=f"{self.agg_id}.serve")
        return self._proc

    def stop(self) -> None:
        """Crash/stop the aggregator (failure injection, teardown).

        Between runs the serve loop ends at once, so a plane dropped after
        its aggregators stop is freed by reference counting; inside a run
        the stop is queued at the current instant (``Process.stop``).
        """
        if self._proc is not None and self._proc.is_alive:
            self._proc.stop("stop")
        self._proc = None

    def _serve(self) -> Generator:
        from repro.simnet.engine import Interrupt

        try:
            while True:
                if self._deferred:
                    msg = self._deferred.pop(0)
                else:
                    msg = yield self.endpoint.recv()
                conn = msg.via
                if msg.kind == "agg_collect_req":
                    yield from self._collect(msg.payload, conn)
                elif msg.kind == "rule_batch":
                    yield from self._distribute(msg.payload, conn)
                elif msg.kind == "budget_grant":
                    yield from self._offloaded_cycle(msg.payload, conn)
                else:
                    self.stale_messages += 1
        except Interrupt:
            return

    # -- collect ---------------------------------------------------------------
    def _collect(self, epoch: int, uplink: Connection) -> Generator:
        cm = self.costs
        self.cycles_served += 1
        started = self.env.now
        deadline = self._deadline()
        ledger = self._relayout()
        yield from self._fan_collect(epoch, deadline, merge_s=cm.agg_merge_s)
        answered = ledger.end_collect()

        # Summarize and reply upstream with the partition's rows.
        yield self._execute(cm.agg_summarize_fixed_s)
        merged = AggregatedMetrics(
            self.agg_id,
            np.frombuffer(ledger.data),
            np.frombuffer(ledger.meta),
            answered,
            timestamp=self.env.now,
        )
        size = (
            cm.agg_reply_header_bytes + merged.n_answered * cm.agg_reply_entry_bytes
        )
        uplink.send(self.endpoint, "agg_metrics_reply", (epoch, merged), size)
        # Background work for owning this partition's connections.
        self.host.charge(
            cm.bg_fixed_s + len(self.children) * cm.bg_per_stage_direct_s
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "collect",
                started,
                self.env.now - started,
                parent="cycle",
                epoch=epoch,
            )

    # -- enforce (rule distribution) ---------------------------------------------
    def _distribute(self, payload, uplink: Connection) -> Generator:
        epoch, data, meta = payload
        cm = self.costs
        started = self.env.now
        deadline = self._deadline()
        ledger = self._relayout()
        yield self._execute(len(data) * cm.batch_unpack_s)
        sent = 0
        span_of = ledger.span_of
        if len(data) == len(ledger) == len(meta):
            if self._stages:
                sent = yield from self._send_rules(
                    self._stages, epoch, data.tolist(), meta.tolist(), cm.tx_rule_s
                )
            for ch in self._aggregators:
                span = slice(*span_of[ch])
                yield self._execute(cm.tx_batch_s)
                ch.connection.send(
                    ch.endpoint,
                    "rule_batch",
                    (epoch, data[span], meta[span]),
                    cm.rule_batch_header_bytes
                    + ch.n_stages * cm.rule_batch_entry_bytes,
                )
                sent += 1
        else:
            # Not laid out in this partition's order: nothing to unpack.
            self.stale_messages += 1
        yield from self._await_replies(
            sent,
            epoch,
            {"rule_ack": cm.rx_ack_s, "batch_ack": cm.rx_agg_ack_s},
            deadline=deadline,
        )
        uplink.send(self.endpoint, "batch_ack", epoch, cm.agg_ack_bytes)
        if self.tracer.enabled:
            self.tracer.emit(
                "enforce",
                started,
                self.env.now - started,
                parent="cycle",
                epoch=epoch,
            )

    # -- decision offload (§VI) ------------------------------------------------
    def _offloaded_cycle(self, payload, uplink: Connection) -> Generator:
        """Run the brain locally over the partition's jobs against the
        granted budget(s)."""
        if self.policy is None:
            raise RuntimeError(
                f"{self.agg_id}: decision offload requires a local policy copy"
            )
        epoch, budget, meta_budget = payload
        cm = self.costs
        deadline = self._deadline()
        ledger = self._relayout()
        # Stages without a known demand get no rule.
        known = ledger.known()
        slots = np.flatnonzero(known)
        data, meta = np.frombuffer(ledger.data), np.frombuffer(ledger.meta)
        if meta_budget is None:
            axes = [((data + meta)[slots], budget)]
        else:
            axes = [(data[slots], budget), (meta[slots], meta_budget)]
        jobs = [self.stage_jobs[ledger.ids[i]] for i in slots.tolist()]
        yield self._execute(
            cm.compute_fixed_s + len(axes) * slots.size * cm.psfa_per_stage_s
        )
        limits = np.zeros((len(axes), len(ledger)))
        for limit, (demand, axis_budget) in zip(limits, axes):
            if slots.size and axis_budget > 0:
                limit[slots] = partition_allocations(
                    demand, jobs, axis_budget, self.policy, self.algorithm
                )
        span_of = ledger.span_of
        targets = [ch for ch in self._stages if known[span_of[ch][0]]]
        if targets:
            sent = yield from self._send_rules(
                targets,
                epoch,
                limits[0].tolist(),
                limits[1].tolist() if meta_budget is not None else None,
                cm.rule_build_s + cm.tx_rule_s,
            )
            yield from self._await_replies(
                sent,
                epoch,
                {"rule_ack": cm.rx_ack_s},
                deadline=deadline,
            )
        uplink.send(self.endpoint, "budget_ack", epoch, cm.agg_ack_bytes)
