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
  *budget* and runs PSFA locally over its partition.

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
re-added under a departed one's id starts with nothing shipped to it.
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
budget_grant       (epoch, budget_iops)                        global → agg
budget_ack         epoch                                       agg → global
=================  ==========================================  ===========

A rule batch's vectors are read-only ``float64`` arrays, one entry per
slot of the aggregator's order (metadata ``inf``: unlimited).
"""

from __future__ import annotations

import copy
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
from repro.core.columnar import StageColumns
from repro.core.compute import ColumnarCompute
from repro.core.costs import CostModel, FRONTERA_COST_MODEL
from repro.core.cycle import ControlCycle
from repro.core.metrics import AggregatedMetrics, StageMetrics
from repro.core.policies import QoSPolicy
from repro.core.rules import EnforcementRule
from repro.core.slots import SlotLedger, grant_by_row
from repro.obs.spans import NullSpanTracer
from repro.simnet.engine import Environment, Process
from repro.simnet.node import SimHost
from repro.simnet.transport import Connection, Endpoint

__all__ = ["AggregatorController", "ChildChannel", "GlobalController"]

_INF = float("inf")


def _chunks(seq: List, size: int) -> Iterable[List]:
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


@dataclass(eq=False)
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
    membership changes take effect, and the plumbing — chunked charging,
    sending and reply collection."""

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
        #: Connections that owe the running phase a reply, where a child
        #: can leave mid-phase (``None``: nobody can; see :meth:`_forget`).
        self._owed: Optional[set] = None
        #: Replies the running phase stopped waiting for, and the total.
        self._lost = 0
        self.lost_replies = 0
        #: The inbox get :meth:`_await_replies` is blocked on, if any.
        self._recv_ev = None
        self.children: List[ChildChannel] = []
        #: The layout the current cycle runs on; children added or
        #: removed since are laid out at the next phase start.
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
        Channels whose connection closed mid-cycle (membership churn) are
        skipped, also when it closed during the chunk's burst; returns the
        number of messages actually sent. Each chunk is one
        :meth:`~repro.simnet.transport.Network.send_many` burst:
        ``payloads(live)`` gives its live channels' payloads, in order,
        and ``size_bytes`` is every message's size or, callable, gives
        one per live channel.
        """
        sent = 0
        owed = self._owed
        for chunk in _chunks(channels, self.costs.send_chunk):
            live = [ch for ch in chunk if not ch.connection.closed]
            if not live:
                continue
            yield self._execute(len(live) * per_item_cost)
            live = [ch for ch in live if not ch.connection.closed]
            if not live:
                continue
            live[0].connection.network.send_many(
                [(ch.connection, ch.endpoint) for ch in live],
                kind,
                payloads(live),
                size_bytes(live) if callable(size_bytes) else size_bytes,
            )
            sent += len(live)
            if owed is not None:
                owed.update([ch.connection for ch in live])
        return sent

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
        Timeout rather than one per wake-up. A child removed mid-phase
        (:meth:`_forget`) is counted off instead of waited for. Returns
        the number received or counted off (short on timeout).
        ``on_message`` sees each message received (``None``: arrival
        alone counts).
        """
        try:
            received = yield from self._receive(
                expected, epoch, kind_costs, on_message, deadline
            )
        finally:
            lost, self._lost, self._recv_ev = self._lost, 0, None
            self.lost_replies += lost
            if self._owed:
                self._owed.clear()
        return received + lost

    def _receive(
        self,
        expected: int,
        epoch: int,
        kind_costs: Mapping[str, float],
        on_message: Optional[Callable[[object], None]],
        deadline: Optional[float],
    ) -> Generator:
        """The receive loop of :meth:`_await_replies`; returns the number
        received."""
        received = 0
        env = self.env
        inbox = self.endpoint.inbox
        owed = self._owed

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
                if owed:
                    owed.difference_update([m.via for m in ready])
                yield self._execute(sum(kind_costs[m.kind] for m in ready))
                if on_message is not None:
                    for msg in ready:
                        on_message(msg)
                received += len(ready)

        defer_kinds = self.defer_kinds
        deferred = self._deferred
        get_cost = kind_costs.get
        deadline_ev = None

        while received + self._lost < expected:
            if inbox.items:
                # Ready work: drain without a recv event round-trip. The
                # deadline check mirrors the blocking path (a phase past
                # its deadline leaves queued messages for the next phase
                # to classify as stale).
                if deadline is not None and deadline - env.now <= 0:
                    break
                batch = inbox.drain()
            else:
                recv_ev = self._recv_ev = self.endpoint.recv()
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
                self._recv_ev = None
                # None: woken by a removal, not by a message.
                batch = [] if first is None else [first]
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
            if owed:
                owed.difference_update([m.via for m in relevant])
            if charge:
                yield self._execute(charge)
            if on_message is not None:
                for msg in relevant:
                    on_message(msg)
            received += len(relevant)
        return received

    def _forget(self, connection: Connection) -> None:
        """Close a departing child's connection; if it owes the running
        phase a reply, the phase counts it off instead of waiting (what
        it sent but was not read yet is discarded, like what is still in
        flight)."""
        connection.close()
        owed = self._owed
        if owed is None or connection not in owed:
            return
        owed.discard(connection)
        self._lost += 1
        inbox = self.endpoint.inbox
        inbox.items = [m for m in inbox.items if m.via is not connection]
        self._deferred = [m for m in self._deferred if m.via is not connection]
        wake = self._recv_ev
        if wake is not None and not wake.triggered:
            wake.cancel()
            wake.succeed(None)

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
                lambda live: [epoch] * len(live),
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
                lambda live: [epoch] * len(live),
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

        def payloads(live: List[ChildChannel]) -> List[Tuple[int, float, float]]:
            slots = [span_of[ch][0] for ch in live]
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


class GlobalController(_Fan):
    """The top-level controller executing the control algorithm.

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
        self.tracer = span_tracer if span_tracer is not None else NullSpanTracer()
        self.policy = policy
        self.algorithm = algorithm or PSFA()
        # Stateful brains (e.g. the PID controller) carry loop state
        # between cycles; running data and metadata through one instance
        # would interleave two control loops.  Each axis gets its own
        # twin, matching the live planes.
        self.metadata_algorithm = copy.deepcopy(self.algorithm)
        self.collect_timeout_s = collect_timeout_s
        self.decision_offload = decision_offload
        #: When set, the enforce phase ships only rules whose limits moved
        #: by more than ``rule_change_tolerance`` (relative) since the last
        #: pushed rule — cutting enforce traffic for steady workloads at
        #: the cost of stages holding older epochs (they are equivalent).
        self.enforce_changed_only = enforce_changed_only
        if rule_change_tolerance < 0:
            raise ValueError(
                f"negative rule change tolerance: {rule_change_tolerance}"
            )
        self.rule_change_tolerance = rule_change_tolerance
        self.rules_suppressed = 0
        #: Membership and per-stage demand, one row per registered stage
        #: (registration order is every component's stage ordering).
        #: ``metrics_alpha`` is the EWMA smoothing over reported demand:
        #: alpha=1 (paper) reacts to each report instantly; lower values
        #: damp bursty demand before it reaches the allocator, trading
        #: reactivity for rule churn.
        self.columns = StageColumns(alpha=metrics_alpha)
        self._compute = ColumnarCompute(self.columns)
        self.cycles: List[ControlCycle] = []
        self.epoch = 0
        self.collect_timeouts = 0
        self._proc: Optional[Process] = None
        self._owed = set()
        host.allocate(costs.global_fixed_mem)

    # -- membership -----------------------------------------------------------
    def add_stage(self, stage_id: str, job_id: str, channel: ChildChannel) -> None:
        """Register a directly managed stage (flat design)."""
        self.columns.register(stage_id, job_id)
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

    def remove_stage(self, stage_id: str) -> None:
        """Deregister a departed stage (flat design churn).

        The stage's connection is closed, releasing its slot in both
        hosts' connection pools. Safe to call between cycles; a removal
        racing an in-flight cycle only wastes that cycle's rule for the
        departed stage: messages still in flight on the connection are
        dropped, and a phase waiting on its reply counts it missing
        instead.
        """
        if not self.columns.evict(stage_id):
            raise KeyError(f"unknown stage id: {stage_id!r}")
        for ch in self.children:
            if ch.child_id == stage_id:
                self._forget(ch.connection)
        self.children = [c for c in self.children if c.child_id != stage_id]
        self._order_stale = True
        self.host.free(self.costs.flat_per_stage_mem)

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
        self.epoch += 1
        epoch = self.epoch
        cm = self.costs
        # Cycle start is the one safe point to renumber rows and to move
        # the order: no row or slot snapshot is live, and the generation
        # bump invalidates caches.
        self.columns.maybe_compact()
        ledger = self._relayout()
        lost_before = self.lost_replies
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
            stage_limits, metadata_limits = self._compute_allocations()
            if metadata_limits is not None:
                # Differentiated QoS runs the algorithm once per class.
                per_stage_cost *= 2
            # Into slots now, while the live rows are the ones computed on
            # (a slot without a live row gets no rule).
            limits = ledger.gather(
                grant_by_row(self.columns.active_rows(), stage_limits, metadata_limits),
                ledger.aligned_rows(self.columns),
            )
            if metadata_limits is None:
                limits[1] = _INF
            limits.flags.writeable = False
            yield self._execute(cm.compute_fixed_s + n * per_stage_cost)
        t_compute = self.env.now - compute_started

        # ---- enforce ----
        enforce_started = self.env.now
        enforce_deadline = self._deadline()
        if self.decision_offload and agg_children:
            yield from self._enforce_offload(agg_children, epoch, enforce_deadline)
        else:
            if stage_children:
                yield from self._enforce_stages(
                    stage_children, limits, epoch, enforce_deadline
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
                # Registered stages without a fresh report this epoch —
                # they rode at last-known demand — plus children removed
                # while a phase waited on them (same semantics as the
                # live controllers' degraded-cycle accounting).
                n_missing=max(0, n - reported_stages)
                + self.lost_replies
                - lost_before,
                timed_out=got < expected,
            )
        )
        if self.tracer.enabled:
            self.cycles[-1].emit_spans(self.tracer)

    # -- compute ---------------------------------------------------------------
    def _compute_allocations(self):
        """Run the control algorithm; returns per-stage IOPS limits.

        Returns ``(limits, metadata_limits)`` in ``columns.active_ids()``
        order: with an undifferentiated policy the first vector bounds
        *total* IOPS and the second is ``None``; with
        ``policy.metadata_capacity_iops`` set, the algorithm runs once
        per operation class against its own budget (the MDS and the OSS
        pool are separate bottlenecks).
        """
        return self._compute.allocations(
            self.policy, self.algorithm, self.metadata_algorithm
        )

    # -- enforce helpers --------------------------------------------------------
    def _enforce_stages(
        self,
        stage_children: List[ChildChannel],
        limits: np.ndarray,
        epoch: int,
        deadline: Optional[float],
    ) -> Generator:
        cm = self.costs
        ledger = self.ledger
        span_of = ledger.span_of
        targets = stage_children
        if self.enforce_changed_only:
            slots = [span_of[ch][0] for ch in stage_children]
            ship, withheld = ledger.ship(
                limits[:, slots], self.rule_change_tolerance, slots
            )
            targets = [ch for ch, go in zip(stage_children, ship.tolist()) if go]
            self.rules_suppressed += withheld
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

        def payloads(live: List[ChildChannel]) -> List[Tuple]:
            out = []
            for ch in live:
                span = slice(*ledger.span_of[ch])
                ledger.record(span, limits, epoch)
                out.append((epoch, limits[0, span], limits[1, span]))
            return out

        sent = yield from self._send_all(
            agg_children,
            "rule_batch",
            payloads,
            lambda live: [
                cm.rule_batch_header_bytes + ch.n_stages * cm.rule_batch_entry_bytes
                for ch in live
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
        """Ship per-aggregator budgets; aggregators run PSFA locally (§VI)."""
        cm = self.costs
        # Budget split: water-fill capacity over per-partition total demand.
        from repro.core.algorithms.psfa import weighted_waterfill

        rows = self.ledger.aligned_rows(self.columns)
        demand = np.where(rows >= 0, self.columns.ewma[rows], 0.0).tolist()
        span_of = self.ledger.span_of
        part_demand = np.array(
            [sum(demand[slice(*span_of[ch])]) for ch in agg_children]
        )
        weights = np.ones(len(agg_children))
        budgets = weighted_waterfill(
            part_demand, weights, self.policy.allocatable_iops
        )
        leftover = self.policy.allocatable_iops - budgets.sum()
        if leftover > 0 and len(agg_children):
            budgets = budgets + leftover / len(agg_children)
        budget_of = {
            ch.child_id: float(b) for ch, b in zip(agg_children, budgets)
        }
        sent = yield from self._send_all(
            agg_children,
            "budget_grant",
            lambda live: [(epoch, budget_of[ch.child_id]) for ch in live],
            cm.agg_request_bytes,
            cm.tx_request_s,
        )
        yield from self._await_replies(
            sent,
            epoch,
            {"budget_ack": cm.rx_agg_ack_s},
            deadline=deadline,
        )

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
    def n_stages(self) -> int:
        return sum(ch.n_stages for ch in self.children)

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
        """Crash/stop the aggregator (failure injection)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")
        self._proc = None

    def _serve(self) -> Generator:
        from repro.simnet.engine import Interrupt

        try:
            while True:
                if self._deferred:
                    msg = self._deferred.pop(0)
                else:
                    msg = yield self.endpoint.recv()
                conn = self.endpoint.connections.get(msg.sender)
                if conn is None:
                    self.stale_messages += 1
                    continue
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
        """Run PSFA locally over the partition against a granted budget."""
        epoch, budget = payload
        cm = self.costs
        if self.policy is None:
            raise RuntimeError(
                f"{self.agg_id}: decision offload requires a local policy copy"
            )
        deadline = self._deadline()
        ledger = self._relayout()
        # Stages without a known demand get no rule.
        known = ledger.known()
        slots = np.flatnonzero(known)
        demands = (np.frombuffer(ledger.data) + np.frombuffer(ledger.meta))[slots]
        weights = self.policy.weights(
            [self.stage_jobs[ledger.ids[i]] for i in slots.tolist()]
        )
        yield self._execute(
            cm.compute_fixed_s + slots.size * cm.psfa_per_stage_s
        )
        limit = np.zeros(len(ledger))
        if slots.size and budget > 0:
            limit[slots] = self.algorithm.allocate(demands, weights, budget).allocations
        span_of = ledger.span_of
        targets = [ch for ch in self._stages if known[span_of[ch][0]]]
        if targets:
            sent = yield from self._send_rules(
                targets, epoch, limit.tolist(), None, cm.rule_build_s + cm.tx_rule_s
            )
            yield from self._await_replies(
                sent,
                epoch,
                {"rule_ack": cm.rx_ack_s},
                deadline=deadline,
            )
        uplink.send(self.endpoint, "budget_ack", epoch, cm.agg_ack_bytes)
