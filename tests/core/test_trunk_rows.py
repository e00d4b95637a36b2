"""The simulated trunk in rows, and one object per simulated delivery.

The DES hierarchy ships what the live trunk ships: an aggregator's
partition as data / metadata vectors plus which slots answered, and rule
batches as limit vectors in the same order. These tests pin, host
independently:

* event counts per cycle, equal to the value recorded at the parent
  commit (a delivery is one event, as the event-plus-closure it
  replaced was), and heap entries per cycle (one per simulated instant
  with anything due, not one per event), at 1,000 × 4 and 10,000 × 4;
* messages constructed per warm cycle: delivered ones are recycled, so
  a few per hierarchical cycle and none per flat one;
* what a hierarchical cycle constructs: no per-stage record at either
  level — a rule is ``(epoch, data_limit, metadata_limit)``, one per
  stage an aggregator ships to;
* the slot ledger's changed-only verdict (``slots.changed_limits``, the
  one every controller ships by) gives ``diff_rules``' verdict, entry by
  entry, and the same suppression counts over a scripted run as the
  parent commit.

CI runs this file once more under the derandomized ``ci`` hypothesis
profile.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import controller as controller_mod
from repro.simnet import engine as engine_mod
from repro.simnet import transport as transport_mod
from repro.core.control_plane import (
    ControlPlaneConfig,
    FlatControlPlane,
    HierarchicalControlPlane,
)
from repro.core.metrics import StageMetrics
from repro.core.policies import QoSPolicy
from repro.core.rules import UNLIMITED, EnforcementRule, diff_rules
from repro.core.slots import changed_limits
from repro.simnet.engine import Environment, Message
from repro.simnet.node import SimHost
from repro.simnet.transport import Network


class TestEventCounts:
    def test_events_per_cycle_match_the_parent(self, monkeypatch):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=1000), n_aggregators=4
        )
        env, ctrl = plane.env, plane.global_controller
        env.run(ctrl.run_cycles(1))
        pushes = []
        real_push = engine_mod._heappush

        def counting_push(heap, entry):
            pushes.append(entry[:2])
            real_push(heap, entry)

        monkeypatch.setattr(engine_mod, "_heappush", counting_push)
        counts = []
        for _ in range(3):
            before, pushes[:] = env.processed_events, []
            env.run(ctrl.run_cycles(1))
            counts.append((env.processed_events - before, len(pushes)))
        # Events: recorded at the parent commit, whose deliveries were an
        # Event with a closure callback each. Heap entries: one per
        # simulated instant (and priority) that has anything due; the
        # parent pushed one per event.
        assert counts == [(4276, 172)] * 3

    def test_events_at_the_papers_largest_point(self, monkeypatch):
        # 10,000 stages behind 4 aggregators (Fig. 5's last point).
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=10_000), n_aggregators=4
        )
        env, ctrl = plane.env, plane.global_controller
        env.run(ctrl.run_cycles(1))
        pushes = []
        real_push = engine_mod._heappush

        def counting_push(heap, entry):
            pushes.append(entry)
            real_push(heap, entry)

        monkeypatch.setattr(engine_mod, "_heappush", counting_push)
        before = env.processed_events
        env.run(ctrl.run_cycles(1))
        assert (env.processed_events - before, len(pushes)) == (41428, 1068)

    @staticmethod
    def _messages_made(plane, monkeypatch, n_cycles=3):
        """Messages each cycle constructs after two warm-up cycles,
        counted where the transport makes one (its ``_new``)."""
        env, ctrl = plane.env, plane.global_controller
        env.run(ctrl.run_cycles(2))
        made = [0]
        real_new = transport_mod._new

        def counting_new(cls):
            made[0] += cls is Message
            return real_new(cls)

        monkeypatch.setattr(transport_mod, "_new", counting_new)
        counts = []
        for _ in range(n_cycles):
            made[0] = 0
            env.run(ctrl.run_cycles(1))
            counts.append(made[0])
        return counts

    def test_a_warm_hier_cycle_recycles_its_messages(self, monkeypatch):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=1000), n_aggregators=4
        )
        # Allocating one per send would be 4,016: the few left are first
        # messages of a blocking receive, which the wake-up event holds.
        assert max(self._messages_made(plane, monkeypatch)) <= 16

    def test_a_warm_flat_cycle_constructs_no_message(self, monkeypatch):
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=500))
        assert self._messages_made(plane, monkeypatch) == [0, 0, 0]

    def test_a_message_in_flight_is_one_delivery(self):
        env = Environment()
        net = Network(env)
        a = net.attach(SimHost(env, "a"), "a")
        b = net.attach(SimHost(env, "b"), "b")
        got = []
        b.set_handler(lambda message, via: got.append((env.now, message, via)))
        conn = net.connect(a, b)
        message = conn.send(a, "ping", 7, size_bytes=100)
        ((when, priority, _, bucket),) = env._queue
        (item,) = bucket
        assert env._buckets == {(when, priority): bucket}
        assert item is message and item.__class__ is Message
        assert not hasattr(item, "__dict__")
        assert (item.target, item.via) == (b, conn)
        env.run()
        assert got == [(when, message, conn)]
        assert env.processed_events == 1


def _constructions(plane, n_cycles=2):
    """Per record type, who built how many over ``n_cycles`` cycles: the
    controller class whose method (or a function inside it) called the
    constructor, ``None`` for anyone else (stages, the engine)."""
    counts = {}

    def counting(cls):
        real = cls.__init__

        def init(self, *args, **kwargs):
            frame = sys._getframe(1)
            maker = None
            while frame is not None:
                owner = frame.f_locals.get("self")
                if isinstance(owner, controller_mod._Fan):
                    maker = type(owner).__name__
                    break
                frame = frame.f_back
            key = (cls.__name__, maker)
            counts[key] = counts.get(key, 0) + 1
            real(self, *args, **kwargs)

        return init

    patch = pytest.MonkeyPatch()
    for cls in (StageMetrics, EnforcementRule):
        patch.setattr(cls, "__init__", counting(cls))
    try:
        plane.env.run(plane.global_controller.run_cycles(n_cycles))
    finally:
        patch.undo()
    return counts


class TestWhatACycleBuilds:
    def test_hier_global_builds_no_per_stage_record(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=1000), n_aggregators=4
        )
        plane.env.run(plane.global_controller.run_cycles(1))
        batches = []
        real = Network.send_many

        def spy(self, links, kind, payloads, size_bytes):
            if kind == "rule_batch":
                batches.extend(payloads)
            return real(self, links, kind, payloads, size_bytes)

        patch = pytest.MonkeyPatch()
        patch.setattr(Network, "send_many", spy)
        try:
            counts = _constructions(plane)
        finally:
            patch.undo()
        # No report record: a stage replies (epoch, data, metadata) and
        # its aggregator lands the two floats in the stage's slot. No
        # rule record: a rule is (epoch, data limit, metadata limit).
        assert counts == {}
        # A batch is two read-only limit vectors in the partition order.
        assert len(batches) == 8
        for epoch, data, meta in batches:
            assert epoch in (2, 3)
            assert data.shape == meta.shape == (250,)
            assert not data.flags.writeable and not meta.flags.writeable
            assert np.all(meta == UNLIMITED)

    def test_each_aggregator_builds_one_rule_per_stage_it_ships_to(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=40), n_aggregators=4
        )
        plane.env.run(plane.global_controller.run_cycles(1))
        rules = []
        real = Network.send_many

        def spy(self, links, kind, payloads, size_bytes):
            if kind == "rule":
                rules.extend(
                    (sender.name, epoch, data, meta)
                    for (_, sender), (epoch, data, meta) in zip(links, payloads)
                )
            return real(self, links, kind, payloads, size_bytes)

        patch = pytest.MonkeyPatch()
        patch.setattr(Network, "send_many", spy)
        try:
            counts = _constructions(plane, n_cycles=1)
        finally:
            patch.undo()
        assert counts == {}
        # One (epoch, data, metadata) triple per stage, from its own
        # aggregator, as the aggregator sends it.
        assert len(rules) == 40
        senders = [agg.endpoint.name for agg in plane.aggregators]
        assert sorted({r[0] for r in rules}) == sorted(senders)
        assert all(
            epoch == 2 and data >= 0 and meta == UNLIMITED
            for _, epoch, data, meta in rules
        )

    def test_views_are_built_on_demand(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=12), n_aggregators=3
        )
        plane.run_stress(n_cycles=2)
        ctrl = plane.global_controller
        assert set(ctrl.latest_metrics) == set(ctrl.columns.active_ids())
        assert {r.epoch for r in ctrl.latest_rules.values()} == {2}
        for agg in plane.aggregators:
            reports = agg.latest_reports
            assert list(reports) == list(agg.stage_ids)
            assert all(r.total_iops == 1200.0 for r in reports.values())


# ---------------------------------------------------------------------------
# Changed-only over vectors
# ---------------------------------------------------------------------------

_LIMIT = st.one_of(
    st.just(0.0),
    st.just(UNLIMITED),
    st.just(1e-12),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _shipped_and_current(draw):
    n = draw(st.integers(0, 12))
    previous, current = [], []
    for _ in range(n):
        old = (draw(_LIMIT), draw(_LIMIT))
        new = (draw(_LIMIT), draw(_LIMIT))
        # Equal values and one-axis moves are the interesting cases.
        shape = draw(st.sampled_from(["free", "same", "data", "meta", "new"]))
        if shape == "same":
            new = old
        elif shape == "data":
            new = (new[0], old[1])
        elif shape == "meta":
            new = (old[0], new[1])
        previous.append(None if shape == "new" else old)
        current.append(new)
    return previous, current


class TestChangedOnlyVerdict:
    @settings(deadline=None)
    @given(_shipped_and_current(), st.sampled_from([0.0, 1e-9, 0.001, 0.1, 2.0]))
    def test_vector_verdict_is_diff_rules(self, case, tolerance):
        previous, current = case
        shipped = {
            f"s{i}": EnforcementRule(f"s{i}", 1, *old)
            for i, old in enumerate(previous)
            if old is not None
        }
        rules = [EnforcementRule(f"s{i}", 2, *new) for i, new in enumerate(current)]
        want = {r.stage_id for r in diff_rules(shipped, rules, tolerance)}

        old = np.array(
            [o if o is not None else (np.nan, np.nan) for o in previous]
        ).reshape(-1, 2).T
        new = np.array(current).reshape(-1, 2).T
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            mask = changed_limits(old, new, tolerance)
        assert {f"s{i}" for i in np.flatnonzero(mask)} == want

    @pytest.mark.parametrize(
        "shipped, now, tolerance, ships",
        [
            # Off zero: measured from the 1e-12 floor, a 400x move.
            ((0.0, UNLIMITED), (4e-10, UNLIMITED), 0.5, True),
            # Unlimited stays unlimited: equal values never move.
            ((100.0, UNLIMITED), (100.0, UNLIMITED), 0.0, False),
        ],
    )
    def test_the_verdicts_the_planes_used_to_disagree_on(
        self, shipped, now, tolerance, ships
    ):
        old = EnforcementRule("s", 1, *shipped)
        new = EnforcementRule("s", 2, *now)
        assert bool(diff_rules({"s": old}, [new], tolerance)) == ships
        mask = changed_limits(
            np.array(shipped).reshape(2, 1), np.array(now).reshape(2, 1), tolerance
        )
        assert mask.tolist() == [ships]

    def test_no_data_limit_is_no_rule(self):
        nan = float("nan")
        shipped = np.array([[nan, 5.0], [nan, UNLIMITED]])
        now = np.array([[nan, nan], [UNLIMITED, UNLIMITED]])
        assert changed_limits(shipped, now).tolist() == [False, False]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            changed_limits(np.zeros((2, 1)), np.zeros((2, 1)), -0.1)


class _Scripted:
    """Demand that steps on some stages every cycle."""

    cycle = 0

    def __init__(self, index):
        self.index = index

    def sample(self, stage_id, now):
        k, i = _Scripted.cycle, self.index
        if i % 3 == 0:
            data = 1000.0 + 50.0 * (k % 4)
        elif i % 3 == 1:
            data = 1000.0 + (0.5 if k % 2 else 0.0)
        else:
            data = 800.0
        return (data, 0.0 if i % 5 == 0 else 200.0)


def _suppressed(design, tolerance, differentiated):
    """``(rules_suppressed, events, simulated end)`` of an 8-cycle
    scripted run of 30 stages under changed-only enforcement."""
    config = ControlPlaneConfig(
        n_stages=30,
        policy=QoSPolicy(
            pfs_capacity_iops=30 * 1100.0,
            metadata_capacity_iops=30 * 150.0 if differentiated else None,
        ),
        source_factory=lambda stage_id: _Scripted(int(stage_id[-5:])),
        enforce_changed_only=True,
        rule_change_tolerance=tolerance,
    )
    if design == "flat":
        plane = FlatControlPlane.build(config)
    else:
        plane = HierarchicalControlPlane.build(config, n_aggregators=3)
    ctrl = plane.global_controller
    for k in range(8):
        _Scripted.cycle = k
        plane.env.run(ctrl.run_cycles(1))
    return ctrl.rules_suppressed, plane.env.processed_events, plane.env.now


class TestSuppressionCounts:
    """Recorded at the parent commit, whose flat enforce phase ran
    ``diff_rules`` per rule. Batches to aggregators always ship whole."""

    @pytest.mark.parametrize(
        "design, tolerance, differentiated, want",
        [
            ("flat", 0.0, False, (40, 1088, 0.005852159360000001)),
            ("flat", 0.001, False, (64, 1040, 0.00572495936)),
            ("flat", 0.1, False, (204, 736, 0.004726911680000001)),
            ("flat", 0.0, True, (0, 1152, 0.00666415936)),
            ("flat", 0.1, True, (210, 697, 0.00510307592)),
            ("hier", 0.0, False, (0, 1955, 0.007004681599999995)),
            ("hier", 0.1, True, (0, 1955, 0.007484681599999996)),
        ],
    )
    def test_scripted_run_matches_the_parent(
        self, design, tolerance, differentiated, want
    ):
        assert _suppressed(design, tolerance, differentiated) == want
