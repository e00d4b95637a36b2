"""Unit tests for virtual and full data-plane stages and the interceptor.

A ``rule`` message carries ``(epoch, data_limit, metadata_limit)``. CI
runs this file once more under the derandomized ``ci`` hypothesis
profile.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_plane import (
    ControlPlaneConfig,
    CoordinatedFlatControlPlane,
    FlatControlPlane,
    HierarchicalControlPlane,
)
from repro.core.policies import QoSPolicy
from repro.core.rules import EnforcementRule
from repro.dataplane.interceptor import IOInterceptor
from repro.dataplane.stage import DATA, METADATA, DataPlaneStage
from repro.dataplane.virtual_stage import ConstantSource, VirtualStage
from repro.simnet.engine import Environment
from repro.simnet.topology import build_cluster


@pytest.fixture
def env():
    return Environment()


def wire_stage(env, stage):
    """Attach a stage and a controller-side endpoint on a 2-host cluster."""
    cluster = build_cluster(env, 2)
    net = cluster.network
    stage.attach(net, cluster.host(0), stage.stage_id)
    ctrl_ep = net.attach(cluster.host(1), "ctrl")
    conn = net.connect(ctrl_ep, stage)
    return ctrl_ep, conn


class TestVirtualStage:
    def test_replies_with_metrics(self, env):
        stage = VirtualStage(env, "s1", "j1", source=ConstantSource(500.0, 50.0))
        ctrl_ep, conn = wire_stage(env, stage)
        got = []
        ctrl_ep.set_handler(lambda m, c: got.append(m))
        conn.send(ctrl_ep, "collect_req", 1, 40)
        env.run()
        assert got[0].kind == "metrics_reply"
        # The live wire's record shape: no per-reply object.
        assert got[0].payload == (1, 500.0, 50.0)
        assert stage.requests_served == 1

    def test_applies_and_acks_rule(self, env):
        stage = VirtualStage(env, "s1", "j1")
        ctrl_ep, conn = wire_stage(env, stage)
        got = []
        ctrl_ep.set_handler(lambda m, c: got.append(m))
        conn.send(ctrl_ep, "rule", (1, 123.0, math.inf), 117)
        env.run()
        assert got[0].kind == "rule_ack"
        assert stage.current_limit == 123.0
        assert stage.rules_applied == 1
        assert stage.applied_rule == EnforcementRule("s1", 1, 123.0)

    def test_stale_rule_ignored_but_acked(self, env):
        stage = VirtualStage(env, "s1", "j1")
        ctrl_ep, conn = wire_stage(env, stage)
        acks = []
        ctrl_ep.set_handler(lambda m, c: acks.append(m))
        conn.send(ctrl_ep, "rule", (5, 100.0, 10.0), 117)
        env.run()
        conn.send(ctrl_ep, "rule", (3, 999.0, 99.0), 117)
        conn.send(ctrl_ep, "rule", (5, 555.0, 55.0), 117)
        env.run()
        assert stage.current_limit == 100.0
        assert stage.applied_rule == EnforcementRule("s1", 5, 100.0, 10.0)
        assert stage.rules_applied == 1
        assert stage.rules_ignored_stale == 2
        assert [m.payload for m in acks] == [5, 3, 5]

    def test_no_rule_means_unlimited(self, env):
        stage = VirtualStage(env, "s1", "j1")
        assert stage.current_limit == float("inf")
        assert stage.applied_rule is None

    def test_epoch_zero_is_a_rule(self, env):
        stage = VirtualStage(env, "s1", "j1")
        ctrl_ep, conn = wire_stage(env, stage)
        ctrl_ep.set_handler(lambda m, c: None)
        conn.send(ctrl_ep, "rule", (0, 7.0, math.inf), 117)
        env.run()
        assert stage.applied_rule == EnforcementRule("s1", 0, 7.0)

    def test_unknown_kind_dropped(self, env):
        stage = VirtualStage(env, "s1", "j1")
        ctrl_ep, conn = wire_stage(env, stage)
        ctrl_ep.set_handler(lambda m, c: pytest.fail("no reply expected"))
        conn.send(ctrl_ep, "mystery", None, 8)
        env.run()

    def test_stage_host_cpu_charged(self, env):
        stage = VirtualStage(env, "s1", "j1")
        ctrl_ep, conn = wire_stage(env, stage)
        host = stage.endpoint.host
        before = host.busy_seconds
        conn.send(ctrl_ep, "collect_req", 1, 40)
        env.run()
        assert host.busy_seconds > before


class TestDataPlaneStage:
    def test_admit_unlimited_is_instant(self, env):
        stage = DataPlaneStage(env, "s1", "j1")

        def proc(env, stage):
            waited = yield from stage.admit(DATA)
            return (waited, env.now)

        p = env.process(proc(env, stage))
        env.run()
        assert p.value == (0.0, 0.0)

    def test_rate_limit_shapes_throughput(self, env):
        stage = DataPlaneStage(
            env, "s1", "j1", initial_data_limit=10.0, burst_seconds=0.1
        )
        times = []

        def proc(env, stage):
            for _ in range(30):
                yield from stage.admit(DATA)
                times.append(env.now)

        env.process(proc(env, stage))
        env.run()
        # 30 ops at 10/s with a 1-token burst: ~2.9 s total
        assert times[-1] == pytest.approx(2.9, rel=0.05)

    def test_rule_application_changes_rate(self, env):
        stage = DataPlaneStage(env, "s1", "j1")
        stage._apply(50.0, 5.0)
        assert stage.enforced_data_rate == 50.0
        assert stage.enforced_metadata_rate == 5.0

    def test_offered_demand_reported(self, env):
        stage = DataPlaneStage(env, "s1", "j1", initial_data_limit=10.0)

        def proc(env, stage):
            for _ in range(20):
                yield from stage.admit(DATA)

        env.process(proc(env, stage))
        env.run(until=1.0)
        data_rate, meta_rate = stage.source.sample("s1", env.now)
        # All 20 were *offered* within the first second despite throttling.
        assert data_rate >= 10.0
        assert meta_rate == 0.0

    def test_window_resets_after_sample(self, env):
        stage = DataPlaneStage(env, "s1", "j1")

        def proc(env, stage):
            yield from stage.admit(DATA)
            yield env.timeout(1.0)

        env.process(proc(env, stage))
        env.run()
        stage.source.sample("s1", env.now)
        env2_rate, _ = stage.source.sample("s1", env.now)
        assert env2_rate == 0.0  # same instant: empty window

    def test_unknown_op_class_rejected(self, env):
        stage = DataPlaneStage(env, "s1", "j1")
        with pytest.raises(ValueError):
            list(stage.admit("bogus"))

    def test_zero_rate_waits_for_new_rule(self, env):
        stage = DataPlaneStage(env, "s1", "j1", initial_data_limit=0.0, burst_seconds=0.1)
        done = []

        def proc(env, stage):
            # A fresh bucket carries a one-op burst allowance; the second
            # operation starves against the zero rate.
            yield from stage.admit(DATA)
            yield from stage.admit(DATA)
            done.append(env.now)

        env.process(proc(env, stage))
        env.run(until=2.0)
        assert not done  # still starved
        stage._apply(100.0, math.inf)
        env.run(until=4.0)
        assert done  # unblocked after the new rule


_LIMIT = st.one_of(
    st.just(0.0),
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


class TestRuleLeg:
    """The rule leg in scalars keeps every check and every record."""

    @settings(max_examples=100, deadline=None)
    @given(rules=st.lists(st.tuples(st.integers(0, 6), _LIMIT, _LIMIT), max_size=12))
    def test_bucket_rates_follow_each_applied_rule(self, rules):
        env = Environment()
        stage = DataPlaneStage(env, "s1", "j1")
        ctrl_ep, conn = wire_stage(env, stage)
        acks = []
        ctrl_ep.set_handler(lambda m, c: acks.append(m.payload))
        applied = None
        for epoch, data, meta in rules:
            conn.send(ctrl_ep, "rule", (epoch, data, meta), 117)
            env.run()
            if applied is None or epoch > applied[0]:
                applied = (epoch, data, meta)
            if applied is None:
                assert stage.applied_rule is None
                assert stage.enforced_data_rate == math.inf
                assert stage.enforced_metadata_rate == math.inf
            else:
                assert stage.applied_rule == EnforcementRule("s1", *applied)
                assert stage.current_limit == applied[1]
                assert stage.enforced_data_rate == applied[1]
                assert stage.enforced_metadata_rate == applied[2]
        # Stale rules are ignored but still acked.
        assert acks == [epoch for epoch, _, _ in rules]
        assert stage.rules_applied + stage.rules_ignored_stale == len(rules)

    @pytest.mark.parametrize(
        "epoch, data, meta",
        [
            (-1, [1.0, 1.0], None),
            (1, [1.0, -2.0], None),
            (1, [1.0, 1.0], [0.0, -3.0]),
        ],
        ids=["epoch", "data", "metadata"],
    )
    def test_negative_values_raise_at_the_sender(self, epoch, data, meta):
        with pytest.raises(ValueError) as record:
            EnforcementRule(
                "s", epoch, min(data), math.inf if meta is None else min(meta)
            )
        plane = FlatControlPlane.build(ControlPlaneConfig(n_stages=2))
        env, ctrl = plane.env, plane.global_controller
        ctrl._relayout()
        network = plane.cluster.network
        env.process(ctrl._send_rules(ctrl._stages, epoch, data, meta, 1e-6))
        with pytest.raises(ValueError) as raised:
            env.run()
        assert str(raised.value) == str(record.value)
        assert network.messages_sent == 0
        assert all(s.applied_rule is None for s in plane.stages)

    @staticmethod
    def _config(n, metadata=False):
        return ControlPlaneConfig(
            n_stages=n,
            policy=QoSPolicy(
                pfs_capacity_iops=3000.0,
                metadata_capacity_iops=400.0 if metadata else None,
                job_classes={"job-00000": "interactive", "job-00001": "batch"},
            ),
            source_factory=lambda sid: ConstantSource(
                300.0 * (1 + int(sid[-1]) % 4), 50.0 * (1 + int(sid[-1]) % 3)
            ),
        )

    #: Per design, ``(data, metadata)`` limits of stage-00000.. after three
    #: cycles (all at epoch 3), as the stages' EnforcementRule records
    #: held them when the rule leg carried the record itself.
    _RECORDED = {
        "flat": [
            (300.0, 72.22222222222223),
            (600.0, 105.55555555555556),
            (900.0, 161.11111111111111),
            (1200.0, 61.111111111111114),
        ],
        "hier": [
            (350.0, math.inf),
            (321.42857142857144, math.inf),
            (642.8571428571429, math.inf),
            (642.8571428571429, math.inf),
            (400.0, math.inf),
            (642.8571428571429, math.inf),
        ],
        "hier-metadata": [
            (300.0, 50.0),
            (360.0, 42.857142857142854),
            (720.0, 85.71428571428571),
            (720.0, 50.0),
            (300.0, 85.71428571428571),
            (600.0, 85.71428571428571),
        ],
        "offload": [
            (350.0, math.inf),
            (383.3333333333333, math.inf),
            (766.6666666666666, math.inf),
            (550.0, math.inf),
            (400.0, math.inf),
            (550.0, math.inf),
        ],
        "coordinated": [
            (350.0, math.inf),
            (321.42857142857144, math.inf),
            (642.8571428571429, math.inf),
            (642.8571428571429, math.inf),
            (400.0, math.inf),
            (642.8571428571429, math.inf),
        ],
    }

    @pytest.mark.parametrize("design", sorted(_RECORDED))
    def test_applied_rule_is_the_recorded_rule(self, design):
        build = {
            "flat": lambda: FlatControlPlane.build(self._config(4, metadata=True)),
            "hier": lambda: HierarchicalControlPlane.build(
                self._config(6), n_aggregators=2
            ),
            "hier-metadata": lambda: HierarchicalControlPlane.build(
                self._config(6, metadata=True), n_aggregators=2
            ),
            "offload": lambda: HierarchicalControlPlane.build(
                self._config(6), n_aggregators=2, decision_offload=True
            ),
            "coordinated": lambda: CoordinatedFlatControlPlane.build(
                self._config(6), n_controllers=2
            ),
        }[design]
        plane = build()
        plane.run_stress(n_cycles=3)
        assert [s.applied_rule for s in plane.stages] == [
            EnforcementRule(f"stage-{i:05d}", 3, data, meta)
            for i, (data, meta) in enumerate(self._RECORDED[design])
        ]
        if design == "flat":
            assert {s.stage_id: s.applied_rule for s in plane.stages} == (
                plane.global_controller.latest_rules
            )


class TestInterceptor:
    def test_classification(self, env):
        stage = DataPlaneStage(env, "s1", "j1")
        io = IOInterceptor(env, stage)

        def proc(env, io):
            op1 = yield from io.open()
            op2 = yield from io.read(4096)
            return (op1.op_class, op2.op_class)

        p = env.process(proc(env, io))
        env.run()
        assert p.value == (METADATA, DATA)

    def test_throttle_wait_recorded(self, env):
        stage = DataPlaneStage(env, "s1", "j1", initial_data_limit=1.0, burst_seconds=1.0)
        io = IOInterceptor(env, stage)

        def proc(env, io):
            yield from io.read(1)
            op = yield from io.read(1)
            return op.throttle_wait_s

        p = env.process(proc(env, io))
        env.run()
        assert p.value == pytest.approx(1.0)
        assert io.total_throttle_wait_s == pytest.approx(1.0)

    def test_unknown_call_rejected(self, env):
        io = IOInterceptor(env, DataPlaneStage(env, "s1", "j1"))
        with pytest.raises(ValueError):
            list(io.call("fsync"))

    def test_latency_composition(self, env):
        stage = DataPlaneStage(env, "s1", "j1")
        io = IOInterceptor(env, stage)

        def proc(env, io):
            op = yield from io.stat()
            return op

        p = env.process(proc(env, io))
        env.run()
        op = p.value
        assert op.latency_s == pytest.approx(op.throttle_wait_s)
