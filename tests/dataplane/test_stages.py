"""Unit tests for virtual and full data-plane stages and the interceptor."""

import pytest

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
    """Bind a stage and a controller-side endpoint on a 2-host cluster."""
    cluster = build_cluster(env, 2)
    net = cluster.network
    stage_ep = net.attach(cluster.host(0), stage.stage_id)
    ctrl_ep = net.attach(cluster.host(1), "ctrl")
    conn = net.connect(ctrl_ep, stage_ep)
    stage.bind(stage_ep)
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
        rule = EnforcementRule("s1", epoch=1, data_iops_limit=123.0)
        conn.send(ctrl_ep, "rule", (1, rule), 117)
        env.run()
        assert got[0].kind == "rule_ack"
        assert stage.current_limit == 123.0
        assert stage.rules_applied == 1

    def test_stale_rule_ignored_but_acked(self, env):
        stage = VirtualStage(env, "s1", "j1")
        ctrl_ep, conn = wire_stage(env, stage)
        acks = []
        ctrl_ep.set_handler(lambda m, c: acks.append(m))
        conn.send(ctrl_ep, "rule", (5, EnforcementRule("s1", 5, 100.0)), 117)
        env.run()
        conn.send(ctrl_ep, "rule", (3, EnforcementRule("s1", 3, 999.0)), 117)
        env.run()
        assert stage.current_limit == 100.0
        assert stage.rules_ignored_stale == 1
        assert len(acks) == 2

    def test_no_rule_means_unlimited(self, env):
        stage = VirtualStage(env, "s1", "j1")
        assert stage.current_limit == float("inf")

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
        rule = EnforcementRule("s1", epoch=1, data_iops_limit=50.0, metadata_iops_limit=5.0)
        stage._apply(rule)
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
        stage._apply(EnforcementRule("s1", epoch=1, data_iops_limit=100.0))
        env.run(until=4.0)
        assert done  # unblocked after the new rule


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

    def test_pfs_wait_included(self, env):
        from repro.pfs.filesystem import ParallelFileSystem

        pfs = ParallelFileSystem(env, n_oss=2)
        stage = DataPlaneStage(env, "s1", "j1")
        io = IOInterceptor(env, stage, pfs_client=pfs.client())

        def proc(env, io):
            op = yield from io.write(1 << 20)
            return op.pfs_wait_s

        p = env.process(proc(env, io))
        env.run()
        assert p.value > 0

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
        assert op.latency_s == pytest.approx(op.throttle_wait_s + op.pfs_wait_s)
