"""Focused tests for AggregatorController behaviours."""

import pytest

from repro.core.control_plane import ControlPlaneConfig, HierarchicalControlPlane
from repro.core.policies import QoSPolicy


def build(n=12, aggs=2, **kwargs):
    return HierarchicalControlPlane.build(
        ControlPlaneConfig(n_stages=n), n_aggregators=aggs, **kwargs
    )


class TestAggregatorBasics:
    def test_stage_ids_cover_partition(self):
        plane = build(n=10, aggs=2)
        for agg in plane.aggregators:
            assert len(agg.stage_ids) == 5

    def test_latest_reports_cached_per_stage(self):
        plane = build(n=8, aggs=2)
        plane.run_stress(n_cycles=2)
        for agg in plane.aggregators:
            assert set(agg.latest_reports) == set(agg.stage_ids)

    def test_aggregated_reply_merges_job_totals(self):
        plane = build(n=6, aggs=1)
        plane.run_stress(n_cycles=1)
        ctrl = plane.global_controller
        # The global saw all 6 stages through one aggregated reply.
        assert len(ctrl.latest_metrics) == 6

    def test_memory_footprint_scales_with_partition(self):
        small = build(n=8, aggs=4)   # 2 stages per aggregator
        large = build(n=80, aggs=4)  # 20 stages per aggregator
        assert (
            large.aggregators[0].host.resident_bytes
            > small.aggregators[0].host.resident_bytes
        )

    def test_stop_idempotent(self):
        plane = build()
        agg = plane.aggregators[0]
        agg.stop()
        agg.stop()  # no error
        agg.start()  # restartable

    def test_stale_unknown_kinds_counted(self):
        plane = build(n=4, aggs=1)
        agg = plane.aggregators[0]
        ctrl = plane.global_controller
        # Send the aggregator a bogus message over the global's uplink.
        uplink = ctrl.children[0]
        uplink.connection.send(uplink.endpoint, "nonsense", 7, 8)
        plane.run_stress(n_cycles=1)
        assert agg.stale_messages >= 1


class TestOffloadPaths:
    def test_offload_requires_local_policy(self):
        """An aggregator without a policy copy rejects budget grants."""
        from repro.core.controller import AggregatorController
        from repro.simnet.engine import Environment
        from repro.simnet.node import SimHost
        from repro.simnet.transport import Network

        env = Environment()
        host = SimHost(env, "agg")
        net = Network(env)
        ep = net.attach(host, "agg")
        agg = AggregatorController(env, host, ep, "agg-0", policy=None)
        peer_host = SimHost(env, "global")
        peer_ep = net.attach(peer_host, "global")
        conn = net.connect(peer_ep, ep)
        agg.start()
        conn.send(peer_ep, "budget_grant", (1, 100.0), 48)
        with pytest.raises(RuntimeError, match="local policy"):
            env.run()

    def test_offload_budget_split_tracks_partition_demand(self):
        from repro.dataplane.virtual_stage import ConstantSource

        sources = {}

        def factory(stage_id):
            idx = int(stage_id.split("-")[-1])
            # First half of the stages demand 4x the second half.
            src = ConstantSource(4000.0 if idx < 4 else 1000.0, 0.0)
            sources[stage_id] = src
            return src

        policy = QoSPolicy(pfs_capacity_iops=10_000.0)
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=8, policy=policy, source_factory=factory),
            n_aggregators=2,
            decision_offload=True,
        )
        plane.run_stress(n_cycles=3)
        hot = [s for s in plane.stages if int(s.stage_id.split("-")[-1]) < 4]
        cold = [s for s in plane.stages if int(s.stage_id.split("-")[-1]) >= 4]
        hot_total = sum(s.current_limit for s in hot)
        cold_total = sum(s.current_limit for s in cold)
        # Budgets follow partition demand: the hot partition gets more.
        assert hot_total > cold_total

    def test_offload_total_within_capacity(self):
        policy = QoSPolicy(pfs_capacity_iops=3000.0)
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=12, policy=policy),
            n_aggregators=3,
            decision_offload=True,
        )
        plane.run_stress(n_cycles=3)
        total = sum(s.current_limit for s in plane.stages)
        assert total <= 3000.0 * (1 + 1e-9)


class TestSubAggregatorRouting:
    def test_rule_batches_split_per_child(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=16),
            n_aggregators=2,
            levels=3,
            fanout=2,
        )
        plane.run_stress(n_cycles=2)
        # 2 top + 4 leaf aggregators; every leaf served every cycle.
        leaves = [a for a in plane.aggregators if "." in a.agg_id]
        assert len(leaves) == 4
        assert all(leaf.cycles_served == 2 for leaf in leaves)

    def test_three_level_metrics_complete(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=16),
            n_aggregators=2,
            levels=3,
            fanout=2,
        )
        plane.run_stress(n_cycles=1)
        assert len(plane.global_controller.latest_metrics) == 16


class TestUplinkRouting:
    """An aggregator answers on the connection a request came over."""

    @staticmethod
    def _standalone():
        from repro.core.controller import AggregatorController
        from repro.simnet.engine import Environment
        from repro.simnet.node import SimHost
        from repro.simnet.transport import Network

        env = Environment()
        net = Network(env)
        ep = net.attach(SimHost(env, "agg"), "agg")
        agg = AggregatorController(env, ep.host, ep, "agg-0")
        up = net.attach(SimHost(env, "global"), "global")
        return env, net, agg, up

    def test_a_request_is_answered_on_its_own_link(self):
        env, net, agg, up = self._standalone()
        link = net.connect(up, agg.endpoint)
        agg.start()
        link.send(up, "agg_collect_req", 1, 48)
        env.run()
        assert (agg.cycles_served, agg.stale_messages) == (1, 0)
        (reply,) = up.inbox.items
        assert (reply.kind, reply.via) == ("agg_metrics_reply", link)

    def test_a_request_from_a_closed_link_is_stale_not_served_on_its_successor(self):
        env, net, agg, up = self._standalone()
        old = net.connect(up, agg.endpoint)
        old.send(up, "agg_collect_req", 1, 48)
        env.run()  # delivered: it waits in the (not yet serving) inbox
        old.close()
        net.connect(up, agg.endpoint)  # the same peer, a new link
        agg.start()
        env.run()
        assert (agg.cycles_served, agg.stale_messages) == (0, 1)
        assert up.host.nic.rx_messages == 0
