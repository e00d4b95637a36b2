"""A simulated stage holds only its state: what a DES build allocates.

A 10,000-stage plane is mostly its stages, so what one stage costs is
what the plane costs. The cost is counted here as objects the cyclic
collector tracks, which does not depend on the host: a stage is its
``VirtualStage`` — which is its own endpoint, so there is no separate
``Endpoint`` and no bound-method handler — and one connection and one
channel to its controller. Default stages share one metric source.
Before stages were slotted a build made 12.3 per stage: an inbox no
stage reads and its two lists, a per-endpoint connection registry, a
two-list FIFO floor per connection, instance dicts, and a ``(stage,
endpoint)`` index that a self-recursive builder kept alive as 1,012
objects of cyclic garbage. Slotted, it made 6.1-6.4, until the endpoint,
its handler and the per-stage source went.

A DES cycle leaves no garbage either: a granted CPU request, whose value
is the request itself, drops that self-reference on release.
"""

import gc

import pytest

from repro.core.control_plane import (
    ControlPlaneConfig,
    CoordinatedFlatControlPlane,
    FlatControlPlane,
    HierarchicalControlPlane,
)
from repro.core.controller import ChildChannel
from repro.dataplane.virtual_stage import STRESS_SOURCE, VirtualStage
from repro.harness.experiment import run_hierarchical_experiment
from repro.simnet.engine import Environment
from repro.simnet.node import SimHost
from repro.simnet.transport import Connection, Endpoint, Network

N_STAGES = 1000

BUILDS = {
    "hier": lambda: HierarchicalControlPlane.build(
        ControlPlaneConfig(n_stages=N_STAGES), n_aggregators=4
    ),
    "hier-3-levels": lambda: HierarchicalControlPlane.build(
        ControlPlaneConfig(n_stages=N_STAGES), n_aggregators=4, levels=3
    ),
    "flat": lambda: FlatControlPlane.build(ControlPlaneConfig(n_stages=N_STAGES)),
    "coordinated": lambda: CoordinatedFlatControlPlane.build(
        ControlPlaneConfig(n_stages=N_STAGES), n_controllers=4
    ),
}


def _counted_build(build):
    """``(plane, tracked objects the build made, objects a collection
    right after it frees)``, the collector held off during the build."""
    build()  # first-use caches belong to the process, not to a plane
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        plane = build()
        made = len(gc.get_objects()) - before
        freed = gc.collect()
    finally:
        if enabled:
            gc.enable()
    return plane, made, freed


@pytest.mark.parametrize("design", sorted(BUILDS))
class TestBuildFootprint:
    def test_at_most_three_and_a_half_tracked_objects_per_stage(self, design):
        # Three per stage and its link, and the hosts and controllers
        # spread over the stages.
        _, made, _ = _counted_build(BUILDS[design])
        assert made / N_STAGES <= 3.5

    def test_a_build_leaves_no_cyclic_garbage(self, design):
        _, _, freed = _counted_build(BUILDS[design])
        assert freed == 0


class TestStageLayout:
    def test_stage_objects_have_no_instance_dict(self):
        plane = BUILDS["hier"]()
        stage = plane.stages[0]
        channel = plane.aggregators[0].children[0]
        for obj, cls in (
            (stage, VirtualStage),
            (channel, ChildChannel),
            (channel.connection, Connection),
        ):
            assert type(obj) is cls
            assert not hasattr(obj, "__dict__"), cls.__name__

    def test_a_stage_is_its_own_endpoint_with_no_bound_handler(self):
        plane = BUILDS["hier"]()
        for stage in plane.stages:
            assert stage.endpoint is stage
            assert isinstance(stage, Endpoint)
            assert stage.handler is None
        channel = plane.aggregators[0].children[0]
        assert channel.connection.peer_of(channel.endpoint) is plane.stages[0]
        assert not any(type(o) is Endpoint for o in gc.get_referents(*plane.stages))

    def test_default_stages_share_one_source(self):
        plane = BUILDS["flat"]()
        assert {id(s.source) for s in plane.stages} == {id(STRESS_SOURCE)}

    def test_a_stage_endpoint_never_builds_an_inbox(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=40), n_aggregators=2
        )
        plane.run_stress(n_cycles=2)
        assert [s.endpoint._inbox for s in plane.stages] == [None] * 40
        assert plane.stages[0].requests_served == 2
        # The controllers receive from theirs.
        assert plane.global_controller.endpoint._inbox is not None
        assert all(a.endpoint._inbox is not None for a in plane.aggregators)


class TestLazyInbox:
    @staticmethod
    def _pair():
        env = Environment()
        net = Network(env)
        a = net.attach(SimHost(env, "a"), "svc")
        b = net.attach(SimHost(env, "b"), "svc")
        return env, a, b, net.connect(a, b)

    def test_recv_on_a_fresh_endpoint_builds_its_inbox_and_receives(self):
        env, a, b, conn = self._pair()
        assert b._inbox is None
        got = []

        def receiver():
            msg = yield b.recv()
            got.append((msg.kind, msg.payload, msg.via is conn))

        env.process(receiver())
        conn.send(a, "hello", 42, 8)
        env.run()
        assert got == [("hello", 42, True)]
        assert b._inbox is not None

    def test_a_message_before_any_receive_waits_in_a_new_inbox(self):
        env, a, b, conn = self._pair()
        conn.send(a, "early", 1, 8)
        env.run()
        assert [m.kind for m in b.inbox.items] == ["early"]
        got = []

        def receiver():
            got.append((yield b.recv()).payload)

        env.process(receiver())
        env.run()
        assert got == [1]


class TestCycleGarbage:
    def test_warm_cycles_leave_no_cyclic_garbage(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=N_STAGES), n_aggregators=4
        )
        plane.run_stress(n_cycles=2)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            plane.run_stress(n_cycles=3)
            freed = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert freed == 0
        assert plane.global_controller.cycles[-1].epoch == 5

    def test_a_granted_request_still_yields_itself_and_leaves_no_garbage(self):
        env = Environment()
        cpu = SimHost(env, "h", cores=1).cpu
        got = []

        def worker():
            req = cpu.request()
            got.append((yield req) is req)
            cpu.release(req)

        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            env.process(worker())
            env.process(worker())  # queued behind the first, then granted
            env.run()
            freed = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert got == [True, True]
        assert freed == 0


def _stages_alive_after(drop):
    """``VirtualStage``\\ s still alive once ``drop()`` returns, the
    collector held off throughout."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        drop()
        return sum(type(o) is VirtualStage for o in gc.get_objects())
    finally:
        if enabled:
            gc.enable()


HIER_BUILDS = {
    "hier": {},
    "hier-3-levels": {"levels": 3},
    "hier-offload": {"decision_offload": True},
}


class TestStoppedPlaneFrees:
    """A stopped aggregator's serve loop ends at once between runs, so a
    dropped hierarchy is freed by reference counting, not left as one
    cycle (aggregator → environment → queued interrupt → process →
    suspended generator → aggregator) for the collector."""

    @pytest.mark.parametrize("cycles", [0, 2], ids=["never-run", "run"])
    @pytest.mark.parametrize("design", sorted(HIER_BUILDS))
    def test_a_stopped_dropped_plane_leaves_no_stage_alive(self, design, cycles):
        def drop():
            plane = HierarchicalControlPlane.build(
                ControlPlaneConfig(n_stages=N_STAGES),
                n_aggregators=4,
                **HIER_BUILDS[design],
            )
            if cycles:
                plane.run_stress(n_cycles=cycles)
            for agg in plane.aggregators:
                agg.stop()

        assert _stages_alive_after(drop) == 0

    def test_an_experiment_frees_every_plane_it_builds(self):
        results = []
        alive = _stages_alive_after(
            lambda: results.append(
                run_hierarchical_experiment(N_STAGES, 4, repeats=2)
            )
        )
        assert alive == 0
        assert results[0].repetitions == 2

    def test_a_stopped_aggregator_restarts_and_serves_the_next_cycle(self):
        plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(n_stages=40, collect_timeout_s=0.5), n_aggregators=2
        )
        plane.run_stress(n_cycles=1)
        agg = plane.aggregators[0]
        old = agg._proc
        agg.stop()
        assert not old.is_alive
        assert agg.start().is_alive
        plane.run_stress(n_cycles=1)
        cycle = plane.global_controller.cycles[-1]
        assert (cycle.epoch, cycle.n_missing, cycle.degraded) == (2, 0, False)
        assert agg.cycles_served == 2
