"""Unit tests for the connection-oriented transport."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.engine import Environment, SimulationError
from repro.simnet.link import FixedDelay, Link, NormalJitterDelay
from repro.simnet.node import SimHost
from repro.simnet.topology import build_cluster
from repro.simnet.transport import ConnectionLimitExceeded, Network


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster(env):
    return build_cluster(env, 4)


def _pair(cluster, i=0, j=1):
    net = cluster.network
    a = net.attach(cluster.host(i), "svc-a")
    b = net.attach(cluster.host(j), "svc-b")
    return net, a, b, net.connect(a, b)


class TestDelivery:
    def test_handler_invoked_with_message(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        got = []
        b.set_handler(lambda m, c: got.append((m.kind, m.payload)))
        conn.send(a, "ping", {"v": 1}, size_bytes=64)
        env.run()
        assert got == [("ping", {"v": 1})]

    def test_inbox_when_no_handler(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        conn.send(a, "ping", size_bytes=8)

        def reader(env, b):
            msg = yield b.recv()
            return msg.kind

        p = env.process(reader(env, b))
        env.run()
        assert p.value == "ping"

    def test_bidirectional(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        got = []
        a.set_handler(lambda m, c: got.append(("a", m.kind)))
        b.set_handler(lambda m, c: c.send(b, "pong", size_bytes=8))
        conn.send(a, "ping", size_bytes=8)
        env.run()
        assert got == [("a", "pong")]

    def test_nic_counters_both_sides(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        b.set_handler(lambda m, c: None)
        conn.send(a, "data", size_bytes=1000)
        env.run()
        assert a.host.nic.tx_bytes == 1000
        assert b.host.nic.rx_bytes == 1000
        assert a.host.nic.tx_messages == 1
        assert b.host.nic.rx_messages == 1

    def test_transfer_time_includes_latency_and_bandwidth(self, env):
        link = Link(hop_latency=1e-6, bandwidth=1e9)
        cluster = build_cluster(env, 2, link=link)
        net, a, b, conn = _pair(cluster)
        arrivals = []
        b.set_handler(lambda m, c: arrivals.append(env.now))
        conn.send(a, "big", size_bytes=10**6)  # 1 MB over 1 GB/s = 1 ms
        env.run()
        # hosts 0 and 1 share a rack -> 2 hops
        assert arrivals[0] == pytest.approx(2e-6 + 1e-3)

    def test_extra_delay_shifts_delivery(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        arrivals = []
        b.set_handler(lambda m, c: arrivals.append(env.now))
        conn.send(a, "slow", size_bytes=0, extra_delay=0.5)
        env.run()
        assert arrivals[0] >= 0.5

    def test_negative_extra_delay_rejected(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        with pytest.raises(ValueError):
            conn.send(a, "bad", extra_delay=-0.1)

    def test_fifo_within_flow_under_jitter(self, env):
        """Even with jitter, one flow's messages never reorder."""
        import numpy as np

        from repro.simnet.link import NormalJitterDelay

        rng = np.random.default_rng(42)
        link = Link(jitter=NormalJitterDelay(rng, mean=0.0, std=5e-4))
        cluster = build_cluster(env, 2, link=link)
        net, a, b, conn = _pair(cluster)
        got = []
        b.set_handler(lambda m, c: got.append(m.payload))
        for i in range(200):
            conn.send(a, "seq", payload=i, size_bytes=10)
        env.run()
        assert got == list(range(200))

    def test_negative_size_rejected(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        with pytest.raises(ValueError):
            conn.send(a, "bad", size_bytes=-1)

    def test_closed_in_flight_is_dropped_at_delivery(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        got = []
        b.set_handler(lambda m, c: got.append(m))
        conn.send(a, "late", size_bytes=100)
        conn.close()
        env.run()
        assert got == [] and b.host.nic.rx_messages == 0
        assert env.processed_events == 1


class TestNonFinite:
    """NaN passes every ``< 0`` check; infinity is no delay either."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: Link(hop_latency=v),
            lambda v: Link(bandwidth=v),
            lambda v: FixedDelay(v),
            lambda v: NormalJitterDelay(np.random.default_rng(0), mean=v),
            lambda v: NormalJitterDelay(np.random.default_rng(0), std=v),
            lambda v: Network(Environment(), nic_bandwidth_Bps=v),
        ],
        ids=["hop_latency", "bandwidth", "fixed", "mean", "std", "nic"],
    )
    def test_rejected(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_extra_delay_rejected(self, env, cluster, bad):
        net, a, b, conn = _pair(cluster)
        with pytest.raises(ValueError):
            conn.send(a, "x", extra_delay=bad)
        assert env._queue == [] and a.host.nic.tx_messages == 0


_SEND = st.tuples(
    st.sampled_from([0.0, 0.0, 1e-7, 2.5e-6, 1e-3]),  # gap before the send
    st.integers(0, 1 << 20),  # size
    st.sampled_from([0.0, 0.0, 3e-7, 1e-5, 0.1]),  # extra delay
)


class TestFusedSendArithmetic:
    """``Connection.send`` computes delivery time inline; it must equal
    ``Link.transfer_time`` plus the NIC and FIFO-floor steps, bit for
    bit, for the heap key and for the clock at delivery."""

    @settings(max_examples=150, deadline=None)
    @given(
        sends=st.lists(_SEND, min_size=1, max_size=12),
        nic=st.sampled_from([None, 1e9, 3e7]),
        jitter=st.sampled_from([None, 0.0, 1.5e-6]),
    )
    def test_matches_the_reference(self, sends, nic, jitter):
        env = Environment()
        link = Link(jitter=None if jitter is None else FixedDelay(jitter))
        net = Network(env, link=link, nic_bandwidth_Bps=nic)
        a = net.attach(SimHost(env, "h0"), "a")
        b = net.attach(SimHost(env, "h1"), "b")
        conn = net.connect(a, b)
        delivered = {}
        b.set_handler(lambda m, c: delivered.setdefault(m.seq, env.now))
        tx_free = rx_free = floor = 0.0
        expected = {}
        for gap, size, extra in sends:
            env.run(until=env.now + gap)
            now = env.now
            message = conn.send(a, "m", size_bytes=size, extra_delay=extra)
            delay = link.transfer_time(size, 3)
            departure = now + extra
            if nic is None:
                when = departure + delay
            else:
                departure = max(departure, tx_free) + size / nic
                tx_free = departure
                when = max(departure + delay, rx_free + size / nic)
                rx_free = when
            when = max(when, floor)
            floor = when
            (key,) = [
                key
                for key, bucket in env._buckets.items()
                if any(item is message for _, item in bucket)
            ]
            assert key == (now + (when - now), 1)
            assert key[0].hex() == (now + (when - now)).hex()
            expected[message.seq] = key[0]
        env.run()
        assert delivered == expected


class TestConnectionManagement:
    def test_connect_consumes_slot_on_both_hosts(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        assert net.pool_of(a.host).open_connections == 1
        assert net.pool_of(b.host).open_connections == 1

    def test_close_releases_slots(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        conn.close()
        assert net.pool_of(a.host).open_connections == 0
        assert net.pool_of(b.host).open_connections == 0

    def test_send_on_closed_raises(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        conn.close()
        with pytest.raises(SimulationError):
            conn.send(a, "late")

    def test_double_close_is_noop(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        conn.close()
        conn.close()

    def test_connection_limit_enforced(self, env):
        cluster = build_cluster(env, 5, max_connections_per_host=3)
        net = cluster.network
        hub = net.attach(cluster.host(0), "hub")
        for i in range(1, 4):
            net.connect(hub, net.attach(cluster.host(i), f"leaf-{i}"))
        with pytest.raises(ConnectionLimitExceeded):
            net.connect(hub, net.attach(cluster.host(4), "leaf-4"))

    def test_failed_connect_leaks_no_slot(self, env):
        cluster = build_cluster(env, 3, max_connections_per_host=1)
        net = cluster.network
        a = net.attach(cluster.host(0), "a")
        b = net.attach(cluster.host(1), "b")
        c = net.attach(cluster.host(2), "c")
        net.connect(b, c)  # saturates b and c
        with pytest.raises(ConnectionLimitExceeded):
            net.connect(a, b)
        # a's provisional slot must have been released
        assert net.pool_of(a.host).open_connections == 0

    def test_reserve_system_slots(self, env):
        cluster = build_cluster(env, 3, max_connections_per_host=1)
        net = cluster.network
        hub_host = cluster.host(0)
        net.reserve_system_slots(hub_host, 1)
        hub = net.attach(hub_host, "hub")
        net.connect(hub, net.attach(cluster.host(1), "x"))
        net.connect(hub, net.attach(cluster.host(2), "y"))  # would fail without reserve

    def test_self_connection_rejected(self, env, cluster):
        net = cluster.network
        a = net.attach(cluster.host(0), "self")
        with pytest.raises(SimulationError):
            net.connect(a, a)

    def test_duplicate_endpoint_name_rejected(self, env, cluster):
        net = cluster.network
        net.attach(cluster.host(0), "dup")
        with pytest.raises(SimulationError):
            net.attach(cluster.host(0), "dup")

    def test_frontera_default_limit(self, env):
        from repro.simnet.transport import FRONTERA_CONNECTION_LIMIT

        assert FRONTERA_CONNECTION_LIMIT == 2500
        net = Network(env)
        assert net.max_connections_per_host == 2500
