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
    bit, for the heap key and for the clock at delivery. A
    ``Network.send_many`` burst must equal the same messages sent one by
    one, bit for bit, and raise as ``send`` would before sending any."""

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
                if any(item is message for item in bucket)
            ]
            assert key == (now + (when - now), 1)
            assert key[0].hex() == (now + (when - now)).hex()
            expected[message.seq] = key[0]
        env.run()
        assert delivered == expected


    # -- send_many: one burst is the same sends, bit for bit -------------

    @staticmethod
    def _twin(nic, jitter):
        """A network of four hosts at mixed hop counts, three endpoints
        on h0 and one on each other host, connected as in a fan-out plus
        a peer link; returns ``(env, net, endpoints, connections)``."""
        env = Environment()
        if jitter == "normal":
            model = NormalJitterDelay(np.random.default_rng(7), std=2e-6)
        else:
            model = None if jitter is None else FixedDelay(jitter)
        net = Network(
            env,
            link=Link(jitter=model),
            nic_bandwidth_Bps=nic,
            hop_resolver=lambda x, y: (int(x.name[1:]) + int(y.name[1:])) % 4,
        )
        hosts = [SimHost(env, f"h{i}") for i in range(4)]
        eps = [net.attach(hosts[0], f"c{i}") for i in range(3)]
        eps += [net.attach(hosts[i], f"s{i}") for i in range(1, 4)]
        conns = [net.connect(eps[0], eps[i]) for i in (3, 4, 5)]
        conns += [net.connect(eps[1], eps[2]), net.connect(eps[2], eps[4])]
        for ep in eps:
            ep.set_handler(lambda m, c: None)
        return env, net, eps, conns

    @staticmethod
    def _state(env, net, eps, conns):
        index = {id(c): i for i, c in enumerate(conns)}
        queued = {
            (index[id(m.via)], m.seq): (
                key,
                key[0].hex(),
                m.kind,
                m.payload,
                m.size_bytes,
                m.sender,
                m.recipient,
                m.sent_at,
            )
            for key, bucket in env._buckets.items()
            for m in bucket
        }
        nics = [
            (n.tx_bytes, n.tx_messages, n.rx_bytes, n.rx_messages)
            for n in (ep.host.nic for ep in eps)
        ]
        return (
            queued,
            [(c._seq, [f.hex() for f in (c._floor_a, c._floor_b)]) for c in conns],
            nics,
            (net.messages_sent, net.bytes_sent),
            dict(net._nic_tx_free),
            dict(net._nic_rx_free),
        )

    @settings(max_examples=150, deadline=None)
    @given(
        bursts=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 1e-7, 2.5e-6, 1e-3]),  # gap before
                st.lists(
                    st.tuples(
                        st.integers(0, 4),  # connection
                        st.booleans(),  # from its b side
                        st.integers(0, 1 << 20),  # size
                    ),
                    min_size=1,
                    max_size=10,
                ),
                st.booleans(),  # one size for the burst
            ),
            min_size=1,
            max_size=5,
        ),
        nic=st.sampled_from([None, 1e9, 3e7]),
        jitter=st.sampled_from([None, 1.5e-6, "normal"]),
    )
    def test_send_many_is_send_bit_for_bit(self, bursts, nic, jitter):
        burst_env, burst_net, burst_eps, burst_conns = self._twin(nic, jitter)
        env, net, eps, conns = self._twin(nic, jitter)
        for gap, items, one_size in bursts:
            for e in (burst_env, env):
                e.run(until=e.now + gap)
            sizes = [items[0][2]] * len(items) if one_size else [i[2] for i in items]
            links, payloads = [], []
            for k, ((c, from_b, _), size) in enumerate(zip(items, sizes)):
                conn = conns[c]
                conn.send(conn.b if from_b else conn.a, "m", (k, size), size)
                twin = burst_conns[c]
                links.append((twin, twin.b if from_b else twin.a))
                payloads.append((k, size))
            burst_net.send_many(links, "m", payloads, sizes[0] if one_size else sizes)
            assert self._state(burst_env, burst_net, burst_eps, burst_conns) == (
                self._state(env, net, eps, conns)
            )
        delivered, burst_delivered = [], []
        for e, ep_list, log in (
            (env, eps, delivered),
            (burst_env, burst_eps, burst_delivered),
        ):
            for ep in ep_list:
                ep.set_handler(
                    lambda m, c, e=e, log=log: log.append(
                        (e.now.hex(), m.recipient, m.seq)
                    )
                )
            e.run()
        assert burst_delivered == delivered
        assert self._state(burst_env, burst_net, burst_eps, burst_conns) == (
            self._state(env, net, eps, conns)
        )

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda eps, conns, links: links.append((conns[0], eps[1])),
            lambda eps, conns, links: links.append((conns[0], eps[5])),
        ],
        ids=["foreign-sender", "sender-on-another-link"],
    )
    def test_send_many_raises_as_send_and_sends_nothing(self, spoil):
        env, net, eps, conns = self._twin(1e9, "normal")
        links = [(c, c.a) for c in conns]
        spoil(eps, conns, links)
        bad_conn, bad_sender = next(
            (c, s) for c, s in links if s not in (c.a, c.b)
        )
        with pytest.raises(SimulationError) as expected:
            bad_conn.send(bad_sender, "m", None, 10)
        before = self._state(env, net, eps, conns)
        with pytest.raises(SimulationError) as raised:
            net.send_many(links, "m", [None] * len(links), 10)
        assert str(raised.value) == str(expected.value)
        assert self._state(env, net, eps, conns) == before
        assert env._queue == [] and net.messages_sent == 0

    @pytest.mark.parametrize(
        "payloads, sizes",
        [
            ([None] * 5, [10, 10, -1, 10, 10]),
            ([None] * 5, -1),
            ([None] * 5, [10] * 4),
            ([None] * 4, 10),
        ],
        ids=["negative-size", "negative-burst-size", "short-sizes", "short-payloads"],
    )
    def test_send_many_bad_burst_sends_nothing(self, payloads, sizes):
        env, net, eps, conns = self._twin(None, None)
        with pytest.raises(ValueError):
            net.send_many([(c, c.a) for c in conns], "m", payloads, sizes)
        assert env._queue == [] and net.messages_sent == 0
        assert [c._seq for c in conns] == [0] * 5
        assert all(ep.host.nic.tx_messages == 0 for ep in eps)


class TestConnectionManagement:
    def test_connect_consumes_slot_on_both_hosts(self, env, cluster):
        net, a, b, conn = _pair(cluster)
        assert net.pool_of(a.host).open_connections == 1
        assert net.pool_of(b.host).open_connections == 1

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
