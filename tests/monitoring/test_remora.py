"""Unit tests for the REMORA-like resource reporting."""

import pytest

from repro.monitoring.remora import ControllerUsage, RemoraReport, RemoraSession
from repro.simnet.engine import Environment
from repro.simnet.node import SimHost


@pytest.fixture
def env():
    return Environment()


def usage(name, cpu=1.0, mem=0.5, tx=2.0, rx=1.0):
    return ControllerUsage(name, cpu, mem, tx, rx)


class TestRemoraSession:
    def test_whole_window_averages(self, env):
        host = SimHost(env, "global-ctrl", cores=10)
        session = RemoraSession(env, {"global-ctrl": host})
        session.start()
        env.call_at(0.5, lambda: host.charge(5.0))
        env.call_at(0.5, lambda: host.nic.record_tx(10_000_000))
        env.run(until=1.0)
        session.stop()
        report = session.report()
        row = report.global_usage()
        assert row.cpu_percent == pytest.approx(50.0)  # 5 core-s / (1 s * 10)
        assert row.transmitted_mb_s == pytest.approx(10.0)

    def test_baseline_excludes_prior_activity(self, env):
        host = SimHost(env, "global-ctrl")
        host.charge(100.0)
        host.nic.record_rx(5_000_000)
        env.run(until=1.0)
        session = RemoraSession(env, {"global-ctrl": host})
        session.start()
        env.run(until=2.0)
        session.stop()
        row = session.report().global_usage()
        assert row.cpu_percent == 0.0
        assert row.received_mb_s == 0.0

    def test_memory_is_resident_bytes(self, env):
        host = SimHost(env, "global-ctrl")
        host.allocate(2 * 1024**3)
        session = RemoraSession(env, {"global-ctrl": host})
        session.start()
        env.run(until=1.0)
        session.stop()
        assert session.report().global_usage().memory_gb == pytest.approx(2.0)

    def test_report_without_start_rejected(self, env):
        session = RemoraSession(env, {"h": SimHost(env, "h")})
        with pytest.raises(RuntimeError):
            session.report()

    def test_empty_window_rejected(self, env):
        host = SimHost(env, "h")
        session = RemoraSession(env, {"h": host})
        session.start()
        session.stop()
        with pytest.raises(RuntimeError):
            session.report()


class TestRemoraReport:
    def test_average_across_aggregators(self):
        report = RemoraReport(
            {
                "aggregator-00": usage("aggregator-00", cpu=2.0),
                "aggregator-01": usage("aggregator-01", cpu=4.0),
                "global-ctrl": usage("global-ctrl", cpu=10.0),
            }
        )
        agg = report.aggregator_usage()
        assert agg.cpu_percent == pytest.approx(3.0)
        assert report.global_usage().cpu_percent == 10.0

    def test_no_aggregators_returns_none(self):
        report = RemoraReport({"global-ctrl": usage("global-ctrl")})
        assert report.aggregator_usage() is None

    def test_peer_fallback_for_global(self):
        report = RemoraReport(
            {
                "peer-ctrl-00": usage("peer-ctrl-00", cpu=2.0),
                "peer-ctrl-01": usage("peer-ctrl-01", cpu=4.0),
            }
        )
        assert report.global_usage().cpu_percent == pytest.approx(3.0)

    def test_no_global_raises(self):
        with pytest.raises(KeyError):
            RemoraReport({"other": usage("other")}).global_usage()

    def test_table_row_for_a_host_name(self):
        report = RemoraReport(
            {
                "aggregator-00": usage("aggregator-00", cpu=2.0),
                "global-ctrl": usage("global-ctrl", cpu=10.0),
            }
        )
        assert report.table_row("aggregator-00") == [
            "aggregator-00", "2.0", "0.500", "2.000", "1.000"
        ]
        with pytest.raises(KeyError):
            report.table_row("aggregator-07")

    def test_average_empty_rejected(self):
        with pytest.raises(ValueError):
            RemoraReport({}).average([], "x")

    def test_as_dict_keys(self):
        d = usage("u").as_dict()
        assert set(d) == {
            "cpu_percent",
            "memory_gb",
            "transmitted_mb_s",
            "received_mb_s",
        }
