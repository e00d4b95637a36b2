"""Tests for the command-line interface."""

import hashlib
import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_flat_requires_nodes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flat"])

    def test_live_has_no_codec_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["live", "--codec", "json"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --codec json" in capsys.readouterr().err


class TestFlat:
    def test_table_output(self, capsys):
        code, out = run_cli(capsys, "flat", "--nodes", "50", "--cycles", "5")
        assert code == 0
        assert "mean cycle (ms)" in out
        assert "flat" in out

    def test_json_output(self, capsys):
        code, out = run_cli(
            capsys, "flat", "--nodes", "50", "--cycles", "5", "--json"
        )
        payload = json.loads(out)
        assert payload["design"] == "flat"
        assert payload["mean_ms"] > 0


class TestHier:
    def test_runs(self, capsys):
        code, out = run_cli(
            capsys,
            "hier", "--nodes", "80", "--aggregators", "4", "--cycles", "5",
            "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["design"] == "hierarchical"
        assert payload["n_aggregators"] == 4
        assert "aggregator_cpu_percent" in payload

    def test_offload_flag(self, capsys):
        code, out = run_cli(
            capsys,
            "hier", "--nodes", "40", "--aggregators", "2", "--cycles", "4",
            "--offload", "--json",
        )
        assert json.loads(out)["design"] == "hierarchical-offload"


class TestCoordinated:
    def test_runs(self, capsys):
        code, out = run_cli(
            capsys,
            "coordinated", "--nodes", "40", "--controllers", "2",
            "--cycles", "4", "--json",
        )
        assert json.loads(out)["design"] == "coordinated-flat"


class TestTimingGoldens:
    """The ``--json`` payloads of a coordinated and an offloaded run, by
    sha256. Simulated timings come from message counts and the cost
    model, not from the grants, so moving where a plane computes must not
    move a byte of them."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["coordinated", "--nodes", "400", "--controllers", "4",
                 "--cycles", "5", "--json"],
                "5fbdbb1824f541f55fe4ccc7666aa4895841eb8ff182646428cde3f3d1f85e00",
            ),
            (
                ["hier", "--nodes", "400", "--aggregators", "4", "--cycles", "3",
                 "--offload", "--json"],
                "80ed8966e125ed9f9dc4bb334fc2c42bfd98fae795320ef37d08e9c798cc11b3",
            ),
        ],
        ids=["coordinated", "hier-offload"],
    )
    def test_json_payload_is_pinned(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestReproduce:
    def test_table1_fast(self, capsys):
        code, out = run_cli(capsys, "reproduce", "table1")
        assert code == 0
        assert "Frontier" in out and "Fugaku" in out

    def test_fig4_small_cycles(self, capsys):
        code, out = run_cli(capsys, "reproduce", "fig4", "--cycles", "5")
        assert code == 0
        assert "flat @ 2500" in out
        assert "paper (ms)" in out

    def test_json_payload_keys(self, capsys):
        code, out = run_cli(
            capsys, "reproduce", "table1", "--json"
        )
        payload = json.loads(out)
        assert "table1" in payload


class TestPlan:
    def test_flat_recommendation(self, capsys):
        code, out = run_cli(capsys, "plan", "--nodes", "500", "--target-ms", "30")
        assert code == 0
        assert "flat" in out

    def test_hier_recommendation(self, capsys):
        code, out = run_cli(
            capsys, "plan", "--nodes", "9408", "--target-ms", "150", "--json"
        )
        payload = json.loads(out)
        assert payload["design"] == "hierarchical"
        assert payload["n_aggregators"] >= 4

    def test_unmeetable_target_exit_code(self, capsys):
        code, out = run_cli(
            capsys, "plan", "--nodes", "10000", "--target-ms", "1"
        )
        assert code == 2

    def test_custom_connection_limit(self, capsys):
        code, out = run_cli(
            capsys,
            "plan", "--nodes", "10000", "--target-ms", "500",
            "--connection-limit", "20000", "--json",
        )
        assert json.loads(out)["design"] == "flat"


class TestLive:
    def test_runs_real_sockets(self, capsys):
        code, out = run_cli(
            capsys, "live", "--stages", "8", "--cycles", "6", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["rules_applied"] == 8 * 6
        assert payload["mean_ms"] > 0

    def test_obs_out_writes_wall_clock_trace(self, capsys, tmp_path):
        from repro.obs.chrome_trace import validate_chrome_trace

        trace = tmp_path / "live.json"
        code, out = run_cli(
            capsys,
            "live", "--stages", "6", "--cycles", "4",
            "--obs-out", str(trace), "--json",
        )
        payload = json.loads(out)
        assert code == 0
        doc = json.loads(trace.read_text(encoding="utf-8"))
        assert doc["otherData"]["clock_domain"] == "wall"
        names = validate_chrome_trace(doc)
        assert names.count("cycle") == 4
        assert payload["usage"]["global-ctrl"]["cpu_percent"] > 0

    def test_metrics_port_reported(self, capsys):
        code, out = run_cli(
            capsys,
            "live", "--stages", "4", "--cycles", "3",
            "--metrics-port", "0", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["metrics_port"] > 0


class TestTraceOut:
    def test_flat_trace_is_sim_clock(self, capsys, tmp_path):
        from repro.obs.chrome_trace import validate_chrome_trace

        trace = tmp_path / "flat.json"
        code, out = run_cli(
            capsys,
            "flat", "--nodes", "30", "--cycles", "4",
            "--trace-out", str(trace), "--json",
        )
        assert code == 0
        doc = json.loads(trace.read_text(encoding="utf-8"))
        assert doc["otherData"]["clock_domain"] == "sim"
        names = validate_chrome_trace(doc)
        assert {"cycle", "collect", "compute", "enforce"} <= set(names)

    def test_hier_trace_has_aggregator_tracks(self, capsys, tmp_path):
        trace = tmp_path / "hier.json"
        code, out = run_cli(
            capsys,
            "hier", "--nodes", "40", "--aggregators", "2", "--cycles", "4",
            "--trace-out", str(trace), "--json",
        )
        assert code == 0
        doc = json.loads(trace.read_text(encoding="utf-8"))
        tracks = doc["otherData"]["tracks"]
        assert "global-ctrl" in tracks
        assert "aggregator-00" in tracks

    def test_coordinated_trace_has_peer_tracks(self, capsys, tmp_path):
        trace = tmp_path / "coord.json"
        code, out = run_cli(
            capsys,
            "coordinated", "--nodes", "40", "--controllers", "2",
            "--cycles", "4", "--trace-out", str(trace), "--json",
        )
        assert code == 0
        doc = json.loads(trace.read_text(encoding="utf-8"))
        assert "peer-ctrl-00" in doc["otherData"]["tracks"]

    def test_no_trace_flag_writes_nothing(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "flat", "--nodes", "20", "--cycles", "3", "--json"
        )
        assert code == 0
        assert list(tmp_path.iterdir()) == []


class TestCalibrate:
    def test_reports_errors(self, capsys):
        code, out = run_cli(capsys, "calibrate")
        assert code == 0
        assert "flat@2500" in out
        assert "refit error" in out


class TestReport:
    def test_scaled_report_to_stdout(self, capsys):
        code, out = run_cli(capsys, "report", "--scale", "50", "--cycles", "4")
        assert code == 0
        assert "# Reproduction report" in out
        assert "## Qualitative findings" in out

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        code, out = run_cli(
            capsys,
            "report", "--scale", "50", "--cycles", "4",
            "--output", str(target),
        )
        assert code == 0
        assert target.exists()
        assert "## Fig. 5" in target.read_text()


class TestArchive:
    def test_run_list_show_roundtrip(self, capsys, tmp_path, monkeypatch):
        d = str(tmp_path / "runs")
        code, out = run_cli(
            capsys,
            "archive", "run", "--dir", d, "--name", "flat-20",
            "--nodes", "20", "--cycles", "4",
        )
        assert code == 0 and "saved flat run" in out
        code, out = run_cli(capsys, "archive", "list", "--dir", d)
        assert code == 0 and "flat-20" in out
        code, out = run_cli(
            capsys, "archive", "show", "--dir", d, "--name", "flat-20", "--json"
        )
        payload = json.loads(out)
        assert payload["design"] == "flat" and payload["n_stages"] == 20

    def test_hier_run_saved(self, capsys, tmp_path):
        d = str(tmp_path / "runs")
        code, out = run_cli(
            capsys,
            "archive", "run", "--dir", d, "--name", "h", "--nodes", "20",
            "--aggregators", "2", "--cycles", "4", "--json",
        )
        assert json.loads(out)["design"] == "hierarchical"

    def test_missing_args_error(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "archive", "run", "--dir", str(tmp_path)
        )
        assert code == 1

    def test_empty_list(self, capsys, tmp_path):
        code, out = run_cli(capsys, "archive", "list", "--dir", str(tmp_path))
        assert code == 0 and "(empty)" in out


class TestChaos:
    def test_sim_hier_with_report(self, capsys, tmp_path):
        out_path = tmp_path / "chaos.json"
        code, out = run_cli(
            capsys,
            "chaos", "--plane", "sim", "--design", "hier", "--seed", "7",
            "--report-out", str(out_path),
        )
        assert code == 0
        assert "chaos[sim/hier] seed=7" in out and ": OK" in out
        report = json.loads(out_path.read_text())
        assert report["ok"] is True and report["seed"] == 7

    def test_sim_flat_json_output(self, capsys):
        code, out = run_cli(
            capsys, "chaos", "--plane", "sim", "--design", "flat",
            "--seed", "3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["plane"] == "sim" and payload["design"] == "flat"
        assert payload["ok"] is True


class TestChaosRestart:
    def test_full_restart_schedule_runs(self, capsys, tmp_path):
        code, out = run_cli(
            capsys,
            "chaos", "--plane", "live", "--schedule", "full-restart",
            "--seed", "7", "--stages", "6", "--aggregators", "2",
            "--cycles", "12", "--cycle-period", "0.02",
            "--store-dir", str(tmp_path / "store"), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["design"] == "restart"
        assert payload["restarts"] == 1
        assert payload["ok"] is True

    def test_full_restart_requires_live_plane(self, capsys):
        code, _ = run_cli(
            capsys, "chaos", "--plane", "sim", "--schedule", "full-restart"
        )
        assert code == 2


class TestServe:
    def test_serve_bounded_run_and_store_inspect(self, capsys, tmp_path):
        store_dir = str(tmp_path / "state")
        code, out = run_cli(
            capsys,
            "serve", "--store-dir", store_dir, "--stages", "4",
            "--aggregators", "2", "--cycle-period", "0.01",
            "--max-cycles", "3", "--json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["cycles_run"] == 3
        assert summary["resumed"] is False

        code, out = run_cli(
            capsys, "store", "inspect", "--dir", store_dir, "--json"
        )
        assert code == 0
        info = json.loads(out)
        assert info["cycles_recorded"] == 3
        assert info["durable_epoch"] >= summary["epoch"]
        assert info["resume_epoch"] > info["durable_epoch"]

    def test_serve_resumes_from_prior_store(self, capsys, tmp_path):
        store_dir = str(tmp_path / "state")
        _, first = run_cli(
            capsys,
            "serve", "--store-dir", store_dir, "--stages", "4",
            "--aggregators", "2", "--cycle-period", "0.01",
            "--max-cycles", "2", "--json",
        )
        code, second = run_cli(
            capsys,
            "serve", "--store-dir", store_dir, "--stages", "4",
            "--aggregators", "2", "--cycle-period", "0.01",
            "--max-cycles", "2", "--json",
        )
        assert code == 0
        before, after = json.loads(first), json.loads(second)
        assert after["resumed"] is True
        assert after["initial_epoch"] > before["epoch"]
