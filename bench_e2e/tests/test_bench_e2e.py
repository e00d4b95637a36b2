"""Self-tests for the benchmark itself (not part of tier-1).

Run by explicit path — ``python -m pytest bench_e2e/tests`` from the repo
root; ``testpaths`` keeps them out of the default suite. The same runner
the contract uses drives a 50-stage, 6-cycle spec of every workload.
"""

import json
import re
import subprocess
import sys

import pytest

from bench_e2e import compare, run, workloads
from bench_e2e.workloads import SPECS

CONTRACT = run.load_contract()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
STAGES = 50
CYCLES = 6


@pytest.fixture(scope="module")
def results():
    """One untraced and one traced run per workload, on the small spec."""
    # Six 50-stage cycles last ~40 ms: the REST client's 100 ms think time
    # would never reach its first POST, so it runs back to back here.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "_REST_THINK_S", 0.0)
        yield _small_runs()


def _small_runs():
    return {
        (name, trace): run.run_workload(
            spec.scaled(STAGES), seed=7, seconds=60.0, trace=trace, max_cycles=CYCLES
        )
        for name, spec in SPECS.items()
        for trace in (False, True)
    }


class TestContract:
    def test_workloads_match_the_specs(self):
        assert [w["name"] for w in CONTRACT["workloads"]] == list(SPECS)

    def test_names_and_setup_metric(self):
        names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
        names += [w["name"] for w in CONTRACT["workloads"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names), names
        setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


class TestRunner:
    @pytest.mark.parametrize("name", list(SPECS))
    def test_small_spec_is_correct_and_complete(self, results, name):
        for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
            result = results[name, trace]
            assert result["correct"], result["violations"]
            assert result["failed"] == 0
            assert result["values"]["failed_share"] == 0
            assert result["cycles"]["untraced"] == CYCLES
            line = json.loads(run.contract_line(result, CONTRACT))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [m["name"] for m in CONTRACT[declared]]
            assert all(
                isinstance(m["value"], float) for m in line["metrics"].values()
            )

    def test_end_to_end_metrics_are_never_zero(self, results):
        for name in SPECS:
            values = results[name, False]["values"]
            for metric in CONTRACT["end_to_end"]:
                assert values[metric["name"]] > 0, (name, metric["name"])

    def test_every_declared_layer_metric_is_measured_somewhere(self, results):
        """A typo in BENCHMARK.json would otherwise read as a quiet 0."""
        measured = set()
        for name in SPECS:
            values = results[name, True]["values"]
            measured |= {k for k, v in values.items() if v is not None}
        declared = {m["name"] for m in CONTRACT["per_layer"]}
        assert declared <= measured, sorted(declared - measured)

    def test_ledger_accounts_for_the_cycle(self, results):
        from bench_e2e.probes import LEDGER

        for name in SPECS:
            values = results[name, True]["values"]
            share = values["loop.unattributed_share"]
            assert 0.0 <= share < 1.0, (name, share)
            assert all(values[line] is not None for line in LEDGER), name

    def test_simulated_cycle_is_pinned_only_at_the_papers_point(self, results):
        # 50 stages is not the paper's point; the check must not fire.
        assert results["sim-hier-10000x4", False]["correct"]


class TestProbes:
    def test_removed_target_becomes_missing_not_a_crash(self):
        from bench_e2e.probes import Probe, Recorder

        recorder = Recorder()
        recorder.install(
            [
                Probe("gone.function", ("repro.live.codec.no_such_codec_rev",)),
                Probe("gone.module", ("repro.no_such_module.f",)),
                Probe("codec.decode", ("repro.live.protocol.decode_body",)),
            ]
        )
        try:
            assert recorder.missing == ["gone.function", "gone.module"]
        finally:
            recorder.uninstall()

    def test_uninstall_restores_the_original(self):
        import repro.live.protocol as protocol
        from bench_e2e.probes import install

        original = protocol.decode_body
        recorder = install()
        assert protocol.decode_body is not original
        recorder.uninstall()
        assert protocol.decode_body is original

    def test_missing_probe_reads_as_null_metrics(self, results):
        from bench_e2e.probes import Recorder

        recorder = Recorder()
        recorder.missing.extend(["codec.encode", "sessions.flush"])

        class Leg:
            cycles = 1
            durations = [1.0]

        values = run._probe_metrics(recorder, Leg(), 0)
        assert values["codec.encode_ms_per_cycle"] is None
        assert values["codec.frames_per_cycle"] is None
        assert values["sessions.flushes_per_cycle"] is None
        assert values["codec.decode_ms_per_cycle"] == 0.0

    def test_untraced_path_never_imports_the_probe_module(self):
        code = (
            "import sys; from bench_e2e import run; "
            "from bench_e2e.workloads import SPECS; "
            "run.run_workload(SPECS['flat-2500'].scaled(8), 1, 60.0, False, max_cycles=2); "
            "assert 'bench_e2e.probes' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, check=True)


def _report(tmp_path, label, host, p50, blocks):
    report = {
        "schema": compare.SCHEMA,
        "host": host,
        "bounds": {"cycle_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.10}},
        "workloads": {
            "flat-2500": {
                "end_to_end": {"cycle_p50_ms": p50},
                "samples": {"cycle_p50_ms": blocks},
            }
        },
    }
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(report))
    return str(path)


class TestCompare:
    HOST = {
        "nproc": 2, "cpu_model": "x", "python": "3.11.7",
        "numpy": "2.0", "event_loop": "asyncio",
    }

    def test_refuses_mismatched_host_stamps(self, tmp_path, capsys):
        a = _report(tmp_path, "a", self.HOST, 400.0, [400.0] * 5)
        b = _report(tmp_path, "b", dict(self.HOST, nproc=1), 400.0, [400.0] * 5)
        assert compare.main([a, b]) == 2
        assert "nproc" in capsys.readouterr().out

    def test_regression_past_the_bound_fails(self, tmp_path, capsys):
        a = _report(tmp_path, "a", self.HOST, 400.0, [400.0] * 5)
        b = _report(tmp_path, "b", self.HOST, 460.0, [460.0] * 5)
        assert compare.main([a, b]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_noisy_blocks_are_unresolved_not_unchanged(self, tmp_path, capsys):
        a = _report(tmp_path, "a", self.HOST, 400.0, [400.0] * 5)
        b = _report(tmp_path, "b", self.HOST, 410.0, [330.0, 380.0, 410.0, 470.0, 520.0])
        assert compare.main([a, b]) == 0
        assert "unresolved" in capsys.readouterr().out

    def test_quiet_blocks_inside_the_bound_are_unchanged(self, tmp_path, capsys):
        a = _report(tmp_path, "a", self.HOST, 400.0, [398.0, 400.0, 401.0, 402.0, 399.0])
        b = _report(tmp_path, "b", self.HOST, 410.0, [408.0, 410.0, 411.0, 409.0, 412.0])
        assert compare.main([a, b]) == 0
        assert "unchanged" in capsys.readouterr().out
