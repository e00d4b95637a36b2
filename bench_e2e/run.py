"""One workload, one process: the command ``BENCHMARK.json`` names.

``python3 -m bench_e2e.run --workload W --seed N --seconds T --trace 0|1``
builds the plane, runs closed-loop control cycles for ``T`` seconds (the
next cycle starts when the previous returns; exactly one is ever in
flight), checks every cycle's outputs, and prints one JSON object as the
last line of stdout: ``correct``, ``attempted``, ``failed``, ``metrics``.
Every timed wall time is divided by the host slowdown probed just before
it (:class:`bench_e2e.host.SpeedProbe`), so a noisy-neighbour episode does
not read as a regression; the uncorrected median rides along per-layer.

Every run builds the plane several times before it measures (``setup_s``
is the median). ``--trace 0`` is the untraced run the end-to-end metrics
come from. ``--trace 1`` splits ``T`` into an untraced baseline leg, a leg
with the :mod:`bench_e2e.probes` wrappers installed (the per-layer ledger)
and — on ``flat-2500`` only — a leg on a fresh plane built with span
tracer, usage meter and metrics registry supplied
(``obs.overhead_share``). The untraced path never imports the probe
module.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

from bench_e2e import ROOT, SCRATCH_ROOT

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench_e2e import host, workloads  # noqa: E402  (needs src/ on the path)
from bench_e2e.workloads import SPECS, Spec  # noqa: E402

__all__ = ["load_contract", "main", "run_workload"]

#: Times the plane is built before measuring (``setup_s`` = median). It is
#: also what puts the process in its steady state: on a fresh heap CPython
#: hands freed arenas back to the kernel between phases and faults them in
#: again (~11,000 minor faults and ~50 ms of system time per 2,500-stage
#: cycle, p50 460-730 ms); after a few build/teardown rounds the heap is
#: fragmented enough to keep them (~5 faults, p50 400-450 ms). A service
#: that has run for a while is in the second state, so that is the one
#: measured — in traced runs too, so both read the same process state.
SETUPS = 5
#: Untimed cycles after set-up: the first cycle pays lazy imports and
#: cold caches, the next two settle allocator and socket buffers.
WARMUP_CYCLES = 3
#: ``stage_cycles_per_s`` is the median over this many consecutive blocks,
#: so one noisy-neighbour episode shorter than 2/5 of a run cannot move it.
BLOCKS = 5
#: How ``--seconds`` is split across the legs of a traced run.
_TRACED_SPLIT = {"flat": (0.35, 0.40, 0.25)}
_TRACED_SPLIT_DEFAULT = (0.40, 0.60, 0.0)


def load_contract() -> Dict:
    """``BENCHMARK.json``: the metric names, units and bounds to emit."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


class _Leg:
    """Timed cycles of one measurement leg, with counter deltas."""

    def __init__(self) -> None:
        #: Wall seconds per cycle, as measured.
        self.durations: List[float] = []
        #: Host slowdown probed just before each cycle
        #: (see :class:`bench_e2e.host.SpeedProbe`).
        self.slowdowns: List[float] = []
        self.failed = 0
        self.records: Sequence = ()
        self.counters: Dict[str, float] = {}
        self.cpu_s = 0.0
        self.gc_collections = 0
        self.minor_faults = 0

    @property
    def cycles(self) -> int:
        return len(self.durations)

    @property
    def corrected(self) -> List[float]:
        """Each cycle's wall seconds divided by its slowdown reading."""
        return [d / s for d, s in zip(self.durations, self.slowdowns)]

    @property
    def p50_s(self) -> float:
        return statistics.median(self.corrected)


def _gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


async def _run_leg(
    wl, speed: host.SpeedProbe, seconds: float, max_cycles: Optional[int], recorder=None
) -> _Leg:
    leg = _Leg()
    first_record = len(wl.phase_records())
    before = wl.counters()
    gc0 = _gc_collections()
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cpu0 = time.process_time()
    started = time.perf_counter()
    while True:
        wl.redraw()
        slowdown = speed.slowdown()
        if recorder is not None:
            recorder.begin_cycle()
        t0 = time.perf_counter()
        await wl.cycle()
        leg.durations.append(time.perf_counter() - t0)
        leg.slowdowns.append(slowdown)
        if recorder is not None:
            recorder.end_cycle(wl.phase_records()[-1].epoch)
        leg.failed += wl.check_cycle()
        if max_cycles is not None and leg.cycles >= max_cycles:
            break
        if time.perf_counter() - started >= seconds:
            break
    leg.cpu_s = time.process_time() - cpu0
    leg.minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    leg.gc_collections = _gc_collections() - gc0
    after = wl.counters()
    leg.counters = {k: after[k] - before[k] for k in after}
    leg.records = wl.phase_records()[first_record:]
    return leg


async def _warm_up(wl, cycles: int) -> None:
    for _ in range(cycles):
        wl.redraw()
        await wl.cycle()
        wl.check_cycle()


def _blocks(durations: List[float]) -> List[List[float]]:
    n = min(BLOCKS, len(durations))
    size, extra = divmod(len(durations), n)
    out, at = [], 0
    for b in range(n):
        step = size + (1 if b < extra else 0)
        out.append(durations[at : at + step])
        at += step
    return out


def _p50_ms(values) -> float:
    return statistics.median(values) * 1e3


def _counter_metrics(wl, leg: _Leg, open_fds: int) -> Dict[str, Optional[float]]:
    """Per-layer metrics read from public counters and cycle records."""
    spec, k, d = wl.spec, leg.cycles, leg.counters
    n = spec.n_stages
    out: Dict[str, Optional[float]] = {
        "host.slowdown_p50": statistics.median(leg.slowdowns),
        "host.wall_cycle_p50_ms": _p50_ms(leg.durations),
        "proc.cpu_ms_per_cycle": leg.cpu_s / k * 1e3,
        "proc.gc_collections_per_cycle": leg.gc_collections / k,
        "proc.minor_faults_per_cycle": leg.minor_faults / k,
        "proc.open_fds": float(open_fds),
        "stage.rules_applied_per_cycle": d["rules_applied"] / k,
        "stage.rules_stale": float(d["rules_stale"]),
    }
    last = leg.records[-1]
    if spec.kind == "sim":
        out.update(
            {
                "simnet.events_per_cycle": d["sim_events"] / k,
                "simnet.events_per_s": d["sim_events"] / sum(leg.durations),
                "simctrl.simulated_cycle_ms": last.total_s * 1e3,
                "simctrl.simulated_collect_ms": last.collect_s * 1e3,
                "simctrl.simulated_compute_ms": last.compute_s * 1e3,
                "simctrl.simulated_enforce_ms": last.enforce_s * 1e3,
            }
        )
        return out
    collect = _p50_ms([c.collect_s for c in leg.records])
    enforce = _p50_ms([c.enforce_s for c in leg.records])
    out.update(
        {
            "ctrl.collect_p50_ms": collect,
            "ctrl.compute_p50_ms": _p50_ms([c.compute_s for c in leg.records]),
            "ctrl.enforce_p50_ms": enforce,
            "ctrl.cycle_p90_ms": (
                statistics.quantiles(leg.durations, n=10)[-1] * 1e3
                if k >= 2
                else leg.durations[0] * 1e3
            ),
            "ctrl.enforce_over_collect": enforce / collect,
            "ctrl.missing_replies": float(sum(c.n_missing for c in leg.records)),
            "ctrl.rules_sent_per_cycle": (n * k - d["rules_suppressed"]) / k,
            "sessions.wire_bytes_per_cycle": d["wire_bytes"] / k,
            "sessions.bytes_per_stage_cycle": d["wire_bytes"] / (k * n),
            "sessions.shed_frames": float(d["shed_frames"]),
            "sessions.stale_messages": float(d["stale_messages"]),
        }
    )
    if spec.kind != "flat":
        out["agg.evictions"] = float(d["evictions"])
    if spec.kind == "serve":
        out["store.fsyncs_per_cycle"] = d["wal_fsyncs"] / k
        out["store.wal_bytes_per_cycle"] = d["wal_bytes"] / k
    return out


def _probe_metrics(recorder, leg: _Leg, n_aggregators: int) -> Dict[str, Optional[float]]:
    """Per-layer metrics from the traced leg's spans."""
    from repro.live.codec import BINARY_KINDS

    from bench_e2e.probes import LEDGER

    k = leg.cycles
    totals = recorder.totals()
    missing = set(recorder.missing)

    def stat(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0)

    def per_call_us(name: str) -> Optional[float]:
        calls = stat(name, "calls")
        if name in missing or not calls:
            return None
        return stat(name, "total_s") / calls * 1e6

    out: Dict[str, Optional[float]] = {}
    for metric, names in LEDGER.items():
        if all(name in missing for name in names):
            out[metric] = None
        else:
            out[metric] = sum(stat(name, "self_s") for name in names) / k * 1e3
    attributed = sum(t["self_s"] for t in totals.values())
    out["loop.unattributed_share"] = 1.0 - attributed / sum(leg.durations)
    out["loop.polls_per_cycle"] = (
        None if "loop.poll" in missing else stat("loop.poll", "calls") / k
    )
    out["codec.encode_us_per_frame"] = per_call_us("codec.encode")
    out["codec.decode_us_per_frame"] = per_call_us("codec.decode")
    out["codec.frames_per_cycle"] = (
        None if "codec.encode" in missing else stat("codec.encode", "calls") / k
    )
    encoded = recorder.encoded_bytes
    out["codec.batch_byte_share"] = (
        sum(v for kind, v in encoded.items() if kind not in BINARY_KINDS)
        / sum(encoded.values())
        if encoded
        else None
    )
    out["sessions.flushes_per_cycle"] = (
        None if "sessions.flush" in missing else stat("sessions.flush", "calls") / k
    )
    out["stage.handle_us_per_frame"] = per_call_us("stage.handle")
    out["store.record_cycle_us"] = per_call_us("store.record_cycle")
    puts = recorder.durations("store.put_tenant")
    out["store.put_tenant_p50_ms"] = _p50_ms(puts.tolist()) if puts.size else None
    out["simctrl.compute_wall_ms_per_cycle"] = (
        None
        if "simctrl.compute" in missing
        else stat("simctrl.compute", "total_s") / k * 1e3
    )
    out["compute.columnar_cycle_share"] = (
        None
        if "compute.columnar" in missing
        else min(1.0, stat("compute.columnar", "calls") / k)
    )
    out.update(_aggregator_metrics(recorder, n_aggregators))
    return out


def _aggregator_metrics(recorder, n_aggregators: int) -> Dict[str, Optional[float]]:
    """Wall time per aggregator per cycle, from the coroutine envelopes."""
    out: Dict[str, Optional[float]] = {
        "agg.collect_ms_per_cycle": None,
        "agg.enforce_ms_per_cycle": None,
        "agg.slowest_over_mean": None,
    }
    if not n_aggregators or not recorder.envelopes:
        return out
    per_cycle: Dict[int, Dict[int, float]] = {}
    by_name: Dict[str, List[float]] = {"agg.collect": [], "agg.enforce": []}
    for name, owner, start, end, cycle in recorder.envelopes:
        by_name[name].append(end - start)
        busy = per_cycle.setdefault(cycle, {})
        busy[owner] = busy.get(owner, 0.0) + (end - start)
    for name, metric in (
        ("agg.collect", "agg.collect_ms_per_cycle"),
        ("agg.enforce", "agg.enforce_ms_per_cycle"),
    ):
        if by_name[name]:
            out[metric] = statistics.fmean(by_name[name]) * 1e3
    ratios = [
        max(busy.values()) / statistics.fmean(busy.values())
        for busy in per_cycle.values()
        if len(busy) == n_aggregators
    ]
    if ratios:
        out["agg.slowest_over_mean"] = statistics.fmean(ratios)
    return out


def _open_fds() -> int:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return 0


async def _run(
    spec: Spec,
    seed: int,
    seconds: float,
    trace: bool,
    max_cycles: Optional[int],
    scratch_dir: str,
    trace_out: Optional[str],
    speed: host.SpeedProbe,
) -> Dict:
    loop = asyncio.get_running_loop()
    wl = workloads.build(spec, seed, scratch_dir)
    setup_samples: List[float] = []
    for i in range(SETUPS):
        if i:
            await wl.teardown()
            wl.after_teardown()
        slowdown = speed.slowdown()
        t0 = time.perf_counter()
        await wl.setup()
        setup_samples.append((time.perf_counter() - t0) / slowdown)
    open_fds = _open_fds()
    await _warm_up(wl, WARMUP_CYCLES)
    gc.collect()

    share_base, share_traced, share_obs = (
        _TRACED_SPLIT.get(spec.kind, _TRACED_SPLIT_DEFAULT) if trace else (1.0, 0.0, 0.0)
    )
    recorder = traced = obs_leg = None
    wl.begin_load()
    try:
        base = await _run_leg(wl, speed, seconds * share_base, max_cycles)
        if trace:
            from bench_e2e import probes

            recorder = probes.install(None if spec.kind == "sim" else loop)
            try:
                traced = await _run_leg(
                    wl, speed, seconds * share_traced, max_cycles, recorder
                )
            finally:
                recorder.uninstall()
    finally:
        await wl.end_load()
    await wl.finish()
    await wl.teardown()
    wl.after_teardown()
    violations = list(wl.violations)
    if share_obs:
        obs_wl = workloads.build(spec, seed, scratch_dir)
        await obs_wl.setup(observe=True)
        await _warm_up(obs_wl, WARMUP_CYCLES)
        obs_leg = await _run_leg(obs_wl, speed, seconds * share_obs, max_cycles)
        await obs_wl.teardown()
        violations += obs_wl.violations
    legs = [leg for leg in (base, traced, obs_leg) if leg is not None]
    attempted = wl.extra_attempted + sum(spec.n_stages * leg.cycles for leg in legs)
    failed = wl.extra_failed + sum(leg.failed for leg in legs)

    values: Dict[str, Optional[float]] = _counter_metrics(wl, base, open_fds)
    values.update(wl.extra_metrics())
    blocks = _blocks(base.corrected)
    block_rates = [spec.n_stages * len(b) / sum(b) for b in blocks]
    values.update(
        {
            "failed_share": failed / attempted,
            "cycle_p50_ms": base.p50_s * 1e3,
            "stage_cycles_per_s": statistics.median(block_rates),
            "setup_s": statistics.median(setup_samples),
            # ru_maxrss is KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if recorder is not None:
        values.update(_probe_metrics(recorder, traced, spec.n_aggregators))
        values["trace.overhead_share"] = traced.p50_s / base.p50_s - 1.0
        values["obs.overhead_share"] = (
            obs_leg.p50_s / base.p50_s - 1.0 if obs_leg is not None else None
        )
        if trace_out:
            recorder.write_chrome_trace(trace_out)
    return {
        "workload": spec.name,
        "seed": seed,
        "trace": int(trace),
        "event_loop": f"{type(loop).__module__}.{type(loop).__qualname__}",
        "correct": not violations,
        "violations": violations,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "cycles": {
            "untraced": base.cycles,
            "traced": traced.cycles if traced is not None else 0,
            "obs": obs_leg.cycles if obs_leg is not None else 0,
        },
        "samples": {
            "setup_s": setup_samples,
            "cycle_p50_ms": [_p50_ms(b) for b in blocks],
            "stage_cycles_per_s": block_rates,
        },
        "probes_missing": list(recorder.missing) if recorder is not None else [],
    }


def run_workload(
    spec: Spec,
    seed: int,
    seconds: float,
    trace: bool,
    max_cycles: Optional[int] = None,
    trace_out: Optional[str] = None,
) -> Dict:
    """Run ``spec`` once in this process; returns the full result document.

    ``max_cycles`` ends each leg early (the self-tests run six cycles on
    fifty stages); the contract runs are bounded by ``seconds`` alone.
    """
    nofile = host.preflight(spec.descriptors)
    scratch_dir = SCRATCH_ROOT / f"{os.getpid()}-{time.monotonic_ns()}"
    scratch_dir.mkdir(parents=True)
    speed = host.SpeedProbe()
    try:
        result = asyncio.run(
            _run(
                spec, seed, seconds, trace, max_cycles, str(scratch_dir), trace_out, speed
            )
        )
    finally:
        speed.close()
        shutil.rmtree(scratch_dir, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    result["host"] = host.host_stamp(result.pop("event_loop"), nofile)
    return result


def contract_line(result: Dict, contract: Dict) -> str:
    """The last stdout line: exactly the metrics the contract declares."""
    declared = contract["per_layer"] if result["trace"] else contract["end_to_end"]
    metrics = {}
    for entry in declared:
        # A metric this workload has no layer for (or whose probe target
        # is gone) is null in the detail document and 0 here, where the
        # consumer needs a number.
        value = result["values"].get(entry["name"])
        metrics[entry["name"]] = {
            "value": 0.0 if value is None else value,
            "unit": entry["unit"],
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python3 -m bench_e2e.run", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail-out", help="write the full result document here")
    parser.add_argument(
        "--trace-out", help="with --trace 1: write a Chrome trace of the spans here"
    )
    args = parser.parse_args(argv)
    try:
        result = run_workload(
            SPECS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            trace_out=args.trace_out,
        )
    except host.Refused as exc:
        print(f"bench_e2e: refused: {exc}", file=sys.stderr)
        return 2
    if args.detail_out:
        with open(args.detail_out, "w") as f:
            json.dump(result, f, indent=1)
    for line in result["violations"]:
        print(f"bench_e2e: check failed: {line}", file=sys.stderr)
    print(contract_line(result, contract))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
