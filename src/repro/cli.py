"""Command-line interface: run experiments and reproduce paper artefacts.

Usage (installed as ``python -m repro``):

.. code-block:: console

    python -m repro flat --nodes 2500
    python -m repro hier --nodes 10000 --aggregators 4
    python -m repro coordinated --nodes 1000 --controllers 4
    python -m repro reproduce fig4            # paper-vs-measured tables
    python -m repro plan --nodes 9408 --target-ms 100
    python -m repro live --stages 50 --cycles 20
    python -m repro chaos --plane live --design hier --seed 7
    python -m repro chaos --plane live --schedule full-restart --seed 7
    python -m repro serve --store-dir ./state --port 8080
    python -m repro store inspect --dir ./state
    python -m repro calibrate

Every command supports ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Sequence

from repro.harness.report import (
    compare_row,
    degraded_note,
    format_table,
    format_usage_table,
)

__all__ = ["build_parser", "main"]


def _write_trace(path: str, spans, clock_domain: str) -> None:
    """Export spans as a Chrome trace and note where it went."""
    from repro.obs.chrome_trace import write_chrome_trace

    write_chrome_trace(path, spans, clock_domain=clock_domain)
    print(f"wrote {len(spans)} spans ({clock_domain} clock) -> {path}", file=sys.stderr)


def _emit(payload: Dict, text: str, as_json: bool) -> None:
    print(json.dumps(payload, indent=2, default=str) if as_json else text)


def _result_payload(result) -> Dict:
    return result.summary()


def _result_text(result) -> str:
    phases = result.phase_means_ms()
    rows = [
        ["design", result.design],
        ["stages", result.n_stages],
        ["aggregators", result.n_aggregators],
        ["mean cycle (ms)", f"{result.mean_ms:.2f}"],
        ["collect (ms)", f"{phases['collect']:.2f}"],
        ["compute (ms)", f"{phases['compute']:.2f}"],
        ["enforce (ms)", f"{phases['enforce']:.2f}"],
        ["relative std", f"{result.latency.relative_std:.2%}"],
        ["global CPU %", f"{result.global_usage.cpu_percent:.2f}"],
        ["global memory GB", f"{result.global_usage.memory_gb:.2f}"],
        ["global TX MB/s", f"{result.global_usage.transmitted_mb_s:.2f}"],
        ["global RX MB/s", f"{result.global_usage.received_mb_s:.2f}"],
    ]
    if result.aggregator_usage is not None:
        agg = result.aggregator_usage
        rows += [
            ["per-agg CPU %", f"{agg.cpu_percent:.2f}"],
            ["per-agg memory GB", f"{agg.memory_gb:.3f}"],
        ]
    note = degraded_note(result.latency)
    if note:
        rows.append(["degraded cycles", f"{result.latency.degraded_cycles}"])
        rows.append(["missing replies", f"{result.latency.missing_total}"])
    table = format_table(["metric", "value"], rows)
    return table + ("\n" + note if note else "")


# -- subcommand implementations -------------------------------------------------


def _cmd_flat(args) -> int:
    from repro.harness.experiment import run_flat_experiment

    result = run_flat_experiment(
        args.nodes,
        cycles=args.cycles,
        repeats=args.repeats,
        trace_spans=bool(args.trace_out),
    )
    if args.trace_out:
        _write_trace(args.trace_out, result.spans, "sim")
    _emit(_result_payload(result), _result_text(result), args.json)
    return 0


def _cmd_hier(args) -> int:
    from repro.harness.experiment import run_hierarchical_experiment

    result = run_hierarchical_experiment(
        args.nodes,
        args.aggregators,
        cycles=args.cycles,
        repeats=args.repeats,
        decision_offload=args.offload,
        levels=args.levels,
        trace_spans=bool(args.trace_out),
    )
    if args.trace_out:
        _write_trace(args.trace_out, result.spans, "sim")
    _emit(_result_payload(result), _result_text(result), args.json)
    return 0


def _cmd_coordinated(args) -> int:
    from repro.harness.experiment import run_coordinated_experiment

    result = run_coordinated_experiment(
        args.nodes,
        args.controllers,
        cycles=args.cycles,
        repeats=args.repeats,
        trace_spans=bool(args.trace_out),
    )
    if args.trace_out:
        _write_trace(args.trace_out, result.spans, "sim")
    _emit(_result_payload(result), _result_text(result), args.json)
    return 0


_REPRODUCIBLES = ("fig4", "fig5", "fig6", "table1", "table2", "table3", "table4")


def _cmd_reproduce(args) -> int:
    from repro.harness.experiment import (
        run_flat_experiment,
        run_hierarchical_experiment,
    )
    from repro.harness.paper import PAPER

    targets = _REPRODUCIBLES if args.artifact == "all" else (args.artifact,)
    payload: Dict[str, object] = {}
    chunks: List[str] = []

    flat_cache: Dict[int, object] = {}
    hier_cache: Dict[int, object] = {}

    def flat(n):
        if n not in flat_cache:
            flat_cache[n] = run_flat_experiment(n, cycles=args.cycles)
        return flat_cache[n]

    def hier(a, n=10_000):
        key = (n, a)
        if key not in hier_cache:
            hier_cache[key] = run_hierarchical_experiment(n, a, cycles=args.cycles)
        return hier_cache[key]

    for target in targets:
        if target == "table1":
            from repro.top500 import table_rows

            rows = table_rows()
            payload["table1"] = rows
            chunks.append(
                format_table(
                    list(rows[0].keys()),
                    [list(r.values()) for r in rows],
                    title="Table I — Top500 systems",
                )
            )
        elif target == "fig4":
            rows = [
                compare_row(f"flat @ {n}", flat(n).mean_ms, PAPER.flat_latency_ms[n])
                for n in (50, 500, 1250, 2500)
            ]
            payload["fig4"] = rows
            chunks.append(
                format_table(
                    ["config", "paper (ms)", "measured (ms)", "error"],
                    rows,
                    title="Fig. 4 — flat design scaling",
                )
            )
        elif target == "table2":
            rows = []
            for n in (50, 500, 1250, 2500):
                u = flat(n).global_usage
                ref = PAPER.flat_resources[n]
                rows.append(
                    [n, ref.cpu_percent, u.cpu_percent, ref.memory_gb, u.memory_gb,
                     ref.transmitted_mb_s, u.transmitted_mb_s, ref.received_mb_s, u.received_mb_s]
                )
            payload["table2"] = rows
            chunks.append(
                format_table(
                    ["nodes", "cpu%(p)", "cpu%", "memGB(p)", "memGB",
                     "tx(p)", "tx", "rx(p)", "rx"],
                    rows,
                    title="Table II — flat controller resources",
                )
            )
        elif target == "fig5":
            rows = [
                compare_row(
                    f"10k nodes / {a} aggs", hier(a).mean_ms, PAPER.hier_latency_ms[a]
                )
                for a in (4, 5, 10, 20)
            ]
            payload["fig5"] = rows
            chunks.append(
                format_table(
                    ["config", "paper (ms)", "measured (ms)", "error"],
                    rows,
                    title="Fig. 5 — hierarchical design at 10,000 nodes",
                )
            )
        elif target == "table3":
            rows = []
            for a in (4, 5, 10, 20):
                r = hier(a)
                g_ref = PAPER.hier_global_resources[a]
                a_ref = PAPER.hier_aggregator_resources[a]
                rows.append([f"A={a} global", g_ref.cpu_percent, r.global_usage.cpu_percent,
                             g_ref.memory_gb, r.global_usage.memory_gb])
                rows.append([f"A={a} aggregator", a_ref.cpu_percent,
                             r.aggregator_usage.cpu_percent, a_ref.memory_gb,
                             r.aggregator_usage.memory_gb])
            payload["table3"] = rows
            chunks.append(
                format_table(
                    ["controller", "cpu%(p)", "cpu%", "memGB(p)", "memGB"],
                    rows,
                    title="Table III — hierarchical resources at 10,000 nodes",
                )
            )
        elif target == "fig6":
            f, h = flat(2500), hier(1, n=2500)
            rows = [
                ["flat", PAPER.fig6_flat_ms, f.mean_ms],
                ["hierarchical (1 agg)", PAPER.fig6_hier_ms, h.mean_ms],
            ]
            payload["fig6"] = rows
            chunks.append(
                format_table(
                    ["design", "paper (ms)", "measured (ms)"],
                    rows,
                    title="Fig. 6 — flat vs hierarchical at 2,500 nodes",
                )
            )
        elif target == "table4":
            f, h = flat(2500), hier(1, n=2500)
            rows = [
                ["flat global", PAPER.table4_flat_global.cpu_percent,
                 f.global_usage.cpu_percent],
                ["hier global", PAPER.table4_hier_global.cpu_percent,
                 h.global_usage.cpu_percent],
                ["hier aggregator", PAPER.table4_hier_aggregator.cpu_percent,
                 h.aggregator_usage.cpu_percent],
            ]
            payload["table4"] = rows
            chunks.append(
                format_table(
                    ["controller", "cpu% (paper)", "cpu% (measured)"],
                    rows,
                    title="Table IV — CPU usage, flat vs hierarchical at 2,500",
                )
            )
    _emit(payload, "\n\n".join(chunks), args.json)
    return 0


def _cmd_plan(args) -> int:
    from repro.harness.analysis import CapacityPlanner

    planner = CapacityPlanner(connection_limit=args.connection_limit)
    rec = planner.recommend(args.nodes, args.target_ms)
    payload = {
        "design": rec.design,
        "n_aggregators": rec.n_aggregators,
        "predicted_latency_ms": rec.predicted_latency_ms,
        "controller_nodes": rec.controller_nodes,
        "meets_target": rec.meets_target,
        "reason": rec.reason,
    }
    _emit(payload, rec.summary(), args.json)
    return 0 if rec.meets_target else 2


def _deadline(text: str) -> float:
    """A phase deadline argument: seconds, positive and finite."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"not a positive, finite deadline: {text}")
    return value


def _cmd_live(args) -> int:
    from repro.live import run_live_flat, run_live_hierarchical

    observe = bool(args.obs_out) or args.metrics_port is not None
    if args.aggregators:
        result = run_live_hierarchical(
            n_stages=args.stages,
            n_aggregators=args.aggregators,
            n_cycles=args.cycles,
            collect_timeout_s=args.collect_timeout,
            enforce_timeout_s=args.enforce_timeout,
            observe=observe,
            metrics_port=args.metrics_port,
        )
    else:
        result = run_live_flat(
            n_stages=args.stages,
            n_cycles=args.cycles,
            collect_timeout_s=args.collect_timeout,
            enforce_timeout_s=args.enforce_timeout,
            observe=observe,
            metrics_port=args.metrics_port,
        )
    if args.obs_out:
        _write_trace(args.obs_out, result.spans, "wall")
    stats = result.stats()
    bd = stats.breakdown()
    payload = {
        "stages": args.stages,
        "cycles": stats.n_cycles,
        "mean_ms": stats.mean_ms,
        **{f"{k}_ms": v for k, v in bd.as_dict().items()},
        "rules_applied": result.rules_applied_total,
        "degraded_cycles": result.degraded_cycles,
        "missing_total": result.missing_total,
        "evictions": result.evictions,
        "reconnects": result.reconnects,
    }
    text = format_table(
        ["metric", "value"],
        [[k, f"{v:.3f}" if isinstance(v, float) else v] for k, v in payload.items()],
        title=f"Live TCP control plane, {args.stages} stages",
    )
    if result.usage_report is not None:
        payload["usage"] = {
            name: usage.as_dict()
            for name, usage in result.usage_report.per_host.items()
        }
        text += "\n\n" + format_usage_table(
            result.usage_report,
            title="Per-controller usage (live /proc + frame accounting)",
        )
    if result.metrics_port is not None:
        payload["metrics_port"] = result.metrics_port
    note = degraded_note(stats)
    if note:
        text += "\n" + note
    _emit(payload, text, args.json)
    return 0


def _cmd_chaos(args) -> int:
    from repro.chaos import (
        run_chaos_live,
        run_chaos_overload,
        run_chaos_restart,
        run_chaos_sim,
    )

    if args.schedule == "overload":
        if args.plane != "live":
            print("--schedule overload requires --plane live", file=sys.stderr)
            return 2
        report = run_chaos_overload(
            args.seed,
            n_stages=args.stages,
            n_aggregators=args.aggregators,
            n_cycles=args.cycles,
            cycle_period_s=args.cycle_period,
            store_dir=args.store_dir,
        )
        return _finish_chaos(report, args)
    if args.schedule == "full-restart":
        if args.plane != "live":
            print("--schedule full-restart requires --plane live", file=sys.stderr)
            return 2
        report = run_chaos_restart(
            args.seed,
            n_stages=args.stages,
            n_aggregators=args.aggregators,
            n_cycles=args.cycles,
            cycle_period_s=args.cycle_period,
            store_dir=args.store_dir,
        )
        return _finish_chaos(report, args)
    if args.plane == "sim":
        report = run_chaos_sim(
            args.seed,
            design=args.design,
            n_stages=args.stages,
            n_aggregators=args.aggregators,
            n_cycles=args.cycles,
        )
    else:
        report = run_chaos_live(
            args.seed,
            design=args.design,
            n_stages=args.stages,
            n_aggregators=args.aggregators,
            n_cycles=args.cycles,
            cycle_period_s=args.cycle_period,
        )
    return _finish_chaos(report, args)


def _finish_chaos(report, args) -> int:
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote chaos report -> {args.report_out}", file=sys.stderr)
    text = report.summary()
    if report.violations:
        text += "\n" + "\n".join(
            f"  cycle {v.cycle} [{v.invariant}] {v.detail}"
            for v in report.violations
        )
    _emit(report.to_dict(), text, args.json)
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import run_serve

    summary = asyncio.run(
        run_serve(
            args.store_dir,
            port=args.port,
            n_stages=args.stages,
            n_aggregators=args.aggregators,
            cycle_period_s=args.cycle_period,
            max_cycles=args.max_cycles,
            ready_file=args.ready_file,
            admission_rate=args.admission_rate,
            max_connections=args.max_connections,
        )
    )
    rows = [
        ["port", summary["port"]],
        ["resumed from store", summary["resumed"]],
        ["initial epoch", summary["initial_epoch"]],
        ["final epoch", summary["epoch"]],
        ["cycles run", summary["cycles_run"]],
        ["tenants", summary["tenants"]],
        ["http requests served", summary["requests_served"]],
        ["http requests shed", summary["requests_shed"]],
        ["connections shed", summary["connections_shed"]],
        ["degradation level at exit", summary["degradation_level"]],
        ["demand clamps", summary["demand_clamps"]],
        ["durable epoch", summary["store"]["durable_epoch"]],
        ["wal bytes", summary["store"]["wal_bytes"]],
    ]
    text = format_table(["serve", "value"], rows, title="Service-tier run")
    _emit(summary, text, args.json)
    return 0


def _cmd_store(args) -> int:
    from repro.store import DurableStore

    if args.action != "inspect":
        print(f"unknown store action: {args.action}", file=sys.stderr)
        return 2
    store = DurableStore(args.dir)
    try:
        info = store.inspect()
    finally:
        store.close()
    rows = [[key, info[key]] for key in sorted(info)]
    text = format_table(
        ["field", "value"], rows, title=f"Durable store @ {args.dir}"
    )
    _emit(info, text, args.json)
    return 0


def _cmd_archive(args) -> int:
    from repro.harness.store import RunArchive, result_to_dict

    archive = RunArchive(args.dir)
    if args.action == "list":
        names = archive.names()
        _emit({"runs": names}, "\n".join(names) if names else "(empty)", args.json)
        return 0
    if args.action == "run":
        if not args.name or args.nodes is None:
            print("archive run requires --name and --nodes")
            return 1
        from repro.harness.experiment import (
            run_flat_experiment,
            run_hierarchical_experiment,
        )

        if args.aggregators:
            result = run_hierarchical_experiment(
                args.nodes, args.aggregators, cycles=args.cycles
            )
        else:
            result = run_flat_experiment(args.nodes, cycles=args.cycles)
        path = archive.save(args.name, result, overwrite=args.overwrite)
        _emit(
            {"saved": str(path), **result.summary()},
            f"saved {result.design} run as {args.name!r} -> {path}",
            args.json,
        )
        return 0
    if args.action == "show":
        if not args.name:
            print("archive show requires --name")
            return 1
        result = archive.load(args.name)
        _emit(_result_payload(result), _result_text(result), args.json)
        return 0
    print(f"unknown archive action: {args.action}")
    return 1


def _cmd_report(args) -> int:
    from repro.harness.writeup import generate_report

    text = generate_report(scale=args.scale, cycles=args.cycles)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_calibrate(args) -> int:
    from repro.harness.calibration import fit_cost_model, prediction_errors
    from repro.core.costs import FRONTERA_COST_MODEL

    shipped = prediction_errors(FRONTERA_COST_MODEL)
    fit = fit_cost_model()
    payload = {
        "shipped_errors": shipped,
        "fitted_errors": fit.errors,
        "scale_factors": fit.scale_factors,
    }
    rows = [
        [k, f"{shipped[k]:+.1%}", f"{fit.errors[k]:+.1%}"] for k in shipped
    ]
    text = format_table(
        ["target", "shipped model error", "refit error"],
        rows,
        title="Calibration against the paper's Frontera measurements",
    )
    _emit(payload, text, args.json)
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Can Current SDS Controllers Scale To Modern "
            "HPC Infrastructures?' (SC 2024)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cycles_default=10, trace=False):
        p.add_argument("--cycles", type=int, default=cycles_default,
                       help="control cycles per run")
        p.add_argument("--repeats", type=int, default=1,
                       help="independent repetitions to pool")
        p.add_argument("--json", action="store_true", help="JSON output")
        if trace:
            p.add_argument("--trace-out", type=str, default=None,
                           help="write cycle spans as a Chrome trace "
                                "(sim clock; open in Perfetto)")

    p = sub.add_parser("flat", help="run a flat control-plane experiment")
    p.add_argument("--nodes", type=int, required=True)
    common(p, cycles_default=12, trace=True)
    p.set_defaults(func=_cmd_flat)

    p = sub.add_parser("hier", help="run a hierarchical experiment")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--aggregators", type=int, required=True)
    p.add_argument("--offload", action="store_true",
                   help="run PSFA at the aggregators (decision offloading)")
    p.add_argument("--levels", type=int, choices=(2, 3), default=2)
    common(p, trace=True)
    p.set_defaults(func=_cmd_hier)

    p = sub.add_parser("coordinated", help="run a coordinated-flat experiment")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--controllers", type=int, required=True)
    common(p, trace=True)
    p.set_defaults(func=_cmd_coordinated)

    p = sub.add_parser(
        "reproduce", help="regenerate a paper figure/table (or 'all')"
    )
    p.add_argument("artifact", choices=(*_REPRODUCIBLES, "all"))
    common(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("plan", help="recommend a design for a deployment")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--target-ms", type=float, required=True,
                   help="control-cycle latency target")
    p.add_argument("--connection-limit", type=int, default=2500)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("live", help="run the real asyncio/TCP control plane")
    p.add_argument("--stages", type=int, default=50)
    p.add_argument("--cycles", type=int, default=20)
    p.add_argument("--aggregators", type=int, default=0,
                   help="run the hierarchical live design with N aggregators")
    p.add_argument("--collect-timeout", type=_deadline, default=None,
                   help="collect-phase deadline in seconds (partial collect; "
                        "default: derived from the stages a phase covers)")
    p.add_argument("--enforce-timeout", type=_deadline, default=None,
                   help="enforce-phase deadline (defaults to collect timeout)")
    p.add_argument("--obs-out", type=str, default=None,
                   help="record wall-clock spans and /proc usage; write the "
                        "Chrome trace here")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve GET /metrics on this port during the run "
                        "(0 picks an ephemeral port)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_live)

    p = sub.add_parser(
        "chaos",
        help="run a seeded fault schedule and check invariants "
             "(exit 1 on violation)",
    )
    p.add_argument("--plane", choices=("sim", "live"), default="live")
    p.add_argument("--design", choices=("hier", "flat"), default="hier",
                   help="hier = aggregator tree (kill/stall aggregators); "
                        "flat = primary + hot standby (kill the primary)")
    p.add_argument("--seed", type=int, default=0,
                   help="schedule seed; the same seed reproduces the "
                        "same fault sequence")
    p.add_argument("--stages", type=int, default=9)
    p.add_argument("--aggregators", type=int, default=3,
                   help="aggregators of the hier tree (unused by --design "
                        "flat)")
    p.add_argument("--cycles", type=int, default=12)
    p.add_argument("--cycle-period", type=float, default=0.1,
                   help="live-plane cycle pacing in seconds")
    p.add_argument("--schedule", choices=("faults", "full-restart", "overload"),
                   default="faults",
                   help="faults = per-component kill/stall schedule; "
                        "full-restart = kill -9 the whole plane and "
                        "restart from the durable store (live plane only); "
                        "overload = adversarial tenants + a 10x request "
                        "flood against the guarded service tier "
                        "(live plane only)")
    p.add_argument("--store-dir", type=str, default=None,
                   help="durable-store directory for --schedule "
                        "full-restart/overload (default: a run-scoped tempdir)")
    p.add_argument("--report-out", type=str, default=None,
                   help="write the JSON chaos report here (CI artifact)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="serve the multi-tenant REST API over a live plane backed "
             "by the durable store",
    )
    p.add_argument("--store-dir", type=str, required=True,
                   help="durable-store directory (WAL + snapshot); "
                        "created on first boot, recovered on restart")
    p.add_argument("--port", type=int, default=0,
                   help="HTTP port (0 picks an ephemeral port)")
    p.add_argument("--stages", type=int, default=12)
    p.add_argument("--aggregators", type=int, default=3)
    p.add_argument("--cycle-period", type=float, default=0.05,
                   help="control-cycle pacing in seconds")
    p.add_argument("--max-cycles", type=int, default=None,
                   help="exit after N control cycles (default: run until "
                        "SIGTERM/SIGINT)")
    p.add_argument("--ready-file", type=str, default=None,
                   help="write {port, pid, resumed, initial_epoch} JSON "
                        "here once the API is accepting requests")
    p.add_argument("--admission-rate", type=float, default=200.0,
                   help="admission-gate global token rate in requests/s; "
                        "excess load is shed with 429 + Retry-After")
    p.add_argument("--max-connections", type=int, default=256,
                   help="concurrent HTTP connection cap; connections over "
                        "the cap get an immediate 503")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "store", help="inspect a durable-store directory (WAL + snapshot)"
    )
    p.add_argument("action", choices=("inspect",))
    p.add_argument("--dir", type=str, required=True,
                   help="durable-store directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser(
        "archive", help="save, list, and inspect stored experiment runs"
    )
    p.add_argument("action", choices=("run", "list", "show"))
    p.add_argument("--dir", type=str, default="runs",
                   help="archive directory (default: ./runs)")
    p.add_argument("--name", type=str, default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--aggregators", type=int, default=0)
    p.add_argument("--cycles", type=int, default=10)
    p.add_argument("--overwrite", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_archive)

    p = sub.add_parser(
        "report", help="run the grid and write a markdown reproduction report"
    )
    p.add_argument("--scale", type=int, default=1,
                   help="divide the paper's node counts by this factor")
    p.add_argument("--cycles", type=int, default=10)
    p.add_argument("--output", type=str, default=None,
                   help="file to write (default: stdout)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("calibrate", help="refit the cost model to the paper")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
