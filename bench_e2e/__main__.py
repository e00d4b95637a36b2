"""All workloads, one report: ``python -m bench_e2e --seed S --out FILE``.

Runs every workload ``BENCHMARK.json`` names, each twice (untraced, then
traced) and each in a fresh subprocess of :mod:`bench_e2e.run`, prints
every metric by name with its unit, and writes one report that
``python -m bench_e2e.compare`` can diff against another. Exits non-zero
when any run fails a correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from bench_e2e import ROOT, SCRATCH_ROOT
from bench_e2e.compare import SCHEMA
from bench_e2e.host import STAMP_KEYS


def _run_one(workload: str, seed: int, seconds: float, trace: int, scratch: Path,
             trace_out: Optional[Path]) -> Optional[Dict]:
    detail = scratch / f"{workload}.{trace}.json"
    command = [
        sys.executable, "-m", "bench_e2e.run",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--detail-out", str(detail),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
    if not detail.exists():
        print(f"{workload} --trace {trace}: exit {done.returncode}, no result",
              file=sys.stderr)
        return None
    with open(detail) as f:
        return json.load(f)


def _show(title: str, entries, values: Dict) -> None:
    print(f"  {title}")
    for entry in entries:
        value = values.get(entry["name"])
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"    {entry['name']:<36} {shown:>14} {entry['unit']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    parser = argparse.ArgumentParser(prog="python -m bench_e2e", description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="report file to write")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument(
        "--trace-dir", help="also write one Chrome trace per workload here"
    )
    args = parser.parse_args(argv)

    # failed_share is end-to-end for a reader (any increase is a
    # regression) but cannot carry a relative bound on a median of 0, so
    # BENCHMARK.json lists it per-layer; the report shows it up front.
    e2e = contract["end_to_end"] + [
        {"name": "failed_share", "unit": "share", "better": "lower", "bound": 0.0}
    ]
    per_layer = [m for m in contract["per_layer"] if m["name"] != "failed_share"]
    scratch = SCRATCH_ROOT / f"suite-{os.getpid()}"
    scratch.mkdir(parents=True)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
    report: Dict = {
        "schema": SCHEMA,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "host": None,
        "bounds": {m["name"]: {k: m[k] for k in ("unit", "better", "bound")} for m in e2e},
        "workloads": {},
    }
    ok = True
    try:
        for entry in contract["workloads"]:
            name = entry["name"]
            trace_out = (
                Path(args.trace_dir) / f"{name}.trace.json" if args.trace_dir else None
            )
            plain = _run_one(name, args.seed, args.seconds, 0, scratch, None)
            traced = _run_one(name, args.seed, args.seconds, 1, scratch, trace_out)
            if plain is None or traced is None:
                ok = False
                continue
            for result in (plain, traced):
                stamp = {k: result["host"][k] for k in STAMP_KEYS}
                if report["host"] is None:
                    report["host"] = result["host"]
                elif stamp != {k: report["host"][k] for k in STAMP_KEYS}:
                    print(f"{name}: host stamp changed mid-suite", file=sys.stderr)
                    ok = False
            ok = ok and plain["correct"] and traced["correct"]
            ok = ok and not plain["failed"] and not traced["failed"]
            report["workloads"][name] = {
                "why": entry["why"],
                "end_to_end": {m["name"]: plain["values"].get(m["name"]) for m in e2e},
                "per_layer": {
                    m["name"]: traced["values"].get(m["name"]) for m in per_layer
                },
                "samples": plain["samples"],
                "cycles": {**traced["cycles"], "end_to_end": plain["cycles"]["untraced"]},
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "violations": plain["violations"] + traced["violations"],
                "probes_missing": traced["probes_missing"],
            }
            print(f"{name}  ({entry['why']})")
            _show("end to end (untraced run)", e2e, plain["values"])
            _show("per layer (traced run)", per_layer, traced["values"])
            for line in report["workloads"][name]["violations"]:
                print(f"  CHECK FAILED: {line}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass
    done = report["workloads"]
    if "flat-2500" in done and "hier-2500x4" in done:
        # Fig. 6's 12.3 ms analogue: what the aggregator hop costs a cycle.
        hop = (
            done["hier-2500x4"]["end_to_end"]["cycle_p50_ms"]
            - done["flat-2500"]["end_to_end"]["cycle_p50_ms"]
        )
        report["derived"] = {"ctrl.hop_overhead_ms": hop}
        print(f"derived\n    {'ctrl.hop_overhead_ms':<36} {hop:>14.6g} ms")
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"{'ok' if ok else 'FAILED'}: wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
