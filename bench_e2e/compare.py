"""Diff two reports: ``python -m bench_e2e.compare A.json B.json``.

Per workload and end-to-end metric: how much worse (or better) B is than
A, against the bound recorded for that metric. This replaces same-run
"speedup vs a retained twin" with a trajectory of reports.

* Refuses (exit 2) when the host stamps differ: numbers from different
  core counts, CPUs, interpreters or event loops are not comparable.
* A metric inside its bound is *unchanged* only when the spread between
  the run's own blocks is inside the bound too; otherwise the verdict is
  *unresolved* — the noise is wider than what the bound could detect.
* ``failed_share`` has no relative bound: any increase is a regression.

Exits 1 when anything regressed, 0 otherwise. One report per side is a
screening tool; claiming a gain still takes the ten alternating pairs the
choosing-metrics guide asks for.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from bench_e2e.host import STAMP_KEYS

SCHEMA = "bench-e2e/1"


def _load(path: str) -> Dict:
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} report")
    return report


def _spread(samples: Optional[List[float]]) -> float:
    """Inter-quartile range of a run's own samples, as a share of their median."""
    if not samples or len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: float, b: float, better: str, bound: float, spread: float) -> tuple:
    """``(worse_by, label)``: B against A, positive ``worse_by`` = worse."""
    if a == 0:  # failed_share: expected 0, so any movement is unbounded
        worse_by = 0.0 if b == 0 else math.copysign(math.inf, b)
    else:
        worse_by = (b - a) / a
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return worse_by, "REGRESSED"
    if worse_by < -bound and bound > 0:
        return worse_by, "improved"
    if spread > bound > 0:
        return worse_by, "unresolved"
    return worse_by, "unchanged"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench_e2e.compare", description=__doc__
    )
    parser.add_argument("a", help="baseline report")
    parser.add_argument("b", help="report to judge against it")
    args = parser.parse_args(argv)
    a, b = _load(args.a), _load(args.b)

    differing = [k for k in STAMP_KEYS if a["host"].get(k) != b["host"].get(k)]
    if differing:
        for k in differing:
            print(f"host stamp differs: {k}: {a['host'].get(k)!r} != {b['host'].get(k)!r}")
        print("refusing to compare reports from different hosts")
        return 2

    regressed = False
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name}: missing from {args.b}")
            continue
        print(name)
        for metric, meta in a["bounds"].items():
            va, vb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if va is None or vb is None:
                print(f"  {metric:<20} n/a")
                continue
            spread = max(
                _spread(wa["samples"].get(metric)), _spread(wb["samples"].get(metric))
            )
            worse_by, label = verdict(va, vb, meta["better"], meta["bound"], spread)
            regressed |= label == "REGRESSED"
            print(
                f"  {metric:<20} {va:>12.6g} -> {vb:>12.6g} {meta['unit']:<5}"
                f" worse by {worse_by:+8.1%} (bound {meta['bound']:.0%},"
                f" block spread {spread:.1%})  {label}"
            )
    hop = "ctrl.hop_overhead_ms"
    da, db = a.get("derived", {}).get(hop), b.get("derived", {}).get(hop)
    if da is not None and db is not None:
        print(f"derived {hop}: {da:.6g} -> {db:.6g} ms")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
