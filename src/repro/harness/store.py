"""Persistence for experiment results: JSON round-trip and run archives.

Long sweeps (the 10,000-node hierarchy configurations) are worth keeping.
:func:`result_to_dict` / :func:`result_from_dict` give a lossless JSON
round-trip for :class:`~repro.harness.experiment.ExperimentResult`
(including every individual cycle record, so statistics can be recomputed
with different warmups later), and :class:`RunArchive` manages a directory
of named runs with an index.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List

from repro.core.cycle import ControlCycle, CycleStats
from repro.harness.experiment import ExperimentResult
from repro.monitoring.remora import ControllerUsage

__all__ = ["RunArchive", "result_from_dict", "result_to_dict"]

_FORMAT_VERSION = 1
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def result_to_dict(result: ExperimentResult) -> Dict:
    """Serialise a result (cycles included) to JSON-compatible data."""
    return {
        "format_version": _FORMAT_VERSION,
        "design": result.design,
        "n_stages": result.n_stages,
        "n_aggregators": result.n_aggregators,
        "repetitions": result.repetitions,
        "per_repeat_mean_ms": list(result.per_repeat_mean_ms),
        "global_usage": asdict(result.global_usage),
        "aggregator_usage": (
            None if result.aggregator_usage is None else asdict(result.aggregator_usage)
        ),
        "cycles": [
            {
                "epoch": c.epoch,
                "started_at": c.started_at,
                "collect_s": c.collect_s,
                "compute_s": c.compute_s,
                "enforce_s": c.enforce_s,
                "n_stages": c.n_stages,
                "n_missing": c.n_missing,
                "timed_out": c.timed_out,
            }
            for c in result.latency.cycles
        ],
    }


def result_from_dict(data: Dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict` data."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported result format version: {version!r}")
    cycles = [
        ControlCycle(
            epoch=c["epoch"],
            started_at=c["started_at"],
            collect_s=c["collect_s"],
            compute_s=c["compute_s"],
            enforce_s=c["enforce_s"],
            n_stages=c["n_stages"],
            # Absent in archives written before degraded-cycle tracking.
            n_missing=c.get("n_missing", 0),
            timed_out=c.get("timed_out", False),
        )
        for c in data["cycles"]
    ]
    return ExperimentResult(
        design=data["design"],
        n_stages=data["n_stages"],
        n_aggregators=data["n_aggregators"],
        repetitions=data["repetitions"],
        latency=CycleStats(cycles, warmup=0),
        global_usage=ControllerUsage(**data["global_usage"]),
        aggregator_usage=(
            None if data["aggregator_usage"] is None
            else ControllerUsage(**data["aggregator_usage"])
        ),
        per_repeat_mean_ms=list(data["per_repeat_mean_ms"]),
    )


class RunArchive:
    """A directory of named experiment results with a JSON index.

    Layout::

        <root>/index.json              {name: filename}
        <root>/<name>.json             one result each
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / "index.json"

    # -- index ------------------------------------------------------------
    def _load_index(self) -> Dict[str, str]:
        if not self._index_path.exists():
            return {}
        return json.loads(self._index_path.read_text(encoding="utf-8"))

    def _save_index(self, index: Dict[str, str]) -> None:
        self._index_path.write_text(
            json.dumps(index, indent=2, sort_keys=True), encoding="utf-8"
        )

    def names(self) -> List[str]:
        """All stored run names, sorted."""
        return sorted(self._load_index())

    def __contains__(self, name: str) -> bool:
        return name in self._load_index()

    # -- storage -----------------------------------------------------------
    def save(self, name: str, result: ExperimentResult, overwrite: bool = False) -> Path:
        """Store ``result`` under ``name``; returns the written path."""
        if not _NAME_RE.match(name):
            raise ValueError(
                f"run name must match {_NAME_RE.pattern!r}: {name!r}"
            )
        index = self._load_index()
        if name in index and not overwrite:
            raise FileExistsError(f"run {name!r} already stored")
        path = self.root / f"{name}.json"
        path.write_text(
            json.dumps(result_to_dict(result), indent=1), encoding="utf-8"
        )
        index[name] = path.name
        self._save_index(index)
        return path

    def load(self, name: str) -> ExperimentResult:
        """Load a stored run by name."""
        index = self._load_index()
        if name not in index:
            raise KeyError(f"no stored run named {name!r}")
        data = json.loads((self.root / index[name]).read_text(encoding="utf-8"))
        return result_from_dict(data)

    def delete(self, name: str) -> None:
        """Remove a stored run."""
        index = self._load_index()
        filename = index.pop(name, None)
        if filename is None:
            raise KeyError(f"no stored run named {name!r}")
        (self.root / filename).unlink(missing_ok=True)
        self._save_index(index)
