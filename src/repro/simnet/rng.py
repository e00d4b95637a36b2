"""Deterministic random-number streams.

Every stochastic component of the simulation (link jitter, workload
inter-arrival times, job demand variation) draws from its own named
substream derived from a single experiment seed. This gives:

* **Reproducibility** — a run is fully determined by one integer seed.
* **Variance isolation** — changing e.g. the workload does not perturb the
  link-jitter stream, so paired comparisons (flat vs hierarchical under the
  same conditions) use common random numbers.

Implementation: ``numpy.random.Generator`` seeded via ``SeedSequence`` with
a stable hash of the stream name, following numpy's recommended practice
for parallel/independent streams.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A factory of named, independent ``numpy`` generators."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use, then cached)."""
        gen = self._streams.get(name)
        if gen is None:
            tag = zlib.crc32(name.encode("utf-8"))
            gen = np.random.default_rng(np.random.SeedSequence([self.seed, tag]))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """A child factory independent of this one (for nested components)."""
        tag = zlib.crc32(name.encode("utf-8"))
        return RandomStreams(seed=(self.seed * 1_000_003 + tag) % (2**63))

