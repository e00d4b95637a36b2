"""Span tracing shared by the simulated and the live control planes.

The paper's primary evidence is per-phase control-cycle latency
(Figs. 4–6); a *span* is the structured form of one bar segment: a named
interval on a named track, optionally nested. Every control cycle is
recorded as a ``cycle`` span with ``collect``/``compute``/``enforce``
children, and (on the live plane) per-session RPC children, so one
viewer inspects both planes.

Clocks are pluggable: the simulated plane traces with ``env.now``
(virtual seconds — latencies are modelled, not measured), while the
live plane traces with ``time.perf_counter`` (wall seconds). The two
must never be mixed on one timeline; exporters label the clock domain.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NullSpanTracer",
    "SpanRecord",
    "SpanTracer",
    "sim_clock",
    "wall_clock",
]


def wall_clock() -> float:
    """The live plane's clock: monotonic wall seconds."""
    return time.perf_counter()


def sim_clock(env) -> Any:
    """A clock reading a simulation :class:`Environment`'s virtual time."""
    return lambda: env.now


@dataclass(slots=True)
class SpanRecord:
    """One completed span: a named interval on a track.

    ``track`` identifies the emitting component (controller, aggregator,
    stage); ``parent`` names the enclosing span (``cycle`` for phase
    spans) so exporters can nest without re-deriving containment.
    Slotted and unfrozen: live controllers create dozens per cycle, and
    frozen-dataclass construction is measurable at ms-scale cycles.
    """

    track: str
    name: str
    start_s: float
    dur_s: float
    parent: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s


class SpanTracer:
    """Collects :class:`SpanRecord` objects from one component.

    Parameters
    ----------
    clock:
        Zero-arg callable returning the current time in seconds —
        :func:`wall_clock` for live components, :func:`sim_clock` for
        simulated ones. The clock domain is a property of the whole
        trace; never mix tracers with different domains in one export.
    track:
        Component name (one timeline row in the viewer).
    spans:
        Optional shared destination list, so several components of one
        deployment collect into a single trace.
    clock_domain:
        ``"wall"`` or ``"sim"``, recorded in exports.
    """

    def __init__(
        self,
        clock=wall_clock,
        track: str = "main",
        spans: Optional[List[SpanRecord]] = None,
        clock_domain: str = "wall",
    ) -> None:
        if clock_domain not in ("wall", "sim"):
            raise ValueError(f"unknown clock domain: {clock_domain!r}")
        self._clock = clock
        #: The clock itself, bound as ``now`` so the per-RPC hot path
        #: pays one call, not a method wrapper around one.
        self.now = time.perf_counter if clock is wall_clock else clock
        self.track = track
        self.spans: List[SpanRecord] = spans if spans is not None else []
        self.clock_domain = clock_domain
        self._children: Dict[str, "SpanTracer"] = {}

    @property
    def enabled(self) -> bool:
        return True

    def for_track(self, track: str) -> "SpanTracer":
        """A tracer for another component sharing this one's trace.

        Memoized: RPC-span emission calls this once per reply, and a
        fresh tracer per call is measurable overhead at ms-scale cycles.
        """
        child = self._children.get(track)
        if child is None:
            child = SpanTracer(
                clock=self._clock,
                track=track,
                spans=self.spans,
                clock_domain=self.clock_domain,
            )
            self._children[track] = child
        return child

    def emit(
        self,
        name: str,
        start_s: float,
        dur_s: float,
        parent: Optional[str] = None,
        **args: Any,
    ) -> SpanRecord:
        """Record an already-timed interval (sim phases time themselves)."""
        record = SpanRecord(
            track=self.track,
            name=name,
            start_s=start_s,
            dur_s=max(dur_s, 0.0),
            parent=parent,
            args=args,
        )
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(
        self, name: str, parent: Optional[str] = None, **args: Any
    ) -> Iterator[Dict[str, Any]]:
        """Context manager timing its body as one span.

        Yields the span's mutable ``args`` dict so the body can attach
        results (reply counts, missing sessions) before the span closes.
        """
        start = self._clock()
        try:
            yield args
        finally:
            self.emit(name, start, self._clock() - start, parent=parent, **args)


class NullSpanTracer:
    """No-op tracer: the default when observability is off.

    Presents the full :class:`SpanTracer` API at near-zero cost so
    instrumented code needs no ``if`` guards.
    """

    spans: List[SpanRecord] = []
    track = "null"
    clock_domain = "wall"

    @property
    def enabled(self) -> bool:
        return False

    def now(self) -> float:
        return 0.0

    def for_track(self, track: str) -> "NullSpanTracer":
        return self

    def emit(self, name, start_s, dur_s, parent=None, **args):
        return None

    @contextlib.contextmanager
    def span(self, name, parent=None, **args) -> Iterator[Dict[str, Any]]:
        yield args

