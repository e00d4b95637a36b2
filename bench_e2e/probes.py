"""Timing probes for the traced run — installed from here, not from ``src/``.

The traced run wraps the public callables each layer is entered through
and records one span per call: name, start, end, parent, with the cycle
epoch as the shared id. Everything on a live plane runs on one event-loop
thread, so at any instant exactly one piece of code is executing; a span
is therefore a *synchronous* stretch of execution:

* a plain function is one span per call;
* a coroutine function is one span per **step** (resume to next suspend)
  — time it spends suspended belongs to whoever ran meanwhile, not to it.
  Targets flagged ``envelope`` also log first-resume-to-return wall time,
  which is what "how long did the slowest aggregator take" needs.

That makes the ledger exact by construction: a span's self time is its
duration minus the part its child spans cover, and the cycle's wall time
equals the self times of every span plus whatever ran under no probe
(``loop.unattributed_share`` — the event loop's own machinery and the
controllers' inline cycle bodies).

Targets are resolved **by dotted name when probes are installed**, and
patched where they are looked up (``from x import f`` binds a second
name, so some probes patch several). A target a later change removes is
skipped and reported in :attr:`Recorder.missing`; its metrics become
``None`` instead of crashing the benchmark.

Spans inside ``src/`` are a later change; this module is the only place
that knows which callables the layers expose today.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LEDGER", "PROBES", "Probe", "Recorder", "install"]


@dataclass(frozen=True)
class Probe:
    """One span name and every place its callable is looked up."""

    name: str
    targets: Tuple[str, ...]
    is_async: bool = False
    envelope: bool = False
    #: The callable is ``encode_into(buf, message, ...) -> size``: also
    #: book the encoded bytes by frame kind.
    books_frame_bytes: bool = False


PROBES: Tuple[Probe, ...] = (
    # live.codec + live.protocol framing. ``encode_into`` is from-imported
    # by sessions, so it is looked up under two names.
    Probe(
        "codec.encode",
        ("repro.live.protocol.encode_into", "repro.live.sessions.encode_into"),
        books_frame_bytes=True,
    ),
    Probe("codec.decode", ("repro.live.protocol.decode_body",)),
    # live.sessions
    Probe("sessions.feed", ("repro.live.sessions.Session.feed",)),
    Probe("sessions.feed_frame", ("repro.live.sessions.Session.feed_frame",)),
    Probe("sessions.flush", ("repro.live.sessions.Session.flush",), is_async=True),
    Probe(
        "sessions.gather",
        (
            "repro.live.controller_server.gather_phase",
            "repro.live.aggregator_server.gather_phase",
        ),
        is_async=True,
    ),
    # live.stage_client (token buckets are retuned inside the handler)
    Probe(
        "stage.handle",
        ("repro.live.stage_client.LiveVirtualStage._handle",),
        is_async=True,
    ),
    # live.aggregator_server
    Probe(
        "agg.collect",
        ("repro.live.aggregator_server.LiveAggregator._collect",),
        is_async=True,
        envelope=True,
    ),
    Probe(
        "agg.enforce",
        ("repro.live.aggregator_server.LiveAggregator._distribute",),
        is_async=True,
        envelope=True,
    ),
    # core.compute / core.columnar / core.algorithms
    Probe("compute.observe_window", ("repro.core.metrics.MetricsWindow.update",)),
    Probe("compute.observe_column", ("repro.core.columnar.StageColumns.observe",)),
    Probe(
        "compute.observe_columns",
        ("repro.core.columnar.StageColumns.observe_many",),
    ),
    Probe("compute.scalar", ("repro.core.compute.scalar_allocations",)),
    Probe("compute.columnar", ("repro.core.compute.ColumnarCompute.allocations",)),
    Probe("compute.brain", ("repro.core.algorithms.psfa.PSFA.allocate",)),
    Probe(
        "simctrl.compute",
        ("repro.core.controller.GlobalController._compute_allocations",),
    ),
    # guard
    Probe("guard.clamp", ("repro.guard.trust.DemandClamp.clamp",)),
    Probe("guard.observe", ("repro.guard.trust.DemandClamp.observe",)),
    # store
    Probe("store.record_cycle", ("repro.store.durable.DurableStore.record_cycle",)),
    Probe("store.put_tenant", ("repro.store.durable.DurableStore.put_tenant",)),
    Probe("store.lease", ("repro.store.durable.DurableStore.lease_epochs",)),
    Probe("store.wal_append", ("repro.store.wal.WriteAheadLog.append",)),
    Probe("store.wal_sync", ("repro.store.wal.WriteAheadLog.sync",)),
    # service (HttpServer holds ``api.handle`` as a bound method from
    # before the probes exist; ``_dispatch`` is looked up on every call)
    Probe(
        "service.handle", ("repro.service.api.ServiceApi._dispatch",), is_async=True
    ),
    # simnet (the transport's send is Connection.send; endpoints only receive)
    Probe("simnet.send", ("repro.simnet.transport.Connection.send",)),
)

#: The event loop's readiness poll; patched on the running loop's
#: selector instance, so it has no dotted name.
LOOP_POLL = "loop.poll"

#: Ledger line -> span names whose self time it sums. Every probe is in
#: exactly one line, so the lines plus ``loop.unattributed_share`` account
#: for the whole cycle.
LEDGER: Dict[str, Tuple[str, ...]] = {
    "codec.encode_ms_per_cycle": ("codec.encode",),
    "codec.decode_ms_per_cycle": ("codec.decode",),
    "sessions.feed_ms_per_cycle": ("sessions.feed", "sessions.feed_frame"),
    "sessions.flush_ms_per_cycle": ("sessions.flush",),
    "sessions.gather_ms_per_cycle": ("sessions.gather",),
    "stage.handle_ms_per_cycle": ("stage.handle",),
    "agg.busy_ms_per_cycle": ("agg.collect", "agg.enforce"),
    "compute.observe_ms_per_cycle": (
        "compute.observe_window",
        "compute.observe_column",
        "compute.observe_columns",
    ),
    "compute.allocate_ms_per_cycle": (
        "compute.scalar",
        "compute.columnar",
        "compute.brain",
        "simctrl.compute",
    ),
    "guard.clamp_ms_per_cycle": ("guard.clamp", "guard.observe"),
    "store.busy_ms_per_cycle": (
        "store.record_cycle",
        "store.put_tenant",
        "store.lease",
        "store.wal_append",
        "store.wal_sync",
    ),
    "service.handle_ms_per_cycle": ("service.handle",),
    "simnet.send_ms_per_cycle": ("simnet.send",),
    "loop.poll_ms_per_cycle": (LOOP_POLL,),
}


def _resolve(dotted: str):
    """``(owner, attribute)`` for a dotted name; raises if any part is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(dotted)


class Recorder:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One entry per span, parallel arrays (a million spans is ~25 MB).
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: List[int] = []
        #: (first span index, epoch) per traced cycle, in order.
        self.epoch_marks: List[Tuple[int, int]] = []
        self._cycle_first = 0
        #: Wall envelopes of flagged coroutines: (span name, id of the
        #: object called on, first resume, return, traced-cycle index).
        self.envelopes: List[Tuple[str, int, float, float, int]] = []
        #: Calls per coroutine span name (its spans count steps, not calls).
        self.calls: Dict[str, int] = {}
        #: Encoded bytes by frame kind, and per-call extras probes keep.
        self.encoded_bytes: Dict[str, int] = {}
        #: Probe names whose every target was missing at install time.
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_cycle(self) -> None:
        self._cycle_first = len(self.span_name)

    def end_cycle(self, epoch: int) -> None:
        self.epoch_marks.append((self._cycle_first, epoch))

    # -- wrappers ------------------------------------------------------------
    def _sync(self, fn: Callable, nid: int) -> Callable:
        names, starts = self.span_name, self.span_start
        ends, parents, stack = self.span_end, self.span_parent, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return wrapper

    def _async(self, fn: Callable, nid: int, envelope: bool) -> Callable:
        names, starts = self.span_name, self.span_start
        ends, parents, stack = self.span_end, self.span_parent, self._stack
        envelopes, marks, calls = self.envelopes, self.epoch_marks, self.calls
        label = self.names[nid]
        calls.setdefault(label, 0)

        @functools.wraps(fn)
        @types.coroutine
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs).__await__()
            calls[label] += 1
            value = None
            error: Optional[BaseException] = None
            first = perf_counter() if envelope else 0.0
            while True:
                index = len(names)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(index)
                starts.append(perf_counter())
                try:
                    if error is None:
                        yielded = inner.send(value)
                    else:
                        yielded = inner.throw(error)
                except StopIteration as stop:
                    if envelope:
                        envelopes.append(
                            (label, id(args[0]), first, perf_counter(), len(marks))
                        )
                    return stop.value
                finally:
                    ends[index] = perf_counter()
                    stack.pop()
                try:
                    value = yield yielded
                    error = None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded, never swallowed
                    error = exc

        return wrapper

    def _encode(self, fn: Callable, nid: int) -> Callable:
        """``encode_into`` span that also books bytes by frame kind."""
        timed = self._sync(fn, nid)
        encoded = self.encoded_bytes

        @functools.wraps(fn)
        def wrapper(buf, message, *args, **kwargs):
            size = timed(buf, message, *args, **kwargs)
            kind = message["kind"]
            encoded[kind] = encoded.get(kind, 0) + size
            return size

        return wrapper

    # -- install / uninstall -------------------------------------------------
    def _patch(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, wrapped)

    def install(self, probes: Sequence[Probe], loop=None) -> None:
        for probe in probes:
            nid = self.name_id(probe.name)
            found = False
            for dotted in probe.targets:
                try:
                    owner, attr = _resolve(dotted)
                except (ImportError, AttributeError):
                    continue
                found = True
                fn = getattr(owner, attr)
                if probe.books_frame_bytes:
                    wrapped = self._encode(fn, nid)
                elif probe.is_async:
                    wrapped = self._async(fn, nid, probe.envelope)
                else:
                    wrapped = self._sync(fn, nid)
                self._patch(owner, attr, wrapped)
            if not found:
                self.missing.append(probe.name)
        selector = getattr(loop, "_selector", None)
        if selector is not None:
            self._patch(
                selector,
                "select",
                self._sync(selector.select, self.name_id(LOOP_POLL)),
            )
        elif loop is not None:
            self.missing.append(LOOP_POLL)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        if not len(self.span_name):
            return {}
        name = np.frombuffer(self.span_name, dtype=np.intc)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        parent = np.frombuffer(self.span_parent, dtype=np.intc)
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=dur[nested], minlength=name.size
        )
        own = dur - covered
        n_names = len(self.names)
        count = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)
        return {
            label: {
                "calls": float(self.calls.get(label, count[i])),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, label in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        """Inclusive duration of every span called ``name`` (seconds)."""
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        mask = np.frombuffer(self.span_name, dtype=np.intc) == nid
        return (
            np.frombuffer(self.span_end, dtype=np.float64)[mask]
            - np.frombuffer(self.span_start, dtype=np.float64)[mask]
        )

    def write_chrome_trace(self, path: str, max_cycles: int = 2) -> None:
        """Spans of the first ``max_cycles`` traced cycles, Perfetto-loadable.

        One thread row: the spans nest by containment because one thread
        ran them. Capped because a 2,500-stage cycle is ~10^5 spans.
        """
        marks = self.epoch_marks
        stop = marks[max_cycles][0] if len(marks) > max_cycles else len(self.span_name)
        origin = self.span_start[0] if stop else 0.0
        bounds = [m[0] for m in marks] + [len(self.span_name)]
        with open(path, "w") as f:
            f.write('{"displayTimeUnit":"ms","otherData":{"clock_domain":"wall"},')
            f.write('"traceEvents":[\n')
            f.write(
                '{"ph":"M","name":"thread_name","pid":1,"tid":1,'
                '"args":{"name":"event-loop thread"}}'
            )
            cycle = 0
            for i in range(stop):
                while cycle + 1 < len(bounds) and i >= bounds[cycle + 1]:
                    cycle += 1
                event = {
                    "ph": "X",
                    "name": self.names[self.span_name[i]],
                    "pid": 1,
                    "tid": 1,
                    "ts": (self.span_start[i] - origin) * 1e6,
                    "dur": (self.span_end[i] - self.span_start[i]) * 1e6,
                    "args": {
                        "epoch": marks[cycle][1] if marks else None,
                        "parent": self.span_parent[i],
                    },
                }
                f.write(",\n" + json.dumps(event, separators=(",", ":")))
            f.write("\n]}\n")


_ABSENT = object()


def install(loop=None) -> Recorder:
    """Resolve every probe now and start recording; caller uninstalls."""
    recorder = Recorder()
    recorder.install(PROBES, loop)
    return recorder
