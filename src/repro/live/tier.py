"""The live plane's aggregator tier: part of the plane in one child process.

The paper's case for the hierarchy is offload — aggregators on their own
nodes take the stage fan-out off the global controller's CPU (Table IV,
Fig. 6). :class:`~repro.live.harness.LiveHierPlane` gets the same split
on one host: at :meth:`AggregatorTier.start` it forks one child that
runs all of the plane's :class:`~repro.live.aggregator_server.
LiveAggregator` servers on its own event loop, while the global
controller and the stage fleet stay in the parent. Stages reach their
aggregator, and aggregators the global controller, over the same TCP
sockets as before; nothing on the trunk or the stage legs changes.

The parent holds the tier through one **control channel**, a socketpair
carrying JSON frames on a :class:`~repro.live.protocol.FrameLink` at both
ends, and through one :class:`AggregatorHandle` per aggregator (id,
address, the ``kill`` / ``pause`` / ``resume`` fault hooks, counters):

* the tier *pushes* ``tier_ready`` (the bound addresses), ``members`` (how
  many stages are registered tree-wide, once per loop pass that changed
  it — what the parent's ``registered_stages`` reads) and, on its way
  out, ``tier_bye`` (final counters and observability);
* the parent *calls* (``tier_call`` → ``tier_reply``, matched by
  ``seq``): a fault hook, a counter read, or ``bye`` — the same last
  words, asked for just before a SIGKILL. A call blocks the parent until
  the tier answers — the tier never waits on the parent, so it always
  can — which makes a hook take effect before the parent's next trunk
  frame, as it did in one process;
* to stop, the parent *tells* ``tier_stop`` (no reply): every
  aggregator's dial loop ends, and with its last stage socket the tier.

**Fork, not spawn.** A fresh interpreter spends about a quarter of a
second importing the live plane on every start, and a plane restart
starts the tier again. The price of ``fork`` is hygiene in the child:
every inherited descriptor except stderr and the channel gets
``/dev/null`` duplicated over it (so a stale socket object the child
inherited can neither keep a parent socket alive — a closed listener's
port, a closed connection's EOF — nor, when collected, close a tier
descriptor that reused its number); SIGINT is ignored (an operator's
Ctrl-C reaches the whole process group, and shutdown is the parent's to
run); the child freezes what it inherited out of the collector's way,
runs a loop of its own, exits on channel EOF (the parent is gone) and
leaves through ``os._exit`` on every path, so it never unwinds into the
parent's stack, ``atexit`` hooks or buffered output.

Observability crosses the channel as data: with the parent observing,
the tier keeps its own span list, counters and usage meters and ships
them in its last words, where they merge into the parent's tracer,
registry and usage session; the tier's CPU and memory come from its own
``/proc/<pid>`` (:meth:`repro.obs.procfs.LiveUsageSession.attach`).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import signal
import socket
import sys
import traceback
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.live import pump
from repro.live.aggregator_server import LiveAggregator
from repro.live.protocol import FrameLink, encode
from repro.obs.metrics import MetricsRegistry
from repro.obs.procfs import ComponentUsageMeter
from repro.obs.spans import SpanRecord, SpanTracer

if TYPE_CHECKING:
    from repro.live.stage_client import LiveVirtualStage

__all__ = ["AggregatorHandle", "AggregatorTier", "SessionCounters"]

#: How long a call waits for the tier's answer before declaring it hung.
CALL_TIMEOUT_S = 10.0
#: How long the tier waits for its stage sockets to flush before exiting.
_FLUSH_S = 1.0
#: The observability bundle of a plane that observes nothing.
_UNOBSERVED = SimpleNamespace(tracer=None, usage=None, registry=None)


class SessionCounters(NamedTuple):
    """One stage session of a tier aggregator, as last read."""

    tx_bytes: int
    rx_bytes: int
    stale_messages: int
    pending_bytes: int


class AggregatorHandle:
    """The parent's hold on one aggregator running in the tier.

    Counters are read from the tier on every access (one call), and hold
    their last reading once the tier is gone.
    """

    def __init__(
        self, tier: "AggregatorTier", index: int, aggregator_id: str, host: str, port: int
    ) -> None:
        self._tier = tier
        self.index = index
        self.aggregator_id = aggregator_id
        self.host = host
        self.port = port
        self._last: Dict[str, Any] = {"sessions": {}, "evictions": 0, "shed": 0}

    # -- fault hooks (see repro.live.faults) -----------------------------------
    def kill(self) -> None:
        """Kill this aggregator in the tier (its sockets abort, its
        listener closes); done when this returns."""
        self._tier.call("kill", index=self.index)

    def pause(self) -> None:
        """Stop this aggregator handling upstream frames."""
        self._tier.call("pause", index=self.index)

    def resume(self) -> None:
        """Undo :meth:`pause`; the backlog is then served."""
        self._tier.call("resume", index=self.index)

    # -- counters --------------------------------------------------------------
    def _stats(self) -> Dict[str, Any]:
        reply = self._tier.call("stats", index=self.index)
        if reply is not None:
            self._last = reply["stats"]
        return self._last

    @property
    def sessions(self) -> Dict[str, SessionCounters]:
        """Stage id -> that stage session's counters."""
        return {
            peer: SessionCounters(*row) for peer, row in self._stats()["sessions"].items()
        }

    @property
    def evictions(self) -> int:
        """Sessions this aggregator evicted after their socket died."""
        return self._stats()["evictions"]

    @property
    def outbox_frames_shed(self) -> int:
        """Frames its bounded outboxes shed, living and evicted sessions."""
        return self._stats()["shed"]


class AggregatorTier:
    """Parent side of the tier: fork it, call it, reap it.

    ``obs`` is the plane's observability bundle (``tracer``, ``usage``,
    ``registry``; each may be ``None``, as all are when it is omitted).
    """

    def __init__(self, obs=None) -> None:
        self._obs = obs if obs is not None else _UNOBSERVED
        self.pid: Optional[int] = None
        #: The tier's exit status as ``subprocess`` reports one (negative:
        #: killed by that signal), once reaped.
        self.returncode: Optional[int] = None
        #: Stages registered on any tier aggregator, as last pushed.
        self.registered = 0
        self.handles: List[AggregatorHandle] = []
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._link = FrameLink(self._on_frame)
        self._seq = 0
        self._replies: Dict[int, dict] = {}
        self._ready: Optional[asyncio.Future] = None
        self._exited: Optional[asyncio.Future] = None

    # -- lifecycle -------------------------------------------------------------
    async def start(
        self,
        specs: Sequence[Tuple[str, int, int]],
        global_host: str,
        global_port: int,
        collect_timeout_s: Optional[float],
        enforce_timeout_s: Optional[float],
        session_outbox_bytes: Optional[int],
    ) -> None:
        """Fork the tier with one aggregator per ``(id, expected_stages,
        port)`` and return once every aggregator is listening
        (``handles``)."""
        loop = asyncio.get_running_loop()
        obs = self._obs
        plan = _Plan(
            specs,
            global_host,
            global_port,
            collect_timeout_s,
            enforce_timeout_s,
            session_outbox_bytes,
            trace=obs.tracer is not None,
            metrics=obs.registry is not None,
            usage=obs.usage is not None,
        )
        parent_end, child_end = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns
            _child_main(child_end, plan)
        child_end.close()
        self.pid = pid
        self._loop = loop
        self._sock = parent_end
        # Blocking only inside a call: the reader may find what woke it
        # taken by a call, and a timeout socket waits in any ``recv``.
        parent_end.setblocking(False)
        self._ready = loop.create_future()
        self._exited = loop.create_future()
        loop.add_reader(parent_end.fileno(), self._readable)
        if obs.usage is not None:
            obs.usage.attach(pid, [agg_id for agg_id, _, _ in specs])
        try:
            addresses = await asyncio.wait_for(
                asyncio.shield(self._ready), CALL_TIMEOUT_S
            )
        except BaseException:
            self.kill()
            raise
        self.handles = [
            AggregatorHandle(self, i, agg_id, host, port)
            for i, ((agg_id, _, _), (host, port)) in enumerate(zip(specs, addresses))
        ]

    async def stop(self, grace_s: float = 2.0) -> None:
        """End every aggregator's dial loop, re-dialling or not (each tells
        its stages to stop); kill the tier if still there after ``grace_s``."""
        if self._sock is not None:
            with contextlib.suppress(OSError):  # told: a hung tier costs the grace
                self._sock.send(encode({"kind": "tier_stop"}))
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.shield(self._exited), grace_s)
        self.kill()

    def kill(self) -> None:
        """Reap the tier; SIGKILL it first unless it is already on its
        way out (it closed the channel), once it has handed over its
        counters and observations."""
        if self.pid is None:
            return
        with contextlib.suppress(RuntimeError):  # hung: no last words
            reply = self.call("bye")
            if reply is not None:
                self._take_leave(reply)
        self._detach_usage()
        if not self._exited.done():
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
        # A tier that closed its channel exits within ``_FLUSH_S``.
        _, status = os.waitpid(self.pid, 0)
        self.returncode = (
            -os.WTERMSIG(status) if os.WIFSIGNALED(status) else os.WEXITSTATUS(status)
        )
        self.pid = None
        self._close()

    # -- calls -------------------------------------------------------------------
    def call(self, op: str, **fields) -> Optional[dict]:
        """Ask the tier to run ``op`` and wait for its reply (``None``
        once the tier is gone)."""
        sock = self._sock
        if sock is None:
            return None
        self._seq += 1
        seq = self._seq
        try:
            sock.settimeout(CALL_TIMEOUT_S)
            sock.sendall(encode({"kind": "tier_call", "seq": seq, "op": op, **fields}))
            while seq not in self._replies:
                data = sock.recv(65536)
                if not data:
                    self._on_eof()
                    return None
                self._link.data_received(data)
        except socket.timeout:
            raise RuntimeError(f"aggregator tier did not answer {op!r}") from None
        except OSError:
            self._on_eof()
            return None
        finally:
            if self._sock is sock:
                sock.setblocking(False)
        return self._replies.pop(seq)

    def _readable(self) -> None:
        try:
            data = self._sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if data:
            self._link.data_received(data)
        else:
            self._on_eof()

    def _on_eof(self) -> None:
        """The tier closed its end: it is exiting, or has exited."""
        if not self._exited.done():
            self._exited.set_result(None)
        self._close()

    def _close(self) -> None:
        """Let go of our end of the channel."""
        sock, self._sock = self._sock, None
        if sock is not None:
            self._loop.remove_reader(sock.fileno())
            sock.close()
        if not self._ready.done():
            self._ready.set_exception(RuntimeError("aggregator tier exited"))
            self._ready.exception()  # retrieved: an unawaited one is not an error

    def _detach_usage(self) -> None:
        if self._obs.usage is not None:
            self._obs.usage.detach(self.pid)

    # -- frames from the tier -------------------------------------------------------
    def _on_frame(self, message, nbytes: int) -> None:
        kind = message["kind"]
        if kind == "members":
            self.registered = message["n"]
        elif kind == "tier_reply":
            self._replies[message["seq"]] = message
        elif kind == "tier_ready":
            if not self._ready.done():
                self._ready.set_result(message["addresses"])
        elif kind == "tier_bye":
            self._take_leave(message)
            self._detach_usage()  # read its /proc while it is still there

    def _take_leave(self, message: dict) -> None:
        """Keep the tier's final counters on the handles; merge what it
        observed into the parent's bundle."""
        for handle, stats in zip(self.handles, message["stats"]):
            handle._last = stats
        self._merge_obs(message["obs"])

    def _merge_obs(self, shipped: dict) -> None:
        obs = self._obs
        if obs.tracer is not None:
            obs.tracer.spans.extend(SpanRecord(*row) for row in shipped.get("spans", ()))
        if obs.registry is not None:
            for name, help_text, labels, value in shipped.get("counters", ()):
                obs.registry.counter(name, help_text, **labels).inc(value)
        if obs.usage is not None:
            for name, (tx, rx, cpu_s) in shipped.get("meters", {}).items():
                meter = obs.usage.meter(name)
                meter.tx_bytes += tx
                meter.rx_bytes += rx
                meter.cpu_seconds += cpu_s


# ---------------------------------------------------------------------------
# The child
# ---------------------------------------------------------------------------


class _Plan(NamedTuple):
    """Everything the child needs, handed over in the forked memory."""

    specs: Sequence[Tuple[str, int, int]]
    global_host: str
    global_port: int
    collect_timeout_s: Optional[float]
    enforce_timeout_s: Optional[float]
    session_outbox_bytes: Optional[int]
    trace: bool
    metrics: bool
    usage: bool


def _child_main(sock: socket.socket, plan: _Plan) -> None:
    """The forked child's whole life; leaves only through ``os._exit``."""
    code = 1
    try:
        _hygiene(keep=(2, sock.fileno()))
        loop = asyncio.new_event_loop()
        code = loop.run_until_complete(_Tier(sock, plan).serve())
    except BaseException:
        with contextlib.suppress(BaseException):
            traceback.print_exc()
            sys.stderr.flush()
    finally:
        os._exit(code)


def _hygiene(keep: Tuple[int, ...]) -> None:
    """Make the forked child hold nothing of the parent's."""
    with contextlib.suppress(ValueError):  # only the main thread may
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.set_wakeup_fd(-1)
    devnull = os.open(os.devnull, os.O_RDWR)
    for name in os.listdir("/proc/self/fd"):
        fd = int(name)
        if fd not in keep and fd != devnull:
            with contextlib.suppress(OSError):
                os.dup2(devnull, fd)
    os.close(devnull)
    # Everything inherited stays as it is: keep the collector from
    # walking (and so copying) the parent's heap.
    gc.freeze()


class _TierAggregator(LiveAggregator):
    """A :class:`LiveAggregator` that tells its tier when membership moves."""

    def __init__(self, tier: "_Tier", *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tier = tier

    def _welcome(self, session) -> None:
        super()._welcome(session)
        self._tier.members_changed()

    def _on_evicted(self, session) -> None:
        super()._on_evicted(session)
        self._tier.members_changed()

    def _close_sessions(self, farewell: Optional[dict] = None) -> None:
        super()._close_sessions(farewell)
        self._tier.members_changed()


class _Tier:
    """The child's side: its aggregators and its end of the channel."""

    def __init__(self, sock: socket.socket, plan: _Plan) -> None:
        self._sock = sock
        self._plan = plan
        self._link = FrameLink(self._on_frame, self._on_lost)
        self._tracer = (
            SpanTracer(track="aggregator-tier", clock_domain="wall") if plan.trace else None
        )
        self._registry = MetricsRegistry() if plan.metrics else None
        self._meters: Dict[str, ComponentUsageMeter] = {}
        self.aggregators: List[_TierAggregator] = []
        self._members_pushed = 0
        self._members_due = False

    async def serve(self) -> int:
        loop = asyncio.get_running_loop()
        plan = self._plan
        await loop.connect_accepted_socket(lambda: self._link, self._sock)
        for agg_id, expected, port in plan.specs:
            if plan.usage:
                self._meters[agg_id] = ComponentUsageMeter(agg_id)
            agg = _TierAggregator(
                self,
                agg_id,
                plan.global_host,
                plan.global_port,
                expected_stages=expected,
                port=port,
                collect_timeout_s=plan.collect_timeout_s,
                enforce_timeout_s=plan.enforce_timeout_s,
                span_tracer=(
                    self._tracer.for_track(agg_id) if self._tracer is not None else None
                ),
                usage_meter=self._meters.get(agg_id),
                metrics=self._registry,
                session_outbox_bytes=plan.session_outbox_bytes,
            )
            await agg.start()
            self.aggregators.append(agg)
        self._send(
            {
                "kind": "tier_ready",
                "addresses": [[a.host, a.port] for a in self.aggregators],
            }
        )
        await asyncio.gather(
            *(loop.create_task(a.run()) for a in self.aggregators),
            return_exceptions=True,
        )
        # Shut-down stage sockets finish flushing; the pump
        # goes away with the last of them.
        deadline = loop.time() + _FLUSH_S
        while pump._pumps.get(loop) is not None and loop.time() < deadline:
            await asyncio.sleep(0.001)
        self._send({"kind": "tier_bye", **self._last_words()})
        self._link.close()  # ``_on_lost`` exits once the bye is out
        await asyncio.sleep(_FLUSH_S)
        return 0

    def _send(self, message: dict) -> None:
        self._link.write(encode(message))

    def _on_lost(self, exc: Optional[Exception]) -> None:
        # The parent is gone (or let go of us): nothing left to serve.
        os._exit(0)

    def members_changed(self) -> None:
        if not self._members_due:
            self._members_due = True
            asyncio.get_running_loop().call_soon(self._push_members)

    def _push_members(self) -> None:
        self._members_due = False
        n = sum(len(a.sessions) for a in self.aggregators)
        if n != self._members_pushed and not (self._link.lost or self._link.closing):
            self._members_pushed = n
            self._send({"kind": "members", "n": n})

    def _on_frame(self, message, nbytes: int) -> None:
        kind = None if message.__class__ is tuple else message["kind"]
        if kind == "tier_stop":
            for agg in self.aggregators:
                agg.stop()
        if kind != "tier_call":
            return
        op = message.get("op")
        reply: Dict[str, Any] = {"kind": "tier_reply", "seq": message.get("seq")}
        if op == "bye":
            reply.update(self._last_words())
        else:
            agg = self.aggregators[message["index"]]
            if op == "stats":
                reply["stats"] = _stats(agg)
            elif op in ("kill", "pause", "resume"):  # the fault hooks
                getattr(agg, op)()
        self._send(reply)

    def _last_words(self) -> dict:
        return {
            "stats": [_stats(a) for a in self.aggregators],
            "obs": self._drain_obs(),
        }

    def _drain_obs(self) -> dict:
        """What was observed since the last drain, as plain data."""
        shipped: Dict[str, Any] = {}
        if self._tracer is not None:
            spans = self._tracer.spans
            shipped["spans"] = [
                [s.track, s.name, s.start_s, s.dur_s, s.parent, s.args] for s in spans
            ]
            spans.clear()
        if self._registry is not None:
            counters = []
            for name, help_text, labels, counter in self._registry.counters():
                if counter.value:
                    counters.append([name, help_text, labels, counter.value])
                    counter.value = 0.0
            shipped["counters"] = counters
        if self._meters:
            shipped["meters"] = {
                name: [m.tx_bytes, m.rx_bytes, m.cpu_seconds]
                for name, m in self._meters.items()
            }
            for m in self._meters.values():
                m.tx_bytes = m.rx_bytes = 0
                m.cpu_seconds = 0.0
        return shipped


def _stats(agg: LiveAggregator) -> Dict[str, Any]:
    return {
        "sessions": {
            peer: [s.tx_bytes, s.rx_bytes, s.stale_messages, s.outbox.pending_bytes]
            for peer, s in agg.sessions.items()
        },
        "evictions": agg.evictions,
        "shed": agg.outbox_frames_shed,
    }


def _probe(stages: Sequence[LiveVirtualStage]) -> Dict[str, Dict[str, Any]]:
    """Each stage's enforcement state, by stage id."""
    return {
        s.stage_id: {
            "applied_epoch": s.applied_epoch,
            "applied_limit": s.applied_limit,
            "rules_applied": s.rules_applied,
            "rules_stale": s.rules_ignored_stale,
        }
        for s in stages
    }
