"""The live planes' tier: what faces the stages, in one forked child.

In the paper the controllers run on nodes of their own, apart from the
stages (Tables II and IV). A :class:`Tier` forks one child that runs, on
a loop of its own, every aggregator of a
:class:`~repro.live.harness.LiveHierPlane` (:class:`AggregatorTier`) or
the flat controller (:class:`~repro.live.controller_server.
LiveGlobalController`), while the stage fleet — which the benchmark and
the chaos checks read every cycle — stays in the parent. Every wire is
the TCP it was in one process.

The parent holds the tier through one **control channel**, a socketpair
carrying JSON frames on a :class:`~repro.live.protocol.FrameLink` at both
ends (and, on the hierarchy, one :class:`AggregatorHandle` per
aggregator: id, address, the ``kill`` / ``pause`` / ``resume`` fault
hooks, counters):

* the tier *pushes* ``tier_ready`` (the bound addresses), ``members`` (how
  many stages are registered on its servers, once per loop pass that
  changed it — what ``registered`` reads) and, on its way out,
  ``tier_bye`` (final counters and observability);
* the parent *calls* (``tier_call`` → ``tier_reply``, matched by
  ``seq``): a fault hook, a counter read, ``run_cycles``, or ``bye`` —
  the same last words, asked for just before a SIGKILL. :meth:`Tier.call`
  blocks the parent until the tier answers — the tier never waits on the
  parent, so it always can — which makes a hook take effect before the
  parent's next trunk frame. :meth:`Tier.acall` waits on the parent's
  loop instead: while the flat controller cycles, the parent must go on
  serving the stages it cycles;
* to stop, the parent *tells* ``tier_stop`` (no reply): every server
  stops — an aggregator's dial loop ends, the flat controller tells its
  stages to stop — and with its last stage socket the tier exits.

**Fork, not spawn.** A fresh interpreter spends about a quarter of a
second importing the live plane on every start. The price of ``fork`` is
hygiene in the child: every inherited descriptor except stderr and the
channel gets ``/dev/null`` duplicated over it (a stale socket object can
then neither keep a parent socket alive nor, when collected, close a
tier descriptor that reused its number); SIGINT is ignored (shutdown is
the parent's to run); the child freezes what it inherited out of the
collector's way, runs a loop of its own, exits on channel EOF (the
parent is gone) and leaves through ``os._exit`` on every path.

Observability crosses the channel as data: with the parent observing,
the tier keeps its own span list, metrics registry and usage meters and
ships them in its last words, where they merge into the parent's tracer,
registry (counters and histograms add, gauges take the tier's value)
and usage session; the metrics also ride with every awaited answer, so
the parent's registry (and a scrape of it) is current while the flat
controller cycles. The tier's CPU and memory come from its own
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
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.live import pump
from repro.live.aggregator_server import LiveAggregator
from repro.live.protocol import FrameLink, encode
from repro.monitoring.histogram import LatencyHistogram
from repro.obs.metrics import MetricsRegistry
from repro.obs.procfs import ComponentUsageMeter
from repro.obs.spans import SpanRecord, SpanTracer

__all__ = ["AggregatorHandle", "AggregatorTier", "SessionCounters", "Tier", "TierMember"]

#: How long a call waits for the tier's answer before declaring it hung.
CALL_TIMEOUT_S = 10.0
#: How long the tier waits for its stage sockets to flush before exiting.
_FLUSH_S = 1.0


class SessionCounters(NamedTuple):
    """One stage session of a tier server, as last read."""

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

    # -- fault hooks -------------------------------------------------------------
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


class Tier:
    """Parent side of the tier: fork it, call it, reap it.

    ``obs`` is the plane's observability bundle (``tracer``, ``usage``,
    ``registry``; each may be ``None``).
    """

    def __init__(self, obs) -> None:
        self._obs = obs
        self.pid: Optional[int] = None
        #: The tier's exit status as ``subprocess`` reports one (negative:
        #: killed by that signal), once reaped.
        self.returncode: Optional[int] = None
        #: Stages registered on any tier server, as last pushed.
        self.registered = 0
        self.last_stats: List[Dict[str, Any]] = []
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._link = FrameLink(self._on_frame)
        self._seq = 0
        #: The seq a blocking :meth:`call` waits for; a reply nobody waits
        #: for (its caller timed out) is dropped.
        self._calling: Optional[int] = None
        self._replies: Dict[int, dict] = {}
        self._waiting: Dict[int, asyncio.Future] = {}
        self._members_moved = asyncio.Event()
        self._ready: Optional[asyncio.Future] = None
        self._exited: Optional[asyncio.Future] = None

    # -- lifecycle -------------------------------------------------------------
    async def fork(self, names: Sequence[str], build) -> List[List]:
        """Fork the tier, where ``await build(tier)`` makes its servers,
        and return each server's listening address. ``names`` are the
        usage rows the tier's process is charged to."""
        loop = asyncio.get_running_loop()
        parent_end, child_end = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns
            _child_main(child_end, build, self._obs)
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
        if self._obs.usage is not None:
            self._obs.usage.attach(pid, names)
        try:
            addresses = await asyncio.wait_for(
                asyncio.shield(self._ready), CALL_TIMEOUT_S
            )
        except BaseException:
            self.kill()
            raise
        return addresses

    async def stop(self, grace_s: float) -> None:
        """Stop every server (each tells its stages to stop, or ends its
        dial loop); kill the tier if still there after ``grace_s``."""
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

    async def wait_members(self, n: int, timeout_s: float) -> None:
        """Wait until the tier has pushed at least ``n`` registered stages."""

        async def reached() -> None:
            while self.registered < n:
                if self._sock is None:
                    raise RuntimeError("tier exited")
                self._members_moved.clear()
                await self._members_moved.wait()

        await asyncio.wait_for(reached(), timeout_s)

    # -- calls -------------------------------------------------------------------
    def _frame(self, op: str, fields: Dict[str, Any]) -> Tuple[int, bytes]:
        self._seq += 1
        return self._seq, encode({"kind": "tier_call", "seq": self._seq, "op": op, **fields})

    def call(self, op: str, **fields) -> Optional[dict]:
        """Ask the tier to run ``op`` and wait for its reply (``None``
        once the tier is gone)."""
        sock = self._sock
        if sock is None:
            return None
        seq, frame = self._frame(op, fields)
        self._calling = seq
        try:
            sock.settimeout(CALL_TIMEOUT_S)
            sock.sendall(frame)
            while seq not in self._replies:
                data = sock.recv(65536)
                if not data:
                    self._on_eof()
                    return None
                self._link.data_received(data)
        except socket.timeout:
            raise RuntimeError(f"tier did not answer {op!r}") from None
        except OSError:
            self._on_eof()
            return None
        finally:
            self._calling = None
            if self._sock is sock:
                sock.setblocking(False)
        return self._replies.pop(seq)

    async def acall(self, op: str, timeout_s: float, **fields) -> dict:
        """:meth:`call`, awaited on this loop, which goes on serving the rest;
        ``RuntimeError`` if the tier exits, fails ``op`` or is silent
        for ``timeout_s``. What the tier observed while ``op`` ran comes
        with the reply and joins the parent's bundle here."""
        sock = self._sock
        if sock is None:
            raise RuntimeError("tier exited")
        seq, frame = self._frame(op, fields)
        answered = self._waiting[seq] = self._loop.create_future()
        try:
            try:
                sock.settimeout(CALL_TIMEOUT_S)
                sock.sendall(frame)
            except OSError:
                self._on_eof()
            finally:
                if self._sock is sock:
                    sock.setblocking(False)
            reply = await asyncio.wait_for(answered, timeout_s)
        except asyncio.TimeoutError:
            raise RuntimeError(f"tier did not answer {op!r}") from None
        finally:
            self._waiting.pop(seq, None)
        if "obs" in reply:
            self._merge_obs(reply.pop("obs"))
        if "error" in reply:
            raise RuntimeError(f"tier failed {op!r}: {reply['error']}")
        return reply

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
        """Let go of our end of the channel; whoever waits learns why."""
        sock, self._sock = self._sock, None
        if sock is not None:
            self._loop.remove_reader(sock.fileno())
            sock.close()
        gone = RuntimeError("tier exited")
        if not self._ready.done():
            self._ready.set_exception(gone)
            self._ready.exception()  # retrieved: an unawaited one is not an error
        for answered in self._waiting.values():
            if not answered.done():
                answered.set_exception(gone)
        self._members_moved.set()

    def _detach_usage(self) -> None:
        if self._obs.usage is not None:
            self._obs.usage.detach(self.pid)

    # -- frames from the tier -------------------------------------------------------
    def _on_frame(self, message, nbytes: int) -> None:
        kind = message["kind"]
        if kind == "members":
            self.registered = message["n"]
            self._members_moved.set()
        elif kind == "tier_reply":
            seq = message["seq"]
            answered = self._waiting.pop(seq, None)
            if answered is not None:
                if not answered.done():
                    answered.set_result(message)
            elif seq == self._calling:
                self._replies[seq] = message
            elif "obs" in message:
                # The answer to a call its caller gave up on: what the
                # tier observed meanwhile is drained, and ships only here.
                self._merge_obs(message["obs"])
        elif kind == "tier_ready":
            if not self._ready.done():
                self._ready.set_result(message["addresses"])
        elif kind == "tier_bye":
            self._take_leave(message)
            self._detach_usage()  # read its /proc while it is still there

    def _take_leave(self, message: dict) -> None:
        """Keep the tier's final counters; merge what it observed into
        the parent's bundle."""
        self.last_stats = message["stats"]
        self._merge_obs(message["obs"])

    def _merge_obs(self, shipped: dict) -> None:
        obs = self._obs
        if obs.tracer is not None:
            obs.tracer.spans.extend(SpanRecord(*row) for row in shipped.get("spans", ()))
        registry = obs.registry
        if registry is not None:
            for name, help_text, labels, value in shipped.get("counters", ()):
                registry.counter(name, help_text, **labels).inc(value)
            for name, help_text, labels, value in shipped.get("gauges", ()):
                registry.gauge(name, help_text, **labels).set(value)
            for name, help_text, labels, state in shipped.get("histograms", ()):
                registry.histogram(name, help_text, **labels).histogram.absorb(state)
        if obs.usage is not None:
            for name, (tx, rx, cpu_s) in shipped.get("meters", {}).items():
                meter = obs.usage.meter(name)
                meter.tx_bytes += tx
                meter.rx_bytes += rx
                meter.cpu_seconds += cpu_s


class AggregatorTier(Tier):
    """The hierarchy's tier: every aggregator of the plane, one
    :class:`AggregatorHandle` each (:attr:`handles`)."""

    def __init__(self, obs) -> None:
        super().__init__(obs)
        self.handles: List[AggregatorHandle] = []

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

        async def build(tier: _Tier) -> List[_TierAggregator]:
            aggregators = []
            for agg_id, expected, port in specs:
                agg = _TierAggregator(
                    tier,
                    agg_id,
                    global_host,
                    global_port,
                    expected_stages=expected,
                    port=port,
                    collect_timeout_s=collect_timeout_s,
                    enforce_timeout_s=enforce_timeout_s,
                    span_tracer=tier.tracer_for(agg_id),
                    usage_meter=tier.meter_for(agg_id),
                    metrics=tier.registry,
                    session_outbox_bytes=session_outbox_bytes,
                )
                await agg.start()
                aggregators.append(agg)
            return aggregators

        addresses = await self.fork([agg_id for agg_id, _, _ in specs], build)
        self.handles = [
            AggregatorHandle(self, i, agg_id, host, port)
            for i, ((agg_id, _, _), (host, port)) in enumerate(zip(specs, addresses))
        ]

    def _take_leave(self, message: dict) -> None:
        """The handles keep the tier's final counters."""
        super()._take_leave(message)
        for handle, stats in zip(self.handles, self.last_stats):
            handle._last = stats


# ---------------------------------------------------------------------------
# The child
# ---------------------------------------------------------------------------


class TierMember:
    """Mixed into a session host the tier runs: tells the tier whenever
    the host's membership moves, so the parent's count stays current."""

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


def _child_main(sock: socket.socket, build, obs) -> None:
    """The forked child's whole life; leaves only through ``os._exit``."""
    code = 1
    try:
        _hygiene(keep=(2, sock.fileno()))
        loop = asyncio.new_event_loop()
        code = loop.run_until_complete(_Tier(sock, build, obs).serve())
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


class _TierAggregator(TierMember, LiveAggregator):
    """A :class:`LiveAggregator` that tells its tier when membership moves."""


class _Tier:
    """The child's side: its servers — session hosts with ``run()``,
    ``stop()`` and, on flat, ``cycles_reply(n, have, ids_gen)`` — and its
    end of the channel. The handles it observes through are ``None`` for
    whatever the parent's bundle (``obs``) does not observe."""

    def __init__(self, sock: socket.socket, build, obs) -> None:
        self._sock = sock
        self._build = build
        self._link = FrameLink(self._on_frame, self._on_lost)
        self._tracer = (
            SpanTracer(track="tier", clock_domain="wall") if obs.tracer is not None else None
        )
        #: The registry every server counts into (``None``: not observed).
        self.registry = MetricsRegistry() if obs.registry is not None else None
        self._metered = obs.usage is not None
        self._meters: Dict[str, ComponentUsageMeter] = {}
        self.servers: List[Any] = []
        self._members_pushed = 0
        self._members_due = False
        self._answering: set = set()

    def tracer_for(self, track: str) -> Optional[SpanTracer]:
        return self._tracer.for_track(track) if self._tracer is not None else None

    def meter_for(self, name: str) -> Optional[ComponentUsageMeter]:
        if not self._metered:
            return None
        meter = self._meters[name] = ComponentUsageMeter(name)
        return meter

    async def serve(self) -> int:
        loop = asyncio.get_running_loop()
        await loop.connect_accepted_socket(lambda: self._link, self._sock)
        self.servers = await self._build(self)
        self._send(
            {
                "kind": "tier_ready",
                "addresses": [[s.host, s.port] for s in self.servers],
            }
        )
        await asyncio.gather(
            *(loop.create_task(s.run()) for s in self.servers),
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
        n = sum(len(s.sessions) for s in self.servers)
        if n != self._members_pushed and not (self._link.lost or self._link.closing):
            self._members_pushed = n
            self._send({"kind": "members", "n": n})

    def _on_frame(self, message, nbytes: int) -> None:
        kind = None if message.__class__ is tuple else message["kind"]
        if kind == "tier_stop":
            for server in self.servers:
                server.stop()
        if kind != "tier_call":
            return
        op = message.get("op")
        reply: Dict[str, Any] = {"kind": "tier_reply", "seq": message.get("seq")}
        if op == "bye":
            reply.update(self._last_words())
        else:
            server = self.servers[message.get("index", 0)]
            if op == "run_cycles":
                task = asyncio.get_running_loop().create_task(
                    self._answer(
                        reply,
                        server.cycles_reply(
                            message["n"], message["have"], message["ids_gen"]
                        ),
                    )
                )
                self._answering.add(task)
                task.add_done_callback(self._answering.discard)
                return
            if op == "stats":
                reply["stats"] = _stats(server)
            elif op in ("kill", "pause", "resume"):  # the fault hooks
                getattr(server, op)()
        self._send(reply)

    async def _answer(self, reply: Dict[str, Any], work) -> None:
        """Send ``reply`` once ``work`` is done, with what it returned or
        why it failed, and the metrics observed meanwhile (so a parent's
        registry is as current as its last answer)."""
        try:
            reply.update(await work)
        except Exception as exc:
            reply["error"] = repr(exc)
        if self.registry is not None:
            reply["obs"] = self._drain_metrics()
        if not (self._link.lost or self._link.closing):
            self._send(reply)

    def _last_words(self) -> dict:
        return {
            "stats": [_stats(s) for s in self.servers],
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
        if self.registry is not None:
            shipped.update(self._drain_metrics())
        if self._meters:
            shipped["meters"] = {
                name: [m.tx_bytes, m.rx_bytes, m.cpu_seconds]
                for name, m in self._meters.items()
            }
            for m in self._meters.values():
                m.tx_bytes = m.rx_bytes = 0
                m.cpu_seconds = 0.0
        return shipped

    def _drain_metrics(self) -> dict:
        """The registry's counts since the last drain and its gauges."""
        registry = self.registry
        counters = []
        for name, help_text, labels, counter in registry.series("counter"):
            if counter.value:
                counters.append([name, help_text, labels, counter.value])
                counter.value = 0.0
        histograms = []
        for name, help_text, labels, metric in registry.series("histogram"):
            hist = metric.histogram
            if hist.total:
                histograms.append([name, help_text, labels, hist.state()])
                metric.histogram = LatencyHistogram(
                    hist.min_value_s, hist.max_value_s, hist.buckets_per_decade
                )
        return {
            "counters": counters,
            "gauges": [
                [name, help_text, labels, gauge.value]
                for name, help_text, labels, gauge in registry.series("gauge")
            ],
            "histograms": histograms,
        }


def _stats(server) -> Dict[str, Any]:
    return {
        "sessions": {
            peer: [s.tx_bytes, s.rx_bytes, s.stale_messages, s.outbox.pending_bytes]
            for peer, s in server.sessions.items()
        },
        "evictions": server.evictions,
        "shed": server.outbox_frames_shed,
    }

