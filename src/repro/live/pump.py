"""One epoll pump under every :class:`~repro.live.protocol.FrameLink`.

asyncio's selector transports cost the loop one ``Handle`` — a queued
callback object, a selector-key lookup, a trip through ``_run_once`` —
per readable socket, so a controller's 2,500-reply burst is 2,500 loop
callbacks that each read one small frame. The pump takes the live
plane's sockets off that path: every link and listener of an event loop
is registered with ONE ``select.epoll`` owned here, and that epoll's own
descriptor is the only thing asyncio watches for frame traffic. When it
turns readable the loop runs :meth:`_Pump._drain` once; the drain makes
one ``poll(0)`` and walks the whole batch — ``recv_into`` the link's
buffer, ``buffer_updated(n)``, flush on ``EPOLLOUT`` — then returns, so a
burst costs the loop one callback however many sockets it spans.

Connecting stays off the loop's selector too: :func:`connect` dials with
``connect_ex`` and parks the socket on the same epoll for ``EPOLLOUT``;
the drain resolves the dial's future, ``SO_ERROR`` gives the verdict, and
the socket's interest turns to ``EPOLLIN`` as it becomes a link. A
registration burst of N stages costs the selector no ``register`` /
``unregister`` call and the loop no writer ``Handle``.

Rules the drain keeps (asyncio's transports gave them for free):

* **One poll per callback.** The drain never loops until the sockets run
  dry: whatever became ready meanwhile makes the epoll readable again
  (level-triggered) and is served on the loop's next iteration, after
  the timers (phase deadlines), the REST door and the heartbeat streams
  that share the loop have had their turn.
* **Exception isolation.** An exception escaping one link's callback
  goes to ``loop.call_exception_handler`` and loses *that* link; the
  rest of the batch is still served.
* **No callback after close, no fd reuse inside a batch.** A link closed
  or aborted earlier in the batch is skipped, and its socket is closed
  only in the deferred ``connection_lost`` step (a ``call_soon``, never
  synchronous), so its fd number cannot come back as a new connection
  while stale events for it are still in the batch.

**ACKs ride on frames.** A link's traffic is request and reply, and the
accepting end (a controller's or aggregator's side of a session) is the
one that hears a reply and then has nothing to say for half a cycle. Left
alone, Linux acknowledges each such reply with a bare ACK from inside the
``recv`` that drained it — 5,000 extra segments a cycle at 2,500 stages,
about a quarter of the cycle — *unless* it has guessed the connection is
interactive, which it re-guesses from whether the last send came within
~40 ms of the last receive. A plane whose phases last about that long
flips between the two regimes by the second (cycle medians 90 ms or
130 ms, same work). So the accepting end says it outright: after every
eager send it clears ``TCP_QUICKACK``, the kernel holds the next ACK for
the frame that follows (or sends it from its 40 ms timer, off the read
path), and a cycle is 4 segments a stage whatever its pace. The
connecting end answers at once, so its ACKs always had a frame to ride.

Errors on ``recv_into`` / ``send`` (``ECONNRESET`` and friends) lose the
link with that exception, exactly once; EOF closes it after flushing.
``EPOLLHUP`` / ``EPOLLERR`` are read like ``EPOLLIN`` — ``recv_into``
says which it was.

A *link* is anything shaped like an ``asyncio.BufferedProtocol``:
``connection_made(transport)``, ``get_buffer(sizehint)`` (asked once, at
connection time — a link reads into the same buffer for life),
``buffer_updated(nbytes)``, ``pause_writing()`` / ``resume_writing()``
and ``connection_lost(exc)``. The transport it is handed has the three
methods a ``FrameLink`` calls: ``write``, ``close``, ``abort``.

Linux only (``select.epoll``), like :mod:`repro.obs.procfs`, the
benchmark and CI; and, like the shared receive buffer, one event-loop
thread per process. The ``selectors`` wrapper is deliberately not used:
its per-event Python key lookup is part of what this module removes.
"""

from __future__ import annotations

import asyncio
import errno
import functools
import select
import socket
import weakref
from typing import Callable, Optional, Tuple

if not hasattr(select, "epoll"):
    raise ImportError("repro.live needs select.epoll: the live plane runs on Linux only")

__all__ = ["connect", "listen"]

#: Write-buffer water marks (asyncio's defaults): a transport holding
#: more unsent bytes than ``HIGH_WATER`` calls ``pause_writing``, and
#: ``resume_writing`` once it is back at or below ``LOW_WATER``.
HIGH_WATER = 64 * 1024
LOW_WATER = 16 * 1024
#: How long a listener stops accepting after ``accept`` ran out of
#: descriptors or memory, instead of spinning on a level-triggered fd.
ACCEPT_RETRY_S = 1.0

_IN = select.EPOLLIN
_OUT = select.EPOLLOUT
_EXHAUSTED = (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM)
#: ``connect_ex`` results that leave the verdict to ``EPOLLOUT``.
_DIALLING = (0, errno.EINPROGRESS, errno.EINTR)

# Running loop -> its pump. Weak values: a running loop keeps its pump
# alive through the reader registered for it, and a pump whose loop was
# closed with links still open goes away when they do.
_pumps: "weakref.WeakValueDictionary[asyncio.AbstractEventLoop, _Pump]" = (
    weakref.WeakValueDictionary()
)


def _pump_for(loop: asyncio.AbstractEventLoop) -> "_Pump":
    pump = _pumps.get(loop)
    if pump is None:
        pump = _pumps[loop] = _Pump(loop)
    return pump


class _Pump:
    """One loop's epoll, the links, listeners and dials registered with it."""

    __slots__ = ("loop", "_ep", "_links", "_listeners", "_connecting", "__weakref__")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self._ep = select.epoll()
        self._links: dict = {}  # fd -> _Transport
        self._listeners: dict = {}  # fd -> _Listener
        self._connecting: dict = {}  # fd -> future, resolved on EPOLLOUT
        loop.add_reader(self._ep.fileno(), self._drain)

    def attach(
        self, sock: socket.socket, link, delay_acks: bool = False, dialled: bool = False
    ) -> None:
        """Put ``link`` on the connected, non-blocking ``sock`` — already
        on the epoll if ``dialled`` (:meth:`_connected` left it there)."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        transport = _Transport(self, sock, link, delay_acks)
        self._links[transport._fd] = transport
        if dialled:
            self._ep.modify(transport._fd, _IN)
        else:
            self._ep.register(transport._fd, _IN)
        try:
            link.connection_made(transport)
        except Exception as exc:
            transport._callback_failed(exc, "connection_made")

    async def _connected(self, sock: socket.socket) -> int:
        """Wait for the dialling ``sock`` to turn writable; its ``SO_ERROR``.

        On 0 the fd stays on the epoll (interest ``EPOLLOUT``) for
        :meth:`attach`; on an error, or cancelled, it leaves the epoll
        here, before the caller closes the socket.
        """
        fd = sock.fileno()
        waiter = self._connecting[fd] = self.loop.create_future()
        self._ep.register(fd, _OUT)
        err = errno.ECANCELED
        try:
            await waiter
            err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        finally:
            del self._connecting[fd]
            if err:
                self._forget(fd)
        return err

    def _forget(self, fd: int) -> None:
        """``fd`` left ``_links`` / ``_listeners`` / ``_connecting``; the
        last one out closes the epoll and takes its reader off the loop."""
        self._ep.unregister(fd)
        if not self._links and not self._listeners and not self._connecting:
            self.loop.remove_reader(self._ep.fileno())
            self._ep.close()
            if _pumps.get(self.loop) is self:
                del _pumps[self.loop]

    def _drain(self) -> None:
        """The loop's one callback per burst: poll once, serve the batch."""
        links = self._links
        registered = len(links) + len(self._listeners) + len(self._connecting)
        for fd, mask in self._ep.poll(0, registered):
            transport = links.get(fd)
            if transport is None:
                # A listener, a dial with its verdict in — or a link lost
                # earlier in this batch.
                listener = self._listeners.get(fd)
                if listener is not None:
                    listener._accept()
                    continue
                waiter = self._connecting.get(fd)
                if waiter is not None and not waiter.done():
                    waiter.set_result(None)
                continue
            if transport._closing:  # done reading: only the flush is left
                transport._flush()
                continue
            if mask != _OUT:  # EPOLLIN, EPOLLHUP, EPOLLERR: recv says which
                try:
                    nbytes = transport._sock.recv_into(transport._buffer)
                except (BlockingIOError, InterruptedError):
                    pass
                except OSError as exc:
                    transport._lose(exc)
                    continue
                else:
                    if not nbytes:  # EOF: flush what is queued, then close
                        transport.close()
                        continue
                    try:
                        transport._link.buffer_updated(nbytes)
                    except Exception as exc:
                        transport._callback_failed(exc, "buffer_updated")
                        continue
            if mask & _OUT and transport._pending:
                transport._flush()


class _Transport:
    """What a link writes to: eager ``send``, the rest parked for ``EPOLLOUT``."""

    __slots__ = (
        "_pump",
        "_sock",
        "_fd",
        "_link",
        "_delay_acks",
        "_buffer",
        "_pending",
        "_paused",
        "_closing",
        "_lost",
    )

    def __init__(
        self, pump: _Pump, sock: socket.socket, link, delay_acks: bool
    ) -> None:
        self._pump = pump
        self._sock = sock
        self._fd = sock.fileno()
        self._link = link
        #: The accepting end (see the module docstring, "ACKs ride").
        self._delay_acks = delay_acks
        self._buffer = link.get_buffer(-1)
        self._pending = bytearray()
        self._paused = False
        #: No more reads: :meth:`close` was called or the peer sent EOF.
        self._closing = False
        #: Off the epoll; ``connection_lost`` has run or is queued.
        self._lost = False

    def write(self, data) -> None:
        """Send ``data`` now; what the socket will not take is queued."""
        if self._lost:
            return
        pending = self._pending
        if not pending:
            try:
                sent = self._sock.send(data)
                if self._delay_acks:
                    # Not sticky: the kernel leaves the mode whenever a
                    # delayed ACK times out, i.e. every phase.
                    self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as exc:
                self._lose(exc)
                return
            if sent == len(data):
                return
            data = memoryview(data)[sent:]
            self._pump._ep.modify(self._fd, _IN | _OUT)
        pending += data
        if len(pending) > HIGH_WATER and not self._paused:
            self._paused = True
            try:
                self._link.pause_writing()
            except Exception as exc:
                self._callback_failed(exc, "pause_writing")

    def _flush(self) -> None:
        """The socket is writable again: send what :meth:`write` queued."""
        pending = self._pending
        try:
            sent = self._sock.send(pending)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._lose(exc)
            return
        del pending[:sent]
        if self._paused and len(pending) <= LOW_WATER:
            self._paused = False
            try:
                self._link.resume_writing()
            except Exception as exc:
                self._callback_failed(exc, "resume_writing")
                return
        if not pending:
            if self._closing:
                self._lose(None)
            else:
                self._pump._ep.modify(self._fd, _IN)

    def close(self) -> None:
        """Stop reading; ``connection_lost(None)`` once the queue is out."""
        if self._closing:
            return
        self._closing = True
        if self._pending:
            self._pump._ep.modify(self._fd, _OUT)
        else:
            self._lose(None)

    def abort(self) -> None:
        """Drop the connection and whatever is still queued."""
        self._lose(None)

    def _callback_failed(self, exc: Exception, callback: str) -> None:
        self._pump.loop.call_exception_handler(
            {
                "message": f"Fatal error: link.{callback}() call failed.",
                "exception": exc,
                "transport": self,
                "protocol": self._link,
            }
        )
        self._lose(exc)

    def _lose(self, exc) -> None:
        """Leave the pump now; the socket closes and the link hears of it
        on the loop's next iteration (``call_soon``), exactly once."""
        if self._lost:
            return
        self._lost = self._closing = True
        self._pending.clear()
        pump = self._pump
        del pump._links[self._fd]
        pump._forget(self._fd)
        pump.loop.call_soon(self._finish, exc)

    def _finish(self, exc) -> None:
        self._sock.close()
        link, self._link = self._link, None
        link.connection_lost(exc)


class _Listener:
    """A listening socket whose connections become links of the pump."""

    def __init__(self, pump: _Pump, sock: socket.socket, factory: Callable[[], object]):
        self._pump = pump
        self._sock = sock
        self._fd = sock.fileno()
        self._factory = factory
        #: The listening socket(s), as on an ``asyncio.Server``; empty
        #: once closed.
        self.sockets: Tuple[socket.socket, ...] = (sock,)
        pump._listeners[self._fd] = self
        pump._ep.register(self._fd, _IN)

    def close(self) -> None:
        """Stop listening. The port is free when this returns."""
        if not self.sockets:
            return
        self.sockets = ()
        del self._pump._listeners[self._fd]
        self._pump._forget(self._fd)
        self._sock.close()

    def _accept(self) -> None:
        """Accept until the queue is empty (``EAGAIN``)."""
        pump = self._pump
        loop = pump.loop
        while self.sockets:
            try:
                conn, _ = self._sock.accept()
            except (BlockingIOError, InterruptedError, ConnectionAbortedError):
                return
            except OSError as exc:
                if exc.errno not in _EXHAUSTED:
                    raise
                # Out of descriptors or memory, and the connection is
                # still queued: stop watching instead of spinning.
                loop.call_exception_handler(
                    {
                        "message": "socket.accept() out of system resource",
                        "exception": exc,
                        "socket": self._sock,
                    }
                )
                pump._ep.modify(self._fd, 0)
                loop.call_later(ACCEPT_RETRY_S, self._resume)
                return
            conn.setblocking(False)
            try:
                link = self._factory()
            except BaseException:  # the loop's handler logs it, like the raise above
                conn.close()
                raise
            pump.attach(conn, link, delay_acks=True)

    def _resume(self) -> None:
        if self.sockets:
            self._pump._ep.modify(self._fd, _IN)


def listen(factory: Callable[[], object], host: str, port: int, backlog: int) -> _Listener:
    """Listen on ``host:port`` for the running loop; each accepted
    connection gets ``factory()`` as its link.

    ``host`` is an address (a name would be resolved synchronously).
    The returned listener has ``sockets`` and a synchronous ``close()``:
    the port can be bound again the moment it returns.
    """
    loop = asyncio.get_running_loop()
    family, kind, proto, _, address = socket.getaddrinfo(
        host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )[0]
    sock = socket.socket(family, kind, proto)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setblocking(False)
        sock.bind(address)
        sock.listen(backlog)
    except BaseException:
        sock.close()
        raise
    return _Listener(_pump_for(loop), sock, factory)


@functools.lru_cache(maxsize=256)
def _numeric_infos(host: str, port: int) -> tuple:
    """``getaddrinfo`` for an address: no resolver thread, and — being a
    pure function of its arguments — asked once per address, not once
    per dial of a registration burst. Raises ``gaierror`` for a name."""
    return tuple(
        socket.getaddrinfo(
            host,
            port,
            type=socket.SOCK_STREAM,
            flags=socket.AI_NUMERICHOST | socket.AI_NUMERICSERV,
        )
    )


async def connect(link, host: str, port: int) -> None:
    """Connect to ``host:port`` and put ``link`` on the connection.

    The dial is a non-blocking ``connect`` on the pump's own epoll, like
    the link it becomes: the socket waits for ``EPOLLOUT`` there, its
    verdict is read from ``SO_ERROR``, and on success its interest turns
    to ``EPOLLIN`` — the loop's selector never sees it. Tries every
    address ``host`` resolves to; raises the last ``OSError`` if none
    accepts. Cancelled mid-dial, it takes the socket off the epoll
    before closing it.
    """
    loop = asyncio.get_running_loop()
    try:
        infos = _numeric_infos(host, port)
    except socket.gaierror:
        infos = await loop.getaddrinfo(host, port, type=socket.SOCK_STREAM)
    error: Optional[OSError] = None
    for family, kind, proto, _, address in infos:
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            err = sock.connect_ex(address)
            if err in _DIALLING:
                pump = _pump_for(loop)
                err = await pump._connected(sock)
            if err:
                raise OSError(err, f"Connect call failed {address}")
        except BaseException as exc:
            sock.close()
            if not isinstance(exc, OSError):
                raise
            error = exc
        else:
            pump.attach(sock, link, dialled=True)
            return
    raise error
