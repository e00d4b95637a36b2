"""Wire protocol for the live control plane: length-prefixed frames.

Frames are ``[4-byte big-endian length][body]``, and every frame kind has
exactly one body encoding. The per-cycle kinds — the four per-stage ones
(``collect_req``, ``metrics_reply``, ``rule``, ``rule_ack``, the same
names as the simulated protocol) and the aggregator trunk's two
per-partition vectors (``agg_metrics_reply``, ``rule_batch``) — are
packed (:mod:`repro.live.codec`: first body byte ``0xB1``); every other
kind — ``register``/``registered`` for session setup, the trunk's
``partition`` and acks, topology, rehome, shutdown, heartbeats — is a
JSON object with a mandatory ``kind`` field (first byte ``{``), which
keeps the rare, varied frames inspectable. There is nothing to
negotiate: a packed kind in a JSON body, like any other malformed frame,
is refused.

The framing keeps reads exact. A 16 MiB frame cap (``MAX_FRAME``) guards
against corrupt length headers — orders of magnitude above any control
message, far below the 4 GiB the 4-byte length field could express.

:class:`FrameLink` is the live plane's wire path: an
``asyncio.BufferedProtocol`` that receives into one buffer shared by
every link on the loop, parses every complete frame of a segment in place
in one synchronous pass and hands it to a callback — no reader coroutine,
queue or task per connection, no allocation per read. The packed kinds
reach the callback as *records* (tuples led by ``kind, epoch``, see
:mod:`repro.live.codec`), every other kind as its message dict;
:func:`repro.live.codec.frame_packer` and
:func:`repro.live.codec.pack_rows` are the matching send side.
:func:`encode` / :func:`encode_into` frame the JSON kinds, and
:func:`decode_body` decodes one frame's body.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.live.codec import (
    BINARY_KINDS,
    BINARY_MAGIC,
    MAX_ID_BYTES,
    decode_at,
    decode_binary,
)

__all__ = [
    "FrameLink",
    "ProtocolError",
    "accept_backlog",
    "encode",
    "encode_into",
    "hello_error",
    "is_str_list",
]

_HEADER = struct.Struct(">I")
#: Sanity cap on frame size (16 MiB is orders beyond any control message).
MAX_FRAME = 16 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Malformed frame or unexpected message."""


def accept_backlog(expected_children: int) -> int:
    """Listen backlog that holds every expected child connecting at once.

    Never below asyncio's own default of 100 (a hot spare expects nobody
    yet may adopt a partition), never above the kernel's ``somaxconn``,
    which would silently truncate it anyway.
    """
    try:
        with open("/proc/sys/net/core/somaxconn") as f:
            cap = int(f.read())
    except (OSError, ValueError):
        cap = socket.SOMAXCONN
    return min(max(expected_children, 100), max(cap, 1))


def is_str_list(value: Any) -> bool:
    """Whether ``value`` (a field of an outside frame) is a list of ``str``."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def hello_error(
    hello: Dict[str, Any],
    ids: Iterable[str] = (),
    id_lists: Iterable[str] = (),
) -> Optional[str]:
    """Why a registration's fields are missing or of the wrong type.

    A hello is the one frame a listener reads from a peer it knows
    nothing about, so its fields are checked before anything hashes,
    sizes or iterates them: every key in ``ids`` must hold a non-empty
    ``str`` short enough for a packed frame's id tail
    (:data:`~repro.live.codec.MAX_ID_BYTES`), every key in ``id_lists``
    a list of ``str``. Returns the rejection reason, or ``None`` for a
    well-typed hello.
    """
    for key in ids:
        value = hello.get(key)
        if not isinstance(value, str) or not value:
            return f"{hello.get('kind')} requires a non-empty string {key}"
        try:
            fits = len(value.encode("utf-8")) <= MAX_ID_BYTES
        except UnicodeEncodeError:  # a lone surrogate out of a JSON escape
            fits = False
        if not fits:
            return f"{key} does not encode to at most {MAX_ID_BYTES} UTF-8 bytes"
    for key in id_lists:
        if not is_str_list(hello.get(key)):
            return f"{hello.get('kind')} requires a list of strings {key}"
    return None


# ``json.dumps`` with any non-default option builds a ``JSONEncoder`` per
# call; the compact one is built once.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def encode(message: Dict[str, Any]) -> bytes:
    """Encode a JSON-kind message dict into one wire frame."""
    buf = bytearray()
    encode_into(buf, message)
    return bytes(buf)


def encode_into(buf: bytearray, message: Dict[str, Any]) -> int:
    """Append one wire frame (header + body) to ``buf``; returns its size.

    The zero-copy send path: a sender appends every frame of a burst
    into one shared buffer (the session outbox) and writes it once —
    no per-frame ``bytes`` objects, no join. The 4-byte length header
    is reserved up front and back-filled once the body size is known.
    The packed kinds have no JSON form (a receiver refuses one): they
    are built by :func:`repro.live.codec.frame_packer` / ``pack_rows``.
    """
    kind = message.get("kind")
    if kind is None:
        raise ProtocolError("message missing 'kind'")
    if kind in BINARY_KINDS:
        raise ProtocolError(f"{kind} frames are packed, not JSON")
    start = len(buf)
    buf += b"\x00\x00\x00\x00"  # header placeholder, back-filled below
    buf += _dumps(message).encode("utf-8")
    length = len(buf) - start - _HEADER.size
    if length > MAX_FRAME:
        del buf[start:]
        raise ProtocolError(f"frame too large: {length}")
    _HEADER.pack_into(buf, start, length)
    return _HEADER.size + length


def decode_body(body) -> Dict[str, Any]:
    """Decode one frame body (any bytes-like) into its message dict.

    Raises :class:`ProtocolError` on anything that is not one kind in
    its one encoding: an undecodable packed or JSON body, a JSON value
    that is not a message, a JSON body naming a packed kind.
    """
    if len(body) and body[0] == BINARY_MAGIC:
        try:
            # memoryview: string fields decode straight from the frame
            # buffer, with no intermediate slice copies.
            return decode_binary(memoryview(body))
        except ValueError as exc:
            raise ProtocolError(f"undecodable binary frame: {exc}") from exc
    try:
        message = json.loads(str(body, "utf-8"))
    except (ValueError, RecursionError) as exc:
        # Bad UTF-8, bad JSON, an integer literal past the interpreter's
        # digit limit, nesting past its recursion limit.
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("kind"), str):
        raise ProtocolError(f"frame is not a message: {message!r}")
    if message["kind"] in BINARY_KINDS:
        raise ProtocolError(f"{message['kind']} frame in a JSON body")
    return message


#: Size of the shared receive buffer — what asyncio's selector transport
#: would otherwise allocate afresh for every ``recv``.
RECV_BUFFER_SIZE = 256 * 1024

# One receive buffer for every link in the process. A fresh 256 KiB
# ``bytes`` per read is served by ``mmap``, shrunk and unmapped again —
# a page fault or two per frame — because the chunk glibc gets back is
# too small to ever raise its mmap threshold. Sharing is safe because a
# segment is parsed to its end (its unfinished tail copied into the
# link's own carry) inside ``buffer_updated``, before the pump
# (:mod:`repro.live.pump`) reads another socket; like the rest of the
# live plane it assumes one event loop thread per process.
_RECV = bytearray(RECV_BUFFER_SIZE)


class FrameLink(asyncio.BufferedProtocol):
    """One TCP connection speaking frames through callbacks.

    ``on_frame(message, nbytes)`` runs synchronously inside the read
    callback, once per complete frame (``nbytes`` is the on-wire size,
    header included — what NIC accounting charges). ``message`` is a
    record tuple for the packed kinds and the message dict for every
    other kind. ``on_lost(exc)`` runs once when the socket is gone: EOF,
    reset, a local :meth:`close` / :meth:`abort`, or a malformed frame —
    an undecodable body, a packed frame that does not end where its last
    field ends, a packed kind in a JSON body, or a length above
    ``MAX_FRAME`` aborts the connection instead of waiting for 4 GiB that
    will never come. Both are plain attributes, so a connection can
    change hands (hello handler, then session).

    The transport (:mod:`repro.live.pump`'s, in ``src/``) reads into the
    shared receive buffer (:meth:`get_buffer` / :meth:`buffer_updated`);
    :meth:`data_received` parses a caller's bytes the same way and is
    the entry point for tests and fake transports.

    :meth:`write` and :meth:`abort` are the only ways bytes leave or the
    socket dies on purpose: the seams the fault hooks use.
    :meth:`write` never blocks (the transport buffers); while that buffer
    is past its high-water mark :attr:`paused` is true, and a sender with
    more to write awaits :meth:`drain` first — then, and only then.
    """

    def __init__(
        self,
        on_frame: Optional[Callable[[Any, int], None]] = None,
        on_lost: Optional[Callable[[Optional[Exception]], None]] = None,
    ) -> None:
        self.on_frame = on_frame
        self.on_lost = on_lost
        #: Whatever ``connection_made`` was handed: ``write`` / ``close`` /
        #: ``abort`` are all that is called on it.
        self.transport = None
        #: The socket is gone (``on_lost`` has run or is about to).
        self.lost = False
        #: :meth:`close`/:meth:`abort` was called; the rest of the segment
        #: being parsed is dropped.
        self.closing = False
        # Tail of a frame split across segments, and the size that frame
        # must reach before another parse is worth attempting.
        self._carry = bytearray()
        self._need = _HEADER.size
        self.paused = False
        self._drain_waiters: List[asyncio.Future] = []

    @classmethod
    def accepting(cls, on_hello: Callable[["FrameLink", Dict[str, Any]], None]):
        """Listener protocol factory: each new link hands its first frame
        to ``on_hello(link, hello)``, which rebinds ``on_frame`` or closes.
        A hot-path record is never a hello; it closes the link."""

        def factory() -> "FrameLink":
            link = cls()

            def first_frame(hello, nbytes: int) -> None:
                if hello.__class__ is tuple:
                    link.close()
                else:
                    on_hello(link, hello)

            link.on_frame = first_frame
            return link

        return factory

    # -- asyncio.BufferedProtocol ----------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> bytearray:
        return _RECV

    def buffer_updated(self, nbytes: int) -> None:
        self._parse(_RECV, nbytes)

    def data_received(self, data) -> None:
        """Parse ``data`` as if the socket had just delivered it."""
        self._parse(data, len(data))

    def _parse(self, data, end: int) -> None:
        """Hand every complete frame in ``data[:end]`` to ``on_frame``."""
        carry = self._carry
        if carry:
            carry += memoryview(data)[:end]
            if len(carry) < self._need:
                return
            data, end = carry, len(carry)
            carry = self._carry = bytearray()
        pos = 0
        header = _HEADER.size
        need = header
        try:
            while end - pos >= header:
                (length,) = _HEADER.unpack_from(data, pos)
                if length > MAX_FRAME:
                    raise ProtocolError(
                        f"frame length {length} exceeds cap {MAX_FRAME}"
                    )
                start = pos + header
                stop = start + length
                if stop > end:
                    need = header + length
                    break
                if length and data[start] == BINARY_MAGIC:
                    try:
                        message = decode_at(data, start, stop)
                    except ValueError as exc:
                        raise ProtocolError(
                            f"undecodable binary frame: {exc}"
                        ) from exc
                else:
                    message = decode_body(data[start:stop])
                pos = stop
                self.on_frame(message, header + length)
                if self.closing:
                    return
        except ProtocolError:
            self.abort()
            return
        if pos < end:
            carry += memoryview(data)[pos:end]
            self._need = need

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._wake_drainers()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.lost = True
        self.transport = None
        self._wake_drainers()
        # Untie link and owner: both are freed by refcount, not by GC.
        on_lost, self.on_frame, self.on_lost = self.on_lost, None, None
        if on_lost is not None:
            on_lost(exc)

    def _wake_drainers(self) -> None:
        waiters, self._drain_waiters = self._drain_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    # -- owner API -----------------------------------------------------------
    def write(self, data) -> None:
        """Hand ``data`` to the socket; raises once the link is dead."""
        if self.lost or self.closing:
            raise ConnectionResetError("connection lost")
        self.transport.write(data)

    async def drain(self, timeout_s: float) -> None:
        """Wait out ``pause_writing``, for at most ``timeout_s`` (the
        caller re-checks :attr:`paused`); raises if the link dies first."""
        if self.paused and not self.lost:
            loop = asyncio.get_running_loop()
            waiter = loop.create_future()
            self._drain_waiters.append(waiter)
            timer = loop.call_later(timeout_s, self._wake_drainers)
            try:
                await waiter
            finally:
                timer.cancel()
        if self.lost:
            raise ConnectionResetError("connection lost")

    def close(self) -> None:
        """Close after the transport has flushed what was written."""
        self.closing = True
        if self.transport is not None:
            self.transport.close()

    def abort(self) -> None:
        """Drop the connection now, unflushed (process-kill semantics)."""
        self.closing = True
        if self.transport is not None:
            self.transport.abort()
