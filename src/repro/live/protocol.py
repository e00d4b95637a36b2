"""Wire protocol for the live control plane: length-prefixed JSON.

Frames are ``[4-byte big-endian length][body]``. Bodies are dicts with a
mandatory ``kind`` field; the kinds mirror the simulated protocol exactly
(``collect_req``, ``metrics_reply``, ``rule``, ``rule_ack``, plus
``register``/``registered`` for session setup).

JSON keeps the protocol inspectable; the framing keeps reads exact. A
16 MiB frame cap (``MAX_FRAME``) guards against corrupt length headers —
orders of magnitude above any control message, far below the 4 GiB the
4-byte length field could express.

Hot-path frames may instead ride the binary fast-codec
(:mod:`repro.live.codec`): the first body byte discriminates (``0xB1``
binary vs ``{`` JSON), so :func:`decode_body` accepts both regardless of
what a session negotiated. Senders pick a codec per session at
registration (the ``codecs`` hello field / ``codec`` ack field, see
:func:`choose_codec`); kinds without a packed schema always fall back to
JSON even on a binary session. Codec ``binary2`` is revision 2 of the
packed schema — ``rule`` frames carry ``metadata_iops_limit`` — and is
only granted when both sides advertise it, so a mixed-version fleet
degrades per session to plain ``binary`` or JSON (where a missing
metadata limit means unlimited).

:class:`FrameLink` is the live plane's wire path: an
``asyncio.BufferedProtocol`` that receives into one buffer shared by
every link on the loop, parses every complete frame of a segment in place
in one synchronous pass and hands it to a callback — no reader coroutine,
queue or task per connection, no allocation per read. The four hot kinds
reach the callback as *records* (``(kind, epoch, a, b)`` tuples, see
:mod:`repro.live.codec`) whichever codec the peer used; every other kind
as its message dict. :func:`frame_packer` is the matching send side: one
peer's hot frame with its constant parts pre-bound. The generic
:func:`encode` / :func:`decode_body` and the stream helpers
(:func:`read_message` / :func:`write_message`) remain for cold kinds,
tools, tests and heartbeats.
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
    binary_packer,
    decode_at,
    decode_binary,
    encode_binary_into,
    message_of,
    record_of,
)

__all__ = [
    "CODEC_PREFERENCE",
    "FrameLink",
    "ProtocolError",
    "accept_backlog",
    "choose_codec",
    "encode",
    "encode_into",
    "frame_packer",
    "hello_error",
    "read_message",
    "write_message",
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


#: Codec preference order at negotiation (JSON is the implicit fallback).
CODEC_PREFERENCE = ("binary2", "binary")


def choose_codec(
    offered: Optional[Iterable[str]],
    supported: Optional[Iterable[str]] = None,
) -> str:
    """Pick the session codec from a peer's advertised ``codecs`` list.

    The newest binary revision both sides speak wins (``binary2`` over
    ``binary``); a peer that advertises nothing (an older client) gets
    JSON — the negotiation fallback that keeps mixed-version sessions
    working. ``supported`` restricts the grant to what the *local* side
    speaks (default: every binary revision).
    """
    if offered is None:
        return "json"
    offered_set = set(offered)
    supported_set = (
        set(CODEC_PREFERENCE) if supported is None else set(supported)
    )
    for codec in CODEC_PREFERENCE:
        if codec in offered_set and codec in supported_set:
            return codec
    return "json"


def _is_str_list(value: Any) -> bool:
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
    ``str``, every key in ``id_lists`` a list of ``str``, and ``codecs``
    (what :func:`choose_codec` reads) must be absent or a list of
    ``str``. Returns the rejection reason, or ``None`` for a well-typed
    hello.
    """
    for key in ids:
        value = hello.get(key)
        if not isinstance(value, str) or not value:
            return f"{hello.get('kind')} requires a non-empty string {key}"
    for key in id_lists:
        if not _is_str_list(hello.get(key)):
            return f"{hello.get('kind')} requires a list of strings {key}"
    codecs = hello.get("codecs")
    if codecs is not None and not _is_str_list(codecs):
        return "codecs must be a list of strings"
    return None


def encode(message: Dict[str, Any], codec: str = "json") -> bytes:
    """Encode a message dict into one wire frame.

    ``codec="binary"`` packs hot kinds via :mod:`repro.live.codec` and
    falls back to JSON for everything else; ``codec="binary2"`` packs the
    revision-2 schema (``rule`` frames carry the metadata limit).
    """
    buf = bytearray()
    encode_into(buf, message, codec)
    return bytes(buf)


def encode_into(
    buf: bytearray, message: Dict[str, Any], codec: str = "json"
) -> int:
    """Append one wire frame (header + body) to ``buf``; returns its size.

    The zero-copy send path: a sender appends every frame of a phase
    into one shared buffer (the session outbox) and writes it once —
    no per-frame ``bytes`` objects, no join. The 4-byte length header
    is reserved up front and back-filled once the body size is known.
    """
    if "kind" not in message:
        raise ProtocolError("message missing 'kind'")
    start = len(buf)
    buf += b"\x00\x00\x00\x00"  # header placeholder, back-filled below
    packed: Optional[int] = None
    if codec == "binary2":
        packed = encode_binary_into(message, buf, rev=2)
    elif codec == "binary":
        packed = encode_binary_into(message, buf)
    if packed is None:
        buf += json.dumps(message, separators=(",", ":")).encode("utf-8")
    length = len(buf) - start - _HEADER.size
    if length > MAX_FRAME:
        del buf[start:]
        raise ProtocolError(f"frame too large: {length}")
    _HEADER.pack_into(buf, start, length)
    return _HEADER.size + length


def decode_body(body) -> Dict[str, Any]:
    """Decode one frame body (any bytes-like; the codec is auto-detected)."""
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
    return message


class _GenericPacker:
    """``frame_packer``'s fallback: build the message, :func:`encode` it."""

    __slots__ = ("_kind", "_codec", "_stage_id", "_job_id")

    def __init__(self, kind: str, codec: str, stage_id: str, job_id: str) -> None:
        self._kind = kind
        self._codec = codec
        self._stage_id = stage_id
        self._job_id = job_id

    def __call__(self, epoch, a=None, b=None) -> bytes:
        return encode(
            message_of(self._kind, epoch, a, b, self._stage_id, self._job_id),
            self._codec,
        )


def frame_packer(kind: str, codec: str, stage_id: str = "", job_id: str = ""):
    """``pack(epoch[, a, b]) -> bytes`` for one peer's hot ``kind`` frames.

    ``pack`` returns exactly what ``encode(message_of(kind, epoch, a, b,
    stage_id, job_id), codec)`` would. On a ``binary2`` session the
    frame's constant parts are bound up front (see
    :func:`repro.live.codec.binary_packer`); any other session, or ids
    the packed form cannot carry, gets the generic encoder behind the
    same signature, so callers never branch on the codec.
    """
    if kind not in BINARY_KINDS:
        raise ValueError(f"not a hot frame kind: {kind!r}")
    packer = binary_packer(kind, stage_id, job_id) if codec == "binary2" else None
    if packer is None:
        packer = _GenericPacker(kind, codec, stage_id, job_id)
    return packer


#: Size of the shared receive buffer — what asyncio's selector transport
#: would otherwise allocate afresh for every ``recv``.
RECV_BUFFER_SIZE = 256 * 1024

# One receive buffer for every link in the process. A fresh 256 KiB
# ``bytes`` per read is served by ``mmap``, shrunk and unmapped again —
# a page fault or two per frame — because the chunk glibc gets back is
# too small to ever raise its mmap threshold. Sharing is safe because a
# segment is parsed to its end (its unfinished tail copied into the
# link's own carry) inside ``buffer_updated``, before the loop can read
# another socket; like the rest of the live plane it assumes one event
# loop thread per process.
_RECV = bytearray(RECV_BUFFER_SIZE)


class FrameLink(asyncio.BufferedProtocol):
    """One TCP connection speaking frames through callbacks.

    ``on_frame(message, nbytes)`` runs synchronously inside the read
    callback, once per complete frame (``nbytes`` is the on-wire size,
    header included — what NIC accounting charges). ``message`` is a
    record tuple for the four hot kinds — packed or JSON-bodied alike —
    and the message dict for every other kind. ``on_lost(exc)`` runs once
    when the socket is gone: EOF, reset, a local :meth:`close` /
    :meth:`abort`, or a malformed frame — an undecodable body, a packed
    frame that does not end where its last field ends, or a length above
    ``MAX_FRAME`` aborts the connection instead of waiting for 4 GiB that
    will never come. Both are plain attributes, so a connection can
    change hands (hello handler, then session).

    The transport reads into the shared receive buffer
    (:meth:`get_buffer` / :meth:`buffer_updated`);
    :meth:`data_received` parses a caller's bytes the same way and is
    the entry point for tests and fake transports.

    :meth:`write` and :meth:`abort` are the only ways bytes leave or the
    socket dies on purpose: the seams :mod:`repro.live.faults` wraps.
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
        self.transport: Optional[asyncio.Transport] = None
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
                    if message["kind"] in BINARY_KINDS:
                        # A JSON-bodied hot frame (old peer): the same
                        # record a packed one would have produced.
                        try:
                            message = record_of(message)
                        except (KeyError, TypeError, ValueError) as exc:
                            raise ProtocolError(
                                f"malformed {message['kind']} frame: {exc!r}"
                            ) from exc
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

    async def drain(self) -> None:
        """Wait out ``pause_writing``; raises if the link dies first."""
        if self.paused and not self.lost:
            waiter = asyncio.get_running_loop().create_future()
            self._drain_waiters.append(waiter)
            await waiter
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


async def read_message(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """Read one framed message (raises ``IncompleteReadError`` on EOF)."""
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds cap {MAX_FRAME}")
    return decode_body(await reader.readexactly(length))


async def write_message(
    writer: asyncio.StreamWriter, message: Dict[str, Any], codec: str = "json"
) -> int:
    """Write one framed message and drain; returns the frame's size."""
    frame = encode(message, codec)
    writer.write(frame)
    await writer.drain()
    return len(frame)
