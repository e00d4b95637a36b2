"""The packed encoding of the live control plane's four hot frame kinds.

Every frame kind has exactly one encoding. The four per-cycle kinds —
``collect_req``, ``metrics_reply``, ``rule``, ``rule_ack`` — are packed
with :mod:`struct`; every other kind (registration, topology, rehome,
trunk batches, shutdown, ...) is a JSON object
(:mod:`repro.live.protocol`): rare, structurally varied, not worth a
schema.

Wire form (the frame *body*, behind the 4-byte length header)::

    [0xB1][kind tag, 1 byte][epoch >q][0 or 2 floats >d][0-2 strings]

Strings ride as ``>H``-length-prefixed UTF-8, so an id longer than
64 KiB has no packed form (:data:`MAX_ID_BYTES`; listeners refuse it at
registration). The magic byte ``0xB1`` can never begin a JSON body (JSON
text starts with ``{`` = 0x7B here), so a receiver tells the two body
shapes apart from the first byte alone.

Every layout lives in one table (:data:`_LAYOUTS`: tag, kind, fixed
fields, trailing strings), one row per kind, and three views of a frame
are derived from it:

* the **packer** (:func:`frame_packer`) — one peer's frame with every
  constant part pre-bound, so sending costs one ``Struct.pack`` and one
  concatenation;
* the **record** ``(kind, epoch, a, b)`` (:func:`decode_at`) — what the
  live plane's receive path hands its callbacks: one ``unpack_from`` in
  place, the id tail validated but never decoded, because the connection
  a frame arrives on already says who sent it. ``a``/``b`` are the two
  demand floats of a ``metrics_reply``, the data and metadata limits of a
  ``rule`` (``inf`` = that axis is unlimited), and ``None`` for the
  float-less kinds;
* the **message dict** (:func:`decode_binary`) — ids decoded too, for
  tools and tests that read frames off a plain stream.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Tuple, Union

__all__ = [
    "BINARY_KINDS",
    "BINARY_MAGIC",
    "MAX_ID_BYTES",
    "decode_at",
    "decode_binary",
    "frame_packer",
]

Buffer = Union[bytes, bytearray, memoryview]
#: ``(kind, epoch, a, b)`` — see the module docstring.
Record = Tuple[str, int, Optional[float], Optional[float]]

#: First body byte of every packed frame (never valid leading JSON).
BINARY_MAGIC = 0xB1
#: Longest id (UTF-8 bytes) the ``>H`` string prefix can carry.
MAX_ID_BYTES = 0xFFFF

_INF = float("inf")
_H = struct.Struct(">H")  # string length prefix


class _Layout:
    """One packed frame kind: its tag and where every field sits."""

    __slots__ = (
        "tag", "kind", "floats", "strings",
        "fixed", "pack_frame", "unpack_fields", "head", "pad",
    )

    def __init__(self, tag, kind, floats, strings) -> None:
        self.tag = tag
        self.kind = kind
        #: Message keys of the floats after the epoch / of the id tail.
        self.floats: Tuple[str, ...] = floats
        self.strings: Tuple[str, ...] = strings
        fields = "q" + "d" * len(floats)
        #: Size of magic, tag, epoch, floats — the body up to the id tail.
        self.fixed = struct.calcsize(">BB" + fields)
        #: The same behind the 4-byte length header: a whole frame but
        #: for its id tail, in one ``pack``.
        self.pack_frame = struct.Struct(">IBB" + fields).pack
        self.unpack_fields = struct.Struct(">xx" + fields).unpack_from
        # record = head + unpacked fields + pad
        self.head = (kind,)
        self.pad = () if floats else (None, None)


_LAYOUTS = (
    _Layout(1, "collect_req", (), ()),
    _Layout(2, "metrics_reply", ("data_iops", "metadata_iops"), ("stage_id", "job_id")),
    _Layout(4, "rule_ack", (), ("stage_id",)),
    # Per-class limits (PADLL): an undifferentiated policy packs ``inf``
    # as the metadata limit. Tag 3 is unassigned.
    _Layout(5, "rule", ("data_iops_limit", "metadata_iops_limit"), ("stage_id",)),
)

_BY_TAG: Dict[int, _Layout] = {layout.tag: layout for layout in _LAYOUTS}
_BY_KIND: Dict[str, _Layout] = {layout.kind: layout for layout in _LAYOUTS}

#: The frame kinds that are packed (the per-cycle hot path).
BINARY_KINDS = frozenset(_BY_KIND)


# -- packers (the send path) -------------------------------------------------


class _Packer:
    """One peer's frame of one kind: ``pack(epoch)`` -> wire bytes.

    Length header, magic, tag and id tail never change for a given peer,
    so they are bound here once; a send is one ``Struct.pack`` plus one
    concatenation. There is one instance per peer per kind (thousands):
    slots only, the tail as plain ``bytes``.
    """

    __slots__ = ("_pack", "_length", "_tag", "_tail")

    def __init__(self, layout: _Layout, tail: bytes) -> None:
        self._pack = layout.pack_frame
        self._length = layout.fixed + len(tail)
        self._tag = layout.tag
        self._tail = tail

    def __call__(self, epoch: int) -> bytes:
        return self._pack(self._length, BINARY_MAGIC, self._tag, epoch) + self._tail


class _Packer2(_Packer):
    """``pack(epoch, a, b)`` for the two-float kinds; ``b=None`` is ``inf``."""

    __slots__ = ()

    def __call__(self, epoch: int, a: float, b: Optional[float]) -> bytes:
        if b is None:
            b = _INF
        return (
            self._pack(self._length, BINARY_MAGIC, self._tag, epoch, a, b)
            + self._tail
        )


def frame_packer(kind: str, stage_id: str = "", job_id: str = ""):
    """``pack(epoch[, a, b]) -> bytes`` for one peer's hot ``kind`` frames.

    ``pack`` returns the whole wire frame, length header included. Raises
    ``ValueError`` for a kind that is not packed, or an id past
    :data:`MAX_ID_BYTES`.
    """
    layout = _BY_KIND.get(kind)
    if layout is None:
        raise ValueError(f"not a hot frame kind: {kind!r}")
    ids = {"stage_id": stage_id, "job_id": job_id}
    tail = b""
    for name in layout.strings:
        raw = ids[name].encode("utf-8")
        if len(raw) > MAX_ID_BYTES:
            raise ValueError(f"{name} too long for a packed frame: {len(raw)}")
        tail += _H.pack(len(raw)) + raw
    return (_Packer2 if layout.floats else _Packer)(layout, tail)


# -- records (the live receive path) -----------------------------------------


def decode_at(data: Buffer, start: int, stop: int) -> Record:
    """The record of the packed body at ``data[start:stop]``, in place.

    ``data`` may extend past ``stop`` (a receive buffer holding later
    frames, or stale bytes): nothing beyond ``stop`` is read. The id tail
    is walked — every length prefix must be in bounds and the last string
    must end exactly at ``stop`` — but not decoded. Raises ``ValueError``
    on anything else.
    """
    if stop - start < 2:
        raise ValueError("truncated binary frame: no tag")
    if data[start] != BINARY_MAGIC:
        raise ValueError(f"bad binary magic: {data[start]:#x}")
    layout = _BY_TAG.get(data[start + 1])
    if layout is None:
        raise ValueError(f"unknown binary frame tag: {data[start + 1]}")
    pos = start + layout.fixed
    if pos > stop:
        raise ValueError("truncated binary frame: fixed fields")
    record = layout.head + layout.unpack_fields(data, start) + layout.pad
    for _ in layout.strings:
        if pos + 2 > stop:
            raise ValueError("truncated string field")
        pos += 2 + (data[pos] << 8 | data[pos + 1])
    if pos != stop:
        raise ValueError("truncated string field or bytes after the frame")
    return record


# -- message dicts (tools and tests) -----------------------------------------


def decode_binary(body: Buffer) -> Dict[str, Any]:
    """Decode a packed body into its message dict, ids included.

    Accepts any bytes-like input; pass a ``memoryview`` to decode
    without copying (string fields are decoded straight from the
    underlying buffer).

    Raises ``ValueError`` on malformed input (wrong magic, unknown tag,
    truncation, bytes after the last field) — the caller maps it to its
    protocol error type.
    """
    record = decode_at(body, 0, len(body))
    layout = _BY_TAG[body[1]]
    message: Dict[str, Any] = {"kind": record[0], "epoch": record[1]}
    message.update(zip(layout.floats, record[2:]))
    # decode_at proved every length prefix in bounds.
    pos = layout.fixed
    for name in layout.strings:
        end = pos + 2 + (body[pos] << 8 | body[pos + 1])
        message[name] = str(body[pos + 2 : end], "utf-8")
        pos = end
    return message
