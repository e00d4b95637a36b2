"""Binary fast-codec for the live control plane's hot frame kinds.

The live wire protocol is length-prefixed JSON (:mod:`repro.live.protocol`);
JSON keeps frames inspectable but costs a ``dumps``/``loads`` round-trip per
frame on the per-stage hot path. This module packs the four per-cycle frame
kinds — ``collect_req``, ``metrics_reply``, ``rule``, ``rule_ack`` — with
:mod:`struct` instead.

Wire form (the frame *body*; the 4-byte length header is unchanged)::

    [0xB1][kind tag, 1 byte][epoch >q][0-2 floats >d][0-2 strings]

Strings ride as ``>H``-length-prefixed UTF-8. The magic byte ``0xB1`` can
never begin a JSON body (JSON text starts with ``{`` = 0x7B here), so a
receiver distinguishes the codecs from the first body byte alone — no
per-session mode switch is needed on the read side, which is what makes
mixed-version sessions (binary controller, JSON stage) safe.

Every layout lives in one table (:data:`_LAYOUTS`: tag, kind, fixed
fields, trailing strings) and three views of a frame are derived from it:

* the **message dict** (:func:`encode_binary_into` / :func:`decode_binary`)
  — the generic path for tools and tests;
* the **record** ``(kind, epoch, a, b)`` (:func:`decode_at`,
  :func:`record_of`, :func:`message_of`) — what the live plane's receive
  path hands its callbacks: one ``unpack_from`` in place, the id tail
  validated but never decoded, because the connection a frame arrives on
  already says who sent it. ``a``/``b`` are the two demand floats of a
  ``metrics_reply``, the data and metadata limits of a ``rule`` (``inf``
  when the frame carries none), and ``None`` for the float-less kinds;
* the **packer** (:func:`binary_packer`) — one peer's frame with every
  constant part pre-bound, so sending costs one ``Struct.pack`` and one
  concatenation.

Kinds outside :data:`BINARY_KINDS` (registration, topology, rehome,
shutdown, ...) always fall back to JSON: they are rare, structurally
varied, and not worth a schema. :func:`encode_binary` returns ``None`` for
them and the caller keeps the JSON path.

**Codec revision 2** ("binary2" on the negotiation wire) adds the
metadata QoS axis to ``rule`` frames as a new tag carrying both
``data_iops_limit`` and ``metadata_iops_limit``. Decoding understands the
new tag *unconditionally* — any rev-2-capable reader accepts it
regardless of what the session negotiated — but encoding only emits it
when the session granted ``binary2``: a rev-1 peer would reject tag 5 as
unknown, so senders on plain ``binary`` sessions keep packing the legacy
tag (the metadata limit is simply dropped and the old peer defaults it to
unlimited, same as the JSON path's missing key).
"""

from __future__ import annotations

import struct
from collections import ChainMap
from typing import Any, Dict, Optional, Tuple, Union

__all__ = [
    "BINARY_KINDS",
    "BINARY_MAGIC",
    "binary_packer",
    "decode_at",
    "decode_binary",
    "encode_binary",
    "encode_binary_into",
    "is_binary",
    "message_of",
    "record_of",
]

Buffer = Union[bytes, bytearray, memoryview]
#: ``(kind, epoch, a, b)`` — see the module docstring.
Record = Tuple[str, int, Optional[float], Optional[float]]

#: First body byte of every binary frame (never valid leading JSON).
BINARY_MAGIC = 0xB1

_INF = float("inf")
_H = struct.Struct(">H")  # string length prefix


class _Layout:
    """One packed frame kind: its tag and where every field sits."""

    __slots__ = (
        "tag", "kind", "rev", "floats", "strings",
        "body", "fixed", "pack_frame", "unpack_fields", "head", "pad",
    )

    def __init__(self, tag, kind, rev, floats, strings) -> None:
        self.tag = tag
        self.kind = kind
        #: First codec revision whose senders emit this layout.
        self.rev = rev
        #: Message keys of the floats after the epoch / of the id tail.
        self.floats: Tuple[str, ...] = floats
        self.strings: Tuple[str, ...] = strings
        fields = "q" + "d" * len(floats)
        #: magic, tag, epoch, floats — the body up to the id tail.
        self.body = struct.Struct(">BB" + fields)
        self.fixed = self.body.size
        #: The same behind the 4-byte length header: a whole frame but
        #: for its id tail, in one ``pack``.
        self.pack_frame = struct.Struct(">IBB" + fields).pack
        self.unpack_fields = struct.Struct(">xx" + fields).unpack_from
        # record = head + unpacked fields + pad
        self.head = (kind,)
        self.pad = ((None, None), (_INF,), ())[len(floats)]


_LAYOUTS = (
    _Layout(1, "collect_req", 1, (), ()),
    _Layout(2, "metrics_reply", 1, ("data_iops", "metadata_iops"), ("stage_id", "job_id")),
    _Layout(3, "rule", 1, ("data_iops_limit",), ("stage_id",)),
    _Layout(4, "rule_ack", 1, (), ("stage_id",)),
    # rule + metadata_iops_limit (codec rev 2 / "binary2")
    _Layout(5, "rule", 2, ("data_iops_limit", "metadata_iops_limit"), ("stage_id",)),
)

_BY_TAG: Dict[int, _Layout] = {layout.tag: layout for layout in _LAYOUTS}
#: (kind, rev) -> the layout a sender of that revision emits.
_FOR_SENDER: Dict[Tuple[str, int], _Layout] = {}
for _layout in _LAYOUTS:
    for _rev in (1, 2):
        if _layout.rev <= _rev:
            _FOR_SENDER[_layout.kind, _rev] = _layout

#: Frame kinds with a packed representation (the per-cycle hot path).
BINARY_KINDS = frozenset(layout.kind for layout in _LAYOUTS)

#: Fields a message may omit, with the value packed in their place.
_OPTIONAL = {"metadata_iops_limit": _INF}


def _tail(*values: str) -> bytes:
    """The ``>H``-prefixed UTF-8 id tail; ``ValueError`` past 64 KiB."""
    parts = []
    for value in values:
        raw = value.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"string field too long for binary codec: {len(raw)}")
        parts.append(_H.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def is_binary(body: Buffer) -> bool:
    """Whether a frame body is binary-coded (first-byte discriminator)."""
    return bool(body) and body[0] == BINARY_MAGIC


# -- message dicts (the generic path) ----------------------------------------


def encode_binary(message: Dict[str, Any], rev: int = 1) -> Optional[bytes]:
    """Packed body for ``message``, or ``None`` if it has no packed form.

    ``rev=2`` (a "binary2" session) packs ``rule`` frames with the
    metadata limit; ``rev=1`` keeps the legacy tag so old readers stay
    compatible. ``None`` means "use JSON": the kind has no schema, or a
    string field exceeds the codec's 64 KiB ``>H`` length prefix (an
    oversized ``stage_id`` must degrade to the JSON path, not crash the
    sender's whole phase). Raises ``KeyError`` on a hot-kind message
    missing a mandatory field — the same contract violation JSON
    encoding would ship and the peer would reject.
    """
    out = bytearray()
    if encode_binary_into(message, out, rev) is None:
        return None
    return bytes(out)


def encode_binary_into(
    message: Dict[str, Any], out: bytearray, rev: int = 1
) -> Optional[int]:
    """Append the packed body for ``message`` to ``out``.

    Returns the number of bytes appended, or ``None`` (with ``out``
    untouched) when the message has no packed form — same fallback
    contract as :func:`encode_binary`.
    """
    layout = _FOR_SENDER.get((message["kind"], 2 if rev >= 2 else 1))
    if layout is None:
        return None
    fields = ChainMap(message, _OPTIONAL)
    floats = [fields[name] for name in layout.floats]
    try:
        tail = _tail(*[message[name] for name in layout.strings])
    except ValueError:
        return None  # unpackable string field: JSON fallback
    body = layout.body.pack(BINARY_MAGIC, layout.tag, message["epoch"], *floats)
    out += body
    out += tail
    return len(body) + len(tail)


def decode_binary(body: Buffer) -> Dict[str, Any]:
    """Decode a packed body back into the canonical message dict.

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


def record_of(message: Dict[str, Any]) -> Record:
    """Project a hot-kind message dict (e.g. a JSON body) onto its record.

    Raises ``KeyError``/``TypeError``/``ValueError`` on a message that
    lacks a mandatory field or carries a non-number where a number goes.
    """
    kind = message["kind"]
    epoch = message["epoch"]
    if epoch.__class__ is not int:
        raise TypeError(f"epoch is not an integer: {epoch!r}")
    if kind == "metrics_reply":
        return (kind, epoch, float(message["data_iops"]), float(message["metadata_iops"]))
    if kind == "rule":
        return (
            kind,
            epoch,
            float(message["data_iops_limit"]),
            float(message.get("metadata_iops_limit", _INF)),
        )
    return (kind, epoch, None, None)


def message_of(
    kind: str,
    epoch: int,
    a: Optional[float] = None,
    b: Optional[float] = None,
    stage_id: str = "",
    job_id: str = "",
) -> Dict[str, Any]:
    """The message dict a sender builds for one hot frame.

    The inverse of :func:`record_of`, given the ids the record leaves
    out. A ``rule`` whose metadata limit ``b`` is ``None`` omits the key
    (an undifferentiated policy ships no metadata axis).
    """
    message: Dict[str, Any] = {"kind": kind, "epoch": epoch}
    if kind != "collect_req":
        message["stage_id"] = stage_id
    if kind == "metrics_reply":
        message["job_id"] = job_id
        message["data_iops"] = a
        message["metadata_iops"] = b
    elif kind == "rule":
        message["data_iops_limit"] = a
        if b is not None:
            message["metadata_iops_limit"] = b
    return message


# -- packers (the live send path) --------------------------------------------


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


def binary_packer(kind: str, stage_id: str = "", job_id: str = ""):
    """Rev-2 packer for ``kind`` frames of one peer, or ``None``.

    ``None`` when the kind has no packed form or an id exceeds the 64 KiB
    string prefix — the caller falls back to the generic encoder. Rev-1
    sessions take that path too: their ``rule`` layout differs and the
    revision is on its way out.
    """
    layout = _FOR_SENDER.get((kind, 2))
    if layout is None:
        return None
    ids = {"stage_id": stage_id, "job_id": job_id}
    try:
        tail = _tail(*[ids[name] for name in layout.strings])
    except ValueError:
        return None
    return (_Packer2 if layout.floats else _Packer)(layout, tail)
