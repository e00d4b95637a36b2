"""The packed encoding of the live control plane's per-cycle frame kinds.

Every frame kind has exactly one encoding. The per-cycle kinds are
packed with :mod:`struct`: the four per-stage ones — ``collect_req``,
``metrics_reply``, ``rule``, ``rule_ack`` — and the aggregator trunk's
two per-partition ones, ``agg_metrics_reply`` and ``rule_batch``. Every
other kind (registration, topology, rehome, the trunk's ``partition``
and acks, shutdown, ...) is a JSON object (:mod:`repro.live.protocol`):
rare, structurally varied, not worth a schema.

Wire form (the frame *body*, behind the 4-byte length header)::

    per stage:      [0xB1][tag][epoch >q][0 or 2 floats >d][0-2 strings]
    per partition:  [0xB1][tag][epoch >q][generation >I][a >I][count >I]
                    [count data values >d][count metadata values >d]

Strings ride as ``>H``-length-prefixed UTF-8, so an id longer than
64 KiB has no packed form (:data:`MAX_ID_BYTES`; listeners refuse it at
registration). The magic byte ``0xB1`` can never begin a JSON body (JSON
text starts with ``{`` = 0x7B here), so a receiver tells the two body
shapes apart from the first byte alone.

A per-partition frame names no stage: its vectors are in the order of
the sender's partition at ``generation``, which travelled once, in the
``partition`` frame (or the hello, generation 0) that announced it, and a
receiver that does not hold that generation at that ``count`` drops the
frame's content. ``a`` is ``n_missing`` on an ``agg_metrics_reply``; on a
``rule_batch`` it is a flag word whose bit 0 says the metadata vector is
there at all (an undifferentiated policy ships none), and ``NaN`` in a
limit slot means "no rule for this row".

Every layout lives in one table (:data:`_LAYOUTS`: tag, kind, fixed
fields, trailing strings or vectors), one row per kind, and three views
of a frame are derived from it:

* the **packer** (:func:`frame_packer`, :func:`pack_rows`) — a per-stage
  frame with every constant part of its peer pre-bound, so sending costs
  one ``Struct.pack`` and one concatenation; a per-partition frame as
  one header ``pack`` plus its vectors' bytes;
* the **record** (:func:`decode_at`) — what the live plane's receive
  path hands its callbacks. Per stage it is ``(kind, epoch, a, b)``: one
  ``unpack_from`` in place, the id tail validated but never decoded,
  because the connection a frame arrives on already says who sent it.
  ``a``/``b`` are the two demand floats of a ``metrics_reply``, the data
  and metadata limits of a ``rule`` (``inf`` = that axis is unlimited),
  and ``None`` for the float-less kinds. Per partition it is ``(kind,
  epoch, generation, a, data, metadata)``, the vectors read-only
  ``numpy.frombuffer`` views (``>f8``; ``metadata`` is ``None`` on a
  ``rule_batch`` without one) — no per-value work;
* the **message dict** (:func:`decode_binary`) — ids decoded and vectors
  listed too, for tools and tests that read frames off a plain stream.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "BINARY_KINDS",
    "BINARY_MAGIC",
    "MAX_ID_BYTES",
    "decode_at",
    "decode_binary",
    "frame_packer",
    "pack_rows",
]

Buffer = Union[bytes, bytearray, memoryview]
#: ``(kind, epoch, a, b)`` or ``(kind, epoch, generation, a, data,
#: metadata)`` — see the module docstring.
Record = tuple

#: First body byte of every packed frame (never valid leading JSON).
BINARY_MAGIC = 0xB1
#: Longest id (UTF-8 bytes) the ``>H`` string prefix can carry.
MAX_ID_BYTES = 0xFFFF

_INF = float("inf")
_H = struct.Struct(">H")  # string length prefix
_F8 = np.dtype(">f8")  # one vector value


class _Layout:
    """One packed frame kind: its tag and where every field sits."""

    __slots__ = (
        "tag", "kind", "floats", "strings", "vectors", "word",
        "fixed", "pack_frame", "unpack_fields", "head", "pad",
    )

    def __init__(self, tag, kind, floats=(), strings=(), vectors=(), word=None) -> None:
        self.tag = tag
        self.kind = kind
        #: Message keys of the floats after the epoch / of the id tail.
        self.floats: Tuple[str, ...] = floats
        self.strings: Tuple[str, ...] = strings
        #: Per-partition kinds: message keys of the data and metadata
        #: vectors, and of the ``a`` word when it is a plain count (both
        #: vectors always ride) rather than the flag word.
        self.vectors: Tuple[str, ...] = vectors
        self.word: Optional[str] = word
        # Behind the epoch: the floats, or generation / a / count.
        fields = "q" + ("III" if vectors else "d" * len(floats))
        #: Size of magic, tag and fixed fields — the body up to its tail.
        self.fixed = struct.calcsize(">BB" + fields)
        #: The same behind the 4-byte length header: a whole frame but
        #: for its tail, in one ``pack``.
        self.pack_frame = struct.Struct(">IBB" + fields).pack
        self.unpack_fields = struct.Struct(">xx" + fields).unpack_from
        # record = head + unpacked fields + pad
        self.head = (kind,)
        self.pad = () if floats else (None, None)


_LAYOUTS = (
    _Layout(1, "collect_req"),
    _Layout(2, "metrics_reply", ("data_iops", "metadata_iops"), ("stage_id", "job_id")),
    _Layout(4, "rule_ack", strings=("stage_id",)),
    # Per-class limits (PADLL): an undifferentiated policy packs ``inf``
    # as the metadata limit. Tag 3 is unassigned.
    _Layout(5, "rule", ("data_iops_limit", "metadata_iops_limit"), ("stage_id",)),
    # The trunk's per-partition kinds: the same two axes, one value per
    # stage of the partition, in the partition's order.
    _Layout(
        6, "agg_metrics_reply",
        vectors=("data_demands", "metadata_demands"), word="n_missing",
    ),
    _Layout(7, "rule_batch", vectors=("data_iops_limits", "metadata_iops_limits")),
)

_BY_KIND: Dict[str, _Layout] = {layout.kind: layout for layout in _LAYOUTS}
# Two tag maps, so that the per-stage receive path (thousands of frames a
# cycle) pays nothing for the per-partition kinds (a handful): those are
# looked up where an unknown tag would have been refused anyway.
_BY_TAG: Dict[int, _Layout] = {
    layout.tag: layout for layout in _LAYOUTS if not layout.vectors
}
_ROWS_BY_TAG: Dict[int, _Layout] = {
    layout.tag: layout for layout in _LAYOUTS if layout.vectors
}

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
    """``pack(epoch[, a, b]) -> bytes`` for one peer's per-stage ``kind``.

    ``pack`` returns the whole wire frame, length header included. Raises
    ``ValueError`` for a kind that is not packed per stage, or an id past
    :data:`MAX_ID_BYTES`.
    """
    layout = _BY_KIND.get(kind)
    if layout is None or layout.vectors:
        raise ValueError(f"not a per-stage frame kind: {kind!r}")
    ids = {"stage_id": stage_id, "job_id": job_id}
    tail = b""
    for name in layout.strings:
        raw = ids[name].encode("utf-8")
        if len(raw) > MAX_ID_BYTES:
            raise ValueError(f"{name} too long for a packed frame: {len(raw)}")
        tail += _H.pack(len(raw)) + raw
    return (_Packer2 if layout.floats else _Packer)(layout, tail)


def pack_rows(
    kind: str, epoch: int, generation: int, data, metadata=None, n_missing: int = 0
) -> bytes:
    """One per-partition frame (length header included) from its vectors.

    ``data`` / ``metadata`` are float sequences (arrays, ``array('d')``,
    lists) in the partition's order at ``generation``. An
    ``agg_metrics_reply`` always carries both and ``n_missing``; a
    ``rule_batch`` carries ``metadata`` only when given. Raises
    ``ValueError`` for any other kind or vectors that do not line up.
    """
    layout = _BY_KIND.get(kind)
    if layout is None or not layout.vectors:
        raise ValueError(f"not a per-partition frame kind: {kind!r}")
    if layout.word is None:
        word = 0 if metadata is None else 1
    elif metadata is None:
        raise ValueError(f"{kind} carries both vectors")
    else:
        word = n_missing
    blocks = [
        np.asarray(vector, dtype=_F8)
        for vector in ((data,) if metadata is None else (data, metadata))
    ]
    count = blocks[0].size
    if any(block.shape != (count,) for block in blocks):
        raise ValueError("vectors must be flat and of one length")
    tail = b"".join([block.tobytes() for block in blocks])
    return (
        layout.pack_frame(
            layout.fixed + len(tail), BINARY_MAGIC, layout.tag,
            epoch, generation, word, count,
        )
        + tail
    )


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
        return _decode_rows(data, start, stop)
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


def _decode_rows(data: Buffer, start: int, stop: int) -> Record:
    """:func:`decode_at` for a per-partition kind (or an unknown tag).

    The vectors must fill the body exactly — ``count`` is checked against
    the bytes that are there before anything is sized by it. They are
    views of one private copy of the vector bytes: a record may be held
    past the callback it was parsed for (an early reply, an aggregator's
    request queue), the shared receive buffer may not.
    """
    layout = _ROWS_BY_TAG.get(data[start + 1])
    if layout is None:
        raise ValueError(f"unknown binary frame tag: {data[start + 1]}")
    pos = start + layout.fixed
    if pos > stop:
        raise ValueError("truncated binary frame: fixed fields")
    epoch, generation, word, count = layout.unpack_fields(data, start)
    if layout.word is None and word > 1:
        raise ValueError(f"unknown {layout.kind} flags: {word:#x}")
    n_vectors = 2 if layout.word is not None or word else 1
    if stop - pos != _F8.itemsize * count * n_vectors:
        raise ValueError("vector bytes do not match count")
    values = np.frombuffer(bytes(memoryview(data)[pos:stop]), dtype=_F8)
    return (
        layout.kind, epoch, generation, word,
        values[:count], values[count:] if n_vectors == 2 else None,
    )


# -- message dicts (tools and tests) -----------------------------------------


def decode_binary(body: Buffer) -> Dict[str, Any]:
    """Decode a packed body into its message dict, ids included.

    Accepts any bytes-like input; pass a ``memoryview`` to decode
    without copying (string fields are decoded straight from the
    underlying buffer). A per-partition kind's vectors come as lists,
    ``n_missing`` under its name; a ``rule_batch`` without a metadata
    vector has no such key.

    Raises ``ValueError`` on malformed input (wrong magic, unknown tag,
    truncation, bytes after the last field) — the caller maps it to its
    protocol error type.
    """
    record = decode_at(body, 0, len(body))
    message: Dict[str, Any] = {"kind": record[0], "epoch": record[1]}
    layout = _BY_KIND[record[0]]
    if layout.vectors:
        message["generation"] = record[2]
        if layout.word is not None:
            message[layout.word] = record[3]
        for name, vector in zip(layout.vectors, record[4:]):
            if vector is not None:
                message[name] = vector.tolist()
        return message
    message.update(zip(layout.floats, record[2:]))
    # decode_at proved every length prefix in bounds.
    pos = layout.fixed
    for name in layout.strings:
        end = pos + 2 + (body[pos] << 8 | body[pos + 1])
        message[name] = str(body[pos + 2 : end], "utf-8")
        pos = end
    return message
