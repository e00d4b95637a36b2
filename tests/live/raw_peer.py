"""A raw peer's side of the wire over plain asyncio streams.

Tests that play a stage, an aggregator or a primary by hand speak the
framing through these two helpers instead of a
:class:`~repro.live.protocol.FrameLink`, as an outside client would.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Dict

from repro.live.protocol import MAX_FRAME, ProtocolError, decode_body, encode

_HEADER = struct.Struct(">I")


async def read_message(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """Read one framed message (raises ``IncompleteReadError`` on EOF)."""
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds cap {MAX_FRAME}")
    return decode_body(await reader.readexactly(length))


async def write_message(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> int:
    """Write one framed JSON-kind message and drain; returns the frame's size."""
    frame = encode(message)
    writer.write(frame)
    await writer.drain()
    return len(frame)
