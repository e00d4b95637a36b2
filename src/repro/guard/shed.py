"""Bounded per-session outbound queues with shed-oldest policy.

A live session coalesces frames into one write per phase
(:class:`repro.live.sessions.Session`). Under backpressure — a stage
stops reading, a socket stalls inside its send window — that buffer
previously grew without bound. :class:`BoundedOutbox` is the fix: a
byte-budgeted frame queue that sheds the *oldest sheddable* frames when
the budget is exceeded.

Which frames are sheddable is the caller's contract: rule frames and
the trunk's packed ``rule_batch`` vectors are (a newer rule epoch
supersedes an older one, and the missing ack is already handled by the
degraded-cycle machinery), collect
requests and registration acks are not — those pace phases, and dropping
one would stall the protocol rather than merely delay an enforcement.
Non-sheddable frames are therefore *never* dropped, even over budget:
the bound is a shed trigger, not a hard write barrier, so
``pending_bytes`` can transiently exceed ``max_bytes`` by the
non-sheddable residue (observable via ``high_water_bytes``).

Storage is one shared ``bytearray`` per outbox plus a list of
``(start, end, sheddable)`` spans — the zero-copy send path. Senders
append frames in place (:meth:`push_with` hands the buffer to an
encoder, so a frame never exists as its own ``bytes`` object) and
:meth:`drain` materializes exactly one write burst per phase. Shedding
compacts the buffer so the *real* memory footprint honours the budget,
not just the accounting. Every stage session holds an outbox and most
never queue a frame (their per-stage frames are written through), so an
idle one costs two empty containers: a list, not a deque's 64-slot block.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

__all__ = ["BoundedOutbox"]


class BoundedOutbox:
    """Byte-bounded frame queue; sheds oldest sheddable frames first."""

    __slots__ = (
        "max_bytes", "_buf", "_spans", "pending_bytes",
        "frames_shed", "bytes_shed", "high_water_bytes",
    )

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1: {max_bytes}")
        self.max_bytes = max_bytes
        self._buf = bytearray()
        self._spans: List[Tuple[int, int, bool]] = []
        self.pending_bytes = 0
        #: Monotone shed counters.
        self.frames_shed = 0
        self.bytes_shed = 0
        #: Peak pending_bytes *after* shedding — bounded-memory evidence.
        self.high_water_bytes = 0

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def pending_frames(self) -> int:
        return len(self._spans)

    def push(self, frame: bytes, sheddable: bool = False) -> int:
        """Queue ``frame``; returns how many frames were shed to fit it."""
        start = len(self._buf)
        self._buf += frame
        return self._commit(start, sheddable)

    def push_with(
        self, write: Callable[[bytearray], object], sheddable: bool = False
    ) -> int:
        """Append one frame in place: ``write(buf)`` encodes directly into
        the outbox buffer (e.g. ``protocol.encode_into``), so the frame is
        never materialized as a standalone ``bytes``. Returns the frame's
        size in bytes; a failed encode leaves the outbox unchanged."""
        buf = self._buf
        start = len(buf)
        try:
            write(buf)
        except BaseException:
            del buf[start:]
            raise
        size = len(buf) - start
        self._commit(start, sheddable)
        return size

    def _commit(self, start: int, sheddable: bool) -> int:
        end = len(self._buf)
        self._spans.append((start, end, sheddable))
        self.pending_bytes += end - start
        shed = 0
        if self.max_bytes is not None and self.pending_bytes > self.max_bytes:
            shed = self._shed_until_fits()
        if self.pending_bytes > self.high_water_bytes:
            self.high_water_bytes = self.pending_bytes
        return shed

    def _shed_until_fits(self) -> int:
        # Walk oldest-first, dropping sheddable spans until under
        # budget; non-sheddable spans are kept in order.
        shed = 0
        keep: List[Tuple[int, int, bool]] = []
        spans = self._spans
        for i, span in enumerate(spans):
            if self.pending_bytes <= self.max_bytes:
                keep += spans[i:]
                break
            start, end, sheddable = span
            if sheddable:
                size = end - start
                self.pending_bytes -= size
                self.frames_shed += 1
                self.bytes_shed += size
                shed += 1
            else:
                keep.append(span)
        # Compact: rebuild the buffer from surviving spans so shed bytes
        # are freed immediately (the budget bounds real memory, not just
        # span accounting). Shedding is the rare path; the copy is the
        # price of a truly bounded buffer.
        old = memoryview(self._buf)
        fresh = bytearray()
        spans = []
        for start, end, sheddable in keep:
            new_start = len(fresh)
            fresh += old[start:end]
            spans.append((new_start, len(fresh), sheddable))
        old.release()
        self._buf = fresh
        self._spans = spans
        return shed

    def drain(self) -> bytes:
        """Return and clear everything queued; one coalesced write burst.

        Frames were already gathered contiguously at push time, so this
        is a single buffer materialization — not an N-frame join.
        """
        if not self._spans:
            return b""
        burst = bytes(self._buf)
        self.clear()
        return burst

    def clear(self) -> None:
        """Drop everything (socket died; frames are unsendable)."""
        self._buf = bytearray()
        self._spans.clear()
        self.pending_bytes = 0
