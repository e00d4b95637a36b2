"""Packers, records, write-through and the shared receive buffer.

The live plane's per-frame path is one ``Struct.pack`` and a ``write``
out, one ``unpack_from`` in. These tests hold that path to the generic
dict decoder (identical decoded values), feed the parser garbage at the
byte level, and pin the mechanism so a later change cannot quietly route
hot frames back through dicts, JSON and the outbox.

CI runs this file once more under the derandomized ``ci`` hypothesis
profile (``tests/conftest.py``).
"""

import asyncio
import json
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import QoSPolicy
from repro.live import protocol, sessions
from repro.live.codec import BINARY_KINDS, decode_at, frame_packer, pack_rows
from repro.live.controller_server import LiveGlobalController
from repro.live.protocol import (
    MAX_FRAME,
    RECV_BUFFER_SIZE,
    FrameLink,
    decode_body,
    encode,
)
from repro.live.sessions import Session
from repro.live.stage_client import LiveVirtualStage

SRC = Path(__file__).resolve().parents[2] / "src"

_OVERSIZE = 0xFFFF + 1

epochs = st.integers(min_value=-(2**63), max_value=2**63 - 1)
floats = st.floats(allow_nan=False)  # finite and +-inf
ids = st.one_of(
    st.text(max_size=24),  # incl. empty and non-ASCII
    st.sampled_from(["", "stage-00042", "é" * 40, "☃" * 21845, "s" * 0xFFFF]),
)


_ROW_KINDS = ("agg_metrics_reply", "rule_batch")


@st.composite
def hot_frames(draw):
    """``(kind, epoch, a, b, stage_id, job_id)`` for any per-stage frame."""
    kind = draw(st.sampled_from(sorted(BINARY_KINDS.difference(_ROW_KINDS))))
    a = b = None
    if kind == "metrics_reply":
        a, b = draw(floats), draw(floats)
    elif kind == "rule":
        a, b = draw(floats), draw(st.one_of(st.none(), floats))
    return kind, draw(epochs), a, b, draw(ids), draw(ids)


def _args(a, b):
    return () if a is None else (a, b)


@st.composite
def row_frames(draw):
    """The wire bytes of any per-partition (trunk vector) frame."""
    n = draw(st.integers(0, 12))
    vector = st.lists(st.floats(), min_size=n, max_size=n)  # NaN included
    data, metadata = draw(vector), draw(vector)
    if draw(st.booleans()):
        return pack_rows(
            "agg_metrics_reply", draw(epochs), draw(st.integers(0, 2**32 - 1)),
            data, metadata, n_missing=draw(st.integers(0, 2**32 - 1)),
        )
    return pack_rows(
        "rule_batch", draw(epochs), draw(st.integers(0, 2**32 - 1)),
        data, draw(st.sampled_from([None, metadata])),
    )


def _plain(delivered):
    """``[(message, nbytes)]`` with every record's vectors and floats as
    bytes, so that two deliveries compare with ``==`` (arrays do not,
    nor NaNs)."""
    return [
        (
            tuple(_bits(f) for f in message)
            if message.__class__ is tuple
            else message,
            nbytes,
        )
        for message, nbytes in delivered
    ]


def _bits(field):
    if isinstance(field, np.ndarray):
        return field.tobytes()
    if isinstance(field, float):
        return struct.pack("<d", field)
    return field


class _Transport:
    """Records writes; reports an abort as a loss at once."""

    def __init__(self, link):
        self.link = link
        self.written = bytearray()

    def write(self, data):
        self.written += data

    def close(self):
        pass

    def abort(self):
        if not self.link.lost:
            self.link.connection_lost(None)


def _link():
    """A link on a fake transport, and the list its frames land in."""
    got = []
    link = FrameLink(lambda message, nbytes: got.append((message, nbytes)))
    link.connection_made(_Transport(link))
    return link, got


def _delivered(frame):
    """What a link hands its owner for ``frame``."""
    if frame[4] == 0xB1:
        return decode_at(frame, 4, len(frame))
    return decode_body(frame[4:])


class TestPackersMatchTheGenericCodec:
    @settings(deadline=None)
    @given(frame=hot_frames())
    def test_packed_frames_carry_their_values(self, frame):
        kind, epoch, a, b, stage_id, job_id = frame
        packed = frame_packer(kind, stage_id, job_id)(epoch, *_args(a, b))
        if kind == "rule" and b is None:
            b = float("inf")  # no metadata limit: unlimited
        expected = (kind, epoch, a, b)
        # The record a link hands its owner, the in-place decode and the
        # generic dict decode all carry the values that went in.
        link, got = _link()
        link.data_received(packed)
        assert got == [(expected, len(packed))]
        assert decode_at(packed, 4, len(packed)) == expected
        message = decode_body(packed[4:])
        names = {"metrics_reply": ("data_iops", "metadata_iops"),
                 "rule": ("data_iops_limit", "metadata_iops_limit")}.get(kind, ())
        assert (kind, epoch) == (message["kind"], message["epoch"])
        assert tuple(message[name] for name in names) == _args(a, b)
        if kind != "collect_req":
            assert message["stage_id"] == stage_id
        if kind == "metrics_reply":
            assert message["job_id"] == job_id

    def test_oversize_ids_are_refused(self):
        for kind in ("metrics_reply", "rule", "rule_ack"):
            with pytest.raises(ValueError, match="too long"):
                frame_packer(kind, "s" * _OVERSIZE, "j")
        with pytest.raises(ValueError, match="too long"):
            frame_packer("metrics_reply", "s", "☃" * 21846)

    def test_packers_are_lean(self):
        packer = frame_packer("rule", "stage-00001")
        assert not hasattr(packer, "__dict__")
        assert type(packer._tail) is bytes

    def test_cold_kinds_have_no_packer(self):
        with pytest.raises(ValueError):
            frame_packer("register")


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


_ACK = frame_packer("rule_ack", "stage-7")(5)
_RULE = frame_packer("rule", "stage-7")(5, 10.0, 20.0)

_GOOD = st.one_of(
    hot_frames().map(
        lambda f: frame_packer(f[0], f[4][:64], f[5][:64])(f[1], *_args(f[2], f[3]))
    ),
    row_frames(),
    st.integers(0, 30).map(
        lambda n: encode({"kind": "topology", "aggregators": list(range(n))})
    ),
)


@st.composite
def _mangled(draw):
    """A valid frame with one byte changed, or cut, or padded."""
    frame = bytearray(draw(_GOOD))
    how = draw(st.integers(0, 2))
    if how == 0:
        frame[draw(st.integers(0, len(frame) - 1))] = draw(st.integers(0, 255))
    elif how == 1:
        del frame[draw(st.integers(4, len(frame) - 1)) :]
        frame[:4] = struct.pack(">I", len(frame) - 4)
    else:
        frame += draw(st.binary(min_size=1, max_size=6))
        frame[:4] = struct.pack(">I", len(frame) - 4)
    return bytes(frame)


_STREAMS = st.lists(
    st.one_of(_GOOD, _mangled(), st.binary(max_size=40).map(_frame), st.binary(max_size=12)),
    min_size=1,
    max_size=8,
).map(b"".join)
_CUTS = st.lists(st.integers(min_value=0, max_value=4096), max_size=12)


def _chunks(stream, cuts):
    edges = sorted({min(c, len(stream)) for c in cuts} | {0, len(stream)})
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


class TestFrameLinkFuzz:
    """ROADMAP 5c: arbitrary bytes, arbitrary chunkings."""

    @settings(deadline=None)
    @given(stream=_STREAMS, cuts=_CUTS)
    def test_garbage_never_escapes_and_chunking_is_invisible(self, stream, cuts):
        """No input raises out of the parse; a link either keeps
        delivering exactly what a one-shot parse delivers or is aborted
        at the same frame."""
        whole, expected = _link()
        whole.data_received(stream)
        link, got = _link()
        for chunk in _chunks(stream, cuts):
            link.data_received(chunk)
            if link.lost:
                break
        assert _plain(got) == _plain(expected)
        assert link.lost == whole.lost
        if not link.lost:
            # Consistent: what is held back is an unfinished frame.
            assert len(link._carry) < max(link._need, 4)

    @settings(deadline=None)
    @given(frames=st.lists(_GOOD, min_size=1, max_size=6), cuts=_CUTS)
    def test_parse_never_reads_past_what_arrived(self, frames, cuts):
        """Through the transport's entry points, with the bytes that have
        *not* arrived yet already sitting in the shared buffer behind the
        ones that have — the stale tail a real buffer holds. A parser
        that looked past ``nbytes`` would deliver frames early, twice."""
        stream = b"".join(frames)
        link, got = _link()
        sent = 0
        for chunk in _chunks(stream, cuts):
            buffer = link.get_buffer(-1)
            assert len(buffer) == RECV_BUFFER_SIZE
            ahead = stream[sent : sent + RECV_BUFFER_SIZE]
            buffer[: len(ahead)] = ahead
            link.buffer_updated(len(chunk))
            sent += len(chunk)
        assert _plain(got) == _plain([(_delivered(f), len(f)) for f in frames])
        assert not link.lost

    @pytest.mark.parametrize(
        "frame",
        [
            pytest.param(
                struct.pack(">I", len(_ACK) - 5) + _ACK[4:-1], id="truncated-tail"
            ),
            pytest.param(
                struct.pack(">I", len(_ACK) - 4 + 2) + _ACK[4:] + b"\x00\x00",
                id="trailing-garbage",
            ),
            pytest.param(_frame(b"\xb1\xfa" + b"\x00" * 8), id="unknown-tag"),
            pytest.param(_frame(b"\xb2\x04" + _ACK[6:]), id="bad-magic"),
            pytest.param(_frame(b"\xb1"), id="magic-alone"),
            pytest.param(_frame(b""), id="empty-body"),
            pytest.param(struct.pack(">I", MAX_FRAME + 1) + b"x" * 16, id="oversize"),
            pytest.param(_frame(b'{"kind":["rule"]}'), id="unhashable-kind"),
            # A hot kind in a JSON body, however well-formed, and the
            # retired single-limit rule tag: what an old peer would send.
            pytest.param(
                _frame(b'{"kind":"rule_ack","epoch":5,"stage_id":"stage-7"}'),
                id="json-rule-ack",
            ),
            pytest.param(_RULE[:5] + b"\x03" + _RULE[6:], id="tag-3-rule"),
            pytest.param(_frame(b'{"kind":"rule","epoch":1}'), id="json-rule-no-limit"),
            pytest.param(
                _frame(b'{"kind":"metrics_reply","epoch":1,"data_iops":"x",'
                       b'"metadata_iops":1}'),
                id="json-reply-not-a-number",
            ),
            # The trunk's vector kinds: one encoding too, and a vector
            # that stops short of its count is no frame.
            pytest.param(
                _frame(b'{"kind":"agg_metrics_reply","epoch":5,"stage_ids":["a"],'
                       b'"data_demands":[1.0],"metadata_demands":[1.0]}'),
                id="json-agg-metrics-reply",
            ),
            pytest.param(
                _frame(b'{"kind":"rule_batch","epoch":5,"rules":[]}'),
                id="json-rule-batch",
            ),
            pytest.param(
                _frame(pack_rows("rule_batch", 5, 0, [1.0, 2.0])[4:-8]),
                id="row-vector-short",
            ),
            pytest.param(_frame(b"[" * 100_000), id="json-nesting"),
            pytest.param(_frame(b"9" * 5000), id="json-digits"),
        ],
    )
    def test_malformed_frame_aborts_the_link(self, frame):
        link, got = _link()
        link.data_received(_ACK + frame + _ACK)
        # The frame before it was served; nothing after it is.
        assert got == [(("rule_ack", 5, None, None), len(_ACK))]
        assert link.lost and link.transport is None

    def test_record_as_first_frame_closes_an_accepting_link(self):
        hellos = []
        link = FrameLink.accepting(lambda link, hello: hellos.append(hello))()
        link.connection_made(_Transport(link))
        link.data_received(_ACK)
        assert hellos == [] and link.closing


def _differentiated(n):
    return QoSPolicy(pfs_capacity_iops=n * 750.0, metadata_capacity_iops=n * 150.0)


class TestMechanism:
    def test_steady_state_cycle_stays_off_the_json_path(self, monkeypatch):
        """Hot frames enter neither JSON, the dict decoder nor the
        outbox, and ``collect_req`` is packed once for the whole fleet."""
        n = 200
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        async def scenario():
            ctrl = LiveGlobalController(_differentiated(n), expected_stages=n)
            await ctrl.start()
            stages = [
                LiveVirtualStage(ctrl.host, ctrl.port, f"s-{i:03d}", f"j-{i:03d}")
                for i in range(n)
            ]
            tasks = [asyncio.create_task(s.run()) for s in stages]
            try:
                await ctrl.wait_for_stages()
                await ctrl.run_cycles(2)
                monkeypatch.setattr(
                    protocol, "encode_into", counting("encode_into", protocol.encode_into)
                )
                monkeypatch.setattr(
                    protocol, "decode_body", counting("decode_body", protocol.decode_body)
                )
                monkeypatch.setattr(Session, "feed", counting("feed", Session.feed))
                flush = Session.flush

                async def counted_flush(self, timeout_s=None):
                    calls["flush"] = calls.get("flush", 0) + 1
                    await flush(self, timeout_s)

                monkeypatch.setattr(Session, "flush", counted_flush)
                monkeypatch.setattr(
                    sessions, "_pack_collect_req",
                    counting("pack:collect_req", sessions._pack_collect_req),
                )
                for name in ("dumps", "loads"):
                    monkeypatch.setattr(
                        json, name, counting(f"json.{name}", getattr(json, name))
                    )
                before = sum(s.tx_bytes + s.rx_bytes for s in ctrl.sessions.values())
                await ctrl.run_cycles(1)
                after = sum(s.tx_bytes + s.rx_bytes for s in ctrl.sessions.values())
                monkeypatch.undo()
                return ctrl.cycles[-1], after - before, stages
            finally:
                await ctrl.shutdown()
                for t in tasks:
                    t.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

        cycle, wire_bytes, stages = asyncio.run(scenario())
        assert cycle.n_missing == 0
        assert all(s.applied_epoch == cycle.epoch for s in stages)
        assert calls == {"pack:collect_req": 1}
        # Nothing else rode the wire: four packed frames per stage.
        per_stage = sum(
            len(frame_packer(kind, "s-000", "j-000")(cycle.epoch, *args))
            for kind, args in (
                ("collect_req", ()), ("metrics_reply", (1.0, 2.0)),
                ("rule", (1.0, 2.0)), ("rule_ack", ()),
            )
        )
        assert wire_bytes == n * per_stage

    def test_write_through_charges_tx_only_once_accepted(self):
        link, _ = _link()
        session = Session("peer", link)
        session.feed({"kind": "topology", "aggregators": []})
        session.send(_ACK)  # flushes what was fed first, in order
        written = bytes(link.transport.written)
        assert written.endswith(_ACK) and written[4:5] == b"{"
        assert session.tx_bytes == len(written) and session.pending_frames == 0
        link.connection_lost(None)
        with pytest.raises(sessions.SessionClosed):
            session.send(_ACK)  # refused: not charged
        assert session.tx_bytes == len(written) and not session.connected


_FAULT_SCRIPT = """
    import asyncio, resource, sys
    sys.path.insert(0, {src!r})
    from repro.core.control_plane import default_policy
    from repro.live.controller_server import LiveGlobalController
    from repro.live.stage_client import LiveVirtualStage

    N, CYCLES = 200, 10

    async def main():
        ctrl = LiveGlobalController(default_policy(N), expected_stages=N)
        await ctrl.start()
        stages = [
            LiveVirtualStage(ctrl.host, ctrl.port, f"s-{{i:03d}}", f"j-{{i:03d}}")
            for i in range(N)
        ]
        tasks = [asyncio.create_task(s.run()) for s in stages]
        await ctrl.wait_for_stages()
        await ctrl.run_cycles(2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        await ctrl.run_cycles(CYCLES)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        missing = sum(c.n_missing for c in ctrl.cycles)
        await ctrl.shutdown()
        for t in tasks:
            t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        print(faults / (N * CYCLES), missing)

    asyncio.run(main())
"""


class TestFreshProcessReadPath:
    def test_fresh_interpreter_does_not_fault_per_read(self):
        """A selector transport reading into a fresh 256 KiB ``bytes``
        per ``recv`` has glibc ``mmap`` it, shrink it and unmap it again:
        a page fault or two per frame, for as long as the process has
        never freed anything bigger (that is what raises the allocator's
        mmap threshold, so it is luck). ``MALLOC_MMAP_THRESHOLD_`` pins
        the threshold at its start-up default, i.e. holds the subprocess
        in the state every fresh one starts in. The shared receive
        buffer allocates nothing per read, in any state."""
        out = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(_FAULT_SCRIPT.format(src=str(SRC)))],
            capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "MALLOC_MMAP_THRESHOLD_": str(128 * 1024)},
        ).stdout.split()
        faults_per_stage_cycle, missing = float(out[0]), int(out[1])
        assert missing == 0
        # Four reads per stage per cycle: at least 4 before the fix.
        assert faults_per_stage_cycle < 1.0, faults_per_stage_cycle
