"""Packers, records, write-through and the shared receive buffer.

The live plane's per-frame path is one ``Struct.pack`` and a ``write``
out, one ``unpack_from`` in. These tests hold that path to the generic
codec it replaced (byte-identical frames, identical decoded values),
feed the parser garbage at the byte level, run a fleet that negotiated
three different codecs, and pin the mechanism so a later change cannot
quietly route hot frames back through dicts and the outbox.

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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import QoSPolicy
from repro.live import protocol, sessions
from repro.live.aggregator_server import LiveAggregator
from repro.live.codec import BINARY_KINDS, decode_at, message_of, record_of
from repro.live.controller_server import (
    LiveGlobalController,
    LiveHierGlobalController,
)
from repro.live.protocol import (
    MAX_FRAME,
    RECV_BUFFER_SIZE,
    FrameLink,
    decode_body,
    encode,
    frame_packer,
)
from repro.live.sessions import Session
from repro.live.stage_client import LiveVirtualStage

SRC = Path(__file__).resolve().parents[2] / "src"

CODECS = ("json", "binary", "binary2")
_OVERSIZE = 0xFFFF + 1

epochs = st.integers(min_value=-(2**63), max_value=2**63 - 1)
floats = st.floats(allow_nan=False)  # finite and +-inf
ids = st.one_of(
    st.text(max_size=24),  # incl. empty and non-ASCII
    st.sampled_from(["", "stage-00042", "é" * 40, "☃" * 21846, "s" * _OVERSIZE]),
)


@st.composite
def hot_frames(draw):
    """``(kind, epoch, a, b, stage_id, job_id)`` for any hot frame."""
    kind = draw(st.sampled_from(sorted(BINARY_KINDS)))
    a = b = None
    if kind == "metrics_reply":
        a, b = draw(floats), draw(floats)
    elif kind == "rule":
        a, b = draw(floats), draw(st.one_of(st.none(), floats))
    return kind, draw(epochs), a, b, draw(ids), draw(ids)


def _args(a, b):
    return () if a is None else (a, b)


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
    message = decode_body(frame[4:])
    return record_of(message) if message["kind"] in BINARY_KINDS else message


class TestPackersMatchTheGenericCodec:
    @settings(deadline=None)
    @given(frame=hot_frames(), codec=st.sampled_from(CODECS))
    def test_packer_bytes_equal_encode_and_decode_to_the_same_record(
        self, frame, codec
    ):
        kind, epoch, a, b, stage_id, job_id = frame
        message = message_of(kind, epoch, a, b, stage_id, job_id)
        packed = frame_packer(kind, codec, stage_id, job_id)(epoch, *_args(a, b))
        assert packed == encode(message, codec)
        # What a link hands its owner equals the projection of the
        # generic decode, whichever body the codec chose.
        expected = record_of(decode_body(packed[4:]))
        link, got = _link()
        link.data_received(packed)
        assert got == [(expected, len(packed))]
        if packed[4] != ord("{"):
            assert decode_at(packed, 4, len(packed)) == expected
        if codec != "binary" or kind != "rule":
            # (rev 1 drops the metadata limit on purpose)
            assert expected == record_of(message)

    def test_oversize_ids_ride_json_on_a_binary_session(self):
        for kind in ("metrics_reply", "rule", "rule_ack"):
            frame = frame_packer(kind, "binary2", "s" * _OVERSIZE, "j")(1, 2.0, 3.0)
            assert frame[4] == ord("{")

    def test_packers_are_lean(self):
        packer = frame_packer("rule", "binary2", "stage-00001")
        assert not hasattr(packer, "__dict__")
        assert type(packer._tail) is bytes

    def test_cold_kinds_have_no_packer(self):
        with pytest.raises(ValueError):
            frame_packer("register", "binary2")


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


_ACK = encode({"kind": "rule_ack", "epoch": 5, "stage_id": "stage-7"}, "binary2")

_GOOD = st.one_of(
    hot_frames().flatmap(
        lambda f: st.sampled_from(CODECS).map(
            lambda codec: frame_packer(f[0], codec, f[4][:64], f[5][:64])(
                f[1], *_args(f[2], f[3])
            )
        )
    ),
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
        assert got == expected
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
        assert got == [(_delivered(f), len(f)) for f in frames]
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
            pytest.param(_frame(b'{"kind":"rule","epoch":1}'), id="json-rule-no-limit"),
            pytest.param(
                _frame(b'{"kind":"metrics_reply","epoch":1,"data_iops":"x",'
                       b'"metadata_iops":1}'),
                id="json-reply-not-a-number",
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


_FLEETS = {
    "mixed": (("json",), ("binary", "json"), ("binary2", "binary", "json")),
    "binary2": (("binary2", "binary", "json"),) * 3,
}


async def _run_fleet(offers, behind_aggregator):
    n = len(offers)
    tasks = []
    if behind_aggregator:
        ctrl = LiveHierGlobalController(_differentiated(n), expected_aggregators=1)
        await ctrl.start()
        home = LiveAggregator("agg-0", ctrl.host, ctrl.port, expected_stages=n)
        await home.start()
        tasks.append(asyncio.create_task(home.run()))
    else:
        ctrl = home = LiveGlobalController(_differentiated(n), expected_stages=n)
        await ctrl.start()
    stages = [
        LiveVirtualStage(
            home.host, home.port, f"stage-{i}", f"job-{i}",
            demand=(900.0 + 100.0 * i, 200.0), codecs=codecs,
        )
        for i, codecs in enumerate(offers)
    ]
    tasks += [asyncio.create_task(s.run()) for s in stages]
    try:
        if behind_aggregator:
            await ctrl.wait_for_aggregators(timeout_s=10.0)
        else:
            await ctrl.wait_for_stages(timeout_s=10.0)
        cycles = await ctrl.run_cycles(3)
        stale = ctrl.stale_messages
        if behind_aggregator:
            stale += sum(s.stale_messages for s in home.sessions.values())
        return stages, list(cycles), ctrl.epoch, stale
    finally:
        await ctrl.shutdown()
        await asyncio.sleep(0.05)
        for t in tasks:
            t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


class TestMixedVersionPlane:
    @pytest.mark.parametrize("behind_aggregator", [False, True], ids=["flat", "hier"])
    def test_three_codecs_cycle_to_the_same_limits_as_all_binary2(
        self, behind_aggregator
    ):
        mixed, cycles, epoch, stale = asyncio.run(
            _run_fleet(_FLEETS["mixed"], behind_aggregator)
        )
        reference, _, _, _ = asyncio.run(
            _run_fleet(_FLEETS["binary2"], behind_aggregator)
        )
        assert [s.codec for s in mixed] == ["json", "binary", "binary2"]
        assert [s.codec for s in reference] == ["binary2"] * 3
        assert all(c.n_missing == 0 and not c.timed_out for c in cycles)
        assert stale == 0
        for got, want in zip(mixed, reference):
            assert got.applied_epoch == epoch == 3
            assert got.rules_applied == 3 and got.requests_served == 3
            assert got.applied_limit == want.applied_limit
            assert got.data_bucket.rate == want.data_bucket.rate
        # JSON and rev 2 carry the metadata axis; rev 1 drops it.
        assert mixed[0].applied_metadata_limit == reference[0].applied_metadata_limit
        assert mixed[2].applied_metadata_limit == reference[2].applied_metadata_limit
        assert mixed[2].applied_metadata_limit < float("inf")
        assert mixed[1].applied_metadata_limit == float("inf")


class TestMechanism:
    def test_steady_state_binary2_cycle_stays_off_the_generic_path(self, monkeypatch):
        """Hot frames enter neither the dict codec nor the outbox, and
        ``collect_req`` is packed once for the whole fleet."""
        n = 200
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        def counting_packer(kind, *args, **kwargs):
            calls[f"pack:{kind}"] = calls.get(f"pack:{kind}", 0) + 1
            return frame_packer(kind, *args, **kwargs)

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

                async def counted_flush(self):
                    calls["flush"] = calls.get("flush", 0) + 1
                    await flush(self)

                monkeypatch.setattr(Session, "flush", counted_flush)
                monkeypatch.setattr(sessions, "frame_packer", counting_packer)
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
        # The frames are the generic codec's, byte for byte.
        per_stage = sum(
            len(encode(message_of(kind, cycle.epoch, 1.0, 2.0, "s-000", "j-000"), "binary2"))
            for kind in sorted(BINARY_KINDS)
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


def test_json_record_projection_matches_a_json_peer():
    """An old JSON peer's hot frames carry ints where floats go."""
    body = json.dumps(
        {"kind": "metrics_reply", "epoch": 4, "stage_id": "s", "job_id": "j",
         "data_iops": 7, "metadata_iops": 0}
    ).encode()
    link, got = _link()
    link.data_received(_frame(body))
    assert got == [(("metrics_reply", 4, 7.0, 0.0), 4 + len(body))]
    assert all(type(x) is float for x in got[0][0][2:])
