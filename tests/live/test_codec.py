"""The packed encoding of the per-cycle kinds: golden bytes and round trips.

CI runs this file once more under the derandomized ``ci`` hypothesis
profile (``tests/conftest.py``).
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.live.codec import (
    _LAYOUTS,
    BINARY_KINDS,
    BINARY_MAGIC,
    decode_at,
    decode_binary,
    frame_packer,
    pack_rows,
)
from repro.live.protocol import (
    MAX_FRAME,
    FrameLink,
    ProtocolError,
    decode_body,
    encode,
)

epochs = st.integers(min_value=-(2**63), max_value=2**63 - 1)
iops = st.floats(allow_nan=False, allow_infinity=False)
limits = st.floats(allow_nan=False)  # finite, or inf = unlimited
ids = st.text(max_size=64)


def pack(message):
    """The wire frame of a hot-kind message dict, through its packer."""
    kind = message["kind"]
    packer = frame_packer(kind, message.get("stage_id", ""), message.get("job_id", ""))
    if kind == "metrics_reply":
        return packer(message["epoch"], message["data_iops"], message["metadata_iops"])
    if kind == "rule":
        return packer(
            message["epoch"], message["data_iops_limit"], message["metadata_iops_limit"]
        )
    return packer(message["epoch"])


def _rule(e, s, lim, meta):
    return {
        "kind": "rule",
        "epoch": e,
        "stage_id": s,
        "data_iops_limit": lim,
        "metadata_iops_limit": meta,
    }


def hot_messages():
    """Strategy over every message shape with a packed schema."""
    return st.one_of(
        st.builds(lambda e: {"kind": "collect_req", "epoch": e}, epochs),
        st.builds(
            lambda e, s, j, d, m: {
                "kind": "metrics_reply",
                "epoch": e,
                "stage_id": s,
                "job_id": j,
                "data_iops": d,
                "metadata_iops": m,
            },
            epochs, ids, ids, iops, iops,
        ),
        st.builds(_rule, epochs, ids, iops, limits),
        st.builds(
            lambda e, s: {"kind": "rule_ack", "epoch": e, "stage_id": s},
            epochs, ids,
        ),
    )


#: Frames captured from the ``binary2`` packers of the last commit that
#: still negotiated codecs (PR 18): the one encoding is that one, byte
#: for byte. ``(kind, ids, pack arguments, frame, record)``.
_GOLDEN = [
    (
        "collect_req", (), (7,),
        "0000000ab1010000000000000007",
        ("collect_req", 7, None, None),
    ),
    (
        "metrics_reply", ("stage-00042", "job-00007"), (7, 1234.5, 67.25),
        "00000032b102000000000000000740934a00000000004050d00000000000"
        "000b73746167652d303030343200096a6f622d3030303037",
        ("metrics_reply", 7, 1234.5, 67.25),
    ),
    (
        "rule", ("stage-00042",), (7, 812.5, 150.0),
        "00000027b105000000000000000740896400000000004062c00000000000"
        "000b73746167652d3030303432",
        ("rule", 7, 812.5, 150.0),
    ),
    (
        # No metadata limit (an undifferentiated policy): packed as inf.
        "rule", ("stage-00042",), (7, 812.5, None),
        "00000027b105000000000000000740896400000000007ff0000000000000"
        "000b73746167652d3030303432",
        ("rule", 7, 812.5, float("inf")),
    ),
    (
        "rule_ack", ("stage-00042",), (7,),
        "00000017b1040000000000000007000b73746167652d3030303432",
        ("rule_ack", 7, None, None),
    ),
]


#: The trunk's two per-partition kinds, captured when they replaced
#: their JSON bodies: ``(kind, pack_rows arguments, frame, record)``, the
#: record's vectors as lists.
_NAN = float("nan")
_GOLDEN_ROWS = [
    (
        "agg_metrics_reply", (7, 3, [1234.5, 0.0], [67.25, 2.0], 1),
        "00000036b10600000000000000070000000300000001000000024093"
        "4a000000000000000000000000004050d000000000004000000000000000",
        ("agg_metrics_reply", 7, 3, 1, [1234.5, 0.0], [67.25, 2.0]),
    ),
    (
        # A differentiated policy, second row left out (changed-only).
        "rule_batch", (7, 3, [812.5, _NAN], [150.0, _NAN]),
        "00000036b10700000000000000070000000300000001000000024089"
        "6400000000007ff80000000000004062c000000000007ff8000000000000",
        ("rule_batch", 7, 3, 1, [812.5, _NAN], [150.0, _NAN]),
    ),
]


def _plain(record):
    """A record with its vectors as lists of ``repr`` (``nan == nan``)."""
    return tuple(
        [repr(v) for v in field.tolist()] if isinstance(field, np.ndarray) else field
        for field in record
    )


class TestGoldenFrames:
    @pytest.mark.parametrize(
        "kind,ids,args,frame_hex,record",
        _GOLDEN,
        ids=["collect_req", "metrics_reply", "rule", "rule-no-metadata", "rule_ack"],
    )
    def test_packer_reproduces_the_golden_bytes(
        self, kind, ids, args, frame_hex, record
    ):
        frame = bytes.fromhex(frame_hex)
        assert frame_packer(kind, *ids)(*args) == frame
        assert decode_at(frame, 4, len(frame)) == record

    @pytest.mark.parametrize(
        "kind,args,frame_hex,record",
        _GOLDEN_ROWS,
        ids=["agg_metrics_reply", "rule_batch"],
    )
    def test_pack_rows_reproduces_the_golden_bytes(
        self, kind, args, frame_hex, record
    ):
        frame = bytes.fromhex(frame_hex)
        assert pack_rows(kind, *args) == frame
        assert _plain(decode_at(frame, 4, len(frame))) == _plain(
            tuple(np.array(f) if isinstance(f, list) else f for f in record)
        )

    def test_one_layout_per_hot_kind(self):
        assert len(_LAYOUTS) == 6
        assert {layout.kind for layout in _LAYOUTS} == BINARY_KINDS
        assert len({layout.tag for layout in _LAYOUTS}) == 6


class TestBinaryRoundTrip:
    @given(hot_messages())
    @example(_rule(3, "s", 100.0, float("inf")))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_is_identity(self, message):
        frame = pack(message)
        assert frame[4] == BINARY_MAGIC
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4
        assert decode_binary(frame[4:]) == message
        assert decode_body(frame[4:]) == message

    @given(hot_messages(), st.integers(min_value=0, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_truncation_never_misdecodes(self, message, cut):
        """A truncated binary body raises — it never decodes silently."""
        body = pack(message)[4:]
        if cut >= len(body):
            return
        truncated = body[: len(body) - 1 - cut]
        if not truncated:
            return
        try:
            decoded = decode_binary(truncated)
        except ValueError:
            return
        # Only a prefix that is itself a complete encoding may decode;
        # string fields make that possible only when the cut lands
        # beyond every packed field, which cannot happen here because
        # every schema ends with a length-prefixed string or fixed tail.
        assert decoded != message

    @given(st.integers(min_value=0xFFFF + 1, max_value=0xFFFF + 4096))
    @settings(max_examples=20, deadline=None)
    def test_oversized_id_is_refused(self, length):
        """An id beyond the >H length prefix has no frame at all (a
        listener refuses it at registration, see ``hello_error``)."""
        with pytest.raises(ValueError, match="too long"):
            frame_packer("rule_ack", "s" * length)
        with pytest.raises(ValueError, match="too long"):
            frame_packer("metrics_reply", "s", "j" * length)

    def test_multibyte_id_just_over_limit_is_refused(self):
        # 21846 snowmen encode to 65538 UTF-8 bytes: over the cap even
        # though the character count is far below it.
        with pytest.raises(ValueError, match="too long"):
            frame_packer("rule_ack", "☃" * 21846)

    def test_id_at_exact_limit_still_packs(self):
        message = {"kind": "rule_ack", "epoch": 1, "stage_id": "s" * 0xFFFF}
        frame = pack(message)
        assert frame[4] == BINARY_MAGIC
        assert decode_binary(frame[4:]) == message

    def test_unsupported_kind_falls_back_to_json_at_frame_level(self):
        frame = encode({"kind": "register", "stage_id": "s"})
        assert frame[4] == ord("{")
        assert decode_body(frame[4:]) == {"kind": "register", "stage_id": "s"}

    def test_hot_kinds_have_no_json_form(self):
        """Neither way: ``encode`` refuses to build one, ``decode_body``
        to read one."""
        ack = {"kind": "rule_ack", "epoch": 1, "stage_id": "s"}
        with pytest.raises(ProtocolError, match="packed"):
            encode(ack)
        with pytest.raises(ProtocolError, match="JSON body"):
            decode_body(b'{"kind":"rule_ack","epoch":1,"stage_id":"s"}')

    def test_magic_byte_never_starts_json(self):
        assert BINARY_MAGIC != ord("{")
        for kind in sorted(BINARY_KINDS):
            if kind in ("agg_metrics_reply", "rule_batch"):
                frame = pack_rows(kind, 1, 0, [1.0], [1.0])
            else:
                args = (1, 1.0, 1.0) if kind in ("metrics_reply", "rule") else (1,)
                frame = frame_packer(kind, "s", "j")(*args)
            assert frame[4] == BINARY_MAGIC

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown binary frame tag"):
            decode_binary(bytes([BINARY_MAGIC, 250]) + b"\x00" * 8)

    def test_retired_single_limit_rule_tag_rejected(self):
        body = bytearray(pack(_rule(1, "s", 10.0, 20.0))[4:])
        body[1] = 3
        with pytest.raises(ValueError, match="unknown binary frame tag: 3"):
            decode_binary(bytes(body))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="bad binary magic"):
            decode_binary(b"\xb2\x01" + b"\x00" * 8)

    def test_decode_body_wraps_binary_errors(self):
        with pytest.raises(ProtocolError, match="undecodable binary frame"):
            decode_body(bytes([BINARY_MAGIC, 250]))


u32 = st.integers(min_value=0, max_value=2**32 - 1)
values = st.floats(allow_nan=True, allow_infinity=True)  # any bit pattern's value


@st.composite
def row_frames(draw):
    """``(kind, epoch, generation, word, data, metadata | None)``."""
    kind = draw(st.sampled_from(["agg_metrics_reply", "rule_batch"]))
    n = draw(st.integers(min_value=0, max_value=40))
    data = draw(st.lists(values, min_size=n, max_size=n))
    metadata = draw(st.lists(values, min_size=n, max_size=n))
    if kind == "rule_batch":
        if draw(st.booleans()):
            metadata = None
        word = 0 if metadata is None else 1
    else:
        word = draw(u32)
    return kind, draw(epochs), draw(u32), word, data, metadata


def pack_row_frame(frame):
    kind, epoch, generation, word, data, metadata = frame
    return pack_rows(kind, epoch, generation, data, metadata, n_missing=word)


def _expected(frame):
    return _plain(
        tuple(np.array(f, dtype=float) if isinstance(f, list) else f for f in frame)
    )


class TestRowFrames:
    """``agg_metrics_reply`` / ``rule_batch``: header + ``>f8`` vectors."""

    @given(row_frames())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_is_identity(self, frame):
        wire = pack_row_frame(frame)
        kind, epoch, generation, word, data, metadata = frame
        assert wire[4] == BINARY_MAGIC
        assert int.from_bytes(wire[:4], "big") == len(wire) - 4
        record = decode_at(wire, 4, len(wire))
        assert _plain(record) == _expected(frame)
        # The dict view lists what the record views.
        message = decode_body(wire[4:])
        assert (message["kind"], message["epoch"], message["generation"]) == (
            kind, epoch, generation,
        )
        names = (
            ("data_demands", "metadata_demands")
            if kind == "agg_metrics_reply"
            else ("data_iops_limits", "metadata_iops_limits")
        )
        assert [repr(v) for v in message[names[0]]] == [repr(v) for v in data]
        if metadata is None:
            assert names[1] not in message
        else:
            assert [repr(v) for v in message[names[1]]] == [repr(v) for v in metadata]
        if kind == "agg_metrics_reply":
            assert message["n_missing"] == word

    @given(row_frames())
    @settings(max_examples=50, deadline=None)
    def test_vectors_are_views_that_outlive_the_receive_buffer(self, frame):
        """Read-only views of one private copy: the buffer a record was
        parsed from may be overwritten (the shared receive buffer is, by
        the next read) while the record is still held."""
        buffer = bytearray(pack_row_frame(frame))
        record = decode_at(buffer, 4, len(buffer))
        buffer[:] = b"\xff" * len(buffer)
        assert _plain(record) == _expected(frame)
        for vector in record[4:]:
            if vector is not None:
                assert not vector.flags.writeable
                assert vector.base is not None  # a view, not a conversion

    @given(row_frames(), st.integers(min_value=1, max_value=400))
    @settings(max_examples=200, deadline=None)
    def test_truncation_never_misdecodes(self, frame, cut):
        """Any proper prefix of the body is refused: ``count`` is checked
        against the bytes that are there."""
        body = pack_row_frame(frame)[4:]
        cut = min(cut, len(body) - 1)
        with pytest.raises(ValueError):
            decode_at(body, 0, len(body) - cut)
        with pytest.raises(ProtocolError):
            decode_body(body[: len(body) - cut])

    @given(row_frames(), st.binary(min_size=1, max_size=24))
    @settings(max_examples=100, deadline=None)
    def test_trailing_bytes_are_refused(self, frame, extra):
        body = pack_row_frame(frame)[4:] + extra
        with pytest.raises(ValueError, match="do not match count"):
            decode_at(body, 0, len(body))

    @given(row_frames(), st.integers(min_value=-3, max_value=3).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_count_must_match_the_vectors(self, frame, off):
        """A ``count`` field that disagrees with the vector bytes behind
        it — short by one, long by one — is refused, never clipped."""
        body = bytearray(pack_row_frame(frame)[4:])
        (count,) = struct.unpack_from(">I", body, 18)
        if count + off < 0:
            return
        struct.pack_into(">I", body, 18, count + off)
        with pytest.raises(ValueError, match="do not match count"):
            decode_at(body, 0, len(body))

    @pytest.mark.parametrize("count", [MAX_FRAME // 8 + 1, 2**32 - 1])
    def test_count_past_max_frame_is_refused_before_it_sizes_anything(self, count):
        """A header claiming more values than any frame can hold, with
        no (or some) bytes behind it: refused from the arithmetic alone,
        and a link that reads it is aborted."""
        body = struct.pack(">BBqIII", BINARY_MAGIC, 6, 1, 0, 0, count)
        for tail in (b"", b"\x00" * 64):
            with pytest.raises(ValueError, match="do not match count"):
                decode_at(body + tail, 0, len(body) + len(tail))
        link = FrameLink(lambda message, nbytes: pytest.fail("delivered"))
        lost = []
        link.on_lost = lost.append

        class _Transport:
            def abort(self):
                link.connection_lost(None)

        link.connection_made(_Transport())
        link.data_received(struct.pack(">I", len(body)) + body)
        assert lost == [None]

    def test_unknown_flag_bits_are_refused(self):
        body = bytearray(pack_rows("rule_batch", 1, 0, [1.0], [2.0])[4:])
        struct.pack_into(">I", body, 14, 3)
        with pytest.raises(ValueError, match="unknown rule_batch flags"):
            decode_at(body, 0, len(body))

    def test_header_alone_is_an_empty_partition(self):
        record = decode_at(pack_rows("agg_metrics_reply", 5, 2, [], [])[4:], 0, 22)
        assert record[:4] == ("agg_metrics_reply", 5, 2, 0)
        assert len(record[4]) == len(record[5]) == 0

    def test_pack_rows_refuses_what_has_no_layout(self):
        with pytest.raises(ValueError, match="not a per-partition"):
            pack_rows("rule", 1, 0, [1.0])
        with pytest.raises(ValueError, match="not a per-stage"):
            frame_packer("rule_batch")
        with pytest.raises(ValueError, match="both vectors"):
            pack_rows("agg_metrics_reply", 1, 0, [1.0])
        with pytest.raises(ValueError, match="one length"):
            pack_rows("rule_batch", 1, 0, [1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="one length"):
            pack_rows("rule_batch", 1, 0, [[1.0, 2.0]])

    def test_row_kinds_have_no_json_form(self):
        for kind in ("agg_metrics_reply", "rule_batch"):
            with pytest.raises(ProtocolError, match="packed"):
                encode({"kind": kind, "epoch": 1})
            with pytest.raises(ProtocolError, match="JSON body"):
                decode_body(b'{"kind":"%s","epoch":1}' % kind.encode())

    def test_nan_survives_as_nan(self):
        record = decode_at(pack_rows("rule_batch", 1, 0, [_NAN, 2.0])[4:], 0, 38)
        assert math.isnan(record[4][0]) and record[4][1] == 2.0
        assert record[5] is None


class TestZeroCopyDecode:
    """The decode path must read from a memoryview without slicing
    copies: steady-state decoding allocates nothing inside the codec
    module beyond the returned dict and its (unavoidable) str fields."""

    def test_decode_accepts_memoryview(self):
        msg = {
            "kind": "metrics_reply",
            "epoch": 7,
            "stage_id": "stage-00042",
            "job_id": "job-00042",
            "data_iops": 1234.5,
            "metadata_iops": 67.8,
        }
        body = pack(msg)[4:]
        assert decode_binary(memoryview(body)) == decode_binary(body) == msg

    def test_decode_accepts_readonly_and_sliced_views(self):
        msg = {"kind": "rule_ack", "epoch": 3, "stage_id": "stage-00001"}
        view = memoryview(pack(msg))[4:]  # the body behind its header
        assert decode_binary(view) == msg

    def test_decode_from_memoryview_no_extra_allocations(self):
        import tracemalloc

        import repro.live.codec as mod

        msg = {
            "kind": "metrics_reply",
            "epoch": 9,
            "stage_id": "stage-09999",
            "job_id": "job-09999",
            "data_iops": 500.0,
            "metadata_iops": 25.0,
        }
        view = memoryview(pack(msg)[4:])

        def spin(n):
            for _ in range(n):
                decode_binary(view)

        spin(200)  # warm free-lists and interned machinery
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            spin(500)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
            and stat.traceback[0].filename == mod.__file__
        )
        # The returned dicts die each iteration; any *retained* growth
        # means the decode path started materializing intermediate
        # bytes copies again.
        assert growth <= 512, f"decode path leaked {growth} bytes"
