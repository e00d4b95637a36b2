"""The packed encoding of the four hot kinds: golden bytes and round trips."""

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
)
from repro.live.protocol import ProtocolError, decode_body, encode

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

    def test_one_layout_per_hot_kind(self):
        assert len(_LAYOUTS) == 4
        assert {layout.kind for layout in _LAYOUTS} == BINARY_KINDS


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
            args = (1, 1.0, 1.0) if kind in ("metrics_reply", "rule") else (1,)
            assert frame_packer(kind, "s", "j")(*args)[4] == BINARY_MAGIC

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
