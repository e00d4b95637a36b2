"""Tests for the live asyncio control plane (protocol + end-to-end)."""

import asyncio

import pytest

from repro.core.policies import QoSPolicy
from repro.live.codec import frame_packer
from repro.live.harness import run_live_flat
from repro.live.protocol import MAX_FRAME, ProtocolError, decode_body, encode


class TestProtocol:
    def test_roundtrip(self):
        frame = encode({"kind": "agg_collect_req", "epoch": 3})
        body = frame[4:]
        assert decode_body(body) == {"kind": "agg_collect_req", "epoch": 3}

    def test_length_prefix_big_endian(self):
        frame = encode({"kind": "x"})
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    def test_kind_required(self):
        with pytest.raises(ProtocolError):
            encode({"epoch": 1})

    def test_undecodable_body_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b"\xff\xfe not json")

    def test_non_dict_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b"[1,2,3]")

    def test_streaming_read(self):
        """read_message recovers messages split across arbitrary chunks."""

        async def scenario():
            reader = asyncio.StreamReader()
            frame = frame_packer("rule", "s")(2, 10.0, None) + frame_packer(
                "rule_ack", "s"
            )(2)
            # Feed byte by byte to stress the framing.
            for i in range(0, len(frame), 3):
                reader.feed_data(frame[i : i + 3])
            reader.feed_eof()
            from tests.live.raw_peer import read_message

            m1 = await read_message(reader)
            m2 = await read_message(reader)
            return m1, m2

        m1, m2 = asyncio.run(scenario())
        assert m1["kind"] == "rule" and m2["kind"] == "rule_ack"


class TestLiveCluster:
    def test_end_to_end_cycles(self):
        result = run_live_flat(n_stages=20, n_cycles=8)
        stats = result.stats(warmup=2)
        assert stats.n_cycles == 6
        assert stats.mean_ms > 0
        bd = stats.breakdown()
        assert bd.collect_ms > 0 and bd.compute_ms > 0 and bd.enforce_ms > 0

    def test_every_stage_gets_every_rule(self):
        result = run_live_flat(n_stages=10, n_cycles=5)
        assert result.rules_applied_total == 50
        assert result.rules_stale_total == 0

    def test_psfa_allocations_enforced_over_tcp(self):
        # Capacity below total demand: every stage's limit must reflect a
        # real PSFA split of 600 IOPS over 10 identical stages.
        policy = QoSPolicy(pfs_capacity_iops=600.0)
        result = run_live_flat(n_stages=10, n_cycles=4, policy=policy)
        assert result.rules_applied_total == 40

    def test_latency_scales_with_stage_count(self):
        """What a cycle's latency is made of grows with the stage count:
        one collect and one enforce round trip per stage, counted from
        the per-session RPC spans a traced run records. Wall-clock means
        are not compared: at 5 and 60 stages they differ by less than
        another process's load moves them. Margin: 60 stages must make
        at least 10x the round trips per cycle of 5 (every stage
        answering, it is exactly 12x)."""

        def round_trips_per_cycle(n_stages):
            result = run_live_flat(n_stages=n_stages, n_cycles=4, observe=True)
            rpcs = [s for s in result.spans if s.name in ("collect_rpc", "enforce_rpc")]
            return len(rpcs) / len(result.cycles)

        small = round_trips_per_cycle(5)
        large = round_trips_per_cycle(60)
        assert small == 2 * 5
        assert large >= 10 * small

    def test_validation(self):
        with pytest.raises(ValueError):
            run_live_flat(n_stages=0)
        with pytest.raises(ValueError):
            run_live_flat(n_stages=1, n_cycles=0)
