"""Property-based tests for the live wire protocol and baseline algorithms."""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.algorithms.baselines import (
    MaxMinFair,
    NaiveProportional,
    StaticPartition,
    UniformShare,
)
from repro.live.protocol import ProtocolError, decode_body, encode

# JSON-representable payload values the control protocol actually uses.
json_scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
    st.booleans(),
    st.none(),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.dictionaries(st.text(max_size=10), children, max_size=8),
    ),
    max_leaves=20,
)
messages = st.dictionaries(st.text(min_size=1, max_size=16), json_values, max_size=8).map(
    lambda d: {**d, "kind": "test"}
)


class TestProtocolProperties:
    @given(messages)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_identity(self, message):
        frame = encode(message)
        assert decode_body(frame[4:]) == message

    @given(messages)
    @settings(max_examples=100, deadline=None)
    def test_length_prefix_correct(self, message):
        frame = encode(message)
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    @given(st.lists(messages, min_size=1, max_size=10), st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_stream_reassembly_at_any_chunking(self, msgs, chunk):
        """A concatenated stream decodes identically under any chunking."""

        async def scenario():
            from tests.live.raw_peer import read_message

            reader = asyncio.StreamReader()
            blob = b"".join(encode(m) for m in msgs)
            for i in range(0, len(blob), chunk):
                reader.feed_data(blob[i : i + chunk])
            reader.feed_eof()
            return [await read_message(reader) for _ in msgs]

        assert asyncio.run(scenario()) == msgs

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_garbage_never_decodes_silently(self, blob):
        """Random bytes either raise ProtocolError or decode to a dict
        with a 'kind' key — never to something the dispatcher would
        misinterpret."""
        try:
            message = decode_body(blob)
        except ProtocolError:
            return
        assert isinstance(message, dict) and "kind" in message


BASELINES = [StaticPartition(), UniformShare(), NaiveProportional(), MaxMinFair()]


def dwc():
    return st.integers(1, 32).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=st.floats(0.0, 1e4, allow_nan=False)),
            arrays(np.float64, n, elements=st.floats(0.1, 8.0, allow_nan=False)),
            st.floats(1.0, 1e5, allow_nan=False),
        )
    )


class TestBaselineProperties:
    @given(dwc(), st.sampled_from(range(len(BASELINES))))
    @settings(max_examples=150, deadline=None)
    def test_capacity_and_nonnegativity(self, args, algo_idx):
        d, w, cap = args
        res = BASELINES[algo_idx].allocate(d, w, cap)
        assert res.total_allocated <= cap * (1 + 1e-9) + 1e-6
        assert np.all(res.allocations >= -1e-12)

    @given(dwc())
    @settings(max_examples=100, deadline=None)
    def test_static_partition_demand_independent(self, args):
        d, w, cap = args
        a1 = StaticPartition().allocate(d, w, cap).allocations
        a2 = StaticPartition().allocate(d * 0 + 1.0, w, cap).allocations
        assert np.allclose(a1, a2)

    @given(dwc())
    @settings(max_examples=100, deadline=None)
    def test_uniform_equal_among_active(self, args):
        d, w, cap = args
        res = UniformShare().allocate(d, w, cap)
        active = res.allocations[d > 0]
        if active.size:
            assert np.allclose(active, active[0])

    @given(dwc())
    @settings(max_examples=100, deadline=None)
    def test_maxmin_never_exceeds_demand(self, args):
        d, w, cap = args
        res = MaxMinFair().allocate(d, w, cap)
        assert np.all(res.allocations <= d + 1e-6)
