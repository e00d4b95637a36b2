"""Full-jitter backoff: bounded, floored, and decorrelated across clients."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guard import full_jitter
from repro.guard.backoff import _FLOOR_FRACTION


class TestFullJitter:
    @given(attempt=st.integers(min_value=1, max_value=40),
           base=st.floats(min_value=1e-3, max_value=1.0),
           factor=st.floats(min_value=1.0, max_value=4.0),
           cap=st.floats(min_value=0.1, max_value=30.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_delay_within_envelope(self, attempt, base, factor, cap, seed):
        rng = random.Random(seed)
        delay = full_jitter(attempt, base, factor, cap, rng=rng)
        ceiling = min(cap, base * factor ** (attempt - 1))
        assert delay <= ceiling + 1e-12
        assert delay >= ceiling * _FLOOR_FRACTION - 1e-12

    def test_huge_attempt_does_not_overflow(self):
        delay = full_jitter(10_000, 0.05, 2.0, 5.0, rng=random.Random(0))
        assert 0 < delay <= 5.0

    def test_distinct_rngs_decorrelate(self):
        # Two clients at the SAME attempt schedule with per-client RNGs:
        # their retry instants must not coincide (the herd bug).
        a = random.Random("stage-a")
        b = random.Random("stage-b")
        shared = sum(
            1 for attempt in range(1, 41)
            if abs(full_jitter(attempt, 0.05, 2.0, 2.0, rng=a)
                   - full_jitter(attempt, 0.05, 2.0, 2.0, rng=b)) < 1e-4
        )
        assert shared == 0
