"""Unit tests for the token-bucket rate limiter."""

import pytest

from repro.dataplane.token_bucket import TokenBucket


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture
def clock():
    return FakeClock()


class TestTokenBucket:
    def test_starts_full(self, clock):
        b = TokenBucket(rate=10.0, clock=clock)
        assert b.tokens == pytest.approx(10.0)

    def test_acquire_consumes(self, clock):
        b = TokenBucket(rate=10.0, clock=clock)
        assert b.try_acquire(3)
        assert b.tokens == pytest.approx(7.0)

    def test_refill_over_time(self, clock):
        b = TokenBucket(rate=10.0, clock=clock)
        for _ in range(10):
            assert b.try_acquire(1)
        assert not b.try_acquire(1)
        clock.advance(0.5)
        assert b.tokens == pytest.approx(5.0)
        assert b.try_acquire(5)

    def test_burst_caps_accumulation(self, clock):
        b = TokenBucket(rate=10.0, clock=clock, burst=10.0)
        clock.advance(100.0)
        assert b.tokens == pytest.approx(10.0)

    def test_sustained_rate_enforced(self, clock):
        """Over a long window, admitted ops/second converges to the rate."""
        b = TokenBucket(rate=100.0, clock=clock, burst=10.0)
        admitted = 0
        for _ in range(10_000):
            clock.advance(0.001)
            if b.try_acquire(1):
                admitted += 1
        # 10 seconds at 100/s plus initial burst of 10
        assert admitted == pytest.approx(1010, abs=5)

    def test_delay_for(self, clock):
        b = TokenBucket(rate=10.0, clock=clock, burst=1.0)
        assert b.try_acquire(1)
        assert b.delay_for(1) == pytest.approx(0.1)
        clock.advance(0.1)
        assert b.delay_for(1) == pytest.approx(0.0)

    def test_zero_rate_infinite_delay(self, clock):
        b = TokenBucket(rate=0.0, clock=clock, burst=1.0)
        assert b.try_acquire(1)
        assert b.delay_for(1) == float("inf")

    def test_infinite_rate_never_blocks(self, clock):
        b = TokenBucket(rate=float("inf"), clock=clock, burst=5.0)
        for _ in range(1000):
            assert b.try_acquire(1)

    def test_set_rate_clamps_tokens(self, clock):
        b = TokenBucket(rate=100.0, clock=clock)  # burst 100, full
        b.set_rate(10.0)  # new burst 10
        assert b.tokens == pytest.approx(10.0)

    def test_set_rate_keeps_partial_tokens(self, clock):
        b = TokenBucket(rate=10.0, clock=clock)
        b.try_acquire(8)  # 2 left
        b.set_rate(100.0)
        assert b.tokens == pytest.approx(2.0)

    @pytest.mark.parametrize("rate", [10.0, 0.0, float("inf")])
    def test_same_rate_set_rate_is_a_no_op(self, rate):
        """Re-applying the rate (and burst) a bucket already has — what
        every stage does to its unlimited metadata bucket every cycle —
        returns before the clock is read, and changes nothing: under a
        stepped clock, token count and ``delay_for`` track a twin that
        never saw the calls, step for step."""
        reads = []
        plain_clock, clock = FakeClock(), FakeClock()

        def counted():
            reads.append(clock.t)
            return clock.t

        plain = TokenBucket(rate=rate, clock=plain_clock, burst=8.0)
        nudged = TokenBucket(rate=rate, clock=counted, burst=8.0)
        for step, dt in enumerate([0.0, 0.013, 0.2, 0.0, 0.37, 1.9, 0.001, 5.0]):
            for c in (plain_clock, clock):
                c.advance(dt)
            n_reads = len(reads)
            nudged.set_rate(rate, burst=8.0)
            nudged.set_rate(rate, burst=8.0)
            assert len(reads) == n_reads  # no clock read, so no refill
            if step % 2:
                assert plain.try_acquire(3.0) == nudged.try_acquire(3.0)
            assert nudged.delay_for(5.0) == plain.delay_for(5.0)
            assert nudged.tokens == plain.tokens
        # A different burst, or rate, still goes through.
        nudged.set_rate(rate, burst=2.0)
        assert (nudged.burst, nudged.tokens) == (2.0, min(plain.tokens, 2.0))
        nudged.set_rate(4.0)
        assert (nudged.rate, nudged.burst) == (4.0, 4.0)

    def test_clock_backwards_rejected(self, clock):
        b = TokenBucket(rate=10.0, clock=clock)
        clock.t = -1.0
        with pytest.raises(ValueError):
            _ = b.tokens

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, clock=clock, burst=0.0)
        b = TokenBucket(rate=1.0, clock=clock)
        with pytest.raises(ValueError):
            b.try_acquire(0)
        with pytest.raises(ValueError):
            b.delay_for(-1)

    def test_counters(self, clock):
        b = TokenBucket(rate=1.0, clock=clock, burst=1.0)
        b.try_acquire(1)  # granted
        b.try_acquire(1)  # empty bucket: delayed
        assert b.granted == 1
        assert b.delayed == 1

    def test_delay_for_is_a_pure_query(self, clock):
        b = TokenBucket(rate=1.0, clock=clock, burst=1.0)
        b.try_acquire(1)
        before = b.tokens
        for _ in range(5):
            b.delay_for(1)
        assert b.delayed == 0
        assert b.tokens == pytest.approx(before)

    def test_delay_for_agrees_with_try_acquire(self, clock):
        # Refill for exactly the computed delay: try_acquire succeeds via
        # the _SLACK tolerance, so delay_for must report 0 as well.
        b = TokenBucket(rate=3.0, clock=clock, burst=1.0)
        assert b.try_acquire(1)
        delay = b.delay_for(1)
        clock.advance(delay)
        assert b.delay_for(1) == 0.0
        assert b.try_acquire(1)


class TestAllocationRegression:
    """The bucket sits in every stage's op loop — steady-state acquire
    must not allocate (beyond CPython's recycled float free-list)."""

    def test_slots_block_stray_attributes(self, clock):
        b = TokenBucket(rate=10.0, clock=clock)
        with pytest.raises(AttributeError):
            b.debug_tag = "x"

    def test_steady_state_acquire_allocates_nothing(self, clock):
        import tracemalloc

        import repro.dataplane.token_bucket as mod

        b = TokenBucket(rate=1000.0, clock=clock, burst=10.0)

        def spin(n):
            for _ in range(n):
                clock.advance(0.0005)
                b.try_acquire(1.0)
                b.delay_for(1.0)
                _ = b.tokens

        spin(2000)  # warm float free-lists and caches
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            spin(5000)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
            and stat.traceback[0].filename == mod.__file__
        )
        # Zero in practice; a small slack tolerates free-list refills.
        assert growth <= 512, f"token bucket leaked {growth} bytes"
