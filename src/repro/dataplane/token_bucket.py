"""Token-bucket rate limiter — the stage-side enforcement primitive.

Stages translate each :class:`~repro.core.rules.EnforcementRule` into a
token-bucket refill rate: an operation consumes one token; when the bucket
is empty the operation waits for the next refill. The bucket accumulates
up to ``burst`` tokens, so short bursts pass at line rate while the
sustained rate converges to the enforced limit — the classic TBF
behaviour (the paper cites Lustre's TBF NRS [4] as the intrusive
equivalent).

The implementation is *lazy*: tokens are computed from elapsed time on
demand, so idle buckets cost nothing — important with 10,000 stages. It
is also allocation-lean: ``__slots__`` instances, no per-call ``float()``
temporaries, and the infinity sentinel hoisted to a module constant, so a
steady-state acquire loop allocates nothing beyond CPython's float
free-list churn (asserted by the tracemalloc regression test).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["TokenBucket"]

_INF = float("inf")


class TokenBucket:
    """A lazily refilled token bucket.

    Parameters
    ----------
    rate:
        Sustained tokens/second. ``float('inf')`` disables limiting.
    burst:
        Bucket capacity. Defaults to one second's worth of tokens
        (never below 1 so single operations can always eventually pass).
    clock:
        Callable returning the current time (simulated or real).
    """

    __slots__ = (
        "_clock",
        "rate",
        "burst",
        "_tokens",
        "_updated_at",
        "granted",
        "delayed",
    )

    def __init__(
        self,
        rate: float,
        clock,
        burst: Optional[float] = None,
    ) -> None:
        if rate < 0:
            raise ValueError(f"negative rate: {rate}")
        self._clock = clock
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(rate, 1.0)
        if self.burst <= 0:
            raise ValueError(f"burst must be positive: {self.burst}")
        self._tokens = self.burst
        self._updated_at = float(clock())
        #: Totals for metrics reporting.
        self.granted = 0
        self.delayed = 0

    # -- internals ----------------------------------------------------------
    def _refill(self, now: float) -> None:
        if now < self._updated_at:
            raise ValueError("clock went backwards")
        if self.rate == _INF:
            self._tokens = self.burst
        else:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated_at) * self.rate
            )
        self._updated_at = now

    # -- public API -----------------------------------------------------------
    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled lazily)."""
        self._refill(self._clock())
        return self._tokens

    def set_rate(self, rate: float, burst: Optional[float] = None) -> None:
        """Apply a new enforcement rule; accumulated tokens are kept but
        clamped to the new burst size."""
        if rate < 0:
            raise ValueError(f"negative rate: {rate}")
        new_burst = float(burst) if burst is not None else max(rate, 1.0)
        if rate == self.rate and new_burst == self.burst:
            # Nothing to apply, and nothing to settle first: the lazy
            # refill composes — refilling now and again later lands on
            # the same count as refilling once, later.
            return
        if new_burst <= 0:
            raise ValueError(f"burst must be positive: {new_burst}")
        self._refill(float(self._clock()))
        self.rate = float(rate)
        self.burst = new_burst
        self._tokens = min(self._tokens, new_burst)

    #: Tolerance against float round-off: a bucket refilled for exactly the
    #: computed :meth:`delay_for` may land epsilon short of ``n``.
    _SLACK = 1e-9

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        if n <= 0:
            raise ValueError(f"token count must be positive: {n}")
        self._refill(self._clock())
        if self._tokens >= n - self._SLACK:
            self._tokens = max(self._tokens - n, 0.0)
            self.granted += 1
            return True
        self.delayed += 1
        return False

    def delay_for(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available (0 if now).

        A pure query: consumes no tokens and touches no counters (the
        ``delayed`` metric is counted where an acquisition actually
        fails, in :meth:`try_acquire`). Uses the same ``_SLACK``
        tolerance as :meth:`try_acquire`, so ``delay_for(n) == 0``
        exactly when ``try_acquire(n)`` would succeed. Callers waiting
        out the delay should then :meth:`try_acquire`. With a zero rate
        the wait is infinite.
        """
        if n <= 0:
            raise ValueError(f"token count must be positive: {n}")
        self._refill(self._clock())
        if self._tokens >= n - self._SLACK:
            return 0.0
        if self.rate == 0:
            return _INF
        return (n - self._tokens) / self.rate

