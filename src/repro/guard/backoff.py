"""Reconnect backoff with *full jitter*.

The live plane's original retry schedule was deterministic-exponential
with a small multiplicative jitter: ``base * factor**attempt`` scaled by
``uniform(1.0, 1.25)``. After a mass eviction (controller restart,
aggregator-tier restart) every stage computes the same schedule from the
same attempt counter, so the whole fleet knocks on the new controller
within the same few-millisecond windows — a thundering herd that
repeats at every rung of the exponential.

Full jitter (the AWS Architecture Blog recipe) decorrelates the fleet:
the attempt only sets the *ceiling*, and each client draws uniformly
below it. Two clients at the same attempt share a cap but almost never a
retry instant. A floor keeps a full-jitter draw from landing at ~0 s and
hot-spinning the connect loop.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["full_jitter"]

#: Fraction of the exponential cap kept as the minimum sleep; guards the
#: reconnect loop against near-zero full-jitter draws.
_FLOOR_FRACTION = 0.05


def full_jitter(
    attempt: int,
    base_s: float,
    factor: float,
    max_s: float,
    rng: Optional[random.Random] = None,
) -> float:
    """Delay before retry ``attempt`` (1-based), fully jittered.

    The exponential cap is ``min(max_s, base_s * factor**(attempt-1))``;
    the returned delay is uniform in ``[0, cap]``, clamped to the floor.
    ``rng`` defaults to the module RNG (a test passes a seeded one).
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1: {attempt}")
    if base_s <= 0 or max_s <= 0:
        raise ValueError(f"base_s/max_s must be positive: {base_s}, {max_s}")
    try:
        cap = min(max_s, base_s * factor ** (attempt - 1))
    except OverflowError:
        cap = max_s
    draw = (rng or random).uniform(0.0, cap)
    return max(draw, cap * _FLOOR_FRACTION)
