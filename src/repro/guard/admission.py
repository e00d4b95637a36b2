"""Admission control: token buckets, concurrency caps, prioritized shed.

:class:`RateLimiter` is a lazy token bucket (tokens accrue on demand
from a monotonic clock — no refill task; the stage-side
:class:`~repro.dataplane.token_bucket.TokenBucket` behind a lock),
:class:`ConcurrencyLimiter` a plain in-flight counter with a ceiling,
and :class:`AdmissionGate` the composition the service tier actually
mounts: per-tenant and global buckets plus a concurrency cap, with
*prioritized* shedding —

==========  ==============================================================
Priority    Shed policy
==========  ==============================================================
CRITICAL    Never shed (``/healthz`` must answer during the flood).
READ        Shed only when the plane is truly full (concurrency ceiling)
            or the global bucket is dry.
MUTATION    Shed first: rejected above ``mutation_headroom`` of the
            concurrency ceiling and metered by the per-tenant bucket, so
            one noisy tenant's registration storm cannot starve reads.
==========  ==============================================================

A rejected request gets a :class:`Admission` verdict carrying the HTTP
status to return (``429`` when a bucket is dry — with a ``retry_after_s``
hint for the ``Retry-After`` header — or ``503`` when concurrency is
exhausted). Shed decisions are counted per ``(priority, reason)`` both
on the gate and, when a registry is wired, as
``repro_admission_requests_total`` / ``repro_admission_shed_total``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.dataplane.token_bucket import TokenBucket

__all__ = [
    "Admission",
    "AdmissionGate",
    "ConcurrencyLimiter",
    "Priority",
    "RateLimiter",
]

class RateLimiter:
    """Thread-safe admission face of a lazily refilled token bucket.

    ``rate`` tokens accrue per second up to ``burst`` (default: one
    second's worth, floored at 1 so a sub-1/s limiter can still admit a
    whole request). :meth:`try_acquire` never blocks — callers shed or
    retry after :meth:`retry_after` seconds.

    The arithmetic is :class:`repro.dataplane.token_bucket.TokenBucket`'s
    (the stage-side enforcement primitive); this class makes it an
    *admission* primitive: wall-clock by default, a positive rate only,
    and a lock around every read-modify-write.
    """

    __slots__ = ("_bucket", "_lock")

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        self._bucket = TokenBucket(rate, clock, burst)
        # The service tier is single-threaded asyncio, but acquire is a
        # read-modify-write — the lock keeps the bucket sound for
        # threaded callers (the concurrency test in the guard suite) too.
        self._lock = threading.Lock()

    @property
    def granted(self) -> int:
        """Acquisitions granted so far (monotone)."""
        return self._bucket.granted

    @property
    def rejected(self) -> int:
        """Acquisitions refused so far (monotone)."""
        return self._bucket.delayed

    @property
    def tokens(self) -> float:
        """Tokens available right now (refills as a side effect)."""
        with self._lock:
            return self._bucket.tokens

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        with self._lock:
            return self._bucket.try_acquire(n)

    def retry_after(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will have accrued (0 = now).

        A pure query: no tokens are taken, so it is safe to call after a
        failed :meth:`try_acquire` to fill a ``Retry-After`` header.
        """
        with self._lock:
            return self._bucket.delay_for(n)


class ConcurrencyLimiter:
    """In-flight request ceiling; acquire/release, never blocks."""

    __slots__ = ("limit", "in_flight", "admitted", "rejected", "high_water")

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1: {limit}")
        self.limit = int(limit)
        self.in_flight = 0
        self.admitted = 0
        self.rejected = 0
        #: Peak concurrent admissions observed (saturation evidence).
        self.high_water = 0

    def try_acquire(self) -> bool:
        if self.in_flight >= self.limit:
            self.rejected += 1
            return False
        self.in_flight += 1
        self.admitted += 1
        if self.in_flight > self.high_water:
            self.high_water = self.in_flight
        return True

    def release(self) -> None:
        if self.in_flight <= 0:
            raise RuntimeError("release() without a matching acquire")
        self.in_flight -= 1


class Priority:
    """Request priority classes, in shed order (higher sheds first)."""

    CRITICAL = 0  # health/liveness: never shed
    READ = 1      # state queries: shed late
    MUTATION = 2  # writes: shed first

    NAMES = {CRITICAL: "critical", READ: "read", MUTATION: "mutation"}


@dataclass(frozen=True)
class Admission:
    """One admission verdict (and, when shed, how to say no)."""

    admitted: bool
    status: int = 200
    retry_after_s: float = 0.0
    reason: str = ""


_ADMITTED = Admission(True)


class AdmissionGate:
    """The service tier's front-door gate: rate + concurrency + priority.

    One gate guards one server. Callers classify each request into a
    :class:`Priority`, call :meth:`admit` (passing the tenant id when
    one is known), and — for every *admitted* request — call
    :meth:`release` when handling finishes, typically via ``try/finally``.

    Per-tenant buckets are created lazily and capped at ``max_tenants``
    tracked ids; tenants beyond the cap share one overflow bucket, so an
    adversary minting tenant ids cannot grow gate memory without bound.
    """

    def __init__(
        self,
        rate: float = 200.0,
        burst: Optional[float] = None,
        tenant_rate: Optional[float] = None,
        tenant_burst: Optional[float] = None,
        max_concurrency: int = 64,
        mutation_headroom: float = 0.5,
        max_tenants: int = 1024,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ) -> None:
        if not 0.0 < mutation_headroom <= 1.0:
            raise ValueError(
                f"mutation_headroom must be in (0, 1]: {mutation_headroom}"
            )
        if max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1: {max_tenants}")
        self._clock = clock
        self.global_bucket = RateLimiter(rate, burst, clock=clock)
        #: Per-tenant mutation budget; defaults to a quarter of the
        #: global rate so no single tenant can drain the shared bucket.
        self.tenant_rate = (
            float(tenant_rate) if tenant_rate is not None else max(rate / 4.0, 1.0)
        )
        self.tenant_burst = tenant_burst
        self.concurrency = ConcurrencyLimiter(max_concurrency)
        #: Mutations shed once in-flight exceeds this many slots, keeping
        #: headroom for reads and health checks under saturation.
        self.mutation_slots = max(1, int(max_concurrency * mutation_headroom))
        self.max_tenants = int(max_tenants)
        self._tenant_buckets: Dict[str, RateLimiter] = {}
        self._overflow_bucket: Optional[RateLimiter] = None
        #: Monotone counters: admissions and sheds by (priority, reason).
        self.admitted_total = 0
        self.shed: Dict[str, int] = {}
        self._metrics = metrics
        self._m_admitted = None
        if metrics is not None:
            self._m_admitted = metrics.counter(
                "repro_admission_requests_total", "requests admitted by the gate"
            )

    # -- internals -----------------------------------------------------------
    def _tenant_bucket(self, tenant: str) -> RateLimiter:
        bucket = self._tenant_buckets.get(tenant)
        if bucket is not None:
            return bucket
        if len(self._tenant_buckets) >= self.max_tenants:
            if self._overflow_bucket is None:
                self._overflow_bucket = RateLimiter(
                    self.tenant_rate, self.tenant_burst, clock=self._clock
                )
            return self._overflow_bucket
        bucket = RateLimiter(self.tenant_rate, self.tenant_burst, clock=self._clock)
        self._tenant_buckets[tenant] = bucket
        return bucket

    def _shed(
        self, priority: int, reason: str, status: int, retry_after_s: float
    ) -> Admission:
        key = f"{Priority.NAMES.get(priority, str(priority))}:{reason}"
        self.shed[key] = self.shed.get(key, 0) + 1
        if self._metrics is not None:
            self._metrics.counter(
                "repro_admission_shed_total",
                "requests shed by the admission gate",
                priority=Priority.NAMES.get(priority, str(priority)),
                reason=reason,
            ).inc()
        return Admission(False, status, retry_after_s, reason)

    # -- the gate ------------------------------------------------------------
    def admit(self, priority: int, tenant: Optional[str] = None) -> Admission:
        """Admit or shed one request; admitted requests must release()."""
        if priority == Priority.CRITICAL:
            # Liveness never sheds — but it still occupies a slot so the
            # in-flight gauge reflects reality.
            self.concurrency.in_flight += 1
            self.concurrency.admitted += 1
            self.concurrency.high_water = max(
                self.concurrency.high_water, self.concurrency.in_flight
            )
            self._count_admit()
            return _ADMITTED
        if priority == Priority.MUTATION:
            if self.concurrency.in_flight >= self.mutation_slots:
                return self._shed(priority, "concurrency", 503, 1.0)
            if tenant is not None:
                bucket = self._tenant_bucket(tenant)
                if not bucket.try_acquire():
                    return self._shed(
                        priority, "tenant-rate", 429, bucket.retry_after()
                    )
            if not self.global_bucket.try_acquire():
                return self._shed(
                    priority, "rate", 429, self.global_bucket.retry_after()
                )
            if not self.concurrency.try_acquire():
                return self._shed(priority, "concurrency", 503, 1.0)
            self._count_admit()
            return _ADMITTED
        # READ: global bucket + full concurrency ceiling only.
        if not self.global_bucket.try_acquire():
            return self._shed(
                priority, "rate", 429, self.global_bucket.retry_after()
            )
        if not self.concurrency.try_acquire():
            return self._shed(priority, "concurrency", 503, 1.0)
        self._count_admit()
        return _ADMITTED

    def _count_admit(self) -> None:
        self.admitted_total += 1
        if self._m_admitted is not None:
            self._m_admitted.inc()

    def release(self) -> None:
        """Return the concurrency slot of one *admitted* request."""
        self.concurrency.release()

    @property
    def shed_total(self) -> int:
        """Requests shed for any reason (monotone)."""
        return sum(self.shed.values())
