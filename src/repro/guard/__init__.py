"""Overload protection: admission, backoff, shedding, degradation.

The defense layer between the control plane and a hostile load profile
(noisy neighbors, metadata storms, demand liars — the PADLL motivation
workloads). Four primitive families, each wired through a different
layer of the plane:

* :mod:`repro.guard.admission` — token-bucket rate limiting plus a
  concurrency cap, composed into the service tier's
  :class:`~repro.guard.admission.AdmissionGate` (prioritized shedding:
  health checks never shed, reads shed late, mutations shed first).
* :mod:`repro.guard.backoff` — the full-jitter reconnect delay that
  keeps a mass-evicted fleet of stages from retrying in lockstep.
* :mod:`repro.guard.shed` — :class:`~repro.guard.shed.BoundedOutbox`,
  the per-session outbound queue with a byte high-water mark and a
  shed-oldest-sheddable policy (rule frames are safe to shed because
  rule epochs supersede; phase-pacing frames are not).
* :mod:`repro.guard.degradation` / :mod:`repro.guard.trust` — the
  control brain's graceful-degradation ladder (cached demand → stretched
  cycle interval → changed-only enforcement, with hysteresis) and the
  demand clamp that enforces PSFA's "no false allocation" against
  stages that lie about their demand.

Everything here is stdlib-only, clock-injectable, and allocation-lean —
these objects sit on admission and cycle hot paths.
"""

from repro.guard.admission import (
    Admission,
    AdmissionGate,
    ConcurrencyLimiter,
    Priority,
    RateLimiter,
)
from repro.guard.backoff import full_jitter
from repro.guard.degradation import DegradationLadder
from repro.guard.shed import BoundedOutbox
from repro.guard.trust import DemandClamp

__all__ = [
    "Admission",
    "AdmissionGate",
    "BoundedOutbox",
    "ConcurrencyLimiter",
    "DegradationLadder",
    "DemandClamp",
    "Priority",
    "RateLimiter",
    "full_jitter",
]
